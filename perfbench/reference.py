"""Independent references for the benchmark's exactness gate.

Nothing here imports ``cubepaths``: the distances, canonical triples and
path counts below are the paper's direct formulas written out again, so a
faulty kernel cannot agree with them by sharing code.  Counts too large to
recompute exactly are compared modulo two fixed 61-bit primes, using
factorial and inverse-factorial tables.
"""

from __future__ import annotations

import csv
import io
import json
from itertools import permutations, product
from math import factorial

# 2**61 - 1 and 2**61 - 31, both prime (the self-test re-proves it)
PRIMES = (2305843009213693951, 2305843009213693921)

STEP_CAP = {6: 1, 18: 2, 26: 3}
COLUMNS = ["i", "j", "k", "distance", "count"]


def canonical(dx: int, dy: int, dz: int) -> tuple[int, int, int]:
    """Magnitudes sorted descending: the symmetry-reduced offset."""
    i, j, k = sorted((abs(dx), abs(dy), abs(dz)), reverse=True)
    return (i, j, k)


def distance(n: int, dx: int, dy: int, dz: int) -> int:
    """Digital distance from the origin: L1, the N18 half-sum rule, L-inf."""
    ax, ay, az = abs(dx), abs(dy), abs(dz)
    if n == 6:
        return ax + ay + az
    if n == 18:
        return max(ax, ay, az, (ax + ay + az + 1) // 2)
    return max(ax, ay, az)


def n18_cases(i: int, j: int, k: int) -> tuple[str, ...]:
    """Which N18 formulas apply to a canonical triple: max, half or both."""
    cases = ()
    if i >= j + k:
        cases += ("max",)
    if i <= j + k + 1:
        cases += ("half",)
    return cases


class _Tables:
    """n! and 1/n! modulo one prime, grown on demand."""

    def __init__(self, p: int) -> None:
        self.p = p
        self.fact = [1]
        self.inv = [1]

    def grow(self, n: int) -> None:
        p, fact = self.p, self.fact
        old = len(fact)
        if n < old:
            return
        for m in range(old, n + 1):
            fact.append(fact[-1] * m % p)
        inv = [0] * (n + 1)
        inv[n] = pow(fact[n], p - 2, p)
        for m in range(n, old, -1):
            inv[m - 1] = inv[m] * m % p
        inv[:old] = self.inv
        self.inv = inv


class ModularCounts:
    """The direct sums of the paper, evaluated modulo each prime of PRIMES."""

    def __init__(self) -> None:
        self._tables = [_Tables(p) for p in PRIMES]
        self._known: dict[tuple[int, int, int, int], tuple[int, ...]] = {}

    def residues(self, n: int, i: int, j: int, k: int) -> tuple[int, ...]:
        """Count of shortest paths to canonical (i, j, k), modulo each prime.

        n is 6, 18 or 26, or 8 for the planar chessboard count to (i, j).
        Under N18 on the overlap both formulas are evaluated; a reference
        that disagrees with itself raises instead of passing anything.
        """
        key = (n, i, j, k)
        if key not in self._known:
            self._known[key] = self._residues(n, i, j, k)
        return self._known[key]

    def _residues(self, n: int, i: int, j: int, k: int) -> tuple[int, ...]:
        out = []
        for t in self._tables:
            t.grow(i + j + k + 2)
            if n == 6:
                out.append(self._n6(t, i, j, k))
            elif n == 8:
                out.append(self._n8(t, i, j))
            elif n == 26:
                out.append(self._n8(t, i, j) * self._n8(t, i, k) % t.p)
            else:
                values = {
                    case: (self._n18_max if case == "max" else self._n18_half)(t, i, j, k)
                    for case in n18_cases(i, j, k)
                }
                if len(set(values.values())) != 1:
                    raise AssertionError(f"reference N18 formulas disagree at {(i, j, k)}")
                out.append(next(iter(values.values())))
        return tuple(out)

    def matches(self, n: int, triple: tuple[int, int, int], value: int) -> bool:
        return tuple(value % p for p in PRIMES) == self.residues(n, *triple)

    @staticmethod
    def _n6(t: _Tables, i: int, j: int, k: int) -> int:
        return t.fact[i + j + k] * t.inv[i] * t.inv[j] * t.inv[k] % t.p

    @staticmethod
    def _n8(t: _Tables, i: int, j: int) -> int:
        inv = t.inv
        total = 0
        for b in range((i - j) // 2 + 1):
            total += inv[b] * inv[j + b] * inv[i - j - 2 * b] % t.p
        return t.fact[i] * total % t.p

    @staticmethod
    def _n18_max(t: _Tables, i: int, j: int, k: int) -> int:
        # sum over a, b of i! / (a! b! (k+a)! (j+b)! (i-j-k-2a-2b)!)
        inv, p = t.inv, t.p
        slack = i - j - k
        total = 0
        for a in range(slack // 2 + 1):
            outer = inv[a] * inv[k + a]
            rest = slack - 2 * a
            inner = 0
            for b in range(rest // 2 + 1):
                inner += inv[b] * inv[j + b] * inv[rest - 2 * b]
            total += outer * (inner % p)
        return t.fact[i] * (total % p) % p

    @staticmethod
    def _n18_half(t: _Tables, i: int, j: int, k: int) -> int:
        steps = (i + j + k + 1) // 2
        ri, rj, rk = steps - i, steps - j, steps - k
        value = t.fact[steps] * t.inv[ri] * t.inv[rj] * t.inv[rk] % t.p
        if (i + j + k) % 2:
            value = value * (ri * rj + rj * rk + rk * ri) % t.p
        return value


def exact_count(n: int, i: int, j: int, k: int) -> int:
    """The same direct sums in exact integers; meant for small offsets."""
    f = factorial
    if n == 6:
        return f(i + j + k) // (f(i) * f(j) * f(k))
    if n == 26:
        return exact_n8(i, j) * exact_n8(i, k)
    if i >= j + k:
        slack = i - j - k
        return sum(
            f(i) // (f(a) * f(b) * f(k + a) * f(j + b) * f(slack - 2 * a - 2 * b))
            for a in range(slack // 2 + 1)
            for b in range((slack - 2 * a) // 2 + 1)
        )
    steps = (i + j + k + 1) // 2
    ri, rj, rk = steps - i, steps - j, steps - k
    weight = 1 if (i + j + k) % 2 == 0 else ri * rj + rj * rk + rk * ri
    return f(steps) * weight // (f(ri) * f(rj) * f(rk))


def exact_n8(i: int, j: int) -> int:
    f = factorial
    return sum(
        f(i) // (f(b) * f(j + b) * f(i - j - 2 * b)) for b in range((i - j) // 2 + 1)
    )


def shell_points(n: int, length: int, expand: bool) -> list[tuple[int, int, int]]:
    """Points of a distance shell, canonical only or with all 48 images,
    sorted lexicographically."""
    points = set()
    for i in range(length + 1):
        for j in range(i + 1):
            for k in range(j + 1):
                if distance(n, i, j, k) != length:
                    continue
                if not expand:
                    points.add((i, j, k))
                    continue
                for a, b, c in permutations((i, j, k)):
                    for sa, sb, sc in product((1, -1), repeat=3):
                        points.add((sa * a, sb * b, sc * c))
    return sorted(points)


def parse_table(fmt: str, text: str) -> list[list[str]]:
    """Parse a rendered count table back into rows of five strings.

    Raises ValueError if the header or a row does not have the documented
    shape.
    """
    if fmt in ("csv", "tsv"):
        rows = list(csv.reader(io.StringIO(text), delimiter="," if fmt == "csv" else "\t"))
        if not rows or rows[0] != COLUMNS:
            raise ValueError(f"bad {fmt} header: {rows[:1]}")
        body = rows[1:]
    elif fmt == "json":
        body = []
        for row in json.loads(text):
            if set(row) != {"point", "distance", "count"} or not isinstance(row["count"], str):
                raise ValueError(f"bad json row {row!r}")
            body.append([str(c) for c in row["point"]] + [str(row["distance"]), row["count"]])
    else:
        lines = text.splitlines()
        if not lines or lines[0].split() != COLUMNS:
            raise ValueError(f"bad text header: {lines[:1]}")
        widths = {len(line) for line in lines}
        if len(widths) != 1:
            raise ValueError("text table lines are not aligned")
        body = [line.split() for line in lines[1:]]
    for row in body:
        if len(row) != 5:
            raise ValueError(f"row with {len(row)} fields: {row!r}")
    return body


def path_problems(
    paths: list[tuple[tuple[int, int, int], ...]],
    n: int,
    target: tuple[int, int, int],
    limit: int,
    count: int,
    truncated: bool,
) -> list[str]:
    """Why a path listing is wrong; empty when every path is a valid,
    admissible, shortest step sequence to the target, the listing is
    strictly lexicographic, and it holds min(limit, count) paths."""
    problems = []
    length = distance(n, *target)
    expected = min(limit, count)
    if len(paths) != expected:
        problems.append(f"{len(paths)} paths listed, expected {expected}")
    if truncated != (count > limit):
        problems.append(f"truncated={truncated} with {count} paths and limit {limit}")
    cap = STEP_CAP[n]
    for index, path in enumerate(paths):
        if len(path) != length:
            problems.append(f"path {index} has {len(path)} steps, distance is {length}")
        end = [0, 0, 0]
        for step in path:
            weight = sum(abs(c) for c in step)
            if any(c not in (-1, 0, 1) for c in step) or not 1 <= weight <= cap:
                problems.append(f"path {index} has inadmissible step {step}")
            for axis in range(3):
                end[axis] += step[axis]
        if tuple(end) != tuple(target):
            problems.append(f"path {index} ends at {tuple(end)}, not {target}")
        if index and not paths[index - 1] < path:
            problems.append(f"paths {index - 1} and {index} are not strictly increasing")
        if len(problems) > 5:
            break
    return problems
