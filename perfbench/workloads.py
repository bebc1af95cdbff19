"""The benchmark's four workloads: seeded inputs, one op at a time through
the public API (or, for ``cli``, through the CLI in a child process), and
the exactness gate every op's output passes after the timed region.

Every workload is a closed loop with one client.  A run repeats whole
cycles of ops, so each run has the same mix of costs whatever its seed; the
seed picks the exact coordinates, signs, axis orders and output formats.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import cubepaths
from cubepaths import cli, tables

import reference as ref

WORKLOADS = ("count_mix", "shells", "oracle", "cli")
NB = {6: cubepaths.Neighborhood.N6, 18: cubepaths.Neighborhood.N18, 26: cubepaths.Neighborhood.N26}
FORMATS = ("text", "csv", "tsv", "json")

# Counts at digital distance up to this are checked against oracle_count;
# beyond it the oracle's cost grows as d^3, so the modular reference is used.
ORACLE_REACH = 12

# Cycles planned ahead in set-up; a run wraps around if it needs more.
PLANNED_CYCLES = 64

CLI_MAIN = "from cubepaths.cli import main; main()"
CHILD_TIMEOUT_S = 60
# Exceeds CPython's 4300-digit int->str cap: `cubepaths count` fails on it.
OVER_CAP = ("count", (0, 0, 0), (6000, 3000, 1500), "6")


# ------------------------------------------------------------ input generation


def _signed(rng: random.Random, triple) -> tuple[int, int, int]:
    """The triple with its axes shuffled and each sign drawn at random."""
    axes = list(triple)
    rng.shuffle(axes)
    return tuple(rng.choice((1, -1)) * c for c in axes)


def _pair(rng: random.Random, triple, spread: int = 1000):
    """A (from, to) pair of raw points whose displacement reduces to triple."""
    src = tuple(rng.randint(-spread, spread) for _ in range(3))
    return src, tuple(s + d for s, d in zip(src, _signed(rng, triple)))


def _triple_at(rng: random.Random, n: int, d: int, shape: int) -> tuple[int, int, int]:
    """A canonical triple at digital distance d: near an axis (shape 0),
    along the (4, 2, 1) direction (shape 1) or uniform at random (shape 2)."""
    if shape < 2:
        j, k = (d // 8, d // 16) if shape == 0 else (2 * d // 7, d // 7)
        return (d - j - k, j, k) if n == 6 else (d, 2 * j, 2 * k)
    while True:
        i = rng.randint(0, d)
        j = rng.randint(0, i)
        k = rng.randint(0, j)
        if ref.distance(n, i, j, k) == d:
            return (i, j, k)


def _tail(rng: random.Random, kinds) -> list[tuple]:
    """Tiny ops into the layers a workload otherwise leaves alone, so every
    layer's spans and counters exist in every traced run."""
    ops = []
    n = rng.choice((6, 18, 26))
    if "count" in kinds:
        ops.append(("count", *_pair(rng, (3, 2, 1)), n))
    if "table" in kinds:
        ops.append(("table", "shell", n, 2, True, rng.choice(FORMATS)))
        ops.append(("table", "slice", 3, rng.choice(FORMATS)))
    if "oracle" in kinds:
        ops.append(("oracle", _signed(rng, (3, 2, 1)), n))
    if "paths" in kinds:
        ops.append(("paths", _signed(rng, (2, 1, 1)), n, 5))
    if "verify" in kinds:
        ops.append(("verify", 1, n))
    if "cli" in kinds:
        ops.append(("cli", ("count", *_pair(rng, (2, 1, 0)), "all")))
    return ops


# Dominant coordinates of count_mix: tens to several hundred; N18 at
# (520, 0, 0) is the slowest op, near one second at the seed commit.
COUNT_LADDER = (10, 20, 32, 50, 80, 130, 200, 320, 420, 520)


def _count_cycle(rng: random.Random, smoke: bool) -> list[tuple]:
    ops = []
    for base in (3, 5, 8) if smoke else COUNT_LADDER:
        m = base + rng.randint(-(base // 100), base // 100)
        boundary = m - rng.randint(0, 1)  # i = j + k or i = j + k + 1
        low = rng.randint(0, boundary // 2)
        j = rng.randint(m // 2, m)
        k = rng.randint(m // 4, j)
        shapes = [
            (m, 0, 0),
            (m, m // 2, m // 4),
            (m, m, m),
            (m, m // 3, m // 3),
            (m, boundary - low, low),
            (m, j, k),
        ]
        picks = [(18, s) for s in shapes] + [(26, rng.choice(shapes)), (6, rng.choice(shapes))]
        ops.extend(("count", *_pair(rng, triple), n) for n, triple in picks)
    return ops + _tail(rng, ("table", "oracle", "paths", "verify", "cli"))


# Table sizes are fixed so every run has the same cost profile; the seed
# picks op order and tail inputs, and each slot's output format rotates
# through all four formats over four cycles.
SHELLS = {
    6: (8, 12, 16, 24, 32, 40, 48, 56, 64),
    18: (4, 6, 8, 12, 16, 20, 24, 32, 40, 48, 56, 64),
    26: (4, 8, 12, 16, 24, 32, 40, 48),
}
EXPANDED = ((6, 4), (6, 8), (18, 4), (18, 6), (26, 4), (26, 6))
SLICES = (10, 20, 30, 40, 50, 60)


def _shells_cycle(rng: random.Random, smoke: bool, variant: int) -> list[tuple]:
    shells, expanded, slices = (
        ({6: (4,), 18: (3,), 26: (3,)}, ((18, 2),), (4,)) if smoke else (SHELLS, EXPANDED, SLICES)
    )
    specs = [("shell", n, length, False) for n, lengths in shells.items() for length in lengths]
    specs += [("shell", n, length, True) for n, length in expanded]
    specs += [("slice", size) for size in slices]
    ops = [("table", *spec, FORMATS[(slot + variant) % len(FORMATS)]) for slot, spec in enumerate(specs)]
    return ops + _tail(rng, ("count", "oracle", "paths", "verify", "cli"))


# Fixed shapes and sizes again; the seed picks signs, axis order, op order
# and tail inputs, to which the oracle's cost is indifferent.
ORACLE_TARGETS = ((6, 10), (6, 15), (6, 20), (6, 25), (6, 30), (6, 35), (6, 40),
                  (18, 8), (18, 12), (18, 16), (18, 20), (18, 24), (18, 28),
                  (26, 6), (26, 9), (26, 12), (26, 15), (26, 18), (26, 21))
PATH_TARGETS = ((6, 6, 100), (6, 9, 300), (6, 12, 1000), (18, 6, 100), (18, 9, 300),
                (18, 12, 1000), (26, 5, 100), (26, 7, 300), (26, 9, 1000))
VERIFY_BOXES = ((6, 3), (6, 5), (18, 3), (18, 4), (26, 3), (26, 4))


def _oracle_cycle(rng: random.Random, smoke: bool) -> list[tuple]:
    targets, paths, boxes = (
        (((6, 4), (18, 4), (26, 4)), ((6, 3, 5), (18, 3, 5), (26, 3, 5)), ((6, 2), (18, 2), (26, 2)))
        if smoke
        else (ORACLE_TARGETS, PATH_TARGETS, VERIFY_BOXES)
    )
    ops = [
        ("oracle", _signed(rng, _triple_at(rng, n, d, slot % 2)), n)
        for slot, (n, d) in enumerate(targets)
    ]
    ops += [("paths", _signed(rng, _triple_at(rng, n, d, 1)), n, limit) for n, d, limit in paths]
    ops += [("verify", extent, n) for n, extent in boxes]
    return ops + _tail(rng, ("count", "table", "cli"))


def _cli_cycle(rng: random.Random, smoke: bool) -> list[tuple]:
    """User-sized requests of every subcommand, plus malformed ones."""

    def spec() -> str:
        return rng.choice(("6", "18", "26", "all"))

    if smoke:
        requests = [
            ("distance", *_pair(rng, (5, 3, 1)), spec()),
            ("count", *_pair(rng, (6, 3, 1)), "all"),  # so every N18 case and kernel has a span
            ("count", *_pair(rng, (5, 3, 2)), "18"),
            ("count", *_pair(rng, (4, 3, 2)), "18"),
            ("oracle", *_pair(rng, (4, 2, 1)), spec()),
            ("paths", *_pair(rng, (3, 2, 1)), rng.choice(("6", "18", "26")), 5, rng.choice(("text", "json"))),
            ("table", "shell", rng.choice((6, 18, 26)), 3, True, rng.choice(FORMATS)),
            ("table", "slice", 4, rng.choice(FORMATS)),
            ("verify", 1, spec(), rng.choice(("text", "json"))),
        ]
    else:
        m = rng.randint(100, 160)
        big = rng.randint(200, 400)
        requests = [
            ("distance", *_pair(rng, (rng.randint(0, 10**6), rng.randint(0, 10**6), 7), 10**6), spec()),
            ("distance", *_pair(rng, (m, m // 2, m // 3)), spec()),
            ("count", *_pair(rng, (m, rng.randint(0, 3), 0)), "18"),
            ("count", *_pair(rng, (big, big // 2, big // 4)), "18"),
            ("count", *_pair(rng, (2 * big, big, big // 2)), "26"),
            ("count", *_pair(rng, (4 * big, 2 * big, big)), "6"),
            ("count", *_pair(rng, (3 * m, 3 * m, 3 * m - 1)), "18"),
            ("count", *_pair(rng, (m // 2, m // 4, m // 8)), "all"),
            ("oracle", *_pair(rng, _triple_at(rng, 18, rng.randint(8, 14), 2)), rng.choice(("6", "18"))),
            ("oracle", *_pair(rng, _triple_at(rng, 26, rng.randint(6, 10), 1)), spec()),
            ("paths", *_pair(rng, _triple_at(rng, 26, rng.randint(5, 9), 1)), rng.choice(("6", "18", "26")),
             rng.choice((20, 100, 500)), "text"),
            ("paths", *_pair(rng, _triple_at(rng, 18, rng.randint(5, 9), 1)), rng.choice(("6", "18", "26")),
             rng.choice((20, 100, 500)), "json"),
            ("verify", rng.randint(2, 4), spec(), rng.choice(("text", "json"))),
            ("verify", rng.randint(2, 3), "all", "text"),
        ]
        formats = list(FORMATS)
        rng.shuffle(formats)
        requests += [
            ("table", "shell", rng.choice((6, 18, 26)), rng.randint(8, 24), False, formats[0]),
            ("table", "shell", rng.choice((6, 18, 26)), rng.randint(8, 24), False, formats[1]),
            ("table", "shell", rng.choice((6, 18, 26)), rng.randint(3, 6), True, formats[2]),
            ("table", "slice", rng.randint(10, 30), formats[3]),
        ]
    requests += [("malformed", _malformed(rng)) for _ in range(1 if smoke else 2)]
    return [("cli", request) for request in requests]


def _malformed(rng: random.Random) -> tuple[str, ...]:
    a, b, c = (rng.randint(1, 99) for _ in range(3))
    return rng.choice((
        ("count", "--to", f"{a},{b}", "-n", "18"),
        ("distance", "--to", f"{a},x{b},{c}", "-n", "6"),
        ("count", "--to", f"{a},{b},{c}", "-n", "7"),
        ("paths", "--to", f"{a},{b},{c}", "-n", "26", "--limit", "0"),
        ("verify", "--extent", f"-{a}"),
        ("table", "-n", "18"),
        ("table", "--slice-2d", f"{a}", "-n", "6"),
        ("oracle", "--from", f"{a},{b},{c}"),
    ))


def make_plan(workload: str, seed: int, smoke: bool = False) -> list[list[tuple]]:
    """The cycles of ops a run draws from, the same for the same seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}")
    count = 1 if smoke else PLANNED_CYCLES
    if workload in ("count_mix", "cli"):
        build = _count_cycle if workload == "count_mix" else _cli_cycle
        return [build(rng, smoke) for _ in range(count)]
    if workload == "shells":
        variants = [_shells_cycle(rng, smoke, v) for v in range(len(FORMATS))]
    else:
        variants = [_oracle_cycle(rng, smoke)]
    return [rng.sample(variants[c % len(variants)], len(variants[c % len(variants)])) for c in range(count)]


# ------------------------------------------------------------ running ops


def cli_argv(request: tuple) -> list[str]:
    kind = request[0]
    if kind == "malformed":
        return list(request[1])
    if kind == "table":
        if request[1] == "slice":
            return ["table", "--slice-2d", str(request[2]), "--format", request[3]]
        _, _, n, length, expand, fmt = request
        return ["table", "-n", str(n), "--length", str(length)] + (
            ["--expand-symmetry"] if expand else []) + ["--format", fmt]
    if kind == "verify":
        _, extent, spec, fmt = request
        return ["verify", "--extent", str(extent), "-n", spec, "--format", fmt]
    # "--to=X,Y,Z": argparse would take a separate "-3,1,2" for an option
    src, dst = ",".join(map(str, request[1])), ",".join(map(str, request[2]))
    argv = [kind, f"--from={src}", f"--to={dst}", "-n", str(request[3])]
    if kind == "paths":
        argv += ["--limit", str(request[4]), "--format", request[5]]
    return argv


class Runner:
    """Executes ops; CLI requests run in a child process when child_cli is
    set, otherwise through ``cli.run`` in this process with output captured."""

    def __init__(self, root: Path, child_cli: bool) -> None:
        self.root = root
        self.child_cli = child_cli
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        env.pop("PYTHONINTMAXSTRDIGITS", None)  # the child keeps CPython's default cap
        self.env = env

    def __call__(self, op: tuple):
        kind = op[0]
        if kind == "count":
            _, src, dst, n = op
            p, q = cubepaths.GridPoint(*src), cubepaths.GridPoint(*dst)
            offset = cubepaths.canonicalize(q, p)
            return (offset.as_triple(), cubepaths.distance(p, q, NB[n]), cubepaths.count_paths(offset, NB[n]))
        if kind == "table":
            if op[1] == "slice":
                table = cubepaths.slice_table_2d(op[2])
            else:
                table = cubepaths.shell_table(NB[op[2]], op[3], expand_symmetry=op[4])
            return table, getattr(tables, f"to_{op[-1]}")(table)
        if kind == "oracle":
            return cubepaths.oracle_count(cubepaths.GridPoint(*op[1]), NB[op[2]])
        if kind == "paths":
            return cubepaths.enumerate_shortest_paths(cubepaths.GridPoint(*op[1]), NB[op[2]], op[3])
        if kind == "verify":
            return cubepaths.verify_region(op[1], NB[op[2]])
        return self.run_cli(cli_argv(op[1]))

    def run_cli(self, argv: list[str]) -> tuple[int, str, str]:
        if self.child_cli:
            proc = subprocess.run(
                [sys.executable, "-c", CLI_MAIN, *argv],
                cwd=self.root, env=self.env, capture_output=True, text=True,
                timeout=CHILD_TIMEOUT_S,
            )
            return proc.returncode, proc.stdout, proc.stderr
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.run(argv)
        return code, out.getvalue(), err.getvalue()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _int_paths(listing) -> list[tuple[tuple[int, int, int], ...]]:
    return [tuple(step.as_tuple() for step in path) for path in listing.paths]


def summarize(op: tuple, output) -> tuple:
    """A small record of an op's output that the gate can check later."""
    kind = op[0]
    if kind == "count":
        triple, dist, count = output
        return (triple, dist, hex(count))  # hex: no digit cap, cheap to pass between processes
    if kind == "oracle":
        return hex(output)
    if kind == "table":
        table, text = output
        return (len(table.entries), _digest(text))
    if kind == "paths":
        return (output.truncated, _digest(repr(_int_paths(output))))
    if kind == "verify":
        return (output.checked, len(output.mismatches))
    code, stdout, stderr = output
    return (code, _digest(stdout), stderr.startswith("cubepaths: error:"))


# ------------------------------------------------------------ exactness gate


def _decimal(value: int) -> str:
    """Exact decimal, above CPython's int->str digit cap too."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(old)


class Gate:
    """Checks op outputs against independent references.

    Counts within ORACLE_REACH are compared with oracle_count, larger ones
    with the modular direct sums of ``reference``.  Ops whose output is too
    big to keep (tables, path listings, CLI output) are recomputed once per
    distinct op, checked in full, and every run of that op must match the
    checked output's digest.
    """

    def __init__(self, root: Path) -> None:
        self.modular = ref.ModularCounts()
        self.inprocess = Runner(root, child_cli=False)
        self._oracle: dict = {}
        self._expected: dict = {}

    def problem(self, op: tuple, summary: tuple) -> str | None:
        """None if the summary is the exact expected output, else why not."""
        kind = op[0]
        if kind == "count":
            _, src, dst, n = op
            disp = tuple(b - a for a, b in zip(src, dst))
            triple, dist, count = summary[0], summary[1], int(summary[2], 16)
            if triple != ref.canonical(*disp):
                return f"canonical offset {triple}, expected {ref.canonical(*disp)}"
            if dist != ref.distance(n, *disp):
                return f"distance {dist}, expected {ref.distance(n, *disp)}"
            return None if self.count_ok(n, triple, count) else "count differs from the reference"
        if kind == "oracle":
            triple = ref.canonical(*op[1])
            ok = self.modular.matches(op[2], triple, int(summary, 16))
            return None if ok else "oracle count differs from the reference"
        if kind == "verify":
            _, extent, n = op
            points = (extent + 1) * (extent + 2) * (extent + 3) // 6
            if summary != (points, 0):
                return f"verify checked {summary[0]} points with {summary[1]} mismatches, expected {points} and 0"
            return None
        expected, why = self.expected(op)
        if why:
            return why
        return None if summary == expected else f"output differs from the checked output ({kind})"

    def expected(self, op: tuple) -> tuple[tuple | None, str | None]:
        """(summary, problem) of the op's output recomputed in this process
        and checked in full; problem is None when the output is exact."""
        if op not in self._expected:
            self._expected[op] = self._full_check(op)
        return self._expected[op]

    def count_ok(self, n: int, triple: tuple[int, int, int], value: int) -> bool:
        if ref.distance(n, *triple) <= ORACLE_REACH:
            key = (n, triple)
            if key not in self._oracle:
                if n == 8:
                    self._oracle[key] = cubepaths.oracle_count_2d(triple[0], triple[1])
                else:
                    self._oracle[key] = cubepaths.oracle_count(cubepaths.GridPoint(*triple), NB[n])
            return value == self._oracle[key]
        return self.modular.matches(n, triple, value)

    def _full_check(self, op: tuple) -> tuple[tuple | None, str | None]:
        if op[0] == "cli":
            return self._cli_expected(op[1])
        output = self.inprocess(op)
        if op[0] == "table":
            why = self._table_problem(op[1:], *output)
        else:
            why = self._paths_problem(op, output)
        return summarize(op, output), why

    def _table_problem(self, spec: tuple, table, text: str) -> str | None:
        if spec[0] == "slice":
            size, fmt = spec[1], spec[2]
            points = [(i, j, 0) for i in range(size + 1) for j in range(i + 1)]
            want = [(p, p[0], (8, p)) for p in points]
        else:
            _, n, length, expand, fmt = spec
            want = [(p, length, (n, ref.canonical(*p))) for p in ref.shell_points(n, length, expand)]
        rows = [(e.point.as_tuple(), e.distance, e.count) for e in table.entries]
        if [r[:2] for r in rows] != [w[:2] for w in want]:
            return "table rows are not the expected points and distances"
        for (point, _, count), (_, _, key) in zip(rows, want):
            if not self.count_ok(*key, count):
                return f"table count at {point} differs from the reference"
        try:
            parsed = ref.parse_table(fmt, text)
        except ValueError as exc:
            return f"{fmt} output does not parse: {exc}"
        if parsed != [[str(c) for c in point] + [str(dist), str(count)] for point, dist, count in rows]:
            return f"{fmt} output does not parse back to the table rows"
        return None

    def _paths_problem(self, op: tuple, listing) -> str | None:
        _, target, n, limit = op
        count = ref.exact_count(n, *ref.canonical(*target))
        problems = ref.path_problems(_int_paths(listing), n, target, limit, count, listing.truncated)
        return "; ".join(problems) or None

    def _cli_expected(self, request: tuple) -> tuple[tuple | None, str | None]:
        """(exit code, stdout digest, error-on-stderr) the CLI must produce,
        derived in this process from the API and the references."""
        kind = request[0]
        if kind == "malformed":
            return (1, _digest(""), True), None
        if kind == "table":
            op = ("table", *request[1:])
            table, text = self.inprocess(op)
            stdout = text if text.endswith("\n") else text + "\n"
            return (0, _digest(stdout), False), self._table_problem(request[1:], table, text)
        if kind == "verify":
            _, extent, spec, fmt = request
            reports = [cubepaths.verify_region(extent, NB[n]) for n in _spec(spec)]
            points = (extent + 1) * (extent + 2) * (extent + 3) // 6
            if any(r.checked != points or r.mismatches for r in reports):
                return None, "verify report is not a full clean sweep"
            if fmt == "json":
                stdout = json.dumps([
                    {"neighborhood": n, "extent": extent, "checked": points, "mismatches": []}
                    for n in _spec(spec)
                ]) + "\n"
            else:
                stdout = "".join(
                    f"N{n}: checked {points} canonical points (extent {extent}), mismatches 0\n"
                    for n in _spec(spec)
                )
            return (0, _digest(stdout), False), None
        src, dst = request[1], request[2]
        disp = tuple(b - a for a, b in zip(src, dst))
        p, q = cubepaths.GridPoint(*src), cubepaths.GridPoint(*dst)
        if kind == "paths":
            n, limit, fmt = int(request[3]), request[4], request[5]
            listing = cubepaths.enumerate_shortest_paths(cubepaths.GridPoint(*disp), NB[n], limit)
            why = self._paths_problem(("paths", disp, n, limit), listing)
            paths = _int_paths(listing)
            if fmt == "json":
                stdout = json.dumps({
                    "target": list(disp), "neighborhood": n, "distance": ref.distance(n, *disp),
                    "truncated": listing.truncated,
                    "paths": [[list(step) for step in path] for path in paths],
                }) + "\n"
            else:
                stdout = "".join(" ".join(f"{x},{y},{z}" for x, y, z in path) + "\n" for path in paths)
            return (0, _digest(stdout), False), why
        values, why = [], None
        for n in _spec(request[3]):
            if kind == "distance":
                value = cubepaths.distance(p, q, NB[n])
                ok = value == ref.distance(n, *disp)
            elif kind == "count":
                value = cubepaths.count_paths(cubepaths.canonicalize(q, p), NB[n])
                ok = self.count_ok(n, ref.canonical(*disp), value)
            else:
                value = cubepaths.oracle_count(cubepaths.GridPoint(*disp), NB[n])
                ok = self.modular.matches(n, ref.canonical(*disp), value)
            if not ok:
                why = f"{kind} under N{n} differs from the reference"
            values.append((n, value))
        if len(values) == 1:
            stdout = _decimal(values[0][1]) + "\n"
        else:
            stdout = "".join(f"{n}\t{_decimal(v)}\n" for n, v in values)
        return (0, _digest(stdout), False), why


def _spec(token: str) -> tuple[int, ...]:
    return (6, 18, 26) if token == "all" else (int(token),)
