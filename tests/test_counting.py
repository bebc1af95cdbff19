"""Tests for the closed-form path counts.

Known counts are rows of tests/test_known_values.py, each held there to the
oracle and to brute force too.  Here the kernels face laws, sweeps and
certificates.  Their direct factorial sums, exact and modulo two primes, are
the ones in perfbench/reference.py, which shares no code with cubepaths;
agreement with the graph-search oracle on whole boxes is tested in
test_oracle.py.
"""

import functools
import importlib
import inspect
import json
import math
import time
from collections import Counter
from itertools import product
from math import factorial

import pytest
import sympy

import cubepaths.counting as counting
from cubepaths import cli
from cubepaths.core import (
    ORIGIN,
    CanonicalOffset,
    GridPoint,
    MoveStep,
    Neighborhood,
    admissible_moves,
    canonicalize,
    check_size,
)
from cubepaths.counting import (
    N18Case,
    classify_n18,
    count_n6,
    count_n8_2d,
    count_n18_halfcase,
    count_n18_maxcase,
    count_n26,
    count_paths,
)
from cubepaths.metrics import displacement_metric, distance
from cubepaths.oracle import (
    PathList,
    enumerate_shortest_paths,
    iter_shortest_paths,
    oracle_count,
    oracle_count_2d,
)
from cubepaths.tables import (
    CountTable,
    TableEntry,
    decimal_string,
    shell_table,
    slice_table_2d,
    symmetry_images,
    to_csv,
    to_json,
    to_text,
    to_tsv,
)
from cubepaths.verify import VerifyReport, verify_region
import oracle_anchors
from helpers import MODULAR_COUNTS, canonical_triples, reference, run_cli


# ------------------------------------------- direct factorial sums (reference)
#
# The kernels as first written, one factorial quotient per summand, in
# perfbench/reference.py: a second reference beside the oracle, at sizes the
# oracle cannot reach.  On the N18 overlap exact_count sums the
# dominant-coordinate formula, which equals the half-sum one there.  So on the
# sweep's box the N26 count is the product of two planar counts (a square at
# j = k), the planar count is 1 on the diagonal, and the even-sum half case is
# a multinomial.

# each kernel, on the canonical triples where it applies, and its direct sum
_DIRECT_SUMS = {
    "count_n8_2d": (
        lambda i, j, k: k == 0,
        lambda off: count_n8_2d(off.i, off.j),
        lambda i, j, k: reference.exact_n8(i, j),
    ),
    "count_n18_maxcase": (
        lambda i, j, k: i >= j + k,
        count_n18_maxcase,
        functools.partial(reference.exact_count, 18),
    ),
    "count_n18_halfcase": (
        lambda i, j, k: i <= j + k + 1,
        count_n18_halfcase,
        functools.partial(reference.exact_count, 18),
    ),
    "count_n26": (
        lambda i, j, k: True,
        count_n26,
        functools.partial(reference.exact_count, 26),
    ),
}


@pytest.mark.parametrize("kernel", list(_DIRECT_SUMS))
def test_kernels_equal_direct_sums_on_sweep(kernel):
    applies, count, direct = _DIRECT_SUMS[kernel]
    for i, j, k in canonical_triples(40):
        if applies(i, j, k):
            assert count(CanonicalOffset(i, j, k)) == direct(i, j, k), (i, j, k)


@pytest.mark.parametrize("triple", [(300, 0, 0), (520, 100, 60), (400, 399, 0), (1000, 500, 250)])
def test_maxcase_and_n26_equal_direct_sums_beyond_oracle_reach(triple):
    off = CanonicalOffset(*triple)
    assert count_n18_maxcase(off) == reference.exact_count(18, *triple)
    assert count_n26(off) == reference.exact_count(26, *triple)


@pytest.mark.parametrize("triple", [(3000, 2000, 1001), (6000, 3000, 3000)])
def test_halfcase_equals_direct_formula_beyond_oracle_reach(triple):
    assert count_n18_halfcase(CanonicalOffset(*triple)) == reference.exact_count(18, *triple)


# ----------------------------------------- single-sum max case (reference)
#
# Every max-case step advances x, and moves y or z by at most one, never
# both.  Rotate the y-z plane by 45 degrees, to u = y + z and v = y - z:
# the four in-plane moves (0, +-1) and (+-1, 0) become (+-1, +-1) with
# independent signs.  So choose which m of the i steps move in the plane,
# C(i, m); those m steps are two independent +-1 walks, to u = j + k and to
# v = j - k, with (m + j + k)/2 and (m + j - k)/2 plus-steps.  m runs over
# j + k, j + k + 2, ..., up to i.


def _single_sum_n18_maxcase(i, j, k):
    return sum(
        math.comb(i, m) * math.comb(m, (m + j + k) // 2) * math.comb(m, (m + j - k) // 2)
        for m in range(j + k, i + 1, 2)
    )


def test_maxcase_equals_single_sum_on_sweep():
    for i in range(41):
        for j in range(i + 1):
            for k in range(min(j, i - j) + 1):
                off = CanonicalOffset(i, j, k)
                assert count_n18_maxcase(off) == _single_sum_n18_maxcase(i, j, k), off


@pytest.mark.parametrize("triple", [(520, 0, 0), (520, 260, 130), (419, 0, 0), (520, 173, 173)])
def test_maxcase_equals_single_sum_at_the_heaviest_benchmark_shapes(triple):
    assert count_n18_maxcase(CanonicalOffset(*triple)) == _single_sum_n18_maxcase(*triple)


@pytest.mark.parametrize("triple", [(2000, 0, 0), (4000, 2000, 1000)])
def test_single_sum_equals_the_modular_direct_sum_far_beyond_oracle_reach(triple):
    # pins the single sum where the exact double sum takes minutes, so an
    # O(i) max-case kernel built on it is proven at these sizes too
    assert MODULAR_COUNTS.matches(18, triple, _single_sum_n18_maxcase(*triple))


def test_single_sum_term_ratio_certificate():
    # t(m) = C(i, m) C(m, a) C(m, b) with a = (m + j + k)/2, b = (m + j - k)/2;
    # m -> m + 2 moves a and b up by one, so each term follows from the
    # previous one by one multiplication and one exact division
    i, m, a, b = sympy.symbols("i m a b")
    binomial = sympy.binomial
    term = binomial(i, m) * binomial(m, a) * binomial(m, b)
    shifted = binomial(i, m + 2) * binomial(m + 2, a + 1) * binomial(m + 2, b + 1)
    ratio = (i - m) * (i - m - 1) * (m + 1) * (m + 2) / (
        (a + 1) * (m + 1 - a) * (b + 1) * (m + 1 - b)
    )
    assert sympy.combsimp(shifted / term - ratio) == 0


# ---------------------------------------------- planar recurrence (reference)
#
# The planar count to (n, j) is the coefficient of x^(n + j) in
# (1 + x + x^2)^n: each of the n steps moves y by -1, 0 or +1.  P = (1 + x +
# x^2)^n satisfies P' (1 + x + x^2) = n (1 + 2x) P; comparing the
# coefficients of x^q gives (q + 1) c(q + 1) = (n - q) c(q) + (2n - q + 1)
# c(q - 1), an O(n + j) walk from c(-1) = 0, c(0) = 1.


def _planar_by_recurrence(n, j):
    before, c = 0, 1
    for q in range(n + j):
        before, c = c, ((n - q) * c + (2 * n - q + 1) * before) // (q + 1)
    return c


def test_planar_recurrence_equals_the_planar_count_on_sweep():
    for n in range(61):
        for j in range(n + 1):
            assert _planar_by_recurrence(n, j) == count_n8_2d(n, j), (n, j)


@pytest.mark.parametrize("pair", [(6000, 3000), (4000, 0)])
def test_planar_recurrence_equals_the_modular_direct_sum_far_beyond_oracle_reach(pair):
    assert MODULAR_COUNTS.matches(8, (*pair, 0), _planar_by_recurrence(*pair))


def test_planar_recurrence_certificate():
    n, x = sympy.symbols("n x")
    p = (1 + x + x**2) ** n
    assert sympy.simplify(sympy.diff(p, x) * (1 + x + x**2) - n * (1 + 2 * x) * p) == 0


# ---------------------------------------- N18 half-case recurrence certificates
#
# Write r = (L - i, L - j, L - k) with L the half-case distance, and w(a, b, c)
# = ab + bc + ca.  The half case is L! / (r_i! r_j! r_k!) at even coordinate
# sum, where L = r_i + r_j + r_k, and that quotient times w(r) at odd sum, where
# L = r_i + r_j + r_k - 1.  A pair step such as (i - 1, j - 1, k) lowers L and
# r_k by one; a single-axis step (i - 1, j, k) turns an odd sum even, lowers L
# by one and r_j, r_k by one each.  Divided by (L - 1)! / (r_i! r_j! r_k!), every
# count in the geodesic recurrence becomes a polynomial in r, so the recurrence
# is one polynomial identity per parity.  Which predecessors exist, and that
# they stay where the half case applies, is checked on a box below.


def _w(a, b, c):
    return a * b + b * c + c * a


def _halfcase_in_r(a, b, c, odd):
    f = sympy.factorial
    if odd:
        return f(a + b + c - 1) * _w(a, b, c) / (f(a) * f(b) * f(c))
    return f(a + b + c) / (f(a) * f(b) * f(c))


def _reduced_terms(r, odd, predecessors):
    # each count over (L - 1)! / (r_i! r_j! r_k!), the target's own first
    ri, rj, rk = r
    f = sympy.factorial
    scale = f(sum(r) - (2 if odd else 1)) / (f(ri) * f(rj) * f(rk))
    counts = [_halfcase_in_r(ri, rj, rk, odd)]
    counts += [_halfcase_in_r(*shifted, parity) for shifted, parity in predecessors]
    return [sympy.factor(sympy.combsimp(count / scale)) for count in counts]


def test_halfcase_even_sum_certificate():
    # the three pair predecessors give r_k/L + r_j/L + r_i/L = 1
    r = ri, rj, rk = sympy.symbols("r_i r_j r_k", positive=True, integer=True)
    pairs = [((ri, rj, rk - 1), False), ((ri, rj - 1, rk), False), ((ri - 1, rj, rk), False)]
    own, *terms = _reduced_terms(r, False, pairs)
    assert [sympy.expand(t) for t in (own, *terms)] == [ri + rj + rk, rk, rj, ri]
    assert sympy.simplify(rk / own + rj / own + ri / own) == 1


def test_halfcase_odd_sum_certificate():
    # the pair predecessors give r_k w(r_i, r_j, r_k - 1) and its two images,
    # the single-axis ones r_j r_k, r_i r_k and r_i r_j; they sum to L w(r)
    r = ri, rj, rk = sympy.symbols("r_i r_j r_k", positive=True, integer=True)
    pairs = [((ri, rj, rk - 1), True), ((ri, rj - 1, rk), True), ((ri - 1, rj, rk), True)]
    singles = [
        ((ri, rj - 1, rk - 1), False),
        ((ri - 1, rj, rk - 1), False),
        ((ri - 1, rj - 1, rk), False),
    ]
    own, *terms = _reduced_terms(r, True, pairs + singles)
    L = ri + rj + rk - 1
    expected = [
        rk * _w(ri, rj, rk - 1),
        rj * _w(ri, rj - 1, rk),
        ri * _w(ri - 1, rj, rk),
        rj * rk,
        ri * rk,
        ri * rj,
    ]
    assert sympy.expand(own - L * _w(ri, rj, rk)) == 0
    assert [sympy.expand(t - e) for t, e in zip(terms, expected)] == [0] * 6
    assert sympy.expand(sum(expected) - L * _w(ri, rj, rk)) == 0


def _halfcase_predecessor_factors(off):
    # the predecessors the two certificates above sum over, each with its
    # polynomial factor in r: the pair step that keeps axis a lowers r_a; at odd
    # sum the single-axis step along a lowers the other two
    i, j, k = off
    odd = (i + j + k) % 2
    r = [(i + j + k + 1) // 2 - c for c in off]
    for axis in range(3):
        lowered = [c - (a == axis) for a, c in enumerate(r)]
        pair = [c - (a != axis) for a, c in enumerate(off)]
        yield pair, r[axis] * (_w(*lowered) if odd else 1)
        if odd:
            single = [c - (a == axis) for a, c in enumerate(off)]
            yield single, r[(axis + 1) % 3] * r[(axis + 2) % 3]


def _halfcase_pattern(off):
    # a move shifts each of the gaps i - j, j - k, k and j + k + 1 - i by at
    # most 2, so which predecessors exist and how canonicalize orders them
    # depends on each gap only up to 3, and on the parity of the sum
    i, j, k = off
    gaps = (i - j, j - k, k, j + k + 1 - i)
    return ((i + j + k) % 2, *(min(g, 3) for g in gaps))


def _predecessors(v, neighborhood):
    # the points one move back from v and one step closer to the origin, found
    # from the move set and the metric alone: a shortest path to v ends with a
    # step from one of them
    steps = distance(v, ORIGIN, neighborhood)
    return {
        u
        for move in admissible_moves(neighborhood)
        for u in [GridPoint(v.x - move.dx, v.y - move.dy, v.z - move.dz)]
        if distance(u, ORIGIN, neighborhood) == steps - 1
    }


def _check_n18_predecessors(keep, pattern, steps, expected, excluded):
    # the geodesic predecessors of each point of a region are the expected
    # points (compared raw, so each is one step back along the move the
    # certificate names), and none lies in the excluded case; the box i <= 12
    # holds every pattern (i <= 18 adds none)
    box = [CanonicalOffset(*t) for t in canonical_triples(12, start=1) if keep(*t)]
    assert {pattern(off) for off in box} == {
        pattern(t) for t in canonical_triples(18, start=1) if keep(*t)
    }
    n18 = Neighborhood.N18
    for off in box:
        v = GridPoint(*off)
        assert distance(v, ORIGIN, n18) == steps(off), off
        found = _predecessors(v, n18)
        assert found == {GridPoint(*u) for u in expected(off)}, off
        assert all(classify_n18(canonicalize(u, ORIGIN)) is not excluded for u in found), off


def test_halfcase_predecessors_are_the_ones_the_certificates_sum_over():
    # the certificates' predecessors whose factor is not 0, none in the max case
    _check_n18_predecessors(
        keep=lambda i, j, k: i <= j + k + 1,
        pattern=_halfcase_pattern,
        steps=lambda off: (sum(off) + 1) // 2,
        expected=lambda off: [u for u, factor in _halfcase_predecessor_factors(off) if factor != 0],
        excluded=N18Case.MAX_CASE,
    )


def _maxcase_predecessors(off):
    # the step polynomial's certificate sums c_(i-1)(j - dy, k - dz) over its
    # five moves, all with dx = 1; that coefficient of (1 + y + 1/y + z + 1/z)^(i-1)
    # is not 0 iff |j - dy| + |k - dz| <= i - 1
    i, j, k = off
    for dy, dz in ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)):
        if abs(j - dy) + abs(k - dz) <= i - 1:
            yield i - 1, j - dy, k - dz


def _maxcase_pattern(off):
    # t - m is a predecessor iff |j - dy| + |k - dz| <= i - 1; x then stays its
    # largest coordinate, so its case too depends on i - 1 - |j - dy| - |k - dz|:
    # on the slack i - j - k only up to 3, and on whether j or k is 0.  The
    # ties j = k and i = j, where canonicalize permutes, complete the pattern;
    # each of its 15 values shows at i <= 6
    i, j, k = off
    return (min(i - j - k, 3), j == 0, k == 0, j == k, i == j)


def test_maxcase_predecessors_are_the_ones_the_step_polynomial_sums_over():
    # every predecessor of a max-case or overlap point is one step back along a
    # move with dx = 1 (a move with dx <= 0 keeps |x| >= i), none in the half case
    _check_n18_predecessors(
        keep=lambda i, j, k: i >= j + k,
        pattern=_maxcase_pattern,
        steps=lambda off: off.i,
        expected=_maxcase_predecessors,
        excluded=N18Case.HALF_CASE,
    )


# ------------------------- the kernels' docstring arguments, on the oracle's paths
#
# Each kernel's docstring sorts the shortest paths into groups and counts each
# group.  These tests sort the formula-free oracle's listings the same way, on
# the canonical box 0 <= k <= j <= i <= 5 (56 points, 26,106 paths); the
# kernels give only group sizes.

_LISTED = [CanonicalOffset(*t) for t in canonical_triples(5)]


@functools.cache
def _listing(off, neighborhood):
    return tuple(iter_shortest_paths(GridPoint(*off), neighborhood))


@functools.cache
def _chessboard_paths(i, j):
    # the full-connectivity paths to (i, j, 0) that stay in the z = 0 plane
    paths = _listing(CanonicalOffset(i, j, 0), Neighborhood.N26)
    return [p for p in paths if all(m.dz == 0 for m in p)]


def _arrangements(n, parts):
    # orderings of n steps of len(parts) kinds, parts[a] of kind a; none if a part is negative
    return 0 if min(parts) < 0 else factorial(n) // math.prod(map(factorial, parts))


def test_chessboard_paths_group_by_falling_diagonals_as_count_n8_2d_sums():
    for i, j, k in _LISTED:
        if k:
            continue
        paths = _chessboard_paths(i, j)
        assert len(paths) == oracle_count_2d(i, j)
        assert all(m.dx == 1 for p in paths for m in p)
        groups = Counter(sum(m.dy == -1 for m in p) for p in paths)
        expected = {b: math.comb(i, b) * math.comb(i - b, j + b) for b in range((i - j) // 2 + 1)}
        assert groups == expected, (i, j)
        assert sum(groups.values()) == count_n8_2d(i, j)


def test_maxcase_paths_group_by_falling_z_steps_as_the_dominant_sum_does():
    for off in _LISTED:
        i, j, k = off
        if i < j + k:
            continue
        groups = Counter()
        for p in _listing(off, Neighborhood.N18):
            # a step that moves z moves x too, so the y-motion is all in the rest
            assert all(m.dx == 1 and (m.dz == 0 or m.dy == 0) for m in p)
            a = sum(m.dz == -1 for m in p)
            assert sum(m.dz == 1 for m in p) == k + a
            groups[a] += 1
        expected = {
            a: math.comb(i, a) * math.comb(i - a, k + a) * count_n8_2d(i - k - 2 * a, j)
            for a in range((i - j - k) // 2 + 1)
        }
        assert groups == expected, off


def test_halfcase_paths_have_the_step_mix_the_half_sum_counts():
    for off in _LISTED:
        i, j, k = off
        if i > j + k + 1:
            continue
        L = (i + j + k + 1) // 2
        paths = _listing(off, Neighborhood.N18)
        assert all(min(m) >= 0 for p in paths for m in p), off
        if (i + j + k) % 2 == 0:
            # every step moves two coordinates; L - c of them leave coordinate c fixed
            for p in paths:
                assert all(sum(m) == 2 for m in p), off
                assert [sum(m[a] == 0 for m in p) for a in range(3)] == [L - i, L - j, L - k]
            assert len(paths) == _arrangements(L, (L - i, L - j, L - k)), off
            continue
        # one step moves one coordinate, along axis a; the other L - 1 move two
        by_axis = [0, 0, 0]
        for p in paths:
            (single,) = [m for m in p if sum(m) == 1]
            by_axis[single.as_tuple().index(1)] += 1
        expected = [
            _arrangements(L, (1, *(L - c - (b != a) for b, c in enumerate(off)))) for a in range(3)
        ]
        assert by_axis == expected, off
        r = (L - i, L - j, L - k)
        assert sum(by_axis) == _arrangements(L + 1, r) * _w(*r) // (L + 1), off


def test_n26_paths_are_the_pairs_of_their_chessboard_projections():
    for off in _LISTED:
        i, j, k = off
        xy = {tuple((m.dx, m.dy) for m in p) for p in _chessboard_paths(i, j)}
        xz = {tuple((m.dx, m.dy) for m in p) for p in _chessboard_paths(i, k)}
        paths = _listing(off, Neighborhood.N26)
        image = {(tuple((m.dx, m.dy) for m in p), tuple((m.dx, m.dz) for m in p)) for p in paths}
        assert all(a in xy and b in xz for a, b in image), off
        # injective, and onto every pair: any two projections combine
        assert len(image) == len(paths) == count_n8_2d(i, j) * count_n8_2d(i, k), off


# ------------------------------------------- N6 and overlap certificates


def test_n6_pascal_certificate():
    # a face path ends with one of three unit steps, so the multinomial
    # (i + j + k)! / (i! j! k!) is the sum of its three predecessors'; each
    # quotient is i / (i + j + k) or an image, 0 where that predecessor is absent
    i, j, k = sympy.symbols("i j k", positive=True, integer=True)
    f = sympy.factorial

    def n6(a, b, c):
        return f(a + b + c) / (f(a) * f(b) * f(c))

    quotients = [
        sympy.combsimp(n6(*u) / n6(i, j, k)) for u in ((i - 1, j, k), (i, j - 1, k), (i, j, k - 1))
    ]
    assert sympy.simplify(sum(quotients)) == 1


def test_overlap_certificate():
    # at i = j + k + s with s = 0 or 1 the max-case double sum keeps the one
    # term a = b = 0, and the half case has r = (0, k, j) or (0, k + 1, j + 1);
    # both are C(j + k, k) at s = 0 and (j + k + 1)! / (j! k!) at s = 1
    j, k, a, b, s = sympy.symbols("j k a b s", nonnegative=True, integer=True)
    f = sympy.factorial
    i = j + k + s
    term = f(i) / (f(a) * f(b) * f(k + a) * f(j + b) * f(s - 2 * (a + b)))
    for slack, r, common in (
        (0, (0, k, j), sympy.binomial(j + k, k)),
        (1, (0, k + 1, j + 1), f(j + k + 1) / (f(j) * f(k))),
    ):
        maxcase = term.subs({a: 0, b: 0, s: slack})
        halfcase = _halfcase_in_r(*r, odd=slack == 1)
        assert sympy.combsimp(maxcase / common) == 1
        assert sympy.combsimp(halfcase / common) == 1


# ----------------------------------------- step polynomial certificates
#
# A shortest path is a word in the steps it may take, so its count is a
# coefficient of a power of the step polynomial.  Every chessboard step to a
# dominant n advances x and moves y by -1, 0 or +1: the planar count to (n, j)
# is the coefficient of x^(n + j) in (1 + x + x^2)^n.  Under N26 y and z move
# independently, so its count is that coefficient in y times the one in z.  In
# the N18 max case every step advances x and moves at most one of y and z: the
# count is the coefficient of y^j z^k in (1 + y + 1/y + z + 1/z)^i.  Each
# certificate proves that the power grows by one step polynomial per step, for
# every n; a sweep ties the kernel to the expanded coefficients, built by the
# same multiplication (the N18 step times yz, so every exponent is natural).

_SWEEP_TOP = 20


def _powers(step, gens):
    # step^0, step^1, ... as polynomials, each the previous one times step
    power, step = sympy.Poly(1, *gens), sympy.Poly(step, *gens)
    for n in range(_SWEEP_TOP + 1):
        yield n, power
        power = power * step


def _grows_by_one_step(power, step):
    n = sympy.symbols("n", integer=True, positive=True)
    return sympy.simplify(power(n) - power(n - 1) * step) == 0


def test_planar_step_polynomial_certificate():
    x = sympy.symbols("x")
    step = 1 + x + x**2
    assert _grows_by_one_step(lambda n: step**n, step)
    for n, power in _powers(step, [x]):
        for j in range(n + 1):
            assert count_n8_2d(n, j) == power.nth(n + j), (n, j)


def test_n26_step_polynomial_certificate():
    y, z = sympy.symbols("y z")
    in_y, in_z = 1 + y + y**2, 1 + z + z**2
    n = sympy.symbols("n", integer=True, positive=True)
    assert sympy.simplify((in_y * in_z) ** n - in_y**n * in_z**n) == 0
    assert _grows_by_one_step(lambda n: in_y**n * in_z**n, in_y * in_z)
    for i, power in _powers(in_y * in_z, [y, z]):
        for j in range(i + 1):
            for k in range(j + 1):
                off = CanonicalOffset(i, j, k)
                assert count_n26(off) == power.nth(i + j, i + k), off


def test_maxcase_step_polynomial_certificate():
    y, z = sympy.symbols("y z")
    step = 1 + y + 1 / y + z + 1 / z
    assert _grows_by_one_step(lambda n: step**n, step)
    for i, power in _powers(sympy.expand(y * z * step), [y, z]):
        for j in range(i + 1):
            for k in range(min(j, i - j) + 1):
                off = CanonicalOffset(i, j, k)
                assert count_n18_maxcase(off) == power.nth(i + j, i + k), off


# ------------------------------------------------------- face connectivity


def test_count_n6_is_the_factorial_quotient():
    # every canonical offset with i <= 60
    for i, j, k in canonical_triples(60):
        quotient = factorial(i + j + k) // (factorial(i) * factorial(j) * factorial(k))
        assert count_n6(CanonicalOffset(i, j, k)) == quotient, (i, j, k)


def test_count_n6_pascal_recurrence():
    def n6(i, j, k):
        return count_n6(canonicalize(GridPoint(i, j, k), ORIGIN))

    for i, j, k in product(range(1, 26), repeat=3):
        assert n6(i, j, k) == n6(i - 1, j, k) + n6(i, j - 1, k) + n6(i, j, k - 1), (i, j, k)


# -------------------------------------------------------- planar chessboard


def test_count_n8_2d_on_the_axis_is_the_central_trinomial_coefficient():
    # OEIS A002426: the coefficient of x^n in (1 + x + x^2)^n
    expected = [1, 1, 3, 7, 19, 51, 141, 393, 1107, 3139, 8953]
    assert [count_n8_2d(n, 0) for n in range(11)] == expected


def test_count_n8_2d_rejects_unsorted_input():
    with pytest.raises(ValueError, match=r"^count_n8_2d needs i >= j >= 0, got \(2, 3\)$"):
        count_n8_2d(2, 3)
    with pytest.raises(ValueError, match=r"^count_n8_2d needs i >= j >= 0, got \(1, -1\)$"):
        count_n8_2d(1, -1)


# -------------------------------------------------- face-edge connectivity


def test_count_n18_formulas_respect_applicability():
    with pytest.raises(ValueError, match="dominant-coordinate formula needs"):
        count_n18_maxcase(CanonicalOffset(3, 2, 2))  # i == j + k - 1, first refused
    with pytest.raises(ValueError, match="half-sum formula needs"):
        count_n18_halfcase(CanonicalOffset(5, 1, 1))  # i > j + k + 1
    with pytest.raises(ValueError, match="half-sum formula needs"):
        count_n18_halfcase(CanonicalOffset(4, 1, 1))  # i == j + k + 2, first refused


@pytest.mark.parametrize(
    "triple,case",
    [
        ((5, 1, 1), N18Case.MAX_CASE),
        ((3, 2, 2), N18Case.HALF_CASE),
        ((3, 2, 1), N18Case.OVERLAP),  # i == j + k
        ((4, 2, 1), N18Case.OVERLAP),  # i == j + k + 1
        ((0, 0, 0), N18Case.OVERLAP),
    ],
)
def test_classify_n18(triple, case):
    assert classify_n18(CanonicalOffset(*triple)) is case


def test_both_formulas_agree_where_both_apply():
    start = time.perf_counter()
    for i, j, k in canonical_triples(30):
        if j + k <= i <= j + k + 1:
            off = CanonicalOffset(i, j, k)
            assert count_n18_maxcase(off) == count_n18_halfcase(off), off
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"the overlap identity took {elapsed:.3f}s"


def test_count_n18_dispatch_matches_applicable_formula():
    for triple in canonical_triples(25):
        off = CanonicalOffset(*triple)
        expected = (
            count_n18_maxcase(off)
            if classify_n18(off) is not N18Case.HALF_CASE
            else count_n18_halfcase(off)
        )
        assert count_paths(off, Neighborhood.N18) == expected, off
        assert count_paths(off, Neighborhood.N18, check_overlap=True) == expected, off


def test_overlap_check_raises_when_the_formulas_disagree(monkeypatch):
    import cubepaths.counting as counting

    true_halfcase = counting.count_n18_halfcase
    monkeypatch.setattr(counting, "count_n18_halfcase", lambda off: true_halfcase(off) + 1)
    off = CanonicalOffset(9, 5, 4)
    with pytest.raises(AssertionError, match=r"\(9, 5, 4\)"):
        count_paths(off, Neighborhood.N18, check_overlap=True)
    assert count_paths(off, Neighborhood.N18) == count_n18_maxcase(off)


# --------------------------------------------------------------- dispatch


def _recording(seen, name, fn):
    def recorded(*args):
        seen.append(name)
        return fn(*args)

    return recorded


@pytest.mark.parametrize(
    "triple,neighborhood,check_overlap,calls",
    [
        ((3, 2, 1), Neighborhood.N6, False, ["count_n6"]),
        ((3, 2, 1), Neighborhood.N26, False, ["count_n26", "count_n8_2d", "count_n8_2d"]),
        ((5, 1, 1), Neighborhood.N18, False, ["classify_n18", "count_n18_maxcase"]),
        ((3, 2, 2), Neighborhood.N18, False, ["classify_n18", "count_n18_halfcase"]),
        ((3, 2, 1), Neighborhood.N18, False, ["classify_n18", "count_n18_maxcase"]),
        (
            (3, 2, 1),
            Neighborhood.N18,
            True,
            ["classify_n18", "count_n18_maxcase", "count_n18_halfcase"],
        ),
    ],
)
def test_count_paths_reaches_each_kernel_through_the_module_globals(
    triple, neighborhood, check_overlap, calls, monkeypatch
):
    # the benchmark's tracer rebinds these names in `counting`; a dispatch
    # holding its own references would hide the kernels from the trace, and
    # the max case sums through the private _planar, never count_n8_2d
    off = CanonicalOffset(*triple)
    value = count_paths(off, neighborhood, check_overlap)
    seen = []
    for name in (
        "count_n6",
        "count_n8_2d",
        "count_n26",
        "count_n18_halfcase",
        "count_n18_maxcase",
        "classify_n18",
    ):
        monkeypatch.setattr(counting, name, _recording(seen, name, getattr(counting, name)))
    assert count_paths(off, neighborhood, check_overlap) == value
    assert seen == calls


def test_the_package_exports_the_dispatcher_and_not_the_kernels_behind_it():
    import cubepaths
    import cubepaths.counting as counting

    # the entry points and the types callers pass them, each bound in the
    # package as in the module that defines it
    kept = {
        "ORIGIN": "core",
        "CanonicalOffset": "core",
        "GridPoint": "core",
        "Neighborhood": "core",
        "canonicalize": "core",
        "count_paths": "counting",
        "distance": "metrics",
        "enumerate_shortest_paths": "oracle",
        "oracle_count": "oracle",
        "oracle_count_2d": "oracle",
        "shell_table": "tables",
        "slice_table_2d": "tables",
        "verify_region": "verify",
    }
    assert cubepaths.__all__ == list(kept)
    for name, module in kept.items():
        assert getattr(cubepaths, name) is getattr(importlib.import_module(f"cubepaths.{module}"), name)
    kernels = (
        N18Case,
        classify_n18,
        count_n6,
        count_n8_2d,
        count_n18_halfcase,
        count_n18_maxcase,
        count_n26,
    )
    for kernel in kernels:
        # one binding each, in counting, where tables, verify and the tests import it
        assert getattr(counting, kernel.__name__) is kernel
        assert kernel.__module__ == "cubepaths.counting"
        assert kernel.__name__ not in dir(cubepaths)
    helpers = {
        "core": (MoveStep, admissible_moves),
        "oracle": (PathList, iter_shortest_paths),
        "tables": (TableEntry, CountTable),
        "verify": (VerifyReport,),
    }
    for module, names in helpers.items():
        for helper in names:
            # one binding each, unchanged, in the module that defines it
            assert getattr(importlib.import_module(f"cubepaths.{module}"), helper.__name__) is helper
            assert helper.__module__ == f"cubepaths.{module}"
            assert helper.__name__ not in dir(cubepaths)


# every checked parameter of a public function, "function(parameter)": its
# kind and a call that passes it with a valid rest
_CHECKED = {
    "admissible_moves(neighborhood)": (Neighborhood, admissible_moves),
    "canonicalize(p)": (GridPoint, lambda v: canonicalize(v, ORIGIN)),
    "canonicalize(q)": (GridPoint, lambda v: canonicalize(ORIGIN, v)),
    "displacement_metric(neighborhood)": (Neighborhood, displacement_metric),
    "distance(p)": (GridPoint, lambda v: distance(v, ORIGIN, Neighborhood.N6)),
    "distance(q)": (GridPoint, lambda v: distance(ORIGIN, v, Neighborhood.N6)),
    "distance(neighborhood)": (Neighborhood, lambda v: distance(GridPoint(3, 2, 1), ORIGIN, v)),
    "count_n6(off)": (CanonicalOffset, count_n6),
    "count_n8_2d(i)": (int, lambda v: count_n8_2d(v, 0)),
    "count_n8_2d(j)": (int, lambda v: count_n8_2d(2, v)),
    "count_n18_maxcase(off)": (CanonicalOffset, count_n18_maxcase),
    "count_n18_halfcase(off)": (CanonicalOffset, count_n18_halfcase),
    "classify_n18(off)": (CanonicalOffset, classify_n18),
    "count_n26(off)": (CanonicalOffset, count_n26),
    "count_paths(off)": (CanonicalOffset, lambda v: count_paths(v, Neighborhood.N6)),
    "count_paths(neighborhood)": (Neighborhood, lambda v: count_paths(CanonicalOffset(3, 2, 1), v)),
    "count_paths(check_overlap)": (
        bool,
        lambda v: count_paths(CanonicalOffset(2, 1, 1), Neighborhood.N18, v),
    ),
    "oracle_count(target)": (GridPoint, lambda v: oracle_count(v, Neighborhood.N6)),
    "oracle_count(neighborhood)": (Neighborhood, lambda v: oracle_count(GridPoint(3, 2, 1), v)),
    "oracle_count_2d(i)": (int, lambda v: oracle_count_2d(v, 0)),
    "oracle_count_2d(j)": (int, lambda v: oracle_count_2d(2, v)),
    "iter_shortest_paths(target)": (
        GridPoint,
        lambda v: next(iter_shortest_paths(v, Neighborhood.N6)),
    ),
    "iter_shortest_paths(neighborhood)": (
        Neighborhood,
        lambda v: next(iter_shortest_paths(GridPoint(3, 2, 1), v)),
    ),
    # with a limit of 0 too: the target is refused before the limit is checked
    "enumerate_shortest_paths(target)": (
        GridPoint,
        lambda v: enumerate_shortest_paths(v, Neighborhood.N6, 0),
    ),
    "enumerate_shortest_paths(neighborhood)": (
        Neighborhood,
        lambda v: enumerate_shortest_paths(GridPoint(3, 2, 1), v),
    ),
    "enumerate_shortest_paths(limit)": (
        int,
        lambda v: enumerate_shortest_paths(GridPoint(1, 1, 0), Neighborhood.N6, v),
    ),
    "symmetry_images(point)": (GridPoint, symmetry_images),
    "shell_table(neighborhood)": (Neighborhood, lambda v: shell_table(v, 2)),
    "shell_table(length)": (int, lambda v: shell_table(Neighborhood.N6, v)),
    "shell_table(expand_symmetry)": (bool, lambda v: shell_table(Neighborhood.N6, 2, v)),
    "slice_table_2d(max_i)": (int, slice_table_2d),
    "decimal_string(value)": (int, decimal_string),
    "to_csv(table)": (CountTable, to_csv),
    "to_tsv(table)": (CountTable, to_tsv),
    "to_json(table)": (CountTable, to_json),
    "to_text(table)": (CountTable, to_text),
    "verify_region(extent)": (int, lambda v: verify_region(v, Neighborhood.N6)),
    "verify_region(neighborhood)": (Neighborhood, lambda v: verify_region(1, v)),
}

# the wrong values each kind is given: a bool or a float used to pass as an
# int, a truthy value as a flag, and a wrong value type to die on an internal
# method (as_triple, as_tuple, displacement_from) or, as a MoveStep target,
# to pass by accident
_VALUES = [(1, 1, 0), GridPoint(1, 1, 0), CanonicalOffset(1, 1, 0), MoveStep(1, 1, 0), None]
_WRONG = {
    Neighborhood: [6, "18", None, [18]],
    int: [True, 2.0, 2.5, "2"],
    bool: [1, 0, "yes", None],
    **{
        kind: [value for value in _VALUES if not isinstance(value, kind)]
        for kind in (GridPoint, CanonicalOffset, CountTable)
    },
}


def _split(entry):
    # "function(parameter)" -> ("function", "parameter")
    function, parameter = entry[:-1].split("(")
    return function, parameter


@pytest.mark.parametrize(
    "entry, value",
    [
        pytest.param(entry, value, id=f"{entry}-{value!r}")
        for entry, (kind, _) in _CHECKED.items()
        for value in _WRONG[kind]
    ],
)
def test_every_checked_parameter_refuses_a_wrong_value(entry, value):
    kind, call = _CHECKED[entry]
    if kind is Neighborhood:
        refusal = ValueError(f"unknown neighborhood: {value!r}")
    else:
        refusal = TypeError(f"{_split(entry)[1]} must be {kind.__name__}: {value!r}")
    with pytest.raises(type(refusal)) as refused:
        call(value)
    assert str(refused.value) == str(refusal)


def test_every_public_parameter_of_a_checked_kind_has_a_row():
    # the modules' annotations are strings; check_size is the size rule itself
    kinds = {kind.__name__ for kind in _WRONG}
    found = {}
    for module in ("core", "metrics", "counting", "oracle", "tables", "verify"):
        namespace = importlib.import_module(f"cubepaths.{module}")
        for name, function in vars(namespace).items():
            if (
                name.startswith("_")
                or not inspect.isfunction(function)
                or function.__module__ != namespace.__name__
                or function is check_size
            ):
                continue
            for parameter in inspect.signature(function).parameters.values():
                if parameter.annotation in kinds:
                    found[f"{name}({parameter.name})"] = parameter.annotation
    assert {entry: kind.__name__ for entry, (kind, _) in _CHECKED.items()} == found


# each function of a neighborhood row that has another row as well, that
# parameter given a wrong value type or a negative size too, and the refusal
# that comes first
_TWO_FAULTS = {
    "distance": (
        lambda n: distance((3, 2, 1), ORIGIN, n),
        TypeError("p must be GridPoint: (3, 2, 1)"),
    ),
    "count_paths": (
        lambda n: count_paths(GridPoint(3, 2, 1), n),
        TypeError("off must be CanonicalOffset: GridPoint(x=3, y=2, z=1)"),
    ),
    "oracle_count": (
        lambda n: oracle_count((3, 2, 1), n),
        TypeError("target must be GridPoint: (3, 2, 1)"),
    ),
    "iter_shortest_paths": (
        lambda n: next(iter_shortest_paths((3, 2, 1), n)),
        TypeError("target must be GridPoint: (3, 2, 1)"),
    ),
    "enumerate_shortest_paths": (
        lambda n: enumerate_shortest_paths((3, 2, 1), n),
        TypeError("target must be GridPoint: (3, 2, 1)"),
    ),
    "shell_table": (
        lambda n: shell_table(n, -1),
        ValueError("length must be nonnegative, got -1"),
    ),
    "verify_region": (
        lambda n: verify_region(-1, n),
        ValueError("extent must be nonnegative, got -1"),
    ),
}
_ROWS = Counter(_split(entry)[0] for entry in _CHECKED)


@pytest.mark.parametrize("neighborhood", _WRONG[Neighborhood])
@pytest.mark.parametrize(
    "entry",
    [
        _split(entry)[0]
        for entry, (kind, _) in _CHECKED.items()
        if kind is Neighborhood and _ROWS[_split(entry)[0]] > 1
    ],
)
def test_a_wrong_type_or_size_is_refused_before_the_neighborhood(entry, neighborhood):
    call, first = _TWO_FAULTS[entry]
    with pytest.raises(type(first)) as refused:
        call(neighborhood)
    assert str(refused.value) == str(first)


def test_counts_stay_exact_at_large_coordinates():
    # Big enough that 64-bit arithmetic would have overflowed long ago.
    off = CanonicalOffset(120, 80, 40)
    assert count_n6(off) == factorial(240) // (factorial(120) * factorial(80) * factorial(40))
    assert count_n6(off).bit_length() > 64
    assert count_paths(off, Neighborhood.N18) > 0
    assert count_n26(off) == count_n8_2d(120, 80) * count_n8_2d(120, 40)


# ------------------------------------------------- far-field recurrence

# where both the recurrence and the mid-layer cut run: d <= 120 under every
# connectivity (coordinate sum at most 120), so each cut takes well under 0.3 s
_FAR_TARGETS = [
    (60, 25, 10),  # N18 max case, odd sum
    (70, 10, 3),
    (40, 39, 38),  # N18 half case, odd sum
    (-51, 20, 30),  # N18 overlap, i == j + k + 1 (odd sum), signed
    (12, -30, 62),  # N18 max case, even sum, signed and permuted
    (40, 38, 36),  # N18 half case, even sum
    (50, 30, 20),  # N18 overlap, i == j + k (even sum)
    (110, 0, 0),  # an axis
    (58, 58, 0),  # the planar diagonal
    (39, 39, 39),  # the spatial diagonal
]


_RECURRENCE_TARGETS = [
    (240, 10, 5),  # N18 max case
    (241, 10, 5),  # its predecessors include the N18 max case at i = 240
    (400, 399, 398),  # N18 half case
    (201, 100, 100),  # N18 overlap, i == j + k + 1
    (300, 150, 75),
    (1000, 500, 250),
    *_FAR_TARGETS,
]


@pytest.mark.parametrize("neighborhood", list(Neighborhood))
@pytest.mark.parametrize("triple", _RECURRENCE_TARGETS)
def test_count_is_the_sum_over_geodesic_predecessors(triple, neighborhood):
    # Both sides come from the formulas, at sizes the oracle cannot reach;
    # the identity is linear, so a formula off by a constant factor passes.
    v = GridPoint(*triple)
    assert count_paths(canonicalize(v, ORIGIN), neighborhood) == _predecessor_sum(
        v, neighborhood, count_paths
    )


def _predecessor_sum(v, neighborhood, count):
    # count(v) is the sum of count(u) over the predecessors u of v
    return sum(count(canonicalize(u, ORIGIN), neighborhood) for u in _predecessors(v, neighborhood))


# ------------------------------------------------- far-field mid-layer cut
#
# Every shortest path from the origin to t crosses the layer of points v with
# d(0, v) = s and d(v, t) = d - s exactly once, so count(0 -> t) is the sum of
# count(0 -> v) * count(v -> t) over that layer (the path-counting lemma behind
# Brandes, "A faster algorithm for betweenness centrality", 2001).  At
# s = floor(d / 2) both factors are counts at about half of t's size, so an
# error confined to offsets of t's size no longer cancels as it does in the
# recurrence.  The cut alone passes a count scaled by c^d (c^s * c^(d - s));
# the recurrence, which compares counts one step apart, does not.


def _middle_layer(t, neighborhood):
    # every metric here is at least the largest coordinate difference, so each
    # layer point lies within s of the origin and d - s of t on every axis
    dist = displacement_metric(neighborhood)
    d = dist(*t)
    s = d // 2
    reach = [range(max(-s, c - (d - s)), min(s, c + (d - s)) + 1) for c in t]
    return [
        GridPoint(x, y, z)
        for x in reach[0]
        for y in reach[1]
        for z in reach[2]
        if dist(x, y, z) == s and dist(t.x - x, t.y - y, t.z - z) == d - s
    ]


def _cut_sum(t, neighborhood, count):
    return sum(
        count(canonicalize(v, ORIGIN), neighborhood) * count(canonicalize(t, v), neighborhood)
        for v in _middle_layer(t, neighborhood)
    )


@pytest.mark.parametrize("neighborhood", list(Neighborhood))
@pytest.mark.parametrize("triple", _FAR_TARGETS)
def test_count_is_the_sum_over_the_middle_layer(triple, neighborhood):
    t = GridPoint(*triple)
    assert count_paths(canonicalize(t, ORIGIN), neighborhood) == _cut_sum(
        t, neighborhood, count_paths
    )


def test_the_cut_catches_a_region_scaled_count_that_the_recurrence_passes():
    # doubling every count with i >= 50 scales both sides of the recurrence
    # near t alike, but no middle-layer factor of these targets is that large
    def doubled(off, neighborhood):
        return (2 if off.i >= 50 else 1) * count_paths(off, neighborhood)

    for neighborhood in Neighborhood:
        for triple in _FAR_TARGETS[:2]:
            t = GridPoint(*triple)
            count = doubled(canonicalize(t, ORIGIN), neighborhood)
            assert count == _predecessor_sum(t, neighborhood, doubled), (triple, neighborhood)
            assert count != _cut_sum(t, neighborhood, doubled), (triple, neighborhood)


# ------------------------------------------------- far-field value pins
#
# Exact values where the oracle cannot reach, against the benchmark's modular
# direct sums.  The recurrence above passes a formula scaled by a constant on
# a whole region; these pins do not, as the mutant table below proves.

_FAR_FIELD = [
    (100, 0, 0),  # axes
    (333, 0, 0),
    (520, 0, 0),
    (401, 401, 0),  # planar and spatial diagonals
    (260, 260, 260),
    (400, 100, 50),  # N18 max case, even and odd coordinate sum
    (401, 100, 50),
    (300, 250, 200),  # N18 half case, even and odd coordinate sum
    (301, 250, 200),
    (302, 200, 100),  # across the N18 overlap: i - (j + k) = 2, 1, 0, -1
    (301, 200, 100),
    (300, 200, 100),
    (299, 200, 100),
    (250, 150, 100),  # coordinate sum 500
    (520, 260, 130),  # the heaviest benchmark shapes
    (520, 173, 173),
]


def _library_misses() -> list:
    # looks count_paths up in counting at call time, so a wrapper set there counts
    return [
        (triple, n.value)
        for triple in _FAR_FIELD
        for n in Neighborhood
        if not MODULAR_COUNTS.matches(
            n.value, triple, counting.count_paths(CanonicalOffset(*triple), n)
        )
    ]


def _cli_misses() -> list:
    # each pin through `cubepaths count -n all`, displaced from a signed origin
    # and permuted, so that the CLI's canonicalization is on the path too
    misses = []
    for i, j, k in _FAR_FIELD:
        argv = ["count", "--from", "1,-2,3", "--to", f"{1 + k},{-2 - i},{3 + j}", "-n", "all"]
        code, out, _ = run_cli(argv)
        assert code == 0
        for line in out.splitlines():
            n, value = line.split("\t")
            if not MODULAR_COUNTS.matches(int(n), (i, j, k), int(value)):
                misses.append(((i, j, k), int(n)))
    return misses


def test_count_paths_equals_the_modular_reference_in_the_far_field():
    assert _library_misses() == []


def test_cli_count_equals_the_modular_reference_in_the_far_field():
    assert _cli_misses() == []


# ------------------------------------------------- far-field oracle anchors
#
# Exact values the oracle computed once, offline, at dominant coordinates of
# 100 to 250 (tests/oracle_anchors.py).  They are the one far-field check that
# shares nothing with the formulas.

_ANCHORS = json.loads(oracle_anchors.DATA.read_text(encoding="utf-8"))["anchors"]


def _anchor_misses() -> list:
    # looks count_paths up in counting at call time, so a wrapper set there counts
    misses = []
    for anchor in _ANCHORS:
        off = canonicalize(GridPoint(*anchor["target"]), ORIGIN)
        n = Neighborhood(anchor["neighborhood"])
        if counting.count_paths(off, n) != int(anchor["count"]):
            misses.append((n.value, anchor["target"]))
    return misses


def test_count_paths_equals_the_oracle_anchors():
    assert _anchor_misses() == []


def test_cli_count_equals_the_oracle_anchors():
    # every anchor target as `cubepaths count --to x,y,z -n all` reads it,
    # the signed, permuted one among them
    expected = {}
    for anchor in _ANCHORS:
        counts = expected.setdefault(tuple(anchor["target"]), {})
        counts[str(anchor["neighborhood"])] = anchor["count"]
    for target, counts in expected.items():
        code, out, _ = run_cli(["count", "--to", ",".join(map(str, target)), "-n", "all"])
        assert code == 0
        printed = dict(line.split("\t") for line in out.splitlines())
        assert {n: printed[n] for n in counts} == counts, target


def test_the_anchor_file_lists_the_script_targets_in_order():
    # editing the script's list without regenerating the file fails here
    assert [(a["neighborhood"], tuple(a["target"])) for a in _ANCHORS] == oracle_anchors.ANCHORS


_exact_count = functools.cache(count_paths)


def _plus_one(off, n):
    return _exact_count(off, n) + 1


def _doubled(off, n):
    return 2 * _exact_count(off, n)


def _next_offset(off, n):
    # the value of the neighbouring offset (i + 1, j, k): the right formula
    # read at the wrong point
    return _exact_count(CanonicalOffset(off.i + 1, off.j, off.k), n)


def _n18_case(off, n, case):
    return n is Neighborhood.N18 and classify_n18(off) is case


# value faults past the oracle's reach (i >= 100): where its predicate holds,
# count_paths answers with the perturbed value.  The third column is the set
# of far-field checks that catch it: the oracle anchors, the pins, the
# recurrence at its targets past the oracle's reach, and the cut at the axis
# (110, 0, 0).  Every predicate holds at one anchor at least.  Swapping j and
# k is no fault, since every count is symmetric in the three coordinates.
_VALUE_MUTANTS = {
    "N18 x2 for i >= 100": (
        lambda off, n: n is Neighborhood.N18 and off.i >= 100,
        _doubled,
        {"anchors", "pins", "cut"},
    ),
    "N26 x2 for i >= 250": (
        lambda off, n: n is Neighborhood.N26 and off.i >= 250,
        _doubled,
        {"anchors", "pins"},
    ),
    "N6 +1 at coordinate sum 500": (
        lambda off, n: n is Neighborhood.N6 and sum(off) == 500,
        _plus_one,
        {"anchors", "pins"},
    ),
    "N6 +1 on the axis": (
        lambda off, n: n is Neighborhood.N6 and off.j == 0,
        _plus_one,
        {"anchors", "pins", "cut"},
    ),
    "N26 +1 on the axis": (
        lambda off, n: n is Neighborhood.N26 and off.j == 0,
        _plus_one,
        {"anchors", "pins", "cut"},
    ),
    "N18 x2 on the spatial diagonal": (
        lambda off, n: n is Neighborhood.N18 and off.i == off.k,
        _doubled,
        {"anchors", "pins"},
    ),
    "N6 +1 on the planar diagonal": (
        lambda off, n: n is Neighborhood.N6 and off.i == off.j and off.k == 0,
        _plus_one,
        {"anchors", "pins"},
    ),
    "N18 max case +1 at odd coordinate sum": (
        lambda off, n: _n18_case(off, n, N18Case.MAX_CASE) and sum(off) % 2 == 1,
        _plus_one,
        {"anchors", "pins", "recurrence"},
    ),
    "N18 max case x2 at even coordinate sum": (
        lambda off, n: _n18_case(off, n, N18Case.MAX_CASE) and sum(off) % 2 == 0,
        _doubled,
        {"anchors", "pins", "recurrence", "cut"},
    ),
    "N18 half case +1 at even coordinate sum": (
        lambda off, n: _n18_case(off, n, N18Case.HALF_CASE) and sum(off) % 2 == 0,
        _plus_one,
        {"anchors", "pins", "recurrence"},
    ),
    "N18 half case x2 at odd coordinate sum": (
        lambda off, n: _n18_case(off, n, N18Case.HALF_CASE) and sum(off) % 2 == 1,
        _doubled,
        {"anchors", "pins", "recurrence"},
    ),
    "N18 +1 at i == j + k + 2": (
        lambda off, n: n is Neighborhood.N18 and off.i == off.j + off.k + 2,
        _plus_one,
        {"anchors", "pins"},
    ),
    "N18 +1 at i == j + k + 1": (
        lambda off, n: n is Neighborhood.N18 and off.i == off.j + off.k + 1,
        _plus_one,
        {"anchors", "pins", "recurrence"},
    ),
    "N18 x2 at i == j + k": (
        lambda off, n: n is Neighborhood.N18 and off.i == off.j + off.k,
        _doubled,
        {"anchors", "pins", "recurrence"},
    ),
    "N18 +1 at i == j + k - 1": (
        lambda off, n: n is Neighborhood.N18 and off.i == off.j + off.k - 1,
        _plus_one,
        {"anchors", "pins"},
    ),
    "N26 neighbouring offset at j == k": (
        lambda off, n: n is Neighborhood.N26 and off.j == off.k,
        _next_offset,
        {"anchors", "pins", "recurrence", "cut"},
    ),
}


def _mutated_count(mutant):
    applies, perturbed, _ = _VALUE_MUTANTS[mutant]

    def mutated(off, neighborhood):
        if off.i >= 100 and applies(off, neighborhood):
            return perturbed(off, neighborhood)
        return _exact_count(off, neighborhood)

    return mutated


@pytest.mark.parametrize("mutant", list(_VALUE_MUTANTS))
def test_the_far_field_pins_catch_every_value_mutant(mutant, monkeypatch):
    mutated = _mutated_count(mutant)
    monkeypatch.setattr(counting, "count_paths", mutated)
    monkeypatch.setattr(cli, "count_paths", mutated)
    assert _library_misses()
    assert _cli_misses()


def test_which_far_field_checks_catch_each_value_mutant(monkeypatch):
    # the recurrence misses a whole-region factor that the cut catches, the cut
    # misses most faults away from its one target, and the pins, though blind
    # to a formula wrong in itself, catch every value fault; so do the anchors,
    # which share nothing with the formulas
    far = [GridPoint(*t) for t in _RECURRENCE_TARGETS if max(map(abs, t)) >= 100]
    axis = GridPoint(110, 0, 0)

    def catches(check, count, v):
        return any(count(canonicalize(v, ORIGIN), n) != check(v, n, count) for n in Neighborhood)

    caught = {}
    for mutant in _VALUE_MUTANTS:
        mutated = _mutated_count(mutant)
        monkeypatch.setattr(counting, "count_paths", mutated)
        checks = {
            "anchors": bool(_anchor_misses()),
            "pins": bool(_library_misses()),
            "recurrence": any(catches(_predecessor_sum, mutated, v) for v in far),
            "cut": catches(_cut_sum, mutated, axis),
        }
        caught[mutant] = {check for check, hit in checks.items() if hit}
    assert caught == {mutant: row[2] for mutant, row in _VALUE_MUTANTS.items()}
