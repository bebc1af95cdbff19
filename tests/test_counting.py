"""Tests for the closed-form path counts.

Worked values here were derived by hand from the combinatorial arguments in
the docstrings; agreement with the independent graph-search oracle is tested
separately (test_oracle.py and the acceptance suite).
"""

import functools
import importlib
import importlib.util
import io
import math
from contextlib import redirect_stdout
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

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
from cubepaths.tables import CountTable, TableEntry, shell_table, slice_table_2d
from cubepaths.verify import VerifyReport, verify_region


@st.composite
def canonical_offsets(draw, max_value=20):
    i = draw(st.integers(0, max_value))
    j = draw(st.integers(0, i))
    k = draw(st.integers(0, j))
    return CanonicalOffset(i, j, k)


def _sorted_offset(a, b, c):
    i, j, k = sorted((a, b, c), reverse=True)
    return CanonicalOffset(i, j, k)


# ------------------------------------------- direct factorial sums (reference)
#
# The kernels as first written: one factorial quotient per summand.  They
# are a second reference beside the oracle, at sizes the oracle cannot reach.


def _direct_n8_2d(i, j):
    fi = factorial(i)
    total = 0
    for b in range((i - j) // 2 + 1):
        total += fi // (factorial(b) * factorial(j + b) * factorial(i - j - 2 * b))
    return total


def _direct_n18_maxcase(i, j, k):
    slack = i - j - k
    fi = factorial(i)
    total = 0
    for a in range(slack // 2 + 1):
        for b in range((slack - 2 * a) // 2 + 1):
            total += fi // (
                factorial(a)
                * factorial(b)
                * factorial(k + a)
                * factorial(j + b)
                * factorial(slack - 2 * (a + b))
            )
    return total


def _direct_n18_halfcase(i, j, k):
    total = i + j + k
    steps = (total + 1) // 2
    den = factorial(steps - i) * factorial(steps - j) * factorial(steps - k)
    if total % 2 == 0:
        return factorial(steps) // den
    ri, rj, rk = steps - i, steps - j, steps - k
    weight = ri * rj + rj * rk + rk * ri
    return factorial(steps) * weight // den


def test_kernels_equal_direct_sums_on_sweep():
    for i in range(41):
        for j in range(i + 1):
            assert count_n8_2d(i, j) == _direct_n8_2d(i, j), (i, j)
            for k in range(j + 1):
                off = CanonicalOffset(i, j, k)
                if i >= j + k:
                    assert count_n18_maxcase(off) == _direct_n18_maxcase(i, j, k), off
                if i <= j + k + 1:
                    assert count_n18_halfcase(off) == _direct_n18_halfcase(i, j, k), off
                assert count_n26(off) == _direct_n8_2d(i, j) * _direct_n8_2d(i, k), off


@pytest.mark.parametrize("triple", [(300, 0, 0), (520, 100, 60), (400, 399, 0), (1000, 500, 250)])
def test_maxcase_and_n26_equal_direct_sums_beyond_oracle_reach(triple):
    i, j, k = triple
    off = CanonicalOffset(i, j, k)
    assert count_n18_maxcase(off) == _direct_n18_maxcase(i, j, k)
    assert count_n26(off) == _direct_n8_2d(i, j) * _direct_n8_2d(i, k)


@pytest.mark.parametrize("triple", [(3000, 2000, 1001), (6000, 3000, 3000)])
def test_halfcase_equals_direct_formula_beyond_oracle_reach(triple):
    assert count_n18_halfcase(CanonicalOffset(*triple)) == _direct_n18_halfcase(*triple)


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


def _perfbench_reference():
    # the benchmark's own references, which share no code with cubepaths
    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"
    spec = importlib.util.spec_from_file_location("perfbench_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("triple", [(2000, 0, 0), (4000, 2000, 1000)])
def test_single_sum_equals_the_modular_direct_sum_far_beyond_oracle_reach(triple):
    # pins the single sum where the exact double sum takes minutes, so an
    # O(i) max-case kernel built on it is proven at these sizes too
    reference = _perfbench_reference().ModularCounts()
    assert reference.matches(18, triple, _single_sum_n18_maxcase(*triple))


def test_single_sum_term_ratio_certificate():
    # t(m) = C(i, m) C(m, a) C(m, b) with a = (m + j + k)/2, b = (m + j - k)/2;
    # m -> m + 2 moves a and b up by one, so each term follows from the
    # previous one by one multiplication and one exact division
    sympy = pytest.importorskip("sympy")
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
    reference = _perfbench_reference().ModularCounts()
    assert reference.matches(8, (*pair, 0), _planar_by_recurrence(*pair))


def test_planar_recurrence_certificate():
    sympy = pytest.importorskip("sympy")
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


def _halfcase_in_r(sympy, a, b, c, odd):
    f = sympy.factorial
    if odd:
        return f(a + b + c - 1) * _w(a, b, c) / (f(a) * f(b) * f(c))
    return f(a + b + c) / (f(a) * f(b) * f(c))


def _reduced_terms(sympy, r, odd, predecessors):
    # each count over (L - 1)! / (r_i! r_j! r_k!), the target's own first
    ri, rj, rk = r
    f = sympy.factorial
    scale = f(sum(r) - (2 if odd else 1)) / (f(ri) * f(rj) * f(rk))
    counts = [_halfcase_in_r(sympy, ri, rj, rk, odd)]
    counts += [_halfcase_in_r(sympy, *shifted, parity) for shifted, parity in predecessors]
    return [sympy.factor(sympy.combsimp(count / scale)) for count in counts]


def test_halfcase_even_sum_certificate():
    # the three pair predecessors give r_k/L + r_j/L + r_i/L = 1
    sympy = pytest.importorskip("sympy")
    r = ri, rj, rk = sympy.symbols("r_i r_j r_k", positive=True, integer=True)
    pairs = [((ri, rj, rk - 1), False), ((ri, rj - 1, rk), False), ((ri - 1, rj, rk), False)]
    own, *terms = _reduced_terms(sympy, r, False, pairs)
    assert [sympy.expand(t) for t in (own, *terms)] == [ri + rj + rk, rk, rj, ri]
    assert sympy.simplify(rk / own + rj / own + ri / own) == 1


def test_halfcase_odd_sum_certificate():
    # the pair predecessors give r_k w(r_i, r_j, r_k - 1) and its two images,
    # the single-axis ones r_j r_k, r_i r_k and r_i r_j; they sum to L w(r)
    sympy = pytest.importorskip("sympy")
    r = ri, rj, rk = sympy.symbols("r_i r_j r_k", positive=True, integer=True)
    pairs = [((ri, rj, rk - 1), True), ((ri, rj - 1, rk), True), ((ri - 1, rj, rk), True)]
    singles = [
        ((ri, rj - 1, rk - 1), False),
        ((ri - 1, rj, rk - 1), False),
        ((ri - 1, rj - 1, rk), False),
    ]
    own, *terms = _reduced_terms(sympy, r, True, pairs + singles)
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


def _halfcase_box(top):
    return [
        CanonicalOffset(i, j, k)
        for i in range(1, top + 1)
        for j in range(i + 1)
        for k in range(j + 1)
        if i <= j + k + 1
    ]


def test_halfcase_predecessors_are_the_ones_the_certificates_sum_over():
    # the geodesic predecessors of each half-case point, found from the move
    # set and the metric alone, are the certificates' predecessors whose factor
    # is not 0, and each lies where the half-case formula applies; the box
    # i <= 12 holds every pattern of _halfcase_pattern (i <= 18 adds none)
    box = _halfcase_box(12)
    assert {_halfcase_pattern(off) for off in box} == {
        _halfcase_pattern(off) for off in _halfcase_box(18)
    }
    n18 = Neighborhood.N18
    for off in box:
        v = GridPoint(*off)
        steps = distance(v, ORIGIN, n18)
        assert steps == (sum(off) + 1) // 2, off
        found = sorted(
            canonicalize(u, ORIGIN)
            for move in admissible_moves(n18)
            for u in [GridPoint(v.x - move.dx, v.y - move.dy, v.z - move.dz)]
            if distance(u, ORIGIN, n18) == steps - 1
        )
        expected = sorted(
            canonicalize(GridPoint(*u), ORIGIN)
            for u, factor in _halfcase_predecessor_factors(off)
            if factor != 0
        )
        assert found == expected, off
        assert all(classify_n18(u) is not N18Case.MAX_CASE for u in found), off


# ------------------------------------------- N6 and overlap certificates


def test_n6_pascal_certificate():
    # a face path ends with one of three unit steps, so the multinomial
    # (i + j + k)! / (i! j! k!) is the sum of its three predecessors'; each
    # quotient is i / (i + j + k) or an image, 0 where that predecessor is absent
    sympy = pytest.importorskip("sympy")
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
    sympy = pytest.importorskip("sympy")
    j, k, a, b, s = sympy.symbols("j k a b s", nonnegative=True, integer=True)
    f = sympy.factorial
    i = j + k + s
    term = f(i) / (f(a) * f(b) * f(k + a) * f(j + b) * f(s - 2 * (a + b)))
    for slack, r, common in (
        (0, (0, k, j), sympy.binomial(j + k, k)),
        (1, (0, k + 1, j + 1), f(j + k + 1) / (f(j) * f(k))),
    ):
        maxcase = term.subs({a: 0, b: 0, s: slack})
        halfcase = _halfcase_in_r(sympy, *r, odd=slack == 1)
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


def _powers(sympy, step, gens):
    # step^0, step^1, ... as polynomials, each the previous one times step
    power, step = sympy.Poly(1, *gens), sympy.Poly(step, *gens)
    for n in range(_SWEEP_TOP + 1):
        yield n, power
        power = power * step


def _grows_by_one_step(sympy, power, step):
    n = sympy.symbols("n", integer=True, positive=True)
    return sympy.simplify(power(n) - power(n - 1) * step) == 0


def test_planar_step_polynomial_certificate():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    step = 1 + x + x**2
    assert _grows_by_one_step(sympy, lambda n: step**n, step)
    for n, power in _powers(sympy, step, [x]):
        for j in range(n + 1):
            assert count_n8_2d(n, j) == power.nth(n + j), (n, j)


def test_n26_step_polynomial_certificate():
    sympy = pytest.importorskip("sympy")
    y, z = sympy.symbols("y z")
    in_y, in_z = 1 + y + y**2, 1 + z + z**2
    n = sympy.symbols("n", integer=True, positive=True)
    assert sympy.simplify((in_y * in_z) ** n - in_y**n * in_z**n) == 0
    assert _grows_by_one_step(sympy, lambda n: in_y**n * in_z**n, in_y * in_z)
    for i, power in _powers(sympy, in_y * in_z, [y, z]):
        for j in range(i + 1):
            for k in range(j + 1):
                off = CanonicalOffset(i, j, k)
                assert count_n26(off) == power.nth(i + j, i + k), off


def test_maxcase_step_polynomial_certificate():
    sympy = pytest.importorskip("sympy")
    y, z = sympy.symbols("y z")
    step = 1 + y + 1 / y + z + 1 / z
    assert _grows_by_one_step(sympy, lambda n: step**n, step)
    for i, power in _powers(sympy, sympy.expand(y * z * step), [y, z]):
        for j in range(i + 1):
            for k in range(min(j, i - j) + 1):
                off = CanonicalOffset(i, j, k)
                assert count_n18_maxcase(off) == power.nth(i + j, i + k), off


# ------------------------------------------------------- face connectivity


@pytest.mark.parametrize(
    "triple,expected",
    [
        ((0, 0, 0), 1),
        ((1, 0, 0), 1),
        ((1, 1, 1), 6),
        ((2, 1, 1), 12),
        ((3, 2, 1), 60),
    ],
)
def test_count_n6_values(triple, expected):
    assert count_n6(CanonicalOffset(*triple)) == expected


@given(canonical_offsets(max_value=60))
def test_count_n6_is_the_factorial_quotient(off):
    i, j, k = off.as_triple()
    assert count_n6(off) == factorial(i + j + k) // (factorial(i) * factorial(j) * factorial(k))


@given(st.integers(1, 25), st.integers(1, 25), st.integers(1, 25))
def test_count_n6_pascal_recurrence(i, j, k):
    assert count_n6(_sorted_offset(i, j, k)) == (
        count_n6(_sorted_offset(i - 1, j, k))
        + count_n6(_sorted_offset(i, j - 1, k))
        + count_n6(_sorted_offset(i, j, k - 1))
    )


@given(st.integers(0, 40), st.integers(0, 40))
def test_count_n6_planar_case_is_binomial(i, j):
    assert count_n6(_sorted_offset(i, j, 0)) == math.comb(i + j, i)


# -------------------------------------------------------- planar chessboard


@pytest.mark.parametrize(
    "i,j,expected",
    [
        (0, 0, 1),
        (1, 0, 1),
        (1, 1, 1),
        (2, 1, 2),
        (3, 0, 7),
        (3, 1, 6),
        (4, 0, 19),
        (7, 4, 77),
        (7, 2, 266),
    ],
)
def test_count_n8_2d_values(i, j, expected):
    assert count_n8_2d(i, j) == expected


def test_count_n8_2d_on_the_axis_is_the_central_trinomial_coefficient():
    # OEIS A002426: the coefficient of x^n in (1 + x + x^2)^n
    expected = [1, 1, 3, 7, 19, 51, 141, 393, 1107, 3139, 8953]
    assert [count_n8_2d(n, 0) for n in range(11)] == expected


def test_count_n8_2d_diagonal_is_single_path():
    for i in range(8):
        assert count_n8_2d(i, i) == 1


def test_count_n8_2d_rejects_unsorted_input():
    with pytest.raises(ValueError):
        count_n8_2d(2, 3)
    with pytest.raises(ValueError):
        count_n8_2d(1, -1)


# -------------------------------------------------- face-edge connectivity


@pytest.mark.parametrize(
    "triple,expected",
    [
        ((0, 3, 0), 13),
        ((1, 3, 0), 12),
        ((2, 2, 2), 6),
        ((2, 2, 1), 15),
        ((1, 1, 1), 6),
    ],
)
def test_count_n18_values(triple, expected):
    assert count_paths(_sorted_offset(*triple), Neighborhood.N18) == expected


def test_count_n18_formulas_respect_applicability():
    with pytest.raises(ValueError):
        count_n18_maxcase(CanonicalOffset(3, 2, 2))  # i < j + k
    with pytest.raises(ValueError):
        count_n18_halfcase(CanonicalOffset(5, 1, 1))  # i > j + k + 1


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
    for i in range(0, 21):
        for j in range(0, i + 1):
            for k in range(0, j + 1):
                if j + k <= i <= j + k + 1:
                    off = CanonicalOffset(i, j, k)
                    assert count_n18_maxcase(off) == count_n18_halfcase(off), off


@given(canonical_offsets(max_value=25))
def test_count_n18_dispatch_matches_applicable_formula(off):
    expected = (
        count_n18_maxcase(off)
        if classify_n18(off) is not N18Case.HALF_CASE
        else count_n18_halfcase(off)
    )
    assert count_paths(off, Neighborhood.N18) == expected
    assert count_paths(off, Neighborhood.N18, check_overlap=True) == expected


@given(canonical_offsets(max_value=30))
def test_halfcase_even_sum_is_a_multinomial(off):
    i, j, k = off.as_triple()
    if i <= j + k and (i + j + k) % 2 == 0:
        steps = (i + j + k) // 2
        parts = factorial(steps - i) * factorial(steps - j) * factorial(steps - k)
        assert count_n18_halfcase(off) == factorial(steps) // parts


def test_nine_five_four_counts_to_126_under_both_formulas():
    off = CanonicalOffset(9, 5, 4)
    assert count_n18_maxcase(off) == 126
    assert count_n18_halfcase(off) == 126
    assert count_paths(off, Neighborhood.N18, check_overlap=True) == 126


def test_overlap_check_raises_when_the_formulas_disagree(monkeypatch):
    import cubepaths.counting as counting

    true_halfcase = counting.count_n18_halfcase
    monkeypatch.setattr(counting, "count_n18_halfcase", lambda off: true_halfcase(off) + 1)
    off = CanonicalOffset(9, 5, 4)
    with pytest.raises(AssertionError, match=r"\(9, 5, 4\)"):
        count_paths(off, Neighborhood.N18, check_overlap=True)
    assert count_paths(off, Neighborhood.N18) == 126


def test_nine_four_four_counts_to_630():
    off = CanonicalOffset(9, 4, 4)
    assert count_n18_maxcase(off) == 630
    assert count_n18_halfcase(off) == 630


# ------------------------------------------------------- full connectivity


@pytest.mark.parametrize(
    "triple,expected",
    [
        ((0, 0, 0), 1),
        ((1, 1, 1), 1),
        ((2, 1, 0), 6),  # 2 planar paths in xy times 3 in xz
        ((3, 2, 1), 18),
        ((7, 4, 2), 20482),  # 77 * 266
    ],
)
def test_count_n26_values(triple, expected):
    assert count_n26(CanonicalOffset(*triple)) == expected


@given(canonical_offsets(max_value=25))
def test_count_n26_is_planar_product(off):
    assert count_n26(off) == count_n8_2d(off.i, off.j) * count_n8_2d(off.i, off.k)


@given(st.integers(0, 25), st.integers(0, 25))
def test_count_n26_diagonal_lock_is_perfect_square(i, j):
    i, j = max(i, j), min(i, j)
    value = count_n26(CanonicalOffset(i, j, j))
    root = math.isqrt(value)
    assert root * root == value


# --------------------------------------------------------------- dispatch


def test_count_paths_dispatches():
    off = CanonicalOffset(3, 2, 1)
    assert count_paths(off, Neighborhood.N6) == 60
    assert count_paths(off, Neighborhood.N18) == 3
    assert count_paths(off, Neighborhood.N26) == 18


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


# every public entry that takes a neighborhood, called with a valid rest
_NEIGHBORHOOD_ENTRIES = {
    "admissible_moves": admissible_moves,
    "distance": lambda n: distance(GridPoint(3, 2, 1), ORIGIN, n),
    "displacement_metric": displacement_metric,
    "count_paths": lambda n: count_paths(CanonicalOffset(3, 2, 1), n),
    "oracle_count": lambda n: oracle_count(GridPoint(3, 2, 1), n),
    "iter_shortest_paths": lambda n: next(iter_shortest_paths(GridPoint(3, 2, 1), n)),
    "enumerate_shortest_paths": lambda n: enumerate_shortest_paths(GridPoint(3, 2, 1), n),
    "shell_table": lambda n: shell_table(n, 2),
    "verify_region": lambda n: verify_region(1, n),
}


@pytest.mark.parametrize("neighborhood", [6, "18", None, [18]])
@pytest.mark.parametrize("entry", list(_NEIGHBORHOOD_ENTRIES))
def test_every_entry_refuses_what_is_not_a_neighborhood(entry, neighborhood):
    with pytest.raises(ValueError) as refused:
        _NEIGHBORHOOD_ENTRIES[entry](neighborhood)
    assert str(refused.value) == f"unknown neighborhood: {neighborhood!r}"


# every value-type parameter of a public entry or kernel: its type, a call with a valid rest
_VALUE_PARAMETERS = {
    "distance(p)": (GridPoint, lambda v: distance(v, ORIGIN, Neighborhood.N6)),
    "distance(q)": (GridPoint, lambda v: distance(ORIGIN, v, Neighborhood.N6)),
    "canonicalize(p)": (GridPoint, lambda v: canonicalize(v, ORIGIN)),
    "canonicalize(q)": (GridPoint, lambda v: canonicalize(ORIGIN, v)),
    "count_paths(off)": (CanonicalOffset, lambda v: count_paths(v, Neighborhood.N6)),
    "count_n6(off)": (CanonicalOffset, count_n6),
    "count_n18_maxcase(off)": (CanonicalOffset, count_n18_maxcase),
    "count_n18_halfcase(off)": (CanonicalOffset, count_n18_halfcase),
    "count_n26(off)": (CanonicalOffset, count_n26),
    "classify_n18(off)": (CanonicalOffset, classify_n18),
    "oracle_count(target)": (GridPoint, lambda v: oracle_count(v, Neighborhood.N6)),
    "iter_shortest_paths(target)": (
        GridPoint,
        lambda v: next(iter_shortest_paths(v, Neighborhood.N6)),
    ),
    # with a limit of 0 too: the target is refused before the limit is checked
    "enumerate_shortest_paths(target)": (
        GridPoint,
        lambda v: enumerate_shortest_paths(v, Neighborhood.N6, 0),
    ),
}
_VALUES = [(1, 1, 0), GridPoint(1, 1, 0), CanonicalOffset(1, 1, 0), MoveStep(1, 1, 0), None]


@pytest.mark.parametrize(
    "entry, value",
    [
        pytest.param(entry, value, id=f"{entry}-{value!r}")
        for entry, (kind, _) in _VALUE_PARAMETERS.items()
        for value in _VALUES
        if not isinstance(value, kind)
    ],
)
def test_every_value_type_parameter_refuses_another_type(entry, value):
    # a wrong type used to die on an internal method (as_triple, as_tuple,
    # displacement_from), or, for a MoveStep target, to pass by accident
    kind, call = _VALUE_PARAMETERS[entry]
    with pytest.raises(TypeError) as refused:
        call(value)
    parameter = entry[entry.index("(") + 1 : -1]
    assert str(refused.value) == f"{parameter} must be {kind.__name__}: {value!r}"


# every raw-int parameter of a public entry, called with a valid rest
_INT_PARAMETERS = {
    "shell_table(length)": lambda v: shell_table(Neighborhood.N6, v),
    "slice_table_2d(max_i)": slice_table_2d,
    "verify_region(extent)": lambda v: verify_region(v, Neighborhood.N6),
    "oracle_count_2d(i)": lambda v: oracle_count_2d(v, 0),
    "oracle_count_2d(j)": lambda v: oracle_count_2d(2, v),
    "count_n8_2d(i)": lambda v: count_n8_2d(v, 0),
    "count_n8_2d(j)": lambda v: count_n8_2d(2, v),
    "enumerate_shortest_paths(limit)": lambda v: enumerate_shortest_paths(
        GridPoint(1, 1, 0), Neighborhood.N6, v
    ),
}


@pytest.mark.parametrize("value", [True, 2.0, 2.5, "2"])
@pytest.mark.parametrize("entry", list(_INT_PARAMETERS))
def test_every_raw_int_parameter_refuses_what_is_not_exactly_int(entry, value):
    # a bool or a float used to pass as 1, 0 or 2, or to die deep inside
    with pytest.raises(TypeError) as refused:
        _INT_PARAMETERS[entry](value)
    parameter = entry[entry.index("(") + 1 : -1]
    assert str(refused.value) == f"{parameter} must be int: {value!r}"


# every flag parameter of a public entry, called with a valid rest
_FLAG_PARAMETERS = {
    "shell_table(expand_symmetry)": lambda v: shell_table(Neighborhood.N6, 2, v),
    "count_paths(check_overlap)": lambda v: count_paths(
        CanonicalOffset(2, 1, 1), Neighborhood.N18, v
    ),
}


@pytest.mark.parametrize("value", [1, 0, "yes", None])
@pytest.mark.parametrize("entry", list(_FLAG_PARAMETERS))
def test_every_flag_parameter_refuses_what_is_not_exactly_bool(entry, value):
    # a truthy value used to expand the shell or run the overlap check
    with pytest.raises(TypeError) as refused:
        _FLAG_PARAMETERS[entry](value)
    parameter = entry[entry.index("(") + 1 : -1]
    assert str(refused.value) == f"{parameter} must be bool: {value!r}"


@given(canonical_offsets(max_value=15))
def test_richer_neighborhoods_at_zero_offset(off):
    if off.as_triple() == (0, 0, 0):
        for neighborhood in Neighborhood:
            assert count_paths(off, neighborhood) == 1


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


@pytest.mark.parametrize("neighborhood", list(Neighborhood))
@pytest.mark.parametrize(
    "triple",
    [
        (240, 10, 5),  # N18 max case
        (241, 10, 5),  # its predecessors include the N18 max case at i = 240
        (400, 399, 398),  # N18 half case
        (201, 100, 100),  # N18 overlap, i == j + k + 1
        (300, 150, 75),
        (1000, 500, 250),
        *_FAR_TARGETS,
    ],
)
def test_count_is_the_sum_over_geodesic_predecessors(triple, neighborhood):
    # Both sides come from the formulas, at sizes the oracle cannot reach;
    # the identity is linear, so a formula off by a constant factor passes.
    v = GridPoint(*triple)
    assert count_paths(canonicalize(v, ORIGIN), neighborhood) == _predecessor_sum(
        v, neighborhood, count_paths
    )


def _predecessor_sum(v, neighborhood, count):
    # A shortest path to v ends with a step from a point one closer to the
    # origin, so count(v) is the sum of count(u) over those predecessors u.
    steps = distance(v, ORIGIN, neighborhood)
    total = 0
    for move in admissible_moves(neighborhood):
        u = GridPoint(v.x - move.dx, v.y - move.dy, v.z - move.dz)
        if distance(u, ORIGIN, neighborhood) == steps - 1:
            total += count(canonicalize(u, ORIGIN), neighborhood)
    return total


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


@functools.cache
def _modular_counts():
    return _perfbench_reference().ModularCounts()


def _library_misses() -> list:
    # looks count_paths up in counting at call time, so a wrapper set there counts
    reference = _modular_counts()
    return [
        (triple, n.value)
        for triple in _FAR_FIELD
        for n in Neighborhood
        if not reference.matches(
            n.value, triple, counting.count_paths(CanonicalOffset(*triple), n)
        )
    ]


def _cli_misses() -> list:
    # each pin through `cubepaths count -n all`, displaced from a signed origin
    # and permuted, so that the CLI's canonicalization is on the path too
    reference = _modular_counts()
    misses = []
    for i, j, k in _FAR_FIELD:
        argv = ["count", "--from", "1,-2,3", "--to", f"{1 + k},{-2 - i},{3 + j}", "-n", "all"]
        out = io.StringIO()
        with redirect_stdout(out):
            assert cli.run(argv) == 0
        for line in out.getvalue().splitlines():
            n, value = line.split("\t")
            if not reference.matches(int(n), (i, j, k), int(value)):
                misses.append(((i, j, k), int(n)))
    return misses


def test_count_paths_equals_the_modular_reference_in_the_far_field():
    assert _library_misses() == []


def test_cli_count_equals_the_modular_reference_in_the_far_field():
    assert _cli_misses() == []


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
# count_paths answers with the perturbed value.  Nine of them (the first seven,
# and those at i == j + k + 2 and i == j + k - 1) pass every other test of the
# suite; only the recurrence's few points catch the rest.  Swapping j and k is
# no fault, since every count is symmetric in the three coordinates.
_VALUE_MUTANTS = {
    "N18 x2 for i >= 100": (lambda off, n: n is Neighborhood.N18 and off.i >= 100, _doubled),
    "N26 x2 for i >= 250": (lambda off, n: n is Neighborhood.N26 and off.i >= 250, _doubled),
    "N6 +1 at coordinate sum 500": (
        lambda off, n: n is Neighborhood.N6 and sum(off) == 500,
        _plus_one,
    ),
    "N6 +1 on the axis": (lambda off, n: n is Neighborhood.N6 and off.j == 0, _plus_one),
    "N26 +1 on the axis": (lambda off, n: n is Neighborhood.N26 and off.j == 0, _plus_one),
    "N18 x2 on the spatial diagonal": (
        lambda off, n: n is Neighborhood.N18 and off.i == off.k,
        _doubled,
    ),
    "N6 +1 on the planar diagonal": (
        lambda off, n: n is Neighborhood.N6 and off.i == off.j and off.k == 0,
        _plus_one,
    ),
    "N18 max case +1 at odd coordinate sum": (
        lambda off, n: _n18_case(off, n, N18Case.MAX_CASE) and sum(off) % 2 == 1,
        _plus_one,
    ),
    "N18 max case x2 at even coordinate sum": (
        lambda off, n: _n18_case(off, n, N18Case.MAX_CASE) and sum(off) % 2 == 0,
        _doubled,
    ),
    "N18 half case +1 at even coordinate sum": (
        lambda off, n: _n18_case(off, n, N18Case.HALF_CASE) and sum(off) % 2 == 0,
        _plus_one,
    ),
    "N18 half case x2 at odd coordinate sum": (
        lambda off, n: _n18_case(off, n, N18Case.HALF_CASE) and sum(off) % 2 == 1,
        _doubled,
    ),
    "N18 +1 at i == j + k + 2": (
        lambda off, n: n is Neighborhood.N18 and off.i == off.j + off.k + 2,
        _plus_one,
    ),
    "N18 +1 at i == j + k + 1": (
        lambda off, n: n is Neighborhood.N18 and off.i == off.j + off.k + 1,
        _plus_one,
    ),
    "N18 x2 at i == j + k": (
        lambda off, n: n is Neighborhood.N18 and off.i == off.j + off.k,
        _doubled,
    ),
    "N18 +1 at i == j + k - 1": (
        lambda off, n: n is Neighborhood.N18 and off.i == off.j + off.k - 1,
        _plus_one,
    ),
    "N26 neighbouring offset at j == k": (
        lambda off, n: n is Neighborhood.N26 and off.j == off.k,
        _next_offset,
    ),
}


@pytest.mark.parametrize("mutant", list(_VALUE_MUTANTS))
def test_the_far_field_pins_catch_every_value_mutant(mutant, monkeypatch):
    applies, perturbed = _VALUE_MUTANTS[mutant]

    def mutated(off, neighborhood):
        if off.i >= 100 and applies(off, neighborhood):
            return perturbed(off, neighborhood)
        return _exact_count(off, neighborhood)

    monkeypatch.setattr(counting, "count_paths", mutated)
    monkeypatch.setattr(cli, "count_paths", mutated)
    assert _library_misses()
    assert _cli_misses()
