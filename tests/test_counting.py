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
    ],
)
def test_count_is_the_sum_over_geodesic_predecessors(triple, neighborhood):
    # A shortest path to v ends with a step from a point one closer to the
    # origin, so count(v) is the sum of count(u) over those predecessors u.
    # Both sides come from the formulas, at sizes the oracle cannot reach;
    # the identity is linear, so a formula off by a constant factor passes.
    v = GridPoint(*triple)
    steps = distance(v, ORIGIN, neighborhood)
    total = 0
    for move in admissible_moves(neighborhood):
        u = GridPoint(v.x - move.dx, v.y - move.dy, v.z - move.dz)
        if distance(u, ORIGIN, neighborhood) == steps - 1:
            total += count_paths(canonicalize(u, ORIGIN), neighborhood)
    assert count_paths(canonicalize(v, ORIGIN), neighborhood) == total


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
