"""Tests for the closed-form path counts.

Worked values here were derived by hand from the combinatorial arguments in
the docstrings; agreement with the independent graph-search oracle is tested
separately (test_oracle.py and the acceptance suite).
"""

import math
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cubepaths.core import CanonicalOffset, Neighborhood
from cubepaths.counting import (
    N18Case,
    classify_n18,
    count_n6,
    count_n8_2d,
    count_n18,
    count_n18_halfcase,
    count_n18_maxcase,
    count_n26,
    count_paths,
    multinomial,
)


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


# ------------------------------------------------------------- multinomial


def test_multinomial_values():
    assert multinomial(0, []) == 1
    assert multinomial(3, (1, 1, 1)) == 6
    assert multinomial(9, (4, 4, 1)) == 630
    assert multinomial(5, (5,)) == 1


@given(st.lists(st.integers(0, 60), max_size=6))
def test_multinomial_is_the_factorial_quotient(parts):
    n = sum(parts)
    expected = factorial(n)
    for p in parts:
        expected //= factorial(p)
    assert multinomial(n, parts) == expected


def test_multinomial_rejects_mismatched_sum():
    with pytest.raises(ValueError):
        multinomial(4, (1, 1, 1))


def test_multinomial_rejects_negative():
    with pytest.raises(ValueError):
        multinomial(2, (3, -1))


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
    assert count_n18(_sorted_offset(*triple)) == expected


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
    assert count_n18(off) == expected
    assert count_n18(off, check_overlap=True) == expected


@given(canonical_offsets(max_value=30))
def test_halfcase_even_sum_is_a_multinomial(off):
    i, j, k = off.as_triple()
    if i <= j + k and (i + j + k) % 2 == 0:
        steps = (i + j + k) // 2
        assert count_n18_halfcase(off) == multinomial(
            steps, (steps - i, steps - j, steps - k)
        )


def test_nine_five_four_counts_to_126_under_both_formulas():
    off = CanonicalOffset(9, 5, 4)
    assert count_n18_maxcase(off) == 126
    assert count_n18_halfcase(off) == 126
    assert count_n18(off, check_overlap=True) == 126


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


@given(canonical_offsets(max_value=15))
def test_richer_neighborhoods_at_zero_offset(off):
    if off.as_triple() == (0, 0, 0):
        for neighborhood in Neighborhood:
            assert count_paths(off, neighborhood) == 1


def test_counts_stay_exact_at_large_coordinates():
    # Big enough that 64-bit arithmetic would have overflowed long ago.
    off = CanonicalOffset(120, 80, 40)
    assert count_n6(off) == multinomial(240, (120, 80, 40))
    assert count_n6(off).bit_length() > 64
    assert count_n18(off) > 0
    assert count_n26(off) == count_n8_2d(120, 80) * count_n8_2d(120, 40)
