"""Closed-form shortest-path counts, exact in arbitrary precision.

Counts grow exponentially in the coordinate sum (64-bit integers overflow
near sums of ~20), so everything here stays in Python's native big integers
and every division is an exact floor division of a known-integral quotient.
"""

from __future__ import annotations

from enum import Enum
from math import comb

from .core import CanonicalOffset, Neighborhood, check_neighborhood, check_type


def count_n6(off: CanonicalOffset) -> int:
    """Shortest paths under face connectivity: the trinomial coefficient.

    Every path takes exactly i, j and k unit steps along the three axes in
    some order, so the count is (i+j+k)! / (i! j! k!) = C(i+j+k, k) C(i+j, j):
    the slots of the z-steps first, then those of the y-steps among the rest.
    Taking the smallest part first keeps each binomial's smaller index at
    k and j, the two smallest parts; ``comb`` costs less the smaller it is.
    """
    check_type("off", off, CanonicalOffset)
    i, j, k = off
    return comb(i + j + k, k) * comb(i + j, j)


def _planar(n: int, j: int) -> int:
    # count_n8_2d(n, j) without its check; count_n18_maxcase calls this, not
    # the public name, which callers (and the benchmark's tracer) may rebind.
    total = 0
    for b in range((n - j) // 2 + 1):
        total += comb(n, b) * comb(n - b, j + b)
    return total


def count_n8_2d(i: int, j: int) -> int:
    """Shortest chessboard paths from (0, 0) to (i, j) in 2D, for i >= j >= 0.

    The distance is i.  A path with b falling diagonals needs j+b rising
    diagonals to land on row j, leaving i-j-2b straight moves, so the count
    is the sum over b of multinomial(i; b, j+b, i-j-2b) = C(i, b) C(i-b, j+b):
    the slots of the falling diagonals, then the rising ones among the rest.
    """
    check_type("i", i, int)
    check_type("j", j, int)
    if not i >= j >= 0:
        raise ValueError(f"count_n8_2d needs i >= j >= 0, got ({i}, {j})")
    return _planar(i, j)


def count_n18_maxcase(off: CanonicalOffset) -> int:
    """Face-edge paths when the distance equals the dominant coordinate i
    (applicable iff i >= j + k).

    Every step advances x by one.  With a steps also moving -z, compensation
    forces k+a steps moving +z, which can be placed in multinomial(i; a, k+a,
    i-k-2a) = C(i, a) C(i-a, k+a) ways.  The other i-k-2a steps carry no
    z-motion, so they form a planar chessboard path to (i-k-2a, j); summing
    over a gives the total.
    """
    check_type("off", off, CanonicalOffset)
    i, j, k = off
    slack = i - j - k
    if slack < 0:
        raise ValueError(
            f"dominant-coordinate formula needs i >= j + k, got {tuple(off)}"
        )
    total = 0
    for a in range(slack // 2 + 1):
        total += comb(i, a) * comb(i - a, k + a) * _planar(i - k - 2 * a, j)
    return total


def count_n18_halfcase(off: CanonicalOffset) -> int:
    """Face-edge paths when the distance is the half-sum ceiling L
    (applicable iff i <= j + k + 1).

    Even coordinate sum: every step advances two coordinates, and the step
    mix is fixed, giving multinomial(L; L-i, L-j, L-k).  Odd sum: exactly
    one step advances a single coordinate; summing that step's three
    possible axes gives L! / ((L-i)! (L-j)! (L-k)!) times a weight.  These
    parts add up to L+1, so that is multinomial(L+1; parts) * weight / (L+1),
    an exact division.  An axis whose (L - coordinate) factor is zero cannot
    host the single step, and contributes nothing to the weight.
    """
    check_type("off", off, CanonicalOffset)
    i, j, k = off
    if i > j + k + 1:
        raise ValueError(
            f"half-sum formula needs i <= j + k + 1, got {tuple(off)}"
        )
    steps = (i + j + k + 1) // 2
    ri, rj, rk = steps - i, steps - j, steps - k
    if (i + j + k) % 2 == 0:
        return comb(steps, ri) * comb(steps - ri, rj)
    weight = ri * rj + rj * rk + rk * ri
    return comb(steps + 1, ri) * comb(steps + 1 - ri, rj) * weight // (steps + 1)


class N18Case(Enum):
    """Which face-edge formula applies to a canonical offset."""

    MAX_CASE = "max"  # distance is the dominant coordinate only
    HALF_CASE = "half"  # distance is the half-sum ceiling only
    OVERLAP = "overlap"  # both; the two formulas agree here


# members bound once: an Enum class attribute lookup costs more than the
# comparison it feeds on the dispatch path
_N6, _N26 = Neighborhood.N6, Neighborhood.N26
_MAX_CASE, _HALF_CASE, _OVERLAP = N18Case.MAX_CASE, N18Case.HALF_CASE, N18Case.OVERLAP


def classify_n18(off: CanonicalOffset) -> N18Case:
    check_type("off", off, CanonicalOffset)
    i, j, k = off
    if i > j + k + 1:
        return _MAX_CASE
    if i < j + k:
        return _HALF_CASE
    return _OVERLAP


def count_n26(off: CanonicalOffset) -> int:
    """Shortest paths under full connectivity.

    A path projects to one chessboard path in the xy-plane and one in the
    xz-plane, and any two such projections combine, so the count is the
    product of the two planar counts.
    """
    check_type("off", off, CanonicalOffset)
    i, j, k = off
    return count_n8_2d(i, j) * count_n8_2d(i, k)


def count_paths(
    off: CanonicalOffset, neighborhood: Neighborhood, check_overlap: bool = False
) -> int:
    """Closed-form shortest-path count for a canonical offset.

    Under N18, overlap offsets default to the dominant-coordinate sum: its
    slack i - j - k is at most 1 there, so it is the one summand a = 0,
    whose planar sum has one term.  With check_overlap=True both formulas
    run and a disagreement (impossible unless a formula is broken) raises.
    """
    check_type("off", off, CanonicalOffset)
    check_type("check_overlap", check_overlap, bool)
    check_neighborhood(neighborhood)
    if neighborhood is _N6:
        return count_n6(off)
    if neighborhood is _N26:
        return count_n26(off)
    case = classify_n18(off)
    if case is _HALF_CASE:
        return count_n18_halfcase(off)
    value = count_n18_maxcase(off)
    if check_overlap and case is _OVERLAP:
        other = count_n18_halfcase(off)
        if other != value:
            raise AssertionError(
                f"overlap formulas disagree at {tuple(off)}: {value} vs {other}"
            )
    return value
