"""Tests for the shared value types: points, neighborhoods, moves, offsets."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubepaths.core import (
    ORIGIN,
    CanonicalOffset,
    GridPoint,
    MoveStep,
    Neighborhood,
    admissible_moves,
    canonicalize,
)

coords = st.integers(-50, 50)
points = st.builds(GridPoint, coords, coords, coords)


# ------------------------------------------------------------ canonicalize


def test_canonicalize_zero_displacement():
    off = canonicalize(ORIGIN, ORIGIN)
    assert off.as_triple() == (0, 0, 0)


def test_canonicalize_sorts_absolute_values():
    off = canonicalize(GridPoint(1, -3, 2), ORIGIN)
    assert off.as_triple() == (3, 2, 1)


def test_canonicalize_already_canonical():
    off = canonicalize(GridPoint(9, 5, 4), ORIGIN)
    assert off.as_triple() == (9, 5, 4)


@given(points, points)
def test_canonicalize_round_trip(p, q):
    magnitudes = sorted((abs(c) for c in p.displacement_from(q)), reverse=True)
    assert canonicalize(p, q).as_triple() == tuple(magnitudes)


@given(points, points)
def test_canonicalize_is_sorted_nonnegative(p, q):
    off = canonicalize(p, q)
    assert off.i >= off.j >= off.k >= 0


@given(st.integers(0, 30), st.integers(0, 30), st.integers(0, 30))
def test_canonicalize_idempotent(a, b, c):
    i, j, k = sorted((a, b, c), reverse=True)
    again = canonicalize(GridPoint(i, j, k), ORIGIN)
    assert again == CanonicalOffset(i, j, k)


def test_canonical_offset_rejects_unsorted():
    with pytest.raises(ValueError):
        CanonicalOffset(1, 2, 0)
    with pytest.raises(ValueError):
        CanonicalOffset(2, 1, -1)


# ------------------------------------------------------------------ moves


def test_move_sets_have_expected_sizes():
    assert len(admissible_moves(Neighborhood.N6)) == 6
    assert len(admissible_moves(Neighborhood.N18)) == 18
    assert len(admissible_moves(Neighborhood.N26)) == 26


def test_move_sets_are_nested():
    m6 = admissible_moves(Neighborhood.N6)
    m18 = admissible_moves(Neighborhood.N18)
    m26 = admissible_moves(Neighborhood.N26)
    assert m6 < m18 < m26


def test_face_moves_change_exactly_one_coordinate():
    assert all(
        abs(step.dx) + abs(step.dy) + abs(step.dz) == 1
        for step in admissible_moves(Neighborhood.N6)
    )


def test_full_move_set_is_every_nonzero_vector():
    m26 = admissible_moves(Neighborhood.N26)
    assert all(abs(step.dx) + abs(step.dy) + abs(step.dz) in (1, 2, 3) for step in m26)
    assert MoveStep(-1, -1, -1) in m26 and MoveStep(1, 1, 1) in m26


def test_move_step_rejects_null_and_long_steps():
    with pytest.raises(ValueError):
        MoveStep(0, 0, 0)
    with pytest.raises(ValueError):
        MoveStep(2, 0, 0)


def test_move_step_ordering_is_lexicographic():
    assert MoveStep(-1, 0, 0) < MoveStep(0, -1, 0) < MoveStep(0, 0, 1) < MoveStep(1, -1, -1)


def test_admissible_under_matches_weight():
    step = MoveStep(1, 1, 0)
    assert step not in admissible_moves(Neighborhood.N6)
    assert step in admissible_moves(Neighborhood.N18)
    assert step in admissible_moves(Neighborhood.N26)


# ------------------------------------------------------------ neighborhood


@pytest.mark.parametrize("token,expected", [("6", Neighborhood.N6), (18, Neighborhood.N18), ("26", Neighborhood.N26)])
def test_neighborhood_from_token(token, expected):
    assert Neighborhood.from_token(token) is expected


def test_neighborhood_from_token_rejects_unknown():
    with pytest.raises(ValueError):
        Neighborhood.from_token("8")
    with pytest.raises(ValueError):
        Neighborhood.from_token("six")
