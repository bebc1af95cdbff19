"""Tests for the shared value types: points, neighborhoods, moves, offsets."""

import copy
import pickle
import re

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


def test_a_diagonal_step_is_an_n18_and_n26_move_but_not_an_n6_move():
    step = MoveStep(1, 1, 0)
    assert step not in admissible_moves(Neighborhood.N6)
    assert step in admissible_moves(Neighborhood.N18)
    assert step in admissible_moves(Neighborhood.N26)


# ---------------------------------------------------- value-type contract


# (type, fields, components) of one value per validated or ordered type
VALUES = [
    (GridPoint, ("x", "y", "z"), (1, -2, 3)),
    (MoveStep, ("dx", "dy", "dz"), (-1, 0, 1)),
    (CanonicalOffset, ("i", "j", "k"), (5, 2, 0)),
]
VALUE_IDS = [kind.__name__ for kind, _, _ in VALUES]


def test_value_type_reprs():
    assert repr(GridPoint(1, -2, 3)) == "GridPoint(x=1, y=-2, z=3)"
    assert repr(MoveStep(-1, 0, 1)) == "MoveStep(dx=-1, dy=0, dz=1)"
    assert repr(CanonicalOffset(5, 2, 0)) == "CanonicalOffset(i=5, j=2, k=0)"


@pytest.mark.parametrize("kind,fields,components", VALUES, ids=VALUE_IDS)
def test_value_types_are_immutable(kind, fields, components):
    value = kind(*components)
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(value, field, 0)
    assert tuple(getattr(value, field) for field in fields) == components


@pytest.mark.parametrize("kind,fields,components", VALUES, ids=VALUE_IDS)
def test_equal_values_hash_equal(kind, fields, components):
    value, twin = kind(*components), kind(*components)
    assert twin == value and twin is not value
    assert hash(twin) == hash(value)
    assert len({value, twin}) == 1


@pytest.mark.parametrize("kind,fields,components", VALUES, ids=VALUE_IDS)
def test_as_tuple_is_the_exact_tuple_of_the_fields(kind, fields, components):
    value = kind(*components)
    view = value.as_tuple()
    assert type(view) is tuple and view == tuple(value) == components
    assert CanonicalOffset.as_triple is CanonicalOffset.as_tuple


@pytest.mark.parametrize("neighborhood", list(Neighborhood))
def test_sorted_moves_are_in_lexicographic_component_order(neighborhood):
    moves = sorted(admissible_moves(neighborhood))
    triples = [(m.dx, m.dy, m.dz) for m in moves]
    assert triples == sorted(triples)
    assert [m.as_tuple() for m in moves] == triples


def test_validation_messages_are_unchanged():
    with pytest.raises(ValueError, match=r"^step components must be -1, 0 or 1: \(2, 0, 0\)$"):
        MoveStep(2, 0, 0)
    with pytest.raises(ValueError, match="^the null step is not a move$"):
        MoveStep(0, 0, 0)
    with pytest.raises(
        ValueError, match=r"^canonical offset needs i >= j >= k >= 0: \(1, 2, 3\)$"
    ):
        CanonicalOffset(1, 2, 3)


@pytest.mark.parametrize("kind,fields,components", VALUES, ids=VALUE_IDS)
def test_pickle_and_copy_round_trip(kind, fields, components):
    value = kind(*components)
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert twin == value and type(twin) is type(value)


def test_keyword_construction_still_validates():
    assert MoveStep(dx=0, dy=1, dz=0) == MoveStep(0, 1, 0)
    with pytest.raises(ValueError):
        CanonicalOffset(i=1, j=2, k=3)
    with pytest.raises(ValueError):
        MoveStep(dx=0, dy=0, dz=0)


def test_named_tuple_helpers_still_validate():
    assert MoveStep(1, 0, 0)._replace(dy=1) == MoveStep(1, 1, 0)
    assert CanonicalOffset._make((4, 4, 0)) == CanonicalOffset(4, 4, 0)
    with pytest.raises(ValueError):
        MoveStep(1, 0, 0)._replace(dx=0)
    with pytest.raises(ValueError):
        CanonicalOffset(3, 2, 1)._replace(k=5)
    with pytest.raises(ValueError):
        MoveStep._make((0, 2, 0))


# how each validated type names itself when it refuses a component
KIND_WORDS = {GridPoint: "grid point", MoveStep: "step", CanonicalOffset: "canonical offset"}


@pytest.mark.parametrize("bad", [1.5, 2.0, True, "3"], ids=repr)
@pytest.mark.parametrize("kind,fields,components", VALUES, ids=VALUE_IDS)
def test_components_that_are_not_exactly_int_are_refused(kind, fields, components, bad):
    # a float, a bool or a string is refused even where it equals an int, in
    # the constructor and through _make and _replace, with one TypeError
    for position, field in enumerate(fields):
        wrong = components[:position] + (bad,) + components[position + 1:]
        message = re.escape(f"{KIND_WORDS[kind]} components must be int: {wrong!r}")
        with pytest.raises(TypeError, match=f"^{message}$"):
            kind(*wrong)
        with pytest.raises(TypeError, match=f"^{message}$"):
            kind._make(wrong)
        with pytest.raises(TypeError, match=f"^{message}$"):
            kind(*components)._replace(**{field: bad})
