"""Value types shared by the whole package: grid points, connectivities,
unit steps and symmetry-reduced displacements.

The point, step and offset types are immutable named tuples of ints: they
unpack, hash and compare (lexicographically) as the plain tuple of their
fields.
"""

from __future__ import annotations

from enum import Enum
from itertools import product
from typing import NamedTuple


class Neighborhood(Enum):
    """The three cubic-grid connectivities, named by neighbor count."""

    N6 = 6
    N18 = 18
    N26 = 26


def check_type(name: str, value: object, kind: type) -> None:
    """The one refusal of a parameter of the wrong type: a raw int must be
    exactly ``int`` (so ``True`` and ``2.0`` are refused), any other type
    an instance of ``kind``."""
    if type(value) is not kind and (kind is int or not isinstance(value, kind)):
        raise TypeError(f"{name} must be {kind.__name__}: {value!r}")


def check_size(name: str, value: object, least: int) -> None:
    """The one refusal of a size: exactly ``int``, then at least ``least``, 0 or 1."""
    check_type(name, value, int)
    if value < least:
        rule = "nonnegative" if least == 0 else "positive"
        raise ValueError(f"{name} must be {rule}, got {value}")


def check_components(kind: str, a: object, b: object, c: object) -> None:
    """The one refusal of grid components: each must be exactly ``int`` (so a
    float, a bool or a string is refused even where it equals an int)."""
    if type(a) is not int or type(b) is not int or type(c) is not int:
        raise TypeError(f"{kind} components must be int: {(a, b, c)!r}")


def check_neighborhood(value: object) -> None:
    """The one refusal of a value that is not a Neighborhood member."""
    if not isinstance(value, Neighborhood):
        raise ValueError(f"unknown neighborhood: {value!r}")


class _CheckedMake:
    # a class-syntax NamedTuple may not define __new__, so the three grid types
    # subclass the functional form and check their fields in __new__; first of
    # their bases, this sends _make (so _replace) through it and holds their tuple view

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def as_tuple(self) -> tuple[int, int, int]:
        return tuple(self)


class GridPoint(_CheckedMake, NamedTuple("GridPoint", [("x", int), ("y", int), ("z", int)])):
    """A point of the cubic grid Z^3. Coordinates are unbounded ints."""

    __slots__ = ()

    def __new__(cls, x: int, y: int, z: int) -> GridPoint:
        check_components("grid point", x, y, z)
        return tuple.__new__(cls, (x, y, z))

    def displacement_from(self, other: GridPoint) -> tuple[int, int, int]:
        """Componentwise self - other."""
        return (self.x - other.x, self.y - other.y, self.z - other.z)


ORIGIN = GridPoint(0, 0, 0)


class MoveStep(_CheckedMake, NamedTuple("MoveStep", [("dx", int), ("dy", int), ("dz", int)])):
    """A single step between neighboring grid points.

    Each component is -1, 0 or +1 and at least one is nonzero.  Steps order
    lexicographically on (dx, dy, dz) with -1 < 0 < 1; path enumeration
    relies on that ordering.
    """

    __slots__ = ()

    def __new__(cls, dx: int, dy: int, dz: int) -> MoveStep:
        check_components("step", dx, dy, dz)
        if not all(c in (-1, 0, 1) for c in (dx, dy, dz)):
            raise ValueError(f"step components must be -1, 0 or 1: {(dx, dy, dz)}")
        if dx == 0 and dy == 0 and dz == 0:
            raise ValueError("the null step is not a move")
        return tuple.__new__(cls, (dx, dy, dz))


_MOVES = {
    n: frozenset(
        MoveStep(*s) for s in product((-1, 0, 1), repeat=3) if 0 < sum(map(abs, s)) <= cap
    )
    for n, cap in {Neighborhood.N6: 1, Neighborhood.N18: 2, Neighborhood.N26: 3}.items()
}


def admissible_moves(neighborhood: Neighborhood) -> frozenset[MoveStep]:
    """The full move set of a connectivity: 6, 18 or 26 steps."""
    check_neighborhood(neighborhood)
    return _MOVES[neighborhood]


class CanonicalOffset(
    _CheckedMake, NamedTuple("CanonicalOffset", [("i", int), ("j", int), ("k", int)])
):
    """A displacement reduced by grid symmetry to i >= j >= k >= 0.

    Path counts are invariant under the 48 axis permutations and sign flips,
    so every counting formula works on the canonical triple only.
    """

    __slots__ = ()

    def __new__(cls, i: int, j: int, k: int) -> CanonicalOffset:
        check_components("canonical offset", i, j, k)
        if not i >= j >= k >= 0:
            raise ValueError(f"canonical offset needs i >= j >= k >= 0: {(i, j, k)}")
        return tuple.__new__(cls, (i, j, k))

    as_triple = _CheckedMake.as_tuple


def canonicalize(p: GridPoint, q: GridPoint) -> CanonicalOffset:
    """Reduce the displacement p - q to its canonical offset: the absolute
    components sorted in descending order."""
    check_type("p", p, GridPoint)
    check_type("q", q, GridPoint)
    a, b, c = p.displacement_from(q)
    a, b, c = abs(a), abs(b), abs(c)
    # a three-element sorting network, descending: at most three compares
    if a < b:
        a, b = b, a
    if b < c:
        b, c = c, b
        if a < b:
            a, b = b, a
    return CanonicalOffset(a, b, c)
