"""Value types shared by the whole package: grid points, connectivities,
unit steps and symmetry-reduced displacements."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import product


@dataclass(frozen=True, order=True)
class GridPoint:
    """A point of the cubic grid Z^3. Coordinates are unbounded."""

    x: int
    y: int
    z: int

    def displacement_from(self, other: "GridPoint") -> tuple[int, int, int]:
        """Componentwise self - other."""
        return (self.x - other.x, self.y - other.y, self.z - other.z)

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.x, self.y, self.z)


ORIGIN = GridPoint(0, 0, 0)


class Neighborhood(Enum):
    """The three cubic-grid connectivities, named by neighbor count."""

    N6 = 6
    N18 = 18
    N26 = 26

    @property
    def step_cap(self) -> int:
        """How many coordinates a single step may change."""
        return _STEP_CAPS[self]

    @classmethod
    def from_token(cls, token: "str | int") -> "Neighborhood":
        try:
            return cls(int(token))
        except ValueError:
            raise ValueError(
                f"unknown neighborhood {token!r}: expected 6, 18 or 26"
            ) from None


_STEP_CAPS = {Neighborhood.N6: 1, Neighborhood.N18: 2, Neighborhood.N26: 3}


@dataclass(frozen=True, order=True)
class MoveStep:
    """A single step between neighboring grid points.

    Each component is -1, 0 or +1 and at least one is nonzero.  Steps order
    lexicographically on (dx, dy, dz) with -1 < 0 < 1; path enumeration
    relies on that ordering.
    """

    dx: int
    dy: int
    dz: int

    def __post_init__(self) -> None:
        if not all(c in (-1, 0, 1) for c in (self.dx, self.dy, self.dz)):
            raise ValueError(
                f"step components must be -1, 0 or 1: {(self.dx, self.dy, self.dz)}"
            )
        if self.dx == 0 and self.dy == 0 and self.dz == 0:
            raise ValueError("the null step is not a move")

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.dx, self.dy, self.dz)


@lru_cache(maxsize=None)
def admissible_moves(neighborhood: Neighborhood) -> frozenset[MoveStep]:
    """The full move set of a connectivity: 6, 18 or 26 steps."""
    return frozenset(
        MoveStep(dx, dy, dz)
        for dx, dy, dz in product((-1, 0, 1), repeat=3)
        if (dx, dy, dz) != (0, 0, 0)
        and abs(dx) + abs(dy) + abs(dz) <= neighborhood.step_cap
    )


@dataclass(frozen=True)
class CanonicalOffset:
    """A displacement reduced by grid symmetry to i >= j >= k >= 0.

    Path counts are invariant under the 48 axis permutations and sign flips,
    so every counting formula works on the canonical triple only.
    """

    i: int
    j: int
    k: int

    def __post_init__(self) -> None:
        if not self.i >= self.j >= self.k >= 0:
            raise ValueError(
                f"canonical offset needs i >= j >= k >= 0: {(self.i, self.j, self.k)}"
            )

    def as_triple(self) -> tuple[int, int, int]:
        return (self.i, self.j, self.k)


def canonicalize(p: GridPoint, q: GridPoint) -> CanonicalOffset:
    """Reduce the displacement p - q to its canonical offset: the absolute
    components sorted in descending order."""
    return CanonicalOffset(*sorted(map(abs, p.displacement_from(q)), reverse=True))
