"""Digital distances for the three connectivities."""

from __future__ import annotations

from typing import Callable

from .core import GridPoint, Neighborhood, check_type, unknown_neighborhood


def _l1(dx: int, dy: int, dz: int) -> int:
    return abs(dx) + abs(dy) + abs(dz)


def _d18(dx: int, dy: int, dz: int) -> int:
    # the larger of the dominant absolute difference and the ceiling of half
    # the difference sum: each step advances at most two coordinates, and no
    # step advances any coordinate by more than one
    ax, ay, az = abs(dx), abs(dy), abs(dz)
    # integer ceiling of half the coordinate sum; floats never enter here
    return max(ax, ay, az, (ax + ay + az + 1) // 2)


def _linf(dx: int, dy: int, dz: int) -> int:
    return max(abs(dx), abs(dy), abs(dz))


_BY_NEIGHBORHOOD = {Neighborhood.N6: _l1, Neighborhood.N18: _d18, Neighborhood.N26: _linf}


def displacement_metric(neighborhood: Neighborhood) -> Callable[[int, int, int], int]:
    """Distance-from-origin as a function of a raw displacement.

    This is the form the path oracle consumes in its inner loop, where
    building GridPoint pairs per edge would dominate the runtime.
    """
    try:
        return _BY_NEIGHBORHOOD[neighborhood]
    except (KeyError, TypeError):  # TypeError: an unhashable value
        raise unknown_neighborhood(neighborhood) from None


def distance(p: GridPoint, q: GridPoint, neighborhood: Neighborhood) -> int:
    """Digital distance between two points for the given connectivity."""
    check_type("p", p, GridPoint)
    check_type("q", q, GridPoint)
    return displacement_metric(neighborhood)(*p.displacement_from(q))
