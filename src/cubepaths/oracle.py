"""Formula-free ground truth: shortest-path counting and enumeration by
explicit search over the move sets.

Nothing in this module may call the closed-form counting module; the
verification harness compares the two sides, so they must stay independent.
The search relies only on the digital metrics, which are themselves checked
against plain BFS in their own tests.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from itertools import islice
from typing import Callable, Iterator, NamedTuple

from .core import GridPoint, MoveStep, Neighborhood, admissible_moves, check_size, check_type
from .metrics import displacement_metric

DEFAULT_ENUMERATION_LIMIT = 10_000

# one table per connectivity, built once: rows of a step, in lexicographic order,
# then its components as exact ints, which unpack faster than a named tuple
_STEPS = {n: tuple((m, *m) for m in sorted(admissible_moves(n))) for n in Neighborhood}
_PLANAR_STEPS = tuple(row for row in _STEPS[Neighborhood.N26] if row[3] == 0)  # dz = 0


class PathList(NamedTuple):
    """Shortest paths, each an ordered step sequence.

    Paths are pairwise distinct and listed in lexicographic step order;
    ``truncated`` is True iff more paths exist than were collected.
    """

    paths: tuple[tuple[MoveStep, ...], ...]
    truncated: bool


def oracle_count(target: GridPoint, neighborhood: Neighborhood) -> int:
    """Exact number of shortest origin-to-target paths, by layered DP.

    Sweeps distance layers outward from the origin to the target at
    distance d.  A point reached in ``step`` moves survives iff its
    distance to the target equals the remainder ``d - step``.  That one
    test suffices: every move has length 1, so the point is at most
    ``step`` from the origin, and the triangle inequality
    ``d <= dist(v) + (d - step)`` makes it at least ``step``, so the point
    lies on some geodesic.  Its count is the sum over its surviving
    predecessors.  The DP therefore touches O((2d+1)^3) points at worst.
    """
    check_type("target", target, GridPoint)
    dist = displacement_metric(neighborhood)  # refuses what is not a Neighborhood
    return _layered_count(target, _STEPS[neighborhood], dist)


def oracle_count_2d(i: int, j: int) -> int:
    """Shortest chessboard paths from (0, 0) to (i, j): the same layered DP
    restricted to the 8 planar moves.

    Every visited point stays in the z = 0 plane, where the L-infinity
    metric of full connectivity is the chessboard metric.
    """
    check_type("i", i, int)
    check_type("j", j, int)
    return _layered_count((i, j, 0), _PLANAR_STEPS, displacement_metric(Neighborhood.N26))


def _layered_count(
    target: tuple[int, int, int],
    steps: tuple[tuple[MoveStep, int, int, int], ...],
    dist: Callable[[int, int, int], int],
) -> int:
    tx, ty, tz = target
    total = dist(tx, ty, tz)
    layer: dict[tuple[int, int, int], int] = {(0, 0, 0): 1}
    for step in range(1, total + 1):
        remaining = total - step
        nxt: dict[tuple[int, int, int], int] = defaultdict(int)
        for (ux, uy, uz), ways in layer.items():
            for _, dx, dy, dz in steps:
                vx, vy, vz = ux + dx, uy + dy, uz + dz
                if dist(tx - vx, ty - vy, tz - vz) == remaining:
                    nxt[(vx, vy, vz)] += ways
        layer = nxt
    # the last layer is the target alone: the metric is 0 only there, a geodesic always exists
    return layer[(tx, ty, tz)]


def iter_shortest_paths(
    target: GridPoint, neighborhood: Neighborhood
) -> Iterator[tuple[MoveStep, ...]]:
    """Yield every shortest path to ``target`` in lexicographic step order.

    Depth-first search with an explicit stack (geodesics can be thousands
    of steps long); a step is taken iff it decreases the remaining distance
    to the target by one, which prunes everything off-geodesic.
    """
    check_type("target", target, GridPoint)
    dist = displacement_metric(neighborhood)  # refuses what is not a Neighborhood
    steps = _STEPS[neighborhood]
    tx, ty, tz = target
    total = dist(tx, ty, tz)
    if total == 0:
        yield ()
        return

    def onward(
        ux: int, uy: int, uz: int, remaining: int
    ) -> Iterator[tuple[MoveStep, int, int, int]]:
        # the steps out of u that stay on a geodesic, in lexicographic order
        for step, dx, dy, dz in steps:
            vx, vy, vz = ux + dx, uy + dy, uz + dz
            if dist(tx - vx, ty - vy, tz - vz) == remaining - 1:
                yield step, vx, vy, vz

    prefix: list[MoveStep] = []
    stack = [onward(0, 0, 0, total)]
    while stack:
        for step, vx, vy, vz in stack[-1]:
            prefix.append(step)
            if len(prefix) == total:
                yield tuple(prefix)
                prefix.pop()
            else:
                stack.append(onward(vx, vy, vz, total - len(prefix)))
                break
        else:
            stack.pop()
            if prefix:
                prefix.pop()


def enumerate_shortest_paths(
    target: GridPoint,
    neighborhood: Neighborhood,
    limit: int = DEFAULT_ENUMERATION_LIMIT,
) -> PathList:
    """Collect shortest paths up to ``limit``.

    If more than ``limit`` paths exist, exactly ``limit`` are returned and
    the result is marked truncated.  Counts explode with distance, so an
    unbounded enumeration is deliberately not offered.
    """
    # checked here, not only in the lazy walk, so a wrong target is refused first
    check_type("target", target, GridPoint)
    check_size("limit", limit, 1)
    walk = iter_shortest_paths(target, neighborhood)
    # islice stops at most at sys.maxsize; no larger listing fits in memory
    paths = tuple(islice(walk, min(limit, sys.maxsize)))
    return PathList(paths=paths, truncated=next(walk, None) is not None)
