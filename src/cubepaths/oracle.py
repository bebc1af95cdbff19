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

    Sweeps distance layers over the displacement still to go, from the
    target at distance d down to zero.  The displacement w left after
    ``step`` moves survives iff ``dist(w)`` equals the remainder
    ``d - step``.  That one test suffices: every move has length 1, so the
    point reached, p = target - w, is at most ``step`` from the origin, and
    the triangle inequality ``d <= dist(p) + (d - step)`` makes it at least
    ``step``, so p lies on some geodesic.  Its count is the sum over its
    surviving predecessors.  The DP therefore touches O((2d+1)^3) points
    at worst.
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
    # a layer maps each displacement still to go, w = target - position, to its ways
    layer: dict[tuple[int, int, int], int] = {tuple(target): 1}
    for remaining in reversed(range(dist(*target))):
        nxt: dict[tuple[int, int, int], int] = defaultdict(int)
        for (wx, wy, wz), ways in layer.items():
            for _, dx, dy, dz in steps:
                vx, vy, vz = wx - dx, wy - dy, wz - dz
                if dist(vx, vy, vz) == remaining:
                    nxt[(vx, vy, vz)] += ways
        layer = nxt
    # the last layer is zero alone: the metric is 0 only there, a geodesic always exists
    return layer[(0, 0, 0)]


def iter_shortest_paths(
    target: GridPoint, neighborhood: Neighborhood
) -> Iterator[tuple[MoveStep, ...]]:
    """Yield every shortest path to ``target`` in lexicographic step order.

    Depth-first search with an explicit stack (geodesics can be thousands
    of steps long); a step is taken iff it decreases the remaining distance
    to the target by one, which prunes everything off-geodesic.  Each
    displacement's onward steps are derived once per walk and reused every
    time the search comes back to it.
    """
    check_type("target", target, GridPoint)
    dist = displacement_metric(neighborhood)  # refuses what is not a Neighborhood
    steps = _STEPS[neighborhood]
    total = dist(*target)
    if total == 0:
        yield ()
        return

    # displacement still to go -> its onward (step, next displacement) rows; every row
    # leads on to zero, so each displacement held lies on a path already yielded
    memo: dict[tuple[int, int, int], list[tuple[MoveStep, tuple[int, int, int]]]] = {}

    def onward(
        w: tuple[int, int, int], remaining: int
    ) -> Iterator[tuple[MoveStep, tuple[int, int, int]]]:
        rows = memo.get(w)
        if rows is None:
            # the steps m that leave w - m one nearer zero in the metric, in lexicographic order
            wx, wy, wz = w
            rows = memo[w] = []
            for step, dx, dy, dz in steps:
                vx, vy, vz = wx - dx, wy - dy, wz - dz
                if dist(vx, vy, vz) == remaining - 1:
                    rows.append((step, (vx, vy, vz)))
        return iter(rows)

    prefix: list[MoveStep] = []
    stack = [onward(target, total)]
    while stack:
        for step, v in stack[-1]:
            prefix.append(step)
            if len(prefix) == total:
                yield tuple(prefix)
                prefix.pop()
            else:
                stack.append(onward(v, total - len(prefix)))
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
