"""Tests for the three digital distances.

The load-bearing check here is the breadth-first search at the bottom: each
closed-form distance must equal the true unweighted shortest-path length in
the move graph, computed without any distance formula.  Known distances are
rows of tests/test_known_values.py, beside their counts.
"""

from collections import deque
from itertools import product

import pytest

from cubepaths.core import ORIGIN, GridPoint, Neighborhood, admissible_moves
from cubepaths.metrics import displacement_metric, distance
from helpers import SIGNED_MAPS, seeded_points, signed_image

# every point of the near box [-3, 3]^3, and of [-2, 2]^3 for the triangle
NEAR = [GridPoint(*v) for v in product(range(-3, 4), repeat=3)]
NEARER = [GridPoint(*v) for v in product(range(-2, 3), repeat=3)]


def _shifted(p, t):
    return GridPoint(p.x + t.x, p.y + t.y, p.z + t.z)


# ------------------------------------------------------------- point form


def test_displacement_metric_matches_point_form():
    for neighborhood in Neighborhood:
        fn = displacement_metric(neighborhood)
        assert fn(3, -1, 2) == distance(GridPoint(3, -1, 2), ORIGIN, neighborhood)


# ----------------------------------------------------- metric axioms etc.


def test_symmetry():
    far = seeded_points(1, 1000, 2000)
    pairs = [(p, ORIGIN) for p in NEAR] + list(zip(far[::2], far[1::2]))
    for neighborhood in Neighborhood:
        for p, q in pairs:
            assert distance(p, q, neighborhood) == distance(q, p, neighborhood), (p, q)


def test_zero_iff_equal():
    far = seeded_points(2, 1000, 2000)
    pairs = [(p, ORIGIN) for p in NEAR] + [(p, p) for p in far] + list(zip(far[::2], far[1::2]))
    for neighborhood in Neighborhood:
        for p, q in pairs:
            assert (distance(p, q, neighborhood) == 0) == (p == q), (p, q)


def test_triangle_inequality():
    far = seeded_points(3, 1000, 3000)
    triples = [(ORIGIN, q, r) for q in NEARER for r in NEARER]
    triples += zip(far[::3], far[1::3], far[2::3])
    for neighborhood in Neighborhood:
        for p, q, r in triples:
            assert distance(p, r, neighborhood) <= distance(p, q, neighborhood) + distance(
                q, r, neighborhood
            ), (p, q, r)


def test_translation_invariance():
    far = seeded_points(4, 1000, 3000)
    triples = [(p, ORIGIN, GridPoint(50, -50, 7)) for p in NEAR]
    triples += zip(far[::3], far[1::3], far[2::3])
    for neighborhood in Neighborhood:
        for p, q, t in triples:
            moved = distance(_shifted(p, t), _shifted(q, t), neighborhood)
            assert distance(p, q, neighborhood) == moved, (p, q, t)


def test_richer_moves_never_lengthen_paths():
    far = seeded_points(5, 1000, 2000)
    pairs = [(p, ORIGIN) for p in NEAR] + list(zip(far[::2], far[1::2]))
    for p, q in pairs:
        assert (
            distance(p, q, Neighborhood.N26)
            <= distance(p, q, Neighborhood.N18)
            <= distance(p, q, Neighborhood.N6)
        ), (p, q)


# ------------------------------------------------ the symmetry premise


@pytest.mark.parametrize("neighborhood", list(Neighborhood))
def test_move_set_and_metric_are_invariant_under_signed_permutations(neighborhood):
    """canonicalize, and every count on a canonical offset, rest on this:
    each signed permutation maps the move set onto itself and keeps the
    metric of every displacement."""
    moves = {step.as_tuple() for step in admissible_moves(neighborhood)}
    metric = displacement_metric(neighborhood)
    box = list(product(range(-4, 5), repeat=3))
    for perm, signs in SIGNED_MAPS:
        assert {signed_image(perm, signs, m) for m in moves} == moves
        for v in box:
            assert metric(*signed_image(perm, signs, v)) == metric(*v), (v, perm, signs)


# ------------------------------------- independent graph-search cross-check


def _bfs_distances(neighborhood, radius):
    """Unweighted shortest-path lengths from the origin, by plain BFS.

    The search box extends past the reporting radius so no shortest path is
    clipped at the boundary (no geodesic needs to leave the bounding box of
    its endpoints, but the slack costs nothing and removes the assumption).
    """
    moves = [step.as_tuple() for step in admissible_moves(neighborhood)]
    bound = radius + 2
    dist = {(0, 0, 0): 0}
    frontier = deque([(0, 0, 0)])
    while frontier:
        ux, uy, uz = frontier.popleft()
        here = dist[(ux, uy, uz)]
        for dx, dy, dz in moves:
            v = (ux + dx, uy + dy, uz + dz)
            if max(abs(c) for c in v) <= bound and v not in dist:
                dist[v] = here + 1
                frontier.append(v)
    return dist


@pytest.mark.parametrize("neighborhood", list(Neighborhood))
def test_formulas_match_breadth_first_search(neighborhood):
    radius = 3
    reachable = _bfs_distances(neighborhood, radius)
    fn = displacement_metric(neighborhood)
    for (x, y, z), steps in reachable.items():
        if max(abs(x), abs(y), abs(z)) <= radius:
            assert fn(x, y, z) == steps, (x, y, z)
