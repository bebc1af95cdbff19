"""Every known distance and count, stated once and held to every arbiter.

This is the one place a known value is stated; the other test files check
laws, sweeps and references, and only the release criteria of
tests/test_acceptance.py repeat a few values end to end.  A row
``(neighborhood, target, distance, count)`` is checked against

- the metric;
- the closed form at the target's canonical offset, and on the N18 overlap
  both N18 formulas;
- the search oracle;
- brute force, every move word of the row's length, wherever there are at
  most 200,000 such words.

A planar row ``(i, j, count)`` is checked against the planar kernel and the
planar oracle.  Each row is one test ID; a repeated key fails collection.
"""

from itertools import product

import pytest

from cubepaths.core import ORIGIN, GridPoint, Neighborhood, admissible_moves, canonicalize
from cubepaths.counting import (
    N18Case,
    classify_n18,
    count_n8_2d,
    count_n18_halfcase,
    count_n18_maxcase,
    count_paths,
)
from cubepaths.metrics import distance
from cubepaths.oracle import oracle_count, oracle_count_2d

N6, N18, N26 = Neighborhood

ROWS = [
    (N6, (0, 0, 0), 0, 1),
    (N6, (2, 1, 0), 3, 3),
    (N6, (3, 0, 0), 3, 1),
    (N6, (0, -2, 1), 3, 3),
    (N6, (1, 1, 1), 3, 6),
    (N6, (2, 1, 1), 4, 12),
    (N6, (5, 0, 0), 5, 1),
    (N6, (3, 2, 1), 6, 60),
    (N6, (-1, 2, -3), 6, 60),
    (N6, (2, 2, 2), 6, 90),
    (N18, (0, 0, 0), 0, 1),
    (N18, (1, 1, 1), 2, 6),
    (N18, (0, 3, 0), 3, 13),  # the dominant coordinate wins
    (N18, (1, 3, 0), 3, 12),
    (N18, (2, 2, 1), 3, 15),  # the ceiling of half the sum wins
    (N18, (-1, 2, 2), 3, 15),
    (N18, (2, 2, 2), 3, 6),
    (N18, (3, 2, 1), 3, 3),
    (N18, (9, 4, 4), 9, 630),  # i == j + k + 1
    (N18, (9, 5, 4), 9, 126),  # i == j + k
    (N26, (0, 0, 0), 0, 1),
    (N26, (2, 1, 0), 2, 6),  # 2 planar paths in xy times 3 in xz
    (N26, (-2, 1, 0), 2, 6),
    (N26, (2, 2, 1), 2, 2),
    (N26, (2, 2, 2), 2, 1),
    (N26, (3, 1, 0), 3, 42),
    (N26, (3, 2, 1), 3, 18),
    (N26, (3, 3, 3), 3, 1),
    (N26, (7, 4, 2), 7, 20482),  # 77 * 266
]
# each move is a path of its own, and the only one
ROWS += [(n, tuple(step), 1, 1) for n in Neighborhood for step in admissible_moves(n)]

PLANAR = [
    (0, 0, 1),
    (1, 0, 1),
    (1, 1, 1),
    (2, 1, 2),
    (3, 0, 7),
    (3, 1, 6),
    (4, 0, 19),
    (7, 2, 266),
    (7, 4, 77),
]

assert len({row[:2] for row in ROWS}) == len(ROWS), "a (neighborhood, target) repeats"
assert len({row[:2] for row in PLANAR}) == len(PLANAR), "an (i, j) repeats"

BRUTE_FORCE_WORDS = 200_000


def _row_id(row):
    if len(row) == 3:
        return f"N8({row[0]},{row[1]})"
    return f"{row[0].name}({','.join(map(str, row[1]))})"


def _brute_force_count(target, neighborhood, length):
    """Shortest paths by trying every move word of the given length."""
    moves = [step.as_tuple() for step in admissible_moves(neighborhood)]
    # the origin leads each sum, so the empty word lands on it
    return sum(
        tuple(map(sum, zip((0, 0, 0), *word))) == target
        for word in product(moves, repeat=length)
    )


@pytest.mark.parametrize("row", ROWS + PLANAR, ids=_row_id)
def test_every_arbiter_gives_the_known_value(row):
    if len(row) == 3:
        i, j, count = row
        assert count_n8_2d(i, j) == count
        assert oracle_count_2d(i, j) == count
        return
    neighborhood, target, length, count = row
    point = GridPoint(*target)
    assert distance(point, ORIGIN, neighborhood) == length
    off = canonicalize(point, ORIGIN)
    assert count_paths(off, neighborhood) == count
    if neighborhood is N18 and classify_n18(off) is N18Case.OVERLAP:
        assert count_n18_maxcase(off) == count
        assert count_n18_halfcase(off) == count
    assert oracle_count(point, neighborhood) == count
    if len(admissible_moves(neighborhood)) ** length <= BRUTE_FORCE_WORDS:
        assert _brute_force_count(target, neighborhood, length) == count
