"""Tests for the search-based oracle and the formula-vs-oracle sweeps.

The oracle is itself checked here against something even dumber: exhaustive
enumeration of every move sequence of the right length.  That brute force is
exponential, so it only runs at tiny distances, but at those distances it is
beyond argument.
"""

import ast
import inspect
from itertools import product

import pytest

from cubepaths import oracle as oracle_module
from cubepaths.core import (
    ORIGIN,
    GridPoint,
    Neighborhood,
    admissible_moves,
    canonicalize,
)
from cubepaths.counting import count_n8_2d, count_paths
from cubepaths.metrics import distance
from cubepaths.oracle import (
    enumerate_shortest_paths,
    iter_shortest_paths,
    oracle_count,
    oracle_count_2d,
)
from cubepaths.verify import verify_region


def _brute_force_count(target, neighborhood):
    """Count shortest paths by trying every move sequence of length d."""
    point = GridPoint(*target)
    d = distance(ORIGIN, point, neighborhood)
    if d == 0:
        return 1
    moves = [step.as_tuple() for step in admissible_moves(neighborhood)]
    hits = 0
    for sequence in product(moves, repeat=d):
        sx = sum(step[0] for step in sequence)
        sy = sum(step[1] for step in sequence)
        sz = sum(step[2] for step in sequence)
        if (sx, sy, sz) == target:
            hits += 1
    return hits


# ------------------------------------------------------------ oracle_count


@pytest.mark.parametrize(
    "target",
    [(0, 0, 0), (1, 1, 1), (2, 1, 1), (2, 1, 0), (3, 0, 0), (0, -2, 1)],
)
def test_oracle_matches_brute_force_n6(target):
    assert oracle_count(GridPoint(*target), Neighborhood.N6) == _brute_force_count(
        target, Neighborhood.N6
    )


@pytest.mark.parametrize(
    "target",
    [(0, 0, 0), (1, 1, 1), (0, 3, 0), (2, 2, 1), (2, 2, 2), (-1, 2, 2)],
)
def test_oracle_matches_brute_force_n18(target):
    assert oracle_count(GridPoint(*target), Neighborhood.N18) == _brute_force_count(
        target, Neighborhood.N18
    )


@pytest.mark.parametrize(
    "target",
    [(0, 0, 0), (1, 1, 0), (2, 1, 0), (2, 2, 1), (2, 2, 2), (3, 1, 0)],
)
def test_oracle_matches_brute_force_n26(target):
    assert oracle_count(GridPoint(*target), Neighborhood.N26) == _brute_force_count(
        target, Neighborhood.N26
    )


def test_every_neighbor_has_exactly_one_path():
    for neighborhood in Neighborhood:
        for step in admissible_moves(neighborhood):
            assert oracle_count(GridPoint(*step.as_tuple()), neighborhood) == 1


@pytest.mark.parametrize("neighborhood", list(Neighborhood))
def test_oracle_on_raw_box_matches_formula_on_canonical_offset(neighborhood):
    """Sweep every raw point of the [-4..4]^3 box: the formula-free count of
    the raw displacement must equal the closed form of its canonical offset.
    This pins down permutation and sign invariance against the oracle, since
    the box contains all 48 images of each of its canonical points."""
    for target in product(range(-4, 5), repeat=3):
        point = GridPoint(*target)
        off = canonicalize(point, ORIGIN)
        assert oracle_count(point, neighborhood) == count_paths(off, neighborhood), target


# --------------------------------------------------------- oracle_count_2d


@pytest.mark.parametrize(
    "i,j,expected", [(0, 0, 1), (3, 0, 7), (3, 1, 6), (4, 0, 19), (7, 4, 77)]
)
def test_oracle_count_2d_values(i, j, expected):
    assert oracle_count_2d(i, j) == expected


def test_oracle_count_2d_handles_signs_and_order():
    assert oracle_count_2d(-3, 1) == oracle_count_2d(3, 1) == oracle_count_2d(1, 3)
    assert oracle_count_2d(0, -4) == 19


def test_oracle_count_2d_diagonal():
    for i in range(6):
        assert oracle_count_2d(i, i) == 1


def test_oracle_count_2d_matches_planar_formula():
    """The planar kernel behind count_n26 against the formula-free DP."""
    for i in range(15):
        for j in range(i + 1):
            assert count_n8_2d(i, j) == oracle_count_2d(i, j), (i, j)


# -------------------------------------------------------------- enumeration


def test_enumerate_single_straight_path():
    result = enumerate_shortest_paths(GridPoint(2, 0, 0), Neighborhood.N6, limit=10)
    assert not result.truncated
    assert len(result.paths) == 1
    assert [step.as_tuple() for step in result.paths[0]] == [(1, 0, 0), (1, 0, 0)]


def test_enumerate_zero_displacement_is_the_empty_path():
    result = enumerate_shortest_paths(ORIGIN, Neighborhood.N26)
    assert result.paths == ((),)
    assert not result.truncated


def test_enumerate_counts_match_oracle():
    targets = [(1, 1, 1), (2, 2, 1), (0, 3, 0), (2, 1, 0)]
    for target in targets:
        point = GridPoint(*target)
        for neighborhood in Neighborhood:
            expected = oracle_count(point, neighborhood)
            result = enumerate_shortest_paths(point, neighborhood, limit=expected + 5)
            assert len(result.paths) == expected
            assert not result.truncated


def test_enumerate_truncates_at_limit():
    # (0, 3, 0) has 13 shortest N18 paths; ask for 5.
    result = enumerate_shortest_paths(GridPoint(0, 3, 0), Neighborhood.N18, limit=5)
    assert result.truncated
    assert len(result.paths) == 5


def test_enumerate_limit_exactly_at_count_is_not_truncated():
    result = enumerate_shortest_paths(GridPoint(0, 3, 0), Neighborhood.N18, limit=13)
    assert not result.truncated
    assert len(result.paths) == 13


def test_enumerate_paths_deeper_than_the_recursion_limit():
    # 3001 steps is past Python's default recursion limit of 1000, so this
    # pins the explicit-stack depth-first search
    result = enumerate_shortest_paths(GridPoint(3000, 1, 0), Neighborhood.N6, limit=3)
    assert result.truncated
    assert [len(path) for path in result.paths] == [3001, 3001, 3001]
    assert [path[0].as_tuple() for path in result.paths] == [(0, 1, 0), (1, 0, 0), (1, 0, 0)]


def test_enumerate_takes_a_limit_beyond_sys_maxsize():
    # islice refuses a stop above sys.maxsize; the listing must not
    result = enumerate_shortest_paths(GridPoint(1, 1, 0), Neighborhood.N6, limit=2**64)
    assert not result.truncated
    assert [[step.as_tuple() for step in path] for path in result.paths] == [
        [(0, 1, 0), (1, 0, 0)],
        [(1, 0, 0), (0, 1, 0)],
    ]


def test_enumerate_rejects_nonpositive_limit():
    with pytest.raises(ValueError):
        enumerate_shortest_paths(GridPoint(1, 0, 0), Neighborhood.N6, limit=0)


def test_paths_are_sorted_distinct_and_valid():
    for target in [(2, 2, 1), (1, -2, 0), (3, 1, 1)]:
        point = GridPoint(*target)
        for neighborhood in Neighborhood:
            d = distance(ORIGIN, point, neighborhood)
            paths = list(iter_shortest_paths(point, neighborhood))
            assert paths == sorted(paths)
            assert len(set(paths)) == len(paths)
            for path in paths:
                assert len(path) == d
                assert all(step in admissible_moves(neighborhood) for step in path)
                sx = sum(step.dx for step in path)
                sy = sum(step.dy for step in path)
                sz = sum(step.dz for step in path)
                assert (sx, sy, sz) == target


def test_the_searches_read_the_step_tables_built_at_import(monkeypatch):
    # a row is a move, in lexicographic order, then its components as exact
    # ints; the searches never rebuild the rows, and yield the very moves
    for neighborhood in Neighborhood:
        rows = oracle_module._STEPS[neighborhood]
        assert [row[0] for row in rows] == sorted(admissible_moves(neighborhood))
        assert all(type(row) is tuple and row[1:] == tuple(row[0]) for row in rows)
        assert all(type(c) is int for row in rows for c in row[1:])
    monkeypatch.setattr(oracle_module, "admissible_moves", None)
    point = GridPoint(2, -1, 1)
    for neighborhood in Neighborhood:
        moves = {id(move) for move in admissible_moves(neighborhood)}
        paths = list(iter_shortest_paths(point, neighborhood))
        assert len(paths) == oracle_count(point, neighborhood)
        assert all(id(step) in moves for path in paths for step in path)
    assert oracle_count_2d(4, 1) == count_n8_2d(4, 1)


# ------------------------------------------------------------ verification


@pytest.mark.parametrize("neighborhood", list(Neighborhood))
def test_verify_region_small_box_is_clean(neighborhood):
    report = verify_region(4, neighborhood)
    assert report.ok
    assert report.mismatches == ()
    assert report.checked == 35  # number of triples 0 <= k <= j <= i <= 4


def test_verify_region_zero_extent():
    report = verify_region(0, Neighborhood.N6)
    assert report.ok and report.checked == 1


def test_verify_region_rejects_negative_extent():
    with pytest.raises(ValueError):
        verify_region(-1, Neighborhood.N6)


# ------------------------------------------------------------ independence


def test_oracle_module_never_imports_the_counting_module():
    """The oracle is only a trustworthy cross-check while it stays
    formula-free; fail loudly if someone wires the modules together."""
    tree = ast.parse(inspect.getsource(oracle_module))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
            assert not any("counting" in name for name in names), names
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            assert "counting" not in module, module
            names = [alias.name for alias in node.names]
            assert not any("counting" in name for name in names), names
