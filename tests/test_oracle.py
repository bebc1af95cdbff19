"""Tests for the search-based oracle and the formula-vs-oracle sweeps.

The oracle's known values, and its check against something even dumber,
every move word of the right length, are rows of tests/test_known_values.py.
Listings are held to the path check of perfbench/reference.py, which judges
a step by its weight, not by the package's move sets.
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
from cubepaths.metrics import displacement_metric
from cubepaths.oracle import (
    enumerate_shortest_paths,
    iter_shortest_paths,
    oracle_count,
    oracle_count_2d,
)
from cubepaths.verify import verify_region
from helpers import SIGNED_MAPS, reference, signed_image

# ------------------------------------------------------------ oracle_count


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


def test_oracle_count_2d_handles_signs_and_order():
    assert oracle_count_2d(-3, 1) == oracle_count_2d(3, 1) == oracle_count_2d(1, 3)
    assert oracle_count_2d(0, -4) == oracle_count_2d(4, 0)


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
    with pytest.raises(ValueError, match="^limit must be positive, got 0$"):
        enumerate_shortest_paths(GridPoint(1, 0, 0), Neighborhood.N6, limit=0)


def test_paths_are_sorted_distinct_and_valid():
    # the benchmark's listing check: as many paths as the closed form counts,
    # not truncated at a limit of exactly that many, strictly increasing, each
    # a shortest word of steps of admissible weight that lands on the target
    for target in [(2, 2, 1), (1, -2, 0), (3, 1, 1)]:
        point = GridPoint(*target)
        for neighborhood in Neighborhood:
            count = count_paths(canonicalize(point, ORIGIN), neighborhood)
            listing = enumerate_shortest_paths(point, neighborhood, limit=count)
            problems = reference.path_problems(
                listing.paths, neighborhood.value, target, count, count, listing.truncated
            )
            assert problems == [], (target, neighborhood)


def test_the_walk_derives_each_displacements_onward_steps_once(monkeypatch):
    # the metric runs once for the target's distance, then once per step row at
    # each distinct displacement still to go before a last step; a walk that
    # re-derived a displacement's rows on each return to it would run it more
    calls = 0

    def counting_metric(neighborhood):
        metric = displacement_metric(neighborhood)

        def counted(x, y, z):
            nonlocal calls
            calls += 1
            return metric(x, y, z)

        return counted

    monkeypatch.setattr(oracle_module, "displacement_metric", counting_metric)
    target = (3, 2, 1)
    paths = list(iter_shortest_paths(GridPoint(*target), Neighborhood.N26))
    assert len(paths) == 18
    to_go = set()
    for path in paths:
        w = target
        for step in path:
            to_go.add(w)
            w = (w[0] - step.dx, w[1] - step.dy, w[2] - step.dz)
    assert calls == len(oracle_module._STEPS[Neighborhood.N26]) * len(to_go) + 1


def _plain(paths):
    return [tuple(step.as_tuple() for step in path) for path in paths]


def test_the_walk_at_a_signed_permuted_target_is_the_sorted_image():
    # the move sets are closed under the 48 signed axis permutations, so the
    # listing at sigma(t) is the listing at t with sigma applied to every step,
    # re-sorted; this holds the walk's sign handling at every signed target
    for target in [(2, 1, 0), (2, 2, 1), (3, 2, 1)]:
        for neighborhood in Neighborhood:
            listing = _plain(iter_shortest_paths(GridPoint(*target), neighborhood))
            for sigma in SIGNED_MAPS:
                image = sorted(tuple(signed_image(*sigma, m) for m in path) for path in listing)
                moved = GridPoint(*signed_image(*sigma, target))
                assert _plain(iter_shortest_paths(moved, neighborhood)) == image, sigma


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
