"""Release acceptance suite.

One test per shipping criterion, each ending in a printed PASS line (visible
under ``pytest -v -s`` or in the captured output of a failing run).  These
are deliberately end-to-end and repeat some ground covered by the per-module
tests; this file is the single place that must stay green for a release.
"""

import math
import random
import time
from itertools import permutations

from cubepaths.core import ORIGIN, CanonicalOffset, GridPoint, Neighborhood, canonicalize
from cubepaths.counting import (
    count_n6,
    count_n8_2d,
    count_n18_halfcase,
    count_n18_maxcase,
    count_n26,
    count_paths,
)
from cubepaths.metrics import distance
from cubepaths.oracle import enumerate_shortest_paths, oracle_count
from cubepaths.tables import shell_table
from cubepaths.verify import verify_region
from helpers import canonical_triples, reference, run_cli

SEED = 20260814


def test_criterion_1_worked_values():
    """Fixed worked values reproduce exactly, well under a second."""
    start = time.perf_counter()
    assert count_paths(CanonicalOffset(3, 0, 0), Neighborhood.N18) == 13
    assert count_paths(CanonicalOffset(3, 1, 0), Neighborhood.N18) == 12
    assert count_paths(CanonicalOffset(2, 2, 2), Neighborhood.N18) == 6
    assert count_paths(CanonicalOffset(2, 2, 1), Neighborhood.N18) == 15
    assert count_n18_maxcase(CanonicalOffset(9, 4, 4)) == 630
    assert count_n18_halfcase(CanonicalOffset(9, 4, 4)) == 630
    assert distance(GridPoint(7, 4, 2), ORIGIN, Neighborhood.N26) == 7
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"worked values took {elapsed:.3f}s"
    print(f"PASS: criterion 1 - worked values reproduce exactly ({elapsed:.3f}s)")


def test_criterion_2_oracle_arbitration_at_9_5_4():
    """At (9,5,4) under N18 the search oracle is the authority; both closed
    formulas and the dispatcher must match it exactly (the value is 126)."""
    truth = oracle_count(GridPoint(9, 5, 4), Neighborhood.N18)
    assert truth == 126
    off = CanonicalOffset(9, 5, 4)
    assert count_n18_maxcase(off) == truth
    assert count_n18_halfcase(off) == truth
    assert count_paths(off, Neighborhood.N18, check_overlap=True) == truth
    print("PASS: criterion 2 - (9,5,4) arbitrated by oracle: all sides give 126")


def test_criterion_3_formula_oracle_sweep():
    """Closed-form counts equal the search oracle on the whole canonical
    box of extent 5, for all three neighborhoods, in under 10 seconds."""
    start = time.perf_counter()
    checked = 0
    for neighborhood in Neighborhood:
        report = verify_region(5, neighborhood)
        assert report.ok, report.mismatches
        checked += report.checked
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"sweep took {elapsed:.3f}s"
    print(
        f"PASS: criterion 3 - formulas equal oracle at {checked} box points "
        f"({elapsed:.3f}s)"
    )


def test_criterion_4_overlap_identity():
    """The dominant-coordinate and half-sum formulas agree on every
    canonical point where both apply (i = j+k or i = j+k+1), up to i = 30,
    in under 5 seconds."""
    start = time.perf_counter()
    checked = 0
    for j in range(31):
        for k in range(j + 1):
            for i in (j + k, j + k + 1):
                if not j <= i <= 30:
                    continue
                off = CanonicalOffset(i, j, k)
                assert count_n18_maxcase(off) == count_n18_halfcase(off), off
                checked += 1
    elapsed = time.perf_counter() - start
    assert checked > 300
    assert elapsed < 5.0, f"overlap identity took {elapsed:.3f}s"
    print(
        f"PASS: criterion 4 - overlap formulas agree at {checked} points "
        f"({elapsed:.3f}s)"
    )


def test_criterion_5_planar_product_law():
    """Full-connectivity counts factor into the two planar chessboard
    counts, and the distance-3 shell is their outer-product table with
    perfect squares on its diagonal."""
    for i, j, k in canonical_triples(12):
        assert count_n26(CanonicalOffset(i, j, k)) == count_n8_2d(i, j) * count_n8_2d(i, k)

    table = shell_table(Neighborhood.N26, 3)
    by_point = {entry.point.as_tuple(): entry.count for entry in table.entries}
    assert by_point == {
        (3, j, k): count_n8_2d(3, j) * count_n8_2d(3, k)
        for j in range(4)
        for k in range(j + 1)
    }
    for t in range(4):
        value = by_point[(3, t, t)]
        assert math.isqrt(value) ** 2 == value
    print(
        "PASS: criterion 5 - planar product law holds through i=12 and on the "
        "distance-3 shell"
    )


def test_criterion_6_structural_invariants():
    """Five randomized structural properties, >= 1000 cases each."""
    # The last three loops check the N26 <= N18 <= N6 ordering, the N6 Pascal
    # recurrence and the planar binomial. test_metrics.py and test_counting.py
    # check the same three per module; a clean-up that deletes one copy as a
    # duplicate must keep the other.
    cases = 1000

    all_perms = list(permutations(range(3)))
    rng = random.Random(SEED)
    for _ in range(cases):
        base = tuple(rng.randint(-12, 12) for _ in range(3))
        perm = rng.choice(all_perms)
        image = tuple(base[axis] for axis in perm)
        base_off = canonicalize(GridPoint(*base), ORIGIN)
        image_off = canonicalize(GridPoint(*image), ORIGIN)
        assert image_off.as_triple() == base_off.as_triple()
        for neighborhood in Neighborhood:
            assert count_paths(image_off, neighborhood) == count_paths(
                base_off, neighborhood
            )

    rng = random.Random(SEED + 1)
    for _ in range(cases):
        base = tuple(rng.randint(-12, 12) for _ in range(3))
        signs = tuple(rng.choice((-1, 1)) for _ in range(3))
        image = tuple(s * c for s, c in zip(signs, base))
        base_off = canonicalize(GridPoint(*base), ORIGIN)
        image_off = canonicalize(GridPoint(*image), ORIGIN)
        assert image_off.as_triple() == base_off.as_triple()
        for neighborhood in Neighborhood:
            assert count_paths(image_off, neighborhood) == count_paths(
                base_off, neighborhood
            )

    rng = random.Random(SEED + 2)
    for _ in range(cases):
        p = GridPoint(*(rng.randint(-10**6, 10**6) for _ in range(3)))
        q = GridPoint(*(rng.randint(-10**6, 10**6) for _ in range(3)))
        assert (
            distance(p, q, Neighborhood.N26)
            <= distance(p, q, Neighborhood.N18)
            <= distance(p, q, Neighborhood.N6)
        )

    def f6(a, b, c):
        i, j, k = sorted((a, b, c), reverse=True)
        return count_n6(CanonicalOffset(i, j, k))

    rng = random.Random(SEED + 3)
    for _ in range(cases):
        i, j, k = (rng.randint(1, 25) for _ in range(3))
        assert f6(i, j, k) == f6(i - 1, j, k) + f6(i, j - 1, k) + f6(i, j, k - 1)

    rng = random.Random(SEED + 4)
    for _ in range(cases):
        i, j = rng.randint(0, 60), rng.randint(0, 60)
        assert f6(i, j, 0) == math.comb(i + j, i)

    print(f"PASS: criterion 6 - five structural invariants hold ({cases} cases each)")


def test_criterion_7_enumeration_consistency():
    """Enumerated shortest paths agree with the closed-form count at every
    canonical point of distance <= 3, and each listing is sorted, distinct,
    admissible, of exact length, and lands on the target."""
    points = 0
    for neighborhood in Neighborhood:
        for triple in canonical_triples(3):
            target = GridPoint(*triple)
            if distance(ORIGIN, target, neighborhood) > 3:
                continue
            expected = count_paths(CanonicalOffset(*triple), neighborhood)
            listing = enumerate_shortest_paths(target, neighborhood, limit=expected + 1)
            problems = reference.path_problems(
                listing.paths, neighborhood.value, triple, expected + 1, expected, listing.truncated
            )
            assert problems == [], (triple, neighborhood)
            points += 1
    print(f"PASS: criterion 7 - enumeration matches counts at {points} point/neighborhood pairs")


def test_criterion_8_cli_contract():
    """The three documented invocations print exactly the documented output
    and exit codes."""
    code, out, _ = run_cli(["count", "--from", "0,0,0", "--to", "0,3,0", "-n", "18"])
    assert (code, out) == (0, "13\n")

    code, out, _ = run_cli(["distance", "--from", "0,0,0", "--to", "7,4,2", "-n", "26"])
    assert (code, out) == (0, "7\n")

    code, out, _ = run_cli(["verify", "--extent", "5", "-n", "all"])
    assert code == 0
    assert out.splitlines() == [
        "N6: checked 56 canonical points (extent 5), mismatches 0",
        "N18: checked 56 canonical points (extent 5), mismatches 0",
        "N26: checked 56 canonical points (extent 5), mismatches 0",
    ]
    print("PASS: criterion 8 - CLI invocations match documented outputs and exit codes")
