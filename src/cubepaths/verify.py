"""Formula-vs-oracle verification sweeps over canonical boxes.

Lives apart from the oracle so that the oracle module never imports the
counting module (their independence is the point of the cross-check).
"""

from __future__ import annotations

from typing import NamedTuple

from .core import CanonicalOffset, GridPoint, Neighborhood, check_size
from .counting import N18Case, classify_n18, count_n18_halfcase, count_paths
from .oracle import oracle_count


class VerifyReport(NamedTuple):
    """Outcome of one sweep; empty ``mismatches`` means every formula value
    equaled the search oracle on the box."""

    checked: int
    mismatches: tuple[tuple[GridPoint, int, int], ...]  # (point, formula, oracle)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def verify_region(extent: int, neighborhood: Neighborhood) -> VerifyReport:
    """Check every canonical point 0 <= k <= j <= i <= extent.

    Every point is checked against the oracle through count_paths.  Under
    N18 an overlap point is also checked through the half sum; count_paths
    takes the dominant-coordinate sum there, so both formulas meet the
    oracle on the whole overlap.
    """
    check_size("extent", extent, 0)
    checked = 0
    mismatches: list[tuple[GridPoint, int, int]] = []
    for i in range(extent + 1):
        for j in range(i + 1):
            for k in range(j + 1):
                off = CanonicalOffset(i, j, k)
                point = GridPoint(i, j, k)
                expected = oracle_count(point, neighborhood)
                checked += 1
                candidates = [count_paths(off, neighborhood)]
                if neighborhood is Neighborhood.N18 and classify_n18(off) is N18Case.OVERLAP:
                    candidates.append(count_n18_halfcase(off))
                for got in candidates:
                    if got != expected:
                        mismatches.append((point, got, expected))
    return VerifyReport(checked=checked, mismatches=tuple(mismatches))
