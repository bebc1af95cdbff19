"""Exact digital distances and shortest-path counts on the 3D cubic grid.

Closed-form counting under 6-, 18- and 26-connectivity, cross-checked by a
formula-free graph-search oracle.  All counts are exact big integers.
"""

from .core import ORIGIN, CanonicalOffset, GridPoint, Neighborhood, canonicalize
from .counting import count_paths
from .metrics import distance
from .oracle import enumerate_shortest_paths, oracle_count, oracle_count_2d
from .tables import shell_table, slice_table_2d
from .verify import verify_region

__version__ = "0.1.0"

__all__ = [
    "ORIGIN",
    "CanonicalOffset",
    "GridPoint",
    "Neighborhood",
    "canonicalize",
    "count_paths",
    "distance",
    "enumerate_shortest_paths",
    "oracle_count",
    "oracle_count_2d",
    "shell_table",
    "slice_table_2d",
    "verify_region",
]
