"""Machine-readable count tables: constant-distance shells in 3D and the
planar chessboard slice.

Counts are serialized as decimal strings in every format; they outgrow any
fixed-width integer almost immediately.
"""

from __future__ import annotations

from itertools import permutations, product
from typing import NamedTuple

from .core import CanonicalOffset, GridPoint, Neighborhood, check_size, check_type
from .counting import count_n8_2d, count_paths
from .metrics import displacement_metric


class TableEntry(NamedTuple):
    point: GridPoint
    distance: int
    count: int


class CountTable(NamedTuple):
    """Rows of (point, distance, count), sorted lexicographically by point."""

    entries: tuple[TableEntry, ...]


def symmetry_images(point: GridPoint) -> list[GridPoint]:
    """All distinct sign/permutation images of a point (up to 48)."""
    check_type("point", point, GridPoint)
    images = set()
    for a, b, c in permutations(point):
        for sa, sb, sc in product((1, -1), repeat=3):
            images.add(GridPoint(sa * a, sb * b, sc * c))
    return sorted(images)


def shell_table(
    neighborhood: Neighborhood, length: int, expand_symmetry: bool = False
) -> CountTable:
    """Every canonical point at exactly the given digital distance, with its
    closed-form path count.

    By default only canonical representatives (i >= j >= k >= 0) appear,
    which avoids reporting each value up to 48 times; ``expand_symmetry``
    restores the full shell for reproducing complete distance spheres.
    """
    check_size("length", length, 0)
    check_type("expand_symmetry", expand_symmetry, bool)
    dist = displacement_metric(neighborhood)
    entries: list[TableEntry] = []
    # the dominant coordinate never exceeds the digital distance
    for i in range(length + 1):
        for j in range(i + 1):
            for k in range(j + 1):
                if dist(i, j, k) != length:
                    continue
                count = count_paths(CanonicalOffset(i, j, k), neighborhood)
                point = GridPoint(i, j, k)
                images = symmetry_images(point) if expand_symmetry else (point,)
                entries.extend(TableEntry(image, length, count) for image in images)
    entries.sort(key=lambda entry: entry.point)
    return CountTable(entries=tuple(entries))


def slice_table_2d(max_i: int) -> CountTable:
    """Planar chessboard counts for all 0 <= j <= i <= max_i.

    Points are reported in the z=0 plane; each row's distance is i, the
    chessboard distance of (i, j) from the origin.
    """
    check_size("max_i", max_i, 0)
    entries = [
        TableEntry(GridPoint(i, j, 0), i, count_n8_2d(i, j))
        for i in range(max_i + 1)
        for j in range(i + 1)
    ]
    return CountTable(entries=tuple(entries))


_COLUMNS = ("i", "j", "k", "distance", "count")


def decimal_string(value: int) -> str:
    """The exact decimal text of an int of any size.

    This is plain ``str`` unless the value exceeds CPython's int-to-str
    digit cap (CVE-2020-10735); then it is split by a power of ten into
    halves that are converted recursively.  The cap itself stays in force,
    so parsing untrusted input with ``int()`` remains guarded.
    """
    check_type("value", value, int)
    try:
        return str(value)
    except ValueError:
        pass
    width = value.bit_length() * 3 // 20  # about half the decimal digits
    high, low = divmod(abs(value), 10**width)
    sign = "-" if value < 0 else ""
    return sign + decimal_string(high) + decimal_string(low).zfill(width)


def json_line(value) -> str:
    """``value`` as JSON on one line ending with a newline, like every
    renderer's output; the package's one JSON writer."""
    import json  # only JSON output needs it; a bare count request skips the import

    return json.dumps(value) + "\n"


def _cells(table: CountTable) -> list[tuple[str, ...]]:
    # the header row, then the five cells of each entry as text
    check_type("table", table, CountTable)
    return [_COLUMNS] + [
        (str(x), str(y), str(z), str(dist), decimal_string(count))
        for (x, y, z), dist, count in table.entries
    ]


def _delimited(table: CountTable, delimiter: str) -> str:
    # every cell is an integer or a decimal string, so none needs quoting
    return "".join(delimiter.join(row) + "\n" for row in _cells(table))


def to_csv(table: CountTable) -> str:
    """Serialize as CSV with header i,j,k,distance,count and LF newlines."""
    return _delimited(table, ",")


def to_tsv(table: CountTable) -> str:
    """Serialize as TSV with the same columns as :func:`to_csv`."""
    return _delimited(table, "\t")


def to_json(table: CountTable) -> str:
    """Serialize as a JSON array of {point, distance, count} objects on one
    line (see :func:`json_line`)."""
    check_type("table", table, CountTable)
    rows = [
        {
            "point": point,
            "distance": dist,
            "count": decimal_string(count),
        }
        for point, dist, count in table.entries
    ]
    return json_line(rows)


def to_text(table: CountTable) -> str:
    """Render as an aligned human-readable table."""
    rows = _cells(table)
    widths = [max(map(len, column)) for column in zip(*rows)]
    lines = ("  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in rows)
    return "\n".join(lines) + "\n"
