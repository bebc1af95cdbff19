"""Tests for shell/slice table building and its serializers."""

import csv
import io
import json
import random
import sys

import pytest

from cubepaths.core import GridPoint, Neighborhood
from cubepaths.counting import count_n8_2d
from cubepaths.metrics import distance
from cubepaths.oracle import oracle_count
from cubepaths.tables import (
    CountTable,
    TableEntry,
    decimal_string,
    shell_table,
    slice_table_2d,
    symmetry_images,
    to_csv,
    to_json,
    to_text,
    to_tsv,
)
from cubepaths.core import ORIGIN


def _as_dict(table):
    return {entry.point.as_tuple(): entry.count for entry in table.entries}


# ------------------------------------------------------------ shell_table


def test_shell_n18_length_3():
    table = shell_table(Neighborhood.N18, 3)
    assert _as_dict(table) == {
        (2, 2, 1): 15,
        (2, 2, 2): 6,
        (3, 0, 0): 13,
        (3, 1, 0): 12,
        (3, 1, 1): 6,
        (3, 2, 0): 3,
        (3, 2, 1): 3,
        (3, 3, 0): 1,
    }


def test_shell_n26_length_3_is_planar_multiplication_table():
    table = shell_table(Neighborhood.N26, 3)
    expected = {
        (3, j, k): count_n8_2d(3, j) * count_n8_2d(3, k)
        for j in range(4)
        for k in range(j + 1)
    }
    assert _as_dict(table) == expected
    assert table.entries[0].count == 49  # (3, 0, 0): 7 * 7


def test_shell_n6_length_2():
    table = shell_table(Neighborhood.N6, 2)
    assert _as_dict(table) == {(1, 1, 0): 2, (2, 0, 0): 1}


def test_shell_length_zero_is_the_origin_alone():
    for neighborhood in Neighborhood:
        table = shell_table(neighborhood, 0)
        assert _as_dict(table) == {(0, 0, 0): 1}


def test_shell_metadata_and_ordering():
    table = shell_table(Neighborhood.N18, 4)
    points = [entry.point for entry in table.entries]
    assert points == sorted(points)
    assert all(entry.distance == 4 for entry in table.entries)


def test_shell_rejects_negative_length():
    with pytest.raises(ValueError):
        shell_table(Neighborhood.N6, -1)


@pytest.mark.parametrize("neighborhood", list(Neighborhood))
@pytest.mark.parametrize("length", range(5))
def test_shell_counts_agree_with_oracle(neighborhood, length):
    for entry in shell_table(neighborhood, length).entries:
        assert oracle_count(entry.point, neighborhood) == entry.count, entry


# ----------------------------------------------------------- expand_symmetry


def test_symmetry_images_counts():
    assert len(symmetry_images(GridPoint(0, 0, 0))) == 1
    assert len(symmetry_images(GridPoint(1, 0, 0))) == 6
    assert len(symmetry_images(GridPoint(1, 1, 0))) == 12
    assert len(symmetry_images(GridPoint(1, 1, 1))) == 8
    assert len(symmetry_images(GridPoint(3, 2, 1))) == 48


def test_expanded_shell_n26_length_1_is_the_full_neighbor_set():
    table = shell_table(Neighborhood.N26, 1, expand_symmetry=True)
    assert len(table.entries) == 26
    assert all(entry.count == 1 for entry in table.entries)
    assert all(
        distance(entry.point, ORIGIN, Neighborhood.N26) == 1 for entry in table.entries
    )


def test_expanded_shell_n6_length_1():
    table = shell_table(Neighborhood.N6, 1, expand_symmetry=True)
    assert {entry.point.as_tuple() for entry in table.entries} == {
        (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1),
    }


def test_expanded_shell_preserves_counts_per_image():
    compact = shell_table(Neighborhood.N18, 3)
    expanded = shell_table(Neighborhood.N18, 3, expand_symmetry=True)
    by_point = _as_dict(expanded)
    for entry in compact.entries:
        for image in symmetry_images(entry.point):
            assert by_point[image.as_tuple()] == entry.count


# ------------------------------------------------------------ 2D slice


def test_slice_table_values():
    table = slice_table_2d(3)
    assert _as_dict(table) == {
        (0, 0, 0): 1,
        (1, 0, 0): 1,
        (1, 1, 0): 1,
        (2, 0, 0): 3,
        (2, 1, 0): 2,
        (2, 2, 0): 1,
        (3, 0, 0): 7,
        (3, 1, 0): 6,
        (3, 2, 0): 3,
        (3, 3, 0): 1,
    }
    assert all(entry.distance == entry.point.x for entry in table.entries)


def test_slice_table_rejects_negative_extent():
    with pytest.raises(ValueError, match="^max_i must be nonnegative, got -2$"):
        slice_table_2d(-2)


# ------------------------------------------------------------ serializers


def _tiny_table():
    return CountTable(
        entries=(TableEntry(GridPoint(1, 0, 0), 1, 1),),
    )


def test_to_csv_golden():
    assert to_csv(_tiny_table()) == "i,j,k,distance,count\n1,0,0,1,1\n"


def test_to_csv_shell():
    got = to_csv(shell_table(Neighborhood.N6, 2))
    assert got == "i,j,k,distance,count\n1,1,0,2,2\n2,0,0,2,1\n"


def test_to_tsv_golden():
    assert to_tsv(_tiny_table()) == "i\tj\tk\tdistance\tcount\n1\t0\t0\t1\t1\n"


def test_to_json_counts_are_decimal_strings():
    rows = json.loads(to_json(shell_table(Neighborhood.N18, 3)))
    assert rows[0] == {"point": [2, 2, 1], "distance": 3, "count": "15"}
    assert all(isinstance(row["count"], str) for row in rows)


def test_to_text_aligns_and_includes_header():
    text = to_text(shell_table(Neighborhood.N18, 3))
    lines = text.splitlines()
    assert lines[0].split() == ["i", "j", "k", "distance", "count"]
    assert len(lines) == 9
    assert len({len(line) for line in lines}) == 1  # all rows padded equally


def test_serializers_use_lf_newlines_only():
    for table in (shell_table(Neighborhood.N26, 2), CountTable(entries=())):
        for serializer in (to_csv, to_tsv, to_json, to_text):
            output = serializer(table)
            assert "\r" not in output
            # whole lines: the output ends in exactly one newline
            assert output.endswith("\n") and not output.endswith("\n\n"), serializer


def test_serializers_on_empty_table():
    empty = CountTable(entries=())
    assert to_csv(empty) == "i,j,k,distance,count\n"
    assert json.loads(to_json(empty)) == []
    assert to_text(empty).splitlines()[0].split() == ["i", "j", "k", "distance", "count"]


# ------------------------------------------- beyond the int-to-str cap

# 5201 digits, above CPython's 4300-digit cap; the zero run straddles the
# point where decimal_string splits the value
HUGE_DIGITS = "9" + "0" * 2600 + "".join(
    random.Random(4300).choices("0123456789", k=2600)
)


def _from_digits(text):
    """int(text) for a digit string of any length, 100 digits at a time."""
    value = 0
    for start in range(0, len(text), 100):
        chunk = text[start : start + 100]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


HUGE = _from_digits(HUGE_DIGITS)


def test_decimal_string_is_exact_beyond_the_cap():
    assert decimal_string(HUGE) == HUGE_DIGITS
    assert decimal_string(-HUGE) == "-" + HUGE_DIGITS
    assert decimal_string(HUGE * 10**3000) == HUGE_DIGITS + "0" * 3000


def test_decimal_string_is_str_below_the_cap():
    for value in (0, 7, -12, 10**4299, -(10**4299) + 1, 2**64):
        assert decimal_string(value) == str(value)


def test_decimal_string_keeps_the_cap_on_parsing():
    decimal_string(HUGE)
    with pytest.raises(ValueError):
        int(HUGE_DIGITS)


def _around_the_cap():
    rng = random.Random(90716)
    values = [rng.randrange(10 ** (d - 1), 10**d) for d in (4301, 4302, 5000, 12345, 20000)]
    values += [10**k + delta for k in (4299, 4300, 4301, 8600) for delta in (-1, 0)]
    values += [2**14285, 2**14285 - 1, 2**20000 + 1]  # about the cap in bits
    return values + [-value for value in values]


@pytest.mark.parametrize(
    "value", _around_the_cap(), ids=lambda v: f"{'-' if v < 0 else ''}{v.bit_length()}bits"
)
def test_decimal_string_equals_uncapped_str(value):
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # lifted for the expected text only
    try:
        expected = str(value)
    finally:
        sys.set_int_max_str_digits(cap)
    assert decimal_string(value) == expected


def _huge_table():
    return CountTable(
        entries=(TableEntry(GridPoint(1, 0, 0), 1, HUGE),),
    )


def test_delimited_serializers_beyond_the_cap():
    assert to_csv(_huge_table()) == f"i,j,k,distance,count\n1,0,0,1,{HUGE_DIGITS}\n"
    assert to_tsv(_huge_table()) == f"i\tj\tk\tdistance\tcount\n1\t0\t0\t1\t{HUGE_DIGITS}\n"


def test_to_json_beyond_the_cap():
    rows = json.loads(to_json(_huge_table()))
    assert rows == [{"point": [1, 0, 0], "distance": 1, "count": HUGE_DIGITS}]


def test_to_text_beyond_the_cap():
    header, row = to_text(_huge_table()).splitlines()
    assert header.split() == ["i", "j", "k", "distance", "count"]
    assert row.split() == ["1", "0", "0", "1", HUGE_DIGITS]
    assert len(header) == len(row)


# ------------------------------------------- parity with the csv module


def _csv_module_reference(table, delimiter):
    """The same rows through the stdlib csv writer, as the reference."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, delimiter=delimiter, lineterminator="\n")
    writer.writerow(("i", "j", "k", "distance", "count"))
    for point, dist, count in table.entries:
        writer.writerow([point.x, point.y, point.z, dist, decimal_string(count)])
    return buffer.getvalue()


@pytest.mark.parametrize(
    "table",
    [shell_table(Neighborhood.N26, 3, expand_symmetry=True), _huge_table()],
    ids=["n26-shell-3-expanded", "beyond-the-cap"],
)
def test_delimited_serializers_match_the_csv_module(table):
    assert to_csv(table) == _csv_module_reference(table, ",")
    assert to_tsv(table) == _csv_module_reference(table, "\t")
