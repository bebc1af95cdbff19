"""End-to-end tests for the command-line interface, via run()."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cubepaths

from cubepaths.cli import EXIT_MISMATCH, EXIT_OK, EXIT_USAGE, run
from cubepaths.core import GridPoint, Neighborhood
from cubepaths.counting import multinomial
from cubepaths.tables import decimal_string
from cubepaths.verify import VerifyReport

# a count far above CPython's 4300-digit int->str cap
HUGE = 7**6000


def invoke(capsys, *args):
    code = run(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- distance


def test_distance_single_neighborhood(capsys):
    code, out, err = invoke(capsys, "distance", "--from", "0,0,0", "--to", "7,4,2", "-n", "26")
    assert (code, out, err) == (EXIT_OK, "7\n", "")


def test_distance_all_neighborhoods(capsys):
    code, out, err = invoke(capsys, "distance", "--to", "7,4,2", "-n", "all")
    assert code == EXIT_OK
    assert out == "6\t13\n18\t7\n26\t7\n"


def test_distance_respects_from_point(capsys):
    code, out, _ = invoke(capsys, "distance", "--from", "1,1,1", "--to", "3,3,3", "-n", "6")
    assert (code, out) == (EXIT_OK, "6\n")


# ------------------------------------------------------------------- count


def test_count_single_neighborhood(capsys):
    code, out, err = invoke(capsys, "count", "--from", "0,0,0", "--to", "0,3,0", "-n", "18")
    assert (code, out, err) == (EXIT_OK, "13\n", "")


def test_count_all_neighborhoods(capsys):
    code, out, _ = invoke(capsys, "count", "--to", "1,-3,2", "-n", "all")
    assert code == EXIT_OK
    assert out == "6\t60\n18\t3\n26\t18\n"


def test_count_default_origin(capsys):
    code, out, _ = invoke(capsys, "count", "--to", "0,3,0", "-n", "18")
    assert (code, out) == (EXIT_OK, "13\n")


def test_count_handles_negative_and_translated_input(capsys):
    code, out, _ = invoke(capsys, "count", "--from", "5,-1,2", "--to", "6,-4,4", "-n", "18")
    assert (code, out) == (EXIT_OK, "3\n")  # displacement (1,-3,2), same as 3,2,1


def test_count_beyond_the_int_to_str_cap(capsys):
    code, out, err = invoke(capsys, "count", "--to", "6000,3000,1500", "-n", "6")
    assert (code, err) == (EXIT_OK, "")
    assert len(out) == 4355 + 1
    assert out == decimal_string(multinomial(10500, (6000, 3000, 1500))) + "\n"


# ------------------------------------------------------------------ oracle


def test_oracle_agrees_with_count(capsys):
    for target in ["2,2,1", "0,3,0", "3,-1,2"]:
        for token in ["6", "18", "26"]:
            _, count_out, _ = invoke(capsys, "count", "--to", target, "-n", token)
            code, oracle_out, _ = invoke(capsys, "oracle", "--to", target, "-n", token)
            assert code == EXIT_OK
            assert oracle_out == count_out


def test_oracle_all(capsys):
    code, out, _ = invoke(capsys, "oracle", "--to", "2,2,2", "-n", "all")
    assert code == EXIT_OK
    assert out == "6\t90\n18\t6\n26\t1\n"


# ------------------------------------------------------------------- paths


def test_paths_single_straight_path(capsys):
    code, out, err = invoke(capsys, "paths", "--to", "2,0,0", "-n", "6")
    assert (code, out, err) == (EXIT_OK, "1,0,0 1,0,0\n", "")


def test_paths_lists_all_shortest_paths_in_order(capsys):
    code, out, err = invoke(capsys, "paths", "--to", "1,1,1", "-n", "18")
    assert code == EXIT_OK and err == ""
    assert out.splitlines() == [
        "0,0,1 1,1,0",
        "0,1,0 1,0,1",
        "0,1,1 1,0,0",
        "1,0,0 0,1,1",
        "1,0,1 0,1,0",
        "1,1,0 0,0,1",
    ]


def test_paths_truncation_notes_to_stderr(capsys):
    code, out, err = invoke(capsys, "paths", "--to", "0,3,0", "-n", "18", "--limit", "5")
    assert code == EXIT_OK
    assert len(out.splitlines()) == 5
    assert "truncated at 5 paths" in err


def test_paths_relative_to_from_point(capsys):
    code, out, _ = invoke(capsys, "paths", "--from", "1,1,1", "--to", "3,1,1", "-n", "6")
    assert (code, out) == (EXIT_OK, "1,0,0 1,0,0\n")


def test_paths_json_format(capsys):
    code, out, _ = invoke(
        capsys, "paths", "--to", "1,1,1", "-n", "18", "--format", "json"
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["target"] == [1, 1, 1]
    assert payload["neighborhood"] == 18
    assert payload["distance"] == 2
    assert payload["truncated"] is False
    assert len(payload["paths"]) == 6
    assert payload["paths"][0] == [[0, 0, 1], [1, 1, 0]]


def test_paths_rejects_nonpositive_limit(capsys):
    code, out, err = invoke(capsys, "paths", "--to", "1,0,0", "-n", "6", "--limit", "0")
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "cubepaths: error: --limit must be positive, got 0\n"


# ------------------------------------------------------------------ verify


def test_verify_clean_box(capsys):
    code, out, err = invoke(capsys, "verify", "--extent", "3")
    assert code == EXIT_OK and err == ""
    assert out.splitlines() == [
        "N6: checked 20 canonical points (extent 3), mismatches 0",
        "N18: checked 20 canonical points (extent 3), mismatches 0",
        "N26: checked 20 canonical points (extent 3), mismatches 0",
    ]


def test_verify_single_neighborhood_json(capsys):
    code, out, _ = invoke(
        capsys, "verify", "--extent", "2", "-n", "18", "--format", "json"
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload == [
        {"neighborhood": 18, "extent": 2, "checked": 10, "mismatches": []}
    ]


def test_verify_mismatch_exits_2(capsys, monkeypatch):
    fake = VerifyReport(
        extent=1,
        neighborhood=Neighborhood.N6,
        checked=4,
        mismatches=((GridPoint(1, 0, 0), 2, 1),),
    )
    monkeypatch.setattr("cubepaths.cli.verify_region", lambda extent, n: fake)
    code, out, _ = invoke(capsys, "verify", "--extent", "1", "-n", "6")
    assert code == EXIT_MISMATCH
    assert "mismatches 1" in out
    assert "MISMATCH at 1,0,0: formula=2 oracle=1" in out


def test_verify_mismatch_beyond_the_int_to_str_cap(capsys, monkeypatch):
    fake = VerifyReport(
        extent=1,
        neighborhood=Neighborhood.N6,
        checked=4,
        mismatches=((GridPoint(1, 0, 0), HUGE, HUGE + 1),),
    )
    monkeypatch.setattr("cubepaths.cli.verify_region", lambda extent, n: fake)
    code, out, _ = invoke(capsys, "verify", "--extent", "1", "-n", "6")
    assert code == EXIT_MISMATCH
    formula, oracle = decimal_string(HUGE), decimal_string(HUGE + 1)
    assert f"MISMATCH at 1,0,0: formula={formula} oracle={oracle}" in out
    code, out, _ = invoke(capsys, "verify", "--extent", "1", "-n", "6", "--format", "json")
    assert code == EXIT_MISMATCH
    (mismatch,) = json.loads(out)[0]["mismatches"]
    assert mismatch == {"point": [1, 0, 0], "formula": formula, "oracle": oracle}


def test_verify_rejects_negative_extent(capsys):
    code, _, err = invoke(capsys, "verify", "--extent", "-1")
    assert code == EXIT_USAGE
    assert "must be nonnegative" in err


# ------------------------------------------------------------------- table


def test_table_csv_shell(capsys):
    code, out, _ = invoke(
        capsys, "table", "-n", "6", "--length", "2", "--format", "csv"
    )
    assert code == EXIT_OK
    assert out == "i,j,k,distance,count\n1,1,0,2,2\n2,0,0,2,1\n"


def test_table_json_shell(capsys):
    code, out, _ = invoke(
        capsys, "table", "-n", "18", "--length", "3", "--format", "json"
    )
    assert code == EXIT_OK
    rows = json.loads(out)
    assert {tuple(row["point"]): row["count"] for row in rows} == {
        (2, 2, 1): "15",
        (2, 2, 2): "6",
        (3, 0, 0): "13",
        (3, 1, 0): "12",
        (3, 1, 1): "6",
        (3, 2, 0): "3",
        (3, 2, 1): "3",
        (3, 3, 0): "1",
    }


def test_table_text_default_format(capsys):
    code, out, _ = invoke(capsys, "table", "-n", "26", "--length", "1")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0].split() == ["i", "j", "k", "distance", "count"]
    assert len(lines) == 4  # header + (1,0,0), (1,1,0), (1,1,1)


def test_table_expand_symmetry(capsys):
    code, out, _ = invoke(
        capsys, "table", "-n", "6", "--length", "1", "--expand-symmetry", "--format", "csv"
    )
    assert code == EXIT_OK
    assert len(out.splitlines()) == 7  # header + six unit neighbors


def test_table_slice_2d(capsys):
    code, out, _ = invoke(capsys, "table", "--slice-2d", "3", "--format", "csv")
    assert code == EXIT_OK
    assert out.splitlines()[:4] == [
        "i,j,k,distance,count",
        "0,0,0,0,1",
        "1,0,0,1,1",
        "1,1,0,1,1",
    ]
    assert out.splitlines()[-1] == "3,3,0,3,1"


def test_table_slice_conflicts_with_shell_flags(capsys):
    code, _, err = invoke(capsys, "table", "--slice-2d", "3", "-n", "6")
    assert code == EXIT_USAGE
    assert "cannot be combined" in err


def test_table_requires_neighborhood_and_length(capsys):
    code, _, err = invoke(capsys, "table", "-n", "6")
    assert code == EXIT_USAGE
    assert "requires -n and --length" in err


def test_table_rejects_negative_length(capsys):
    code, _, err = invoke(capsys, "table", "-n", "6", "--length", "-2")
    assert code == EXIT_USAGE
    assert "nonnegative" in err


# ------------------------------------------------------------ usage errors


def test_malformed_point(capsys):
    code, out, err = invoke(capsys, "count", "--to", "badpoint", "-n", "6")
    assert code == EXIT_USAGE
    assert out == ""
    assert "malformed point 'badpoint': expected X,Y,Z" in err


def test_noninteger_point_components(capsys):
    code, _, err = invoke(capsys, "count", "--to", "1,2.5,0", "-n", "6")
    assert code == EXIT_USAGE
    assert "components must be integers" in err


def test_unknown_neighborhood(capsys):
    code, _, err = invoke(capsys, "count", "--to", "1,0,0", "-n", "99")
    assert code == EXIT_USAGE
    assert "invalid choice" in err


def test_missing_target(capsys):
    code, _, err = invoke(capsys, "distance", "-n", "6")
    assert code == EXIT_USAGE
    assert "--to" in err


def test_missing_subcommand(capsys):
    code, _, err = invoke(capsys)
    assert code == EXIT_USAGE
    assert err.startswith("cubepaths: error:")


def test_removed_bench_subcommand_is_a_usage_error(capsys):
    code, out, err = invoke(capsys, "bench")
    assert (code, out) == (EXIT_USAGE, "")
    assert "invalid choice: 'bench'" in err


def test_help_exits_zero(capsys):
    code, out, _ = invoke(capsys, "--help")
    assert code == EXIT_OK
    assert "COMMAND" in out


def test_internal_value_error_is_not_a_usage_error(monkeypatch):
    def broken(off, neighborhood):
        raise ValueError("internal fault")

    monkeypatch.setattr("cubepaths.cli.count_paths", broken)
    with pytest.raises(ValueError, match="internal fault"):
        run(["count", "--to", "1,2,3", "-n", "6"])


# -------------------------------------------------------------- module run


def test_python_dash_m_runs_the_cli():
    # run the package under test, wherever it was imported from
    source_root = str(Path(cubepaths.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "cubepaths", "count", "--to", "0,3,0", "-n", "18"],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": source_root},
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (EXIT_OK, "13\n", "")
