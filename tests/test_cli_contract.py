"""The CLI contract, byte for byte: the stdout, stderr and exit code of every
invocation stored in ``tests/data/cli_contract.json``, replayed through run().

This is the one place the CLI's output is pinned.  A new case of what the
CLI prints for a fixed argument list is one more entry appended to the end
of ``invocations()``, not a hand-written assert on ``run_cli``; appending
leaves every earlier entry in place.  Then regenerate the golden file:

    PYTHONPATH=src python tests/test_cli_contract.py

A change that means to alter the contract regenerates it in the same change
and says so.
"""

import json
import os
from pathlib import Path

from helpers import run_cli

GOLDEN = Path(__file__).parent / "data" / "cli_contract.json"


def invocations() -> list[list[str]]:
    """The argument lists the golden file records, in its order."""
    cases = []
    targets = ("0,0,0", "1,0,0", "1,-3,2", "7,4,2", "9,5,4", "12,-3,3")
    for command in ("distance", "count", "oracle"):
        for target in targets:
            for n in ("6", "18", "26", "all"):
                cases.append([command, "--to", target, "-n", n])
                cases.append([command, "--from", "2,-1,3", "--to", target, "-n", n])
    cases.append(["count", "--to", "6000,3000,1500", "-n", "6"])

    huge = "1" + "0" * 5000
    for command in ("distance", "count", "oracle", "paths"):
        cases += [
            [command, "--to", "badpoint", "-n", "6"],
            [command, "--to", "1,2.5,0", "-n", "6"],
            [command, "--to", "1,2", "-n", "6"],
            [command, "--from", "x,0,0", "--to", "1,2,3", "-n", "6"],
            [command, "--to", "1,2,3", "-n", "7"],
            [command, "-n", "6"],
            [command, "--to", "1,2,3"],
        ]
    cases += [
        ["distance", "--to", f"{huge},0,0", "-n", "6"],
        ["count", "--to", "-12,3,3", "-n", "18"],
        ["count", "--to=-12,3,3", "-n", "18"],
        ["count", "--to", "-1.5,0,0", "-n", "18"],
        ["paths", "--to", "1,1,1", "-n", "all"],
        [],
        ["bench"],
        ["--help"],
    ]
    cases += [
        [command, "--help"]
        for command in ("distance", "count", "oracle", "paths", "verify", "table")
    ]

    for target in ("1,1,1", "3,-1,1"):
        for n in ("6", "18", "26"):
            for fmt in ("text", "json"):
                for limit in ("1", "5", "10000"):
                    cases.append(["paths", "--to", target, "-n", n, "--format", fmt, "--limit", limit])
    cases += [
        ["paths", "--to", "0,0,0", "-n", "26"],
        ["paths", "--from", "1,1,1", "--to", "2,3,1", "-n", "18"],
        ["paths", "--to", "1,1,1", "-n", "6", "--limit", "0"],
        ["paths", "--to", "1,1,1", "-n", "6", "--format", "csv"],
        ["paths", "--to", "1,1,0", "-n", "18", "--limit", "99999999999999999999"],
    ]

    for n in ("6", "18", "26", "all"):
        cases.append(["verify", "-n", n])
        cases.append(["verify", "-n", n, "--format", "json", "--extent", "3"])
    cases += [["verify", "--extent", "0"], ["verify", "--extent", "-1"]]

    for fmt in ("text", "csv", "tsv", "json"):
        for n in ("6", "18", "26"):
            for length in ("0", "3"):
                cases.append(["table", "-n", n, "--length", length, "--format", fmt])
            cases.append(["table", "-n", n, "--length", "2", "--expand-symmetry", "--format", fmt])
        for max_i in ("0", "4"):
            cases.append(["table", "--slice-2d", max_i, "--format", fmt])
    cases += [
        ["table", "-n", "18", "--length", "3"],
        ["table", "--slice-2d", "2", "-n", "6"],
        ["table", "--slice-2d", "2", "--length", "3"],
        ["table", "--slice-2d", "2", "--expand-symmetry"],
        ["table", "--slice-2d", "-1"],
        ["table", "--length", "3"],
        ["table", "-n", "6"],
        ["table"],
        ["table", "-n", "6", "--length", "-1"],
        ["table", "-n", "all", "--length", "3"],
        ["table", "-n", "6", "--length", "3", "--format", "xml"],
    ]
    # point spellings int() accepts: a plus sign, blanks, digit underscores
    cases += [
        ["count", "--to", "+1,2,3", "-n", "6"],
        ["count", "--to", " 1, 2, 3", "-n", "all"],
        ["distance", "--to", "1_000,-2_0,0", "-n", "18"],
    ]

    cases += [
        ["distance", "--from", "0,0,0", "--to", "7,4,2", "-n", "26"],
        ["distance", "--from", "1,1,1", "--to", "3,3,3", "-n", "6"],
        ["count", "--from", "0,0,0", "--to", "0,3,0", "-n", "18"],
        # displacement (1,-3,2), the same count as (3,2,1)
        ["count", "--from", "5,-1,2", "--to", "6,-4,4", "-n", "18"],
        # a separate word such as "-13,3,3" is the point, not an unknown option
        ["count", "--from", "-1,0,0", "--to", "-13,3,3", "-n", "18"],
    ]
    # (1,1,1): 3! orderings of unit steps under N6, one face and one edge step
    # in either order under N18, and the single corner step under N26
    cases += [["count", "--to", "1,1,1", "-n", n] for n in ("6", "18", "26")]
    # count and its oracle twin; test_oracle_prints_what_count_prints pairs them
    for target in ("2,2,1", "0,3,0", "3,-1,2"):
        for n in ("6", "18", "26"):
            cases += [[command, "--to", target, "-n", n] for command in ("count", "oracle")]
    cases += [[command, "--to", "2,2,2", "-n", "all"] for command in ("count", "oracle")]
    cases += [
        ["paths", "--to", "2,0,0", "-n", "6"],
        ["paths", "--to", "1,1,1", "-n", "18"],
        ["paths", "--to", "0,3,0", "-n", "18", "--limit", "5"],
        ["paths", "--from", "1,1,1", "--to", "3,1,1", "-n", "6"],
        ["paths", "--to", "1,1,1", "-n", "18", "--format", "json"],
        ["paths", "--to", "1,0,0", "-n", "6", "--limit", "0"],
        ["verify", "--extent", "3"],
        ["verify", "--extent", "2", "-n", "18", "--format", "json"],
        ["table", "-n", "6", "--length", "2", "--format", "csv"],
        ["table", "-n", "26", "--length", "1"],
        ["table", "-n", "6", "--length", "1", "--expand-symmetry", "--format", "csv"],
        ["table", "--slice-2d", "3", "--format", "csv"],
        ["table", "--slice-2d", "3", "-n", "6"],
        ["table", "-n", "6", "--length", "-2"],
        ["count", "--to", "1,0,0", "-n", "99"],
        ["count", "--to", "1,0,0", "-n", "six"],
    ]
    # each integer option, beyond CPython's digit cap on int parsing (refused
    # by name, not echoed) and malformed
    for option in (
        ["paths", "--to", "1,1,1", "-n", "6", "--limit"],
        ["verify", "--extent"],
        ["table", "-n", "6", "--length"],
        ["table", "--slice-2d"],
    ):
        cases += [option + [huge], option + ["abc"]]
    # a bad size is refused as argparse reads it, before a missing or
    # conflicting option, or a bad choice later in the line, is noticed
    cases += [
        ["paths", "--limit", "0", "-n", "6"],
        ["table", "--length", "-1"],
        ["table", "--slice-2d", "-1", "-n", "6"],
        ["verify", "--extent", "-1", "-n", "7"],
    ]
    return cases


def record(args: list[str]) -> dict:
    code, stdout, stderr = run_cli(args)
    return {"args": args, "code": code, "stdout": stdout, "stderr": stderr}


def _case_id(entry: dict) -> str:
    text = " ".join(entry["args"]) or "(no arguments)"
    return text if len(text) <= 60 else text[:57] + "..."


def pytest_generate_tests(metafunc):
    # read at collection, so that regenerating never needs the old file
    if "entry" in metafunc.fixturenames:
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
        metafunc.parametrize("entry", golden, ids=_case_id)


def test_cli_output_matches_the_golden_file(entry, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps at the terminal width
    assert record(entry["args"]) == entry


def test_the_generator_lists_the_golden_file_invocations_in_order():
    # editing invocations() or the golden file without regenerating fails here
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    cases = invocations()
    assert cases == [entry["args"] for entry in golden]
    assert len(set(map(tuple, cases))) == len(cases), "an argv repeats"


def test_oracle_prints_what_count_prints():
    # the graph search and the closed forms agree at every golden target
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    printed = {tuple(entry["args"]): entry for entry in golden}
    twins = [
        (entry, printed["count", *entry["args"][1:]])
        for entry in golden
        if entry["args"][:1] == ["oracle"] and "--to" in entry["args"] and entry["code"] == 0
    ]
    assert len(twins) == 58
    for oracle, count in twins:
        assert {**oracle, "args": count["args"]} == count, oracle["args"]


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    corpus = [record(args) for args in invocations()]
    GOLDEN.parent.mkdir(exist_ok=True)
    lines = ",\n".join(json.dumps(entry) for entry in corpus)
    GOLDEN.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
    print(f"wrote {len(corpus)} invocations to {GOLDEN}")
