"""What the CLI does that its golden contract cannot record.

Every fixed argument list's exit code, stdout and stderr is pinned in one
place, ``tests/data/cli_contract.json`` (see ``tests/test_cli_contract.py``).
This file holds the rest:

- a count beyond the int-to-str cap, checked against an independent factorial;
- injected faults (``monkeypatch``): a verification mismatch, faulty kernels
  the real sweep must find, an internal error that is not a usage error;
- the number of writes to each stream;
- child processes: ``python -m cubepaths``, pipes, closed or full stdout, and
  the modules a count request imports.
"""

import io
import json
import os
import subprocess
import sys
from math import factorial

import pytest

from cubepaths import counting, verify
from cubepaths.cli import EXIT_MISMATCH, EXIT_OK, EXIT_USAGE, run
from cubepaths.core import CanonicalOffset, GridPoint, Neighborhood
from cubepaths.oracle import oracle_count
from cubepaths.tables import decimal_string
from cubepaths.verify import VerifyReport
from helpers import canonical_triples, child_env, run_cli

# a count far above CPython's 4300-digit int->str cap
HUGE = 7**6000


# ------------------------------------------------------ independent values


def test_count_beyond_the_int_to_str_cap():
    code, out, err = run_cli(["count", "--to", "6000,3000,1500", "-n", "6"])
    assert (code, err) == (EXIT_OK, "")
    assert len(out) == 4355 + 1
    trinomial = factorial(10500) // (factorial(6000) * factorial(3000) * factorial(1500))
    assert out == decimal_string(trinomial) + "\n"


# --------------------------------------------------------- injected faults


def test_verify_mismatch_exits_2(monkeypatch):
    fake = VerifyReport(
        checked=4,
        mismatches=((GridPoint(1, 0, 0), 2, 1),),
    )
    monkeypatch.setattr("cubepaths.cli.verify_region", lambda extent, n: fake)
    code, out, _ = run_cli(["verify", "--extent", "1", "-n", "6"])
    assert code == EXIT_MISMATCH
    assert "mismatches 1" in out
    assert "MISMATCH at 1,0,0: formula=2 oracle=1" in out


def test_verify_mismatch_beyond_the_int_to_str_cap(monkeypatch):
    fake = VerifyReport(
        checked=4,
        mismatches=((GridPoint(1, 0, 0), HUGE, HUGE + 1),),
    )
    monkeypatch.setattr("cubepaths.cli.verify_region", lambda extent, n: fake)
    code, out, _ = run_cli(["verify", "--extent", "1", "-n", "6"])
    assert code == EXIT_MISMATCH
    formula, oracle = decimal_string(HUGE), decimal_string(HUGE + 1)
    assert f"MISMATCH at 1,0,0: formula={formula} oracle={oracle}" in out
    code, out, _ = run_cli(["verify", "--extent", "1", "-n", "6", "--format", "json"])
    assert code == EXIT_MISMATCH
    (mismatch,) = json.loads(out)[0]["mismatches"]
    assert mismatch == {"point": [1, 0, 0], "formula": formula, "oracle": oracle}


def test_the_real_sweep_finds_a_faulty_half_sum_kernel(monkeypatch):
    # both bindings: count_paths reaches the kernel through counting, and
    # the sweep's direct second formula on the overlap through verify
    true_halfcase = counting.count_n18_halfcase
    for module in (counting, verify):
        monkeypatch.setattr(module, "count_n18_halfcase", lambda off: true_halfcase(off) + 1)
    report = verify.verify_region(3, Neighborhood.N18)
    # every point where the half sum applies: 7 half-case and 10 overlap points
    halfsum_points = [GridPoint(i, j, k) for i, j, k in canonical_triples(3) if i <= j + k + 1]
    assert len(halfsum_points) == 17
    assert report.checked == 20
    assert report.mismatches == _off_by_one_report(halfsum_points)
    code, out, _ = run_cli(["verify", "--extent", "3", "-n", "18"])
    assert code == EXIT_MISMATCH
    assert out.splitlines()[0] == "N18: checked 20 canonical points (extent 3), mismatches 17"


def _off_by_one_report(points):
    # the mismatches of a formula that is one above the oracle at each point
    return tuple(
        (point, oracle_count(point, Neighborhood.N18) + 1, oracle_count(point, Neighborhood.N18))
        for point in points
    )


def test_the_real_sweep_checks_the_dispatcher_on_the_overlap(monkeypatch):
    # a count_paths that is wrong only where both N18 formulas apply
    true_count_paths = verify.count_paths

    def faulty(off, neighborhood):
        value = true_count_paths(off, neighborhood)
        overlap = (
            neighborhood is Neighborhood.N18
            and counting.classify_n18(off) is counting.N18Case.OVERLAP
        )
        return value + 1 if overlap else value

    monkeypatch.setattr(verify, "count_paths", faulty)
    report = verify.verify_region(5, Neighborhood.N18)
    overlap_points = [
        GridPoint(i, j, k) for i, j, k in canonical_triples(5) if j + k <= i <= j + k + 1
    ]
    assert len(overlap_points) == 21
    assert report.checked == 56
    assert report.mismatches == _off_by_one_report(overlap_points)


def test_the_real_sweep_finds_a_faulty_dominant_coordinate_kernel(monkeypatch):
    # only counting's binding: the sweep reaches the kernel through count_paths
    true_maxcase = counting.count_n18_maxcase
    monkeypatch.setattr(counting, "count_n18_maxcase", lambda off: true_maxcase(off) + 1)
    report = verify.verify_region(3, Neighborhood.N18)
    # every point where the dominant-coordinate sum applies, each listed once:
    # 3 max-case and 10 overlap points
    maxsum_points = [GridPoint(i, j, k) for i, j, k in canonical_triples(3) if i >= j + k]
    assert len(maxsum_points) == 13
    assert report.checked == 20
    assert report.mismatches == _off_by_one_report(maxsum_points)
    code, out, _ = run_cli(["verify", "--extent", "3", "-n", "18"])
    assert code == EXIT_MISMATCH
    assert out.splitlines()[0] == "N18: checked 20 canonical points (extent 3), mismatches 13"


@pytest.mark.parametrize("neighborhood", list(Neighborhood))
def test_the_sweep_calls_count_paths_at_every_point(monkeypatch, neighborhood):
    offsets, halfsum_offsets = [], []

    def counted(off, n):
        offsets.append(off)
        return counting.count_paths(off, n)

    def counted_halfcase(off):
        halfsum_offsets.append(off)
        return counting.count_n18_halfcase(off)

    monkeypatch.setattr(verify, "count_paths", counted)
    monkeypatch.setattr(verify, "count_n18_halfcase", counted_halfcase)
    report = verify.verify_region(4, neighborhood)
    assert report.ok and report.checked == 35
    assert offsets == [CanonicalOffset(*t) for t in canonical_triples(4)]
    if neighborhood is Neighborhood.N18:
        assert halfsum_offsets == [
            off for off in offsets if counting.classify_n18(off) is counting.N18Case.OVERLAP
        ]
    else:
        assert halfsum_offsets == []


def test_count_paths_takes_the_dominant_coordinate_sum_on_the_overlap(monkeypatch):
    # the sweep checks the half sum on the overlap by itself because of this
    monkeypatch.setattr(counting, "count_n18_maxcase", lambda off: "max")
    monkeypatch.setattr(counting, "count_n18_halfcase", lambda off: "half")
    for triple in ((3, 2, 1), (4, 2, 1), (5, 3, 2), (2, 1, 0)):
        off = CanonicalOffset(*triple)
        assert counting.classify_n18(off) is counting.N18Case.OVERLAP
        assert counting.count_paths(off, Neighborhood.N18) == "max"


def test_internal_value_error_is_not_a_usage_error(monkeypatch):
    def broken(off, neighborhood):
        raise ValueError("internal fault")

    monkeypatch.setattr("cubepaths.cli.count_paths", broken)
    with pytest.raises(ValueError, match="internal fault"):
        run(["count", "--to", "1,2,3", "-n", "6"])


# ------------------------------------------------------------- one way out


class _CountingStream(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


TRUNCATED_PATHS = ["paths", "--to", "0,3,0", "-n", "18", "--limit", "5"]


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--to", "1,-3,2", "-n", "all"],
        TRUNCATED_PATHS,
        ["paths", "--to", "1,1,1", "-n", "18", "--format", "json"],
        ["verify", "--extent", "2"],
        ["verify", "--extent", "2", "--format", "json"],
        ["table", "-n", "18", "--length", "3"],
        ["count", "--to", "badpoint", "-n", "6"],
    ],
    ids=" ".join,
)
def test_run_writes_each_stream_at_most_once(monkeypatch, argv):
    out, err = _CountingStream(), _CountingStream()
    monkeypatch.setattr(sys, "stdout", out)
    monkeypatch.setattr(sys, "stderr", err)
    run(argv)
    assert out.getvalue() or err.getvalue()
    assert out.writes <= 1 and err.writes <= 1, (out.writes, err.writes)


# -------------------------------------------------------------- module run


def _child(*args):
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=60,
        env=child_env(),
    )


def test_python_dash_m_runs_the_cli():
    proc = _child("-m", "cubepaths", "count", "--to", "0,3,0", "-n", "18")
    assert (proc.returncode, proc.stdout, proc.stderr) == (EXIT_OK, "13\n", "")


@pytest.mark.skipif(os.name != "posix", reason="needs POSIX pipes")
def test_a_reader_that_closes_the_pipe_early_ends_the_cli_quietly():
    # far more output than a pipe buffers, so the CLI is still writing when
    # the reader goes away, as under `cubepaths paths ... | head -1`
    # (-X dev -W error turns a warning at shutdown into a failure too)
    proc = subprocess.Popen(
        [sys.executable, "-X", "dev", "-W", "error", "-m", "cubepaths", "paths",
         "--to", "12,7,3", "-n", "6", "--limit", "20000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=child_env(),
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert first.split()[0] == "0,0,1"
    assert "Traceback" not in err and "Exception ignored" not in err, err
    # one way out on every platform: a quiet success, not death by SIGPIPE
    assert proc.returncode == EXIT_OK


@pytest.mark.parametrize("buffering", ["buffered", "unbuffered"])
def test_the_truncation_note_follows_the_listing_on_a_shared_pipe(buffering):
    # stdout is block-buffered on a pipe unless PYTHONUNBUFFERED is set;
    # either way the note must not overtake the listing it is about
    env = child_env(PYTHONUNBUFFERED="1" if buffering == "unbuffered" else None)
    proc = subprocess.run(
        [sys.executable, "-m", "cubepaths", *TRUNCATED_PATHS],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, timeout=60, env=env,
    )
    lines = proc.stdout.splitlines()
    assert (proc.returncode, len(lines)) == (EXIT_OK, 6), proc.stdout
    assert lines[-1] == "note: output truncated at 5 paths; more exist"


def _unwritable_stdout_child(sink, buffering, argv):
    command = [sys.executable, "-X", "dev", "-W", "error", "-m", "cubepaths", *argv]
    env = child_env(PYTHONUNBUFFERED="1" if buffering == "unbuffered" else None)
    if sink == "closed":
        return subprocess.run(
            ["sh", "-c", 'exec "$0" "$@" >&-', *command],
            stderr=subprocess.PIPE, text=True, timeout=60, env=env,
        )
    with open("/dev/full", "w") as full:
        return subprocess.run(
            command, stdout=full, stderr=subprocess.PIPE, text=True, timeout=60, env=env
        )


@pytest.mark.skipif(os.name != "posix", reason="needs a POSIX shell")
@pytest.mark.parametrize("buffering", ["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "sink",
    [
        pytest.param(
            "full",
            marks=pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full"),
        ),
        "closed",
    ],
)
@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--to", "1,1,1", "-n", "6"],
        ["table", "-n", "6", "--length", "2", "--format", "json"],
        ["paths", "--to", "1,1,1", "-n", "18"],
        ["--help"],
    ],
    ids=lambda argv: argv[0],
)
def test_output_that_cannot_be_written_is_an_error(sink, buffering, argv):
    # stdout on a full device, or fd 1 closed: one error line and exit 1,
    # never a traceback or a complaint from shutdown's flush
    proc = _unwritable_stdout_child(sink, buffering, argv)
    assert proc.returncode == EXIT_USAGE, proc.stderr
    (line,) = proc.stderr.splitlines()
    assert line.startswith("cubepaths: error: cannot write output: ")
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr


def test_cli_import_loads_no_module_a_count_request_does_not_need():
    # a fresh interpreter's modules, minus what a bare one (site) already has;
    # the CLI child imports the CLI and runs a count below the digit cap
    listing = "import sys; print('\\n'.join(sorted(sys.modules)))"
    count = "run(['count', '--to', '7,4,2', '-n', 'all'])"
    bare = _child("-c", listing)
    cli = _child("-c", f"from cubepaths.cli import run; {count}; " + listing)
    assert bare.returncode == cli.returncode == 0, bare.stderr + cli.stderr
    added = set(cli.stdout.split()) - set(bare.stdout.split())
    assert "cubepaths.cli" in added
    assert not added & {"dataclasses", "inspect", "csv", "json"}
