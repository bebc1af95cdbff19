"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402  (puts src/ on sys.path)
import workloads  # noqa: E402

import cubepaths  # noqa: E402
from cubepaths import CanonicalOffset, GridPoint, Neighborhood  # noqa: E402


def _is_prime(n: int) -> bool:
    # Miller-Rabin with these bases is deterministic below 3.3e24
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_reference_primes_are_61_bit_primes():
    assert all(p.bit_length() == 61 and _is_prime(p) for p in reference.PRIMES)


def test_references_equal_the_oracle_on_a_small_box():
    modular = reference.ModularCounts()
    for i in range(8):
        for j in range(i + 1):
            assert modular.matches(8, (i, j, 0), cubepaths.oracle_count_2d(i, j))
            for k in range(j + 1):
                for n in (6, 18, 26):
                    value = cubepaths.oracle_count(GridPoint(i, j, k), workloads.NB[n])
                    assert reference.exact_count(n, i, j, k) == value
                    assert modular.matches(n, (i, j, k), value)


def test_benchmark_json_names_only_metrics_the_benchmark_reports(capsys):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert run.WORKLOADS == workloads.WORKLOADS
    assert {w["name"] for w in bench["workloads"]} <= set(workloads.WORKLOADS)
    assert {m["name"] for m in bench["end_to_end"]} == {
        "ops_per_s", "op_p50_ms", "op_p90_ms", "setup_s", "peak_rss_mb",
    }
    added_by_run = {"proc.start_s", "cli.import_s", "trace.overhead_ratio", "trace.wall_s", "trace.other_s"}
    for workload in workloads.WORKLOADS:
        worker.main(["--mode", "smoke", "--workload", workload])
        reported = set(json.loads(capsys.readouterr().out.strip().splitlines()[-1])["layers"]["values"])
        missing = {m["name"] for m in bench["per_layer"]} - reported - added_by_run
        assert not missing, f"{workload} does not report {sorted(missing)}"


def test_a_listed_metric_the_run_did_not_report_is_an_error():
    wanted = [{"name": "ops_per_s", "unit": "1/s"}, {"name": "setup_s", "unit": "s"}]
    assert run.pick({"ops_per_s": 2.5, "setup_s": 0.1, "other": 1}, wanted) == {
        "ops_per_s": {"value": 2.5, "unit": "1/s"}, "setup_s": {"value": 0.1, "unit": "s"},
    }
    try:
        run.pick({"ops_per_s": 2.5}, wanted)
    except run.BenchError as exc:
        assert "setup_s" in str(exc)
    else:
        raise AssertionError("a missing metric was not reported as an error")


def test_tracer_wraps_every_binding_and_restores_them():
    original = cubepaths.count_paths
    tracer = tracing.Tracer()
    tracer.install()
    try:
        bound = [cubepaths.count_paths, cubepaths.counting.count_paths, cubepaths.cli.count_paths,
                 cubepaths.tables.count_paths, cubepaths.verify.count_paths]
        assert all(f is not original and f.__wrapped__ is original for f in bound)
        cubepaths.count_paths(CanonicalOffset(30, 2, 1), Neighborhood.N18)
    finally:
        tracer.uninstall()
    assert cubepaths.verify.count_paths is original
    assert not hasattr(cubepaths.counting.count_n18_maxcase, "__wrapped__")
    assert [tracer.labels[i] for i in tracer.label] == ["counting.count_paths", "counting.count_n18_maxcase"]
    outer = tracer.end[0] - tracer.start[0]
    assert abs(sum(tracer.self_times().values()) - outer) < 1e-9
    assert tracer.counters["counting.n18_case.max"] == 1
    assert tracer.counters["counting.direct_sum_terms"] == (13 + 1) * (13 + 2) // 2


def test_corrupted_count_is_a_failed_op_and_a_nonzero_exit(capsys):
    plan = workloads.make_plan("count_mix", 7, smoke=True)
    _, src, dst, n = next(op for op in plan[0] if op[0] == "count")
    victim = (reference.canonical(*(b - a for a, b in zip(src, dst))), workloads.NB[n])
    original = cubepaths.count_paths
    fired = []

    def off_by_one(off, neighborhood, check_overlap=False):
        value = original(off, neighborhood, check_overlap)
        if not fired and (off.as_triple(), neighborhood) == victim:
            fired.append(victim)
            return value + 1
        return value

    undo = tracing.rebind(original, off_by_one)
    try:
        code = worker.main(["--workload", "count_mix", "--seed", "7", "--mode", "smoke"])
    finally:
        tracing.restore(undo)
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert fired
    assert code != 0
    assert result["failed"] == 1
    assert result["problems"][0]["problem"] == "count differs from the reference"


def test_smoke_runs_every_workload_clean():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 100


def test_without_the_package_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "count_mix", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_compare_verdicts():
    steady = [100.0 + i * 0.1 for i in range(10)]
    faster = [v * 1.3 for v in steady]
    pairs = list(zip(steady, faster))
    assert compare.verdict(steady, faster, pairs, True, 0.1, False) == ("better", 10)
    assert compare.verdict(steady, faster, pairs, True, 0.1, True)[0] == "within"
    assert compare.verdict(faster, steady, list(zip(faster, steady)), True, 0.1, False)[0] == "worse"
    noisy = [60.0, 80.0, 100.0, 120.0, 140.0] * 2
    assert compare.verdict(noisy, noisy, list(zip(noisy, noisy)), True, 0.1, False)[0] == "unresolved"
    assert compare.verdict(steady, steady[::-1], list(zip(steady, steady[::-1])), True, 0.1, False)[0] == "within"


def test_compare_keeps_every_run_of_a_repeated_seed():
    def record(seed, started):
        return {"env": {"seed": seed, "started_unix": started}}

    parents = [record(1, 10.0), record(1, 30.0), record(2, 20.0)]
    changes = [record(1, 15.0), record(2, 25.0), record(1, 35.0)]
    pairs = compare.pair(parents, changes)
    assert [(p["env"]["started_unix"], c["env"]["started_unix"]) for p, c in pairs] == [
        (10.0, 15.0), (30.0, 35.0), (20.0, 25.0),
    ]
