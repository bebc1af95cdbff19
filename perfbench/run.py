"""The cubepaths benchmark: one command for four seeded workloads.

    python3 perfbench/run.py --workload count_mix --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout.  ``--trace 0`` prints the end-to-end
metrics of BENCHMARK.json, ``--trace 1`` the per-layer ones; the last line
of stdout is one JSON object with keys correct, attempted, failed and
metrics.  Each run also writes its full result, with an environment header,
to .perfbench/results/.  ``--smoke`` runs every workload at tiny sizes with
the exactness gate on.  The exit code is 0 only if every output was exact.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
RESULTS = ROOT / ".perfbench" / "results"

# Every workload the benchmark can run; BENCHMARK.json lists the ones that
# are measured for every change.
WORKLOADS = ("count_mix", "shells", "oracle", "cli")
SETUPS = 5  # fresh workers whose set-up times give setup_s: the measuring one and four more
PROBES = 5  # pairs of child processes behind proc.start_s and cli.import_s
WORKER_TIMEOUT_S = 100
PROBE_TIMEOUT_S = 30


class BenchError(Exception):
    pass


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def worker(*args: str, stdin: str | None = None) -> dict:
    """Run one fresh worker process and return its result object."""
    argv = [sys.executable, str(WORKER), *args]
    try:
        proc = subprocess.run(argv, cwd=ROOT, input=stdin, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} ran over {WORKER_TIMEOUT_S} s") from None
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}: {proc.stderr.strip()[-800:]}")
    return json.loads(lines[-1])


def child_seconds() -> tuple[float, float]:
    """Median wall time of a bare interpreter child, and median extra time
    of a child that imports cubepaths.cli.  The two kinds of child run in
    turn, so drift in machine speed cancels out of the difference."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    bare, extra = [], []
    for _ in range(PROBES):
        times = []
        for code in ("pass", "import cubepaths.cli"):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True, timeout=PROBE_TIMEOUT_S)
            times.append(time.perf_counter() - t0)
        bare.append(times[0])
        extra.append(times[1] - times[0])
    return statistics.median(bare), statistics.median(extra)


def git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(workload: str, seed: int, seconds: float, trace: int, started: float, start_s: float) -> dict:
    """What a reader needs to compare two result files."""
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "cubepaths").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--", "src", "pyproject.toml") if commit else None
    return {
        "python": platform.python_version(),
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": commit,
        "dirty": None if status is None else bool(status),  # the program under test, not the benchmark
        "source_sha256": source.hexdigest(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "started_unix": started,
        "proc.start_s": start_s,
    }


def end_to_end(run: dict) -> dict:
    """Throughput over the summed op wall time, and latency percentiles."""
    latencies = [x * 1000 for x in run["latencies_s"]]
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8]
    return {
        "ops_per_s": run["completed"] / (sum(latencies) / 1000),
        "op_p50_ms": statistics.median(latencies),
        "op_p90_ms": p90,
        "peak_rss_mb": run["peak_rss_mb"],
        "samples": len(latencies),
        "beyond_p90": sum(1 for x in latencies if x > p90),
    }


def per_layer(layers: dict) -> tuple[dict, list[dict]]:
    """Layer values with the trace totals, and the three largest self times."""
    values = dict(layers["values"])
    traced = layers["traced_s"]
    self_s = {name[: -len(".self_s")]: v for name, v in values.items() if name.endswith(".self_s")}
    values["trace.overhead_ratio"] = traced / layers["untraced_s"]
    values["trace.wall_s"] = traced
    values["trace.other_s"] = traced - sum(self_s.values())
    top = sorted(self_s.items(), key=lambda item: -item[1])[:3]
    return values, [{"layer": name, "self_s": t, "share_of_traced_wall": t / traced} for name, t in top]


def pick(values: dict, wanted: list[dict]) -> dict:
    """The metrics BENCHMARK.json lists.  One the run did not report is an
    error, not a zero: a zero would read as a perfect score."""
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"the run did not report {', '.join(missing)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}


def measure(workload: str, seed: int, seconds: float, trace: int, bench: dict) -> tuple[dict, dict]:
    started = time.time()
    common = ("--workload", workload, "--seed", str(seed))
    run = worker("--mode", "run", *common, "--seconds", str(seconds), "--trace", str(trace))
    checked = worker("--mode", "check", "--workload", workload, "--trace", str(trace),
                     stdin=json.dumps(run.pop("summaries")))
    start_s, import_s = child_seconds()
    record = {
        "correct": checked["failed"] == 0,
        "attempted": checked["attempted"],
        "failed": checked["failed"],
        "failed_ratio": checked["failed"] / checked["attempted"],
        **{key: checked[key] for key in ("known_defects", "problems") if key in checked},
    }
    if trace:
        values, record["top_layers"] = per_layer(run["layers"])
        values["proc.start_s"] = start_s
        values["cli.import_s"] = import_s
        record["spans"] = run["layers"]["spans"]
        wanted = bench["per_layer"]
    else:
        values = end_to_end(run)
        record["setup_s_samples"] = [run["setup_s"]] + [
            worker("--mode", "setup", *common)["setup_s"] for _ in range(SETUPS - 1)
        ]
        values["setup_s"] = statistics.median(record["setup_s_samples"])
        record.update(samples=values["samples"], beyond_p90=values["beyond_p90"])
        wanted = bench["end_to_end"]
    metrics = pick(values, wanted)
    record = {"env": environment(workload, seed, seconds, trace, started, start_s), "metrics": metrics, **record}
    return record, metrics


def report(record: dict, path: Path) -> None:
    env = record["env"]
    commit = (env["commit"] or "no git")[:12]
    state = "" if env["dirty"] is None else (" (src modified)" if env["dirty"] else " (src clean)")
    print(f"perfbench {env['workload']} seed={env['seed']} seconds={env['seconds']} trace={env['trace']}"
          f" | python {env['python']} | {env['cpu_model']} x{env['nproc']} | {commit}{state}")
    for name, metric in record["metrics"].items():
        note = ""
        if name in ("op_p50_ms", "op_p90_ms", "ops_per_s"):
            note = f"  (n={record['samples']} ops"
            note += f", {record['beyond_p90']} beyond p90)" if name == "op_p90_ms" else ")"
        elif name == "setup_s":
            note = f"  (median of {len(record['setup_s_samples'])} fresh workers)"
        print(f"  {name:36s} {metric['value']:>16.6g} {metric['unit']}{note}")
    print(f"  {'failed_ratio':36s} {record['failed_ratio']:>16.6g}   ({record['failed']}/{record['attempted']} ops)")
    if "top_layers" in record:
        wall = record["metrics"]["trace.wall_s"]["value"]
        for top in record["top_layers"]:
            print(f"  top self time: {top['layer']:28s} {top['self_s']:.4f} s = "
                  f"{100 * top['share_of_traced_wall']:.1f}% of traced wall {wall:.4f} s")
    for defect in record.get("known_defects", []):
        if defect["present"]:
            print(f"  known defect still present: cubepaths {' '.join(defect['argv'])}"
                  f" -> exit {defect['exit_code']}: {defect['stderr_tail']}")
        else:
            print(f"  known defect fixed: cubepaths {' '.join(defect['argv'])} now gives the exact answer")
    for problem in record.get("problems", []):
        print(f"  FAILED {problem['op']}: {problem['problem']}")
    print(f"  result file: {path.relative_to(ROOT)}")


def smoke() -> int:
    """Every workload at tiny sizes, untraced and traced, gate on."""
    attempted = failed = 0
    for workload in WORKLOADS:
        result = worker("--mode", "smoke", "--workload", workload)
        attempted += result["attempted"]
        failed += result["failed"]
        print(f"smoke {workload}: {result['attempted']} ops, {result['failed']} failed")
        for problem in result["problems"]:
            print(f"  FAILED {problem['op']}: {problem['problem']}")
        for defect in result.get("known_defects", []):
            print(f"  known defect {'still present' if defect['present'] else 'fixed'}: "
                  f"cubepaths {' '.join(defect['argv'])}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": {}}))
    return 0 if failed == 0 else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="cubepaths benchmark")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, every workload, gate on")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cubepaths" / "__init__.py").is_file():
        print(f"perfbench: no cubepaths sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = spec()
    try:
        if args.smoke:
            return smoke()
        if args.workload not in WORKLOADS or args.seed is None:
            parser.error(f"--workload must be one of {WORKLOADS}, and --seed is required")
        record, metrics = measure(args.workload, args.seed, args.seconds, args.trace, bench)
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    RESULTS.mkdir(parents=True, exist_ok=True)
    path = RESULTS / f"{args.workload}.trace{args.trace}.seed{args.seed}.{time.time_ns()}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    report(record, path)
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
