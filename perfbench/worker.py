"""One benchmark worker process.

run.py starts these one after another for each run:

    python3 perfbench/worker.py --mode setup --workload count_mix --seed 1
    python3 perfbench/worker.py --mode run --workload count_mix --seed 1 --seconds 45 --trace 0
    python3 perfbench/worker.py --mode check --workload count_mix --trace 0 < summaries.json
    python3 perfbench/worker.py --mode smoke --workload count_mix --seed 1

Every mode but ``check`` first sets up: it imports the package, generates
the inputs from the seed and runs a warm-up.  ``setup`` then prints its
set-up time and exits.  ``run`` measures the run and prints one JSON line
with its set-up time, latencies, layer totals and a summary of every op's
output.  ``check`` reads those summaries on stdin and checks each distinct
op once.  ``smoke`` sets up, runs and checks at tiny sizes in one process.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

# Nothing but sys, time and os, which the interpreter loads at start, comes
# before this import: its clock is the package-import part of setup_s, so
# the package pays for every module it pulls in, as in a user's process.
_t0 = time.perf_counter()
import cubepaths.cli  # noqa: E402,F401
import cubepaths.tables  # noqa: E402,F401

PACKAGE_IMPORT_S = time.perf_counter() - _t0

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
MIN_OPS = 100

# Traced runs repeat a fixed number of cycles, seconds x this rate, once
# untraced and once traced, so their counters repeat exactly for a seed; the
# rates make both passes together last about `seconds` at the seed commit.
TRACE_CYCLES_PER_S = {"count_mix": 0.3, "shells": 0.9, "oracle": 1.3, "cli": 2.0}


def timed_pass(cycles, runner, seconds=None, min_ops=1, tracer=None):
    """Run whole cycles of ops, one at a time.

    With ``seconds``, cycles run in turn until that many seconds have passed
    and at least ``min_ops`` ops ran; without it, each given cycle runs
    once.  Returns records (op, latency_s, summary or None, error or None).
    """
    records = []
    began = time.perf_counter()
    ran = 0
    while True:
        for op in cycles[ran % len(cycles)]:
            if tracer is not None:
                tracer.op_id += 1
            t0 = time.perf_counter()
            try:
                output = runner(op)
            except Exception as exc:  # an op that raises is a failed op; the run goes on
                records.append((op, time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"))
                continue
            latency = time.perf_counter() - t0
            records.append((op, latency, workloads.summarize(op, output), None))
        ran += 1
        if seconds is None:
            if ran == len(cycles):
                return records
        elif time.perf_counter() - began >= seconds and len(records) >= min_ops:
            return records


def traced_passes(cycles, runner, spans: Path | None):
    """Run the cycles untraced and traced, alternating which pass goes
    first so drift in machine speed cancels out of the overhead ratio."""
    tracer = tracing.Tracer()
    plain, traced = [], []
    for index, cycle in enumerate(cycles):
        for use_tracer in (False, True) if index % 2 == 0 else (True, False):
            if not use_tracer:
                plain += timed_pass([cycle], runner)
                continue
            tracer.install()
            try:
                traced += timed_pass([cycle], runner, tracer=tracer)
            finally:
                tracer.uninstall()
    if spans is not None:
        tracer.write_spans(spans)
    layers = {
        "values": {**tracer.counters, **{f"{k}.self_s": v for k, v in tracer.self_times().items()}},
        "traced_s": sum(r[1] for r in traced),
        "untraced_s": sum(r[1] for r in plain),
        "spans": len(tracer.start),
    }
    return plain + traced, layers


def set_up(workload: str, seed: int, smoke: bool):
    """Inputs from the seed and a warm-up that fills caches and finishes lazy
    set-up before anything is timed.  Returns the plan, the runner of the
    workload, an in-process runner and setup_s: the package import at the
    top of this file plus this function."""
    t0 = time.perf_counter()
    plan = workloads.make_plan(workload, seed, smoke=smoke)
    runner = workloads.Runner(ROOT, child_cli=workload == "cli")
    inprocess = workloads.Runner(ROOT, child_cli=False)
    if not smoke:
        timed_pass(workloads.make_plan(workload, seed, smoke=True), inprocess)
        if workload == "cli":
            runner.run_cli(["distance", "--to", "1,2,3", "-n", "all"])
    return plan, runner, inprocess, PACKAGE_IMPORT_S + time.perf_counter() - t0


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    cycles, runner, inprocess, setup_s = set_up(workload, seed, smoke)
    result = {"setup_s": setup_s}
    records = []
    if smoke or not trace:
        measured = timed_pass(cycles, runner) if smoke else timed_pass(cycles, runner, seconds, MIN_OPS)
        who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
        result.update(
            latencies_s=[r[1] for r in measured],
            completed=sum(1 for r in measured if r[3] is None),
            peak_rss_mb=resource.getrusage(who).ru_maxrss / 1024,
        )
        records += measured
    if smoke or trace:
        count = 1 if smoke else max(1, round(seconds * TRACE_CYCLES_PER_S[workload]))
        spans = None if smoke else OUT / "spans" / f"{workload}-seed{seed}.tsv.gz"
        both, result["layers"] = traced_passes([cycles[c % len(cycles)] for c in range(count)],
                                               inprocess, spans)
        records += both
    result["summaries"] = [[op, summary, error] for op, _, summary, error in records]
    return result


def _tuples(value):
    return tuple(_tuples(v) for v in value) if isinstance(value, list) else value


def check(workload: str, trace: bool, summaries: list) -> dict:
    """Check every op's output summary; returns attempted, failed, problems."""
    gate = workloads.Gate(ROOT)
    problems = []
    for op, summary, error in summaries:
        op, summary = _tuples(op), _tuples(summary)
        why = error or gate.problem(op, summary)
        if why:
            problems.append({"op": repr(op)[:300], "problem": why})
    result = {"attempted": len(summaries), "failed": len(problems), "problems": problems[:20]}
    if workload == "cli" and not trace:
        runner = workloads.Runner(ROOT, child_cli=True)
        result["known_defects"] = [known_defect(runner, gate, workloads.OVER_CAP)]
    return result


def known_defect(runner: workloads.Runner, gate: workloads.Gate, request: tuple) -> dict:
    """Run one request that is known to fail and report whether it still does.

    Its expected output is the exact answer, so a fix shows as
    ``present: false``.  It stays out of the timed mix, which must hold no
    failing op.
    """
    argv = workloads.cli_argv(request)
    code, stdout, stderr = runner.run_cli(argv)
    expected, _ = gate.expected(("cli", request))
    got = workloads.summarize(("cli", request), (code, stdout, stderr))
    return {
        "argv": argv,
        "present": got != expected,
        "exit_code": code,
        "stderr_tail": stderr.strip().splitlines()[-1][-160:] if stderr.strip() else "",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one cubepaths benchmark worker")
    parser.add_argument("--mode", choices=("setup", "run", "check", "smoke"), required=True)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        result = {"setup_s": set_up(args.workload, args.seed, False)[3]}
    elif args.mode == "check":
        result = check(args.workload, bool(args.trace), json.load(sys.stdin))
    else:
        smoke = args.mode == "smoke"
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), smoke)
        if smoke:
            result.update(check(args.workload, False, result.pop("summaries")))
    print(json.dumps(result))
    return 1 if result.get("failed") else 0


if __name__ == "__main__":
    sys.exit(main())
