#!/usr/bin/env python3
"""ctrlgauge benchmark: closed-loop runs of four workloads, with checked answers.

Run from the repository root:

    python3 bench/run.py --workload compare-theorem --seed 3 --seconds 35 --trace 0
    python3 bench/run.py --seed 3      # all four workloads, one process each

BENCHMARK.json gates three of the workloads; mintime-freedom runs the same
way but is not gated (see README.md).

One process sends one operation at a time and the next only when the last
has returned (a closed loop with one client). A run repeats whole rounds of
the operations its seed builds, at least 100 of them, until --seconds have
passed and every operation has run at least three times. Times are the CPU
time of this process (`time.process_time`): ctrlgauge computes on one thread
and does no waiting, so on an idle machine that is the wall time, and time spent
descheduled by other load does not count. An operation's latency is the
lowest of its repeats: the machine this was tuned on also runs up to 1.6x
slower, for up to about a minute, under other tenants' load, and the lowest
repeat is the one least disturbed by it. Answers are checked after the
timed phase.

With --trace 0 the result holds the end-to-end metrics. With --trace 1 the
run times half its rounds untraced and half with spans recorded around every
public entry point, and reports per-layer figures per round plus the tracing
overhead. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; wrong answers are listed on standard
error and make correct false. Outside a ctrlgauge checkout the exit code is 2.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One process and one operation at a time: BLAS gets a single thread. This
# must be set before numpy loads, here and in the set-up probes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("region-geometry", "mintime-freedom", "compare-theorem", "oracle-crosscheck")
REQUIRED = ("src/ctrlgauge/__init__.py", "models/dc_motor.json", "models/ac_motor.json")
MIN_OPS = 100  # operations per round, so the 90th percentile has ten beyond it
MIN_ROUNDS = 3
SETUP_PROBES = 4  # fresh processes timed besides the run's own set-up
CLOCK = time.process_time  # CPU time of this process; see the module docstring

PER_LAYER = (
    ("model.load_model.busy_s", "s"),
    ("model.normalize_full.busy_s", "s"),
    ("region.stage_generators.calls", "count"),
    ("region.stage_generators.busy_s", "s"),
    ("region.reach_region.busy_s", "s"),
    ("region.recover_region.busy_s", "s"),
    ("region.region_summary.self_s", "s"),
    ("zonotope.vertices.calls", "count"),
    ("zonotope.vertices.busy_s", "s"),
    ("zonotope.vertices.rows", "count"),
    ("zonotope.volume.calls", "count"),
    ("zonotope.volume.busy_s", "s"),
    ("zonotope.volume.determinants", "count"),
    ("zonotope.shape_report.self_s", "s"),
    ("zonotope.contains_point.calls", "count"),
    ("zonotope.contains_point.busy_s", "s"),
    ("lp.feasible.calls", "count"),
    ("lp.feasible.busy_s", "s"),
    ("lp.feasible.infeasible", "count"),
    ("lp.optimize.calls", "count"),
    ("lp.optimize.busy_s", "s"),
    ("lp.max_margin.calls", "count"),
    ("lp.max_margin.busy_s", "s"),
    ("lp.max_margin.infeasible", "count"),
    ("lp.columns", "count"),
    ("control.min_time.calls", "count"),
    ("control.min_time.self_s", "s"),
    ("control.min_time.lp_per_call", "lp/call"),
    ("control.strategy_space_dim.self_s", "s"),
    ("control.compare_ability.calls", "count"),
    ("control.compare_ability.self_s", "s"),
    ("control.verify_theorem1.self_s", "s"),
    ("oracle.brute_vertices.calls", "count"),
    ("oracle.brute_vertices.busy_s", "s"),
    ("oracle.brute_vertices.sign_sums", "count"),
    ("oracle.mc_volume.busy_s", "s"),
    ("oracle.mc_volume.samples", "count"),
    ("oracle.exhaustive_min_time.busy_s", "s"),
    ("oracle.verification_suite.self_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_pct", "%"),
)


class Failed:
    """Stands in for the answer of an operation that raised."""

    def __init__(self, exc):
        self.text = "".join(traceback.format_exception_only(type(exc), exc)).strip()


def _use_checkout():
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: {ROOT} is not a ctrlgauge checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def setup(workload):
    """Set-up as a user pays it; returns (seconds, context).

    Imports ctrlgauge, loads and normalises the model files, and makes one
    untimed warm-up call per entry point the workload uses, so that scipy's
    lazy imports land here and not in the first timed operation. Timed in
    CPU seconds, like the operations.
    """
    t0 = CLOCK()
    from bench import workloads

    ctx = workloads.Context.load(ROOT / "models", OUT_DIR / "cli" / workload)
    workloads.WORKLOADS[workload].warm_up(ctx)
    return CLOCK() - t0, ctx


def _probe_setup(workload):
    """Set-up time of a fresh process running the same set-up."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def closed_loop(ops, seconds, min_rounds, on_round=None):
    """Whole rounds until `seconds` have passed and `min_rounds` were run.

    Returns the latencies (CPU seconds), the first and last round's answers,
    the number of failed operations, the rounds run and the wall time.
    """
    clock = CLOCK
    wall = time.perf_counter
    latencies = []
    first = [None] * len(ops)
    last = [None] * len(ops)
    failed = 0
    rounds = 0
    start = wall()
    while True:
        if on_round is not None:
            on_round()
        for i, op in enumerate(ops):
            t0 = clock()
            try:
                answer = op.call()
            except Exception as exc:  # a raising operation is counted, not fatal
                answer = Failed(exc)
                failed += 1
            latencies.append(clock() - t0)
            if rounds == 0:
                first[i] = answer
            last[i] = answer
        rounds += 1
        if wall() - start >= seconds and rounds >= min_rounds:
            break
    return {
        "latencies": latencies,
        "first": first,
        "last": last,
        "failed": failed,
        "rounds": rounds,
        "wall": wall() - start,
    }


def check_answers(ops, loop):
    """Check the first round's answers and that the last round repeated them.

    Returns (errors, faulty): wrong answers, and the operations whose wrong
    answer comes from the known fault they name.
    """
    errors = []
    faulty = []
    for op, first, last in zip(ops, loop["first"], loop["last"]):
        if isinstance(first, Failed):
            continue
        found = op.check(first)
        if found and op.fault:
            faulty.append(op)
            print(f"known fault, counted as failed: {op.label}: {op.fault}", file=sys.stderr)
        else:
            errors += found
        if pickle.dumps(first) != pickle.dumps(last):
            errors.append(f"{op.label}: answer differs between the first and last round")
    return errors, faulty


def _metric(value, unit):
    return {"value": value, "unit": unit}


def best_latencies(loop, count):
    """Each operation's lowest latency over the rounds of a loop."""
    lat = loop["latencies"]
    return [min(lat[i::count]) for i in range(count)]


def end_to_end(best, setup_samples, peak_rss_kb):
    """Throughput is one round's operations over the sum of their latencies."""
    return {
        "throughput_ops_per_s": _metric(len(best) / sum(best), "ops/s"),
        "latency_p50_ms": _metric(statistics.median(best) * 1e3, "ms"),
        "latency_p90_ms": _metric(statistics.quantiles(best, n=10)[8] * 1e3, "ms"),
        "setup_s": _metric(statistics.median(setup_samples), "s"),
        "peak_rss_mb": _metric(peak_rss_kb / 1024.0, "MB"),
    }


def per_layer(tracer, marks, overhead):
    """Per-round layer figures from the traced rounds; counts must repeat."""
    from bench import spans

    bounds = list(zip(marks, marks[1:] + [len(tracer.spans)]))
    counts = [spans.round_counts(tracer.spans, lo, hi) for lo, hi in bounds]
    errors = []
    if any(c != counts[0] for c in counts[1:]):
        errors.append("per-layer work counts differ between rounds of one run")
    counts = counts[0]
    busy, own = spans.times(tracer.spans, marks[0], len(tracer.spans))
    rounds = len(marks)
    min_time_calls = counts.get("control.min_time.calls", 0)
    metrics = {}
    for name, unit in PER_LAYER:
        span, stat = name.rsplit(".", 1)
        if stat == "busy_s":
            value = busy.get(span, 0.0) / rounds
        elif stat == "self_s":
            value = own.get(span, 0.0) / rounds
        elif stat == "lp_per_call":
            lp_calls = counts["control.min_time.lp_calls"]
            value = lp_calls / min_time_calls if min_time_calls else 0.0
        elif stat == "overhead_pct":
            value = 100.0 * overhead
        else:
            value = counts.get(name, 0)
        metrics[name] = _metric(value, unit)
    return metrics, errors


def run_workload(workload, seed, seconds, trace, size="full", min_rounds=MIN_ROUNDS):
    """One run of one workload; returns the result object."""
    setup_s, ctx = setup(workload)
    from bench import spans, workloads

    ops = workloads.build(workload, seed, ctx, size)
    if size == "full" and len(ops) < MIN_OPS:
        raise RuntimeError(f"{workload} has {len(ops)} operations per round, fewer than {MIN_OPS}")
    if trace:
        untraced = closed_loop(ops, seconds / 2.0, min_rounds)
        tracer = spans.Tracer()
        marks = []
        tracer.install()
        try:
            loop = closed_loop(
                ops, seconds / 2.0, min_rounds, on_round=lambda: marks.append(tracer.mark())
            )
        finally:
            tracer.uninstall()
        overhead = sum(best_latencies(loop, len(ops))) / sum(best_latencies(untraced, len(ops)))
        metrics, errors = per_layer(tracer, marks, overhead - 1.0)
        attempted = len(untraced["latencies"]) + len(loop["latencies"])
        failed = untraced["failed"] + loop["failed"]
        _write(f"trace_{workload}_seed{seed}.json", {
            "workload": workload,
            "seed": seed,
            "round_starts": marks,
            "spans": [s.to_list() for s in tracer.spans],
        })
    else:
        loop = closed_loop(ops, seconds, min_rounds)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        setup_samples = [setup_s] + [_probe_setup(workload) for _ in range(SETUP_PROBES)]
        metrics = end_to_end(best_latencies(loop, len(ops)), setup_samples, peak_kb)
        errors = []
        attempted = len(loop["latencies"])
        failed = loop["failed"]
    found, faulty = check_answers(ops, loop)
    errors += found
    rounds = loop["rounds"] + (untraced["rounds"] if trace else 0)
    failed += len(faulty) * rounds
    for text in sorted({a.text for a in loop["first"] if isinstance(a, Failed)}):
        print(f"failed operation: {text}", file=sys.stderr)
    for err in errors[:20]:
        print(f"check: {err}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    _write(f"result_{workload}_seed{seed}_trace{int(bool(trace))}.json", {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "rounds": loop["rounds"],
        "operations_per_round": len(ops),
        "errors": errors,
        "best_ms": _best_ms(ops, loop),
        **result,
    })
    return result


def _best_ms(ops, loop):
    """Lowest latency of each operation, for reading results."""
    return {op.label: t * 1e3 for op, t in zip(ops, best_latencies(loop, len(ops)))}


def _write(name, obj):
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / name).write_text(json.dumps(obj) + "\n", encoding="utf-8")


def _print_result(workload, result):
    state = "correct" if result["correct"] else "WRONG ANSWERS"
    print(f"{workload}: {result['attempted']} operations, {result['failed']} failed, {state}")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")


def run_all(args):
    """Every workload in its own process, so each has its own peak memory."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            sys.exit(f"error: {workload} exited with code {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        _print_result(workload, result)
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = m
    return merged


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny inputs, for the benchmark's own tests",
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _use_checkout()
    if args.setup_probe:
        print(json.dumps({"setup_s": setup(args.workload)[0]}))
        return 0
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace, args.size)
        _print_result(args.workload, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
