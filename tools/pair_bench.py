#!/usr/bin/env python3
"""Alternating benchmark pairs of two checkouts, summarised for a claim.

    python3 tools/pair_bench.py PARENT CHANGE --workload W --pairs 10 \\
        --seconds 35 --seed S [--size full|tiny]

Each pair runs PARENT's and CHANGE's own bench/run.py once each on the same
workload, seed and run length, parent first in even pairs and change first
in odd ones, and reads each run's last JSON line. Each run's figures go to
standard error as they come. At the end, for every metric, the table gives
both sides' medians and quartiles, the change's median against the
parent's, and the pairs the change won, ties counting for neither. A gain
holds when the change wins at least nine tenths of the pairs and its median
is better than the parent's by more than the distance between the parent's
quartiles. The worse column reads "yes" when the change's median is worse
than the parent's by more than the metric's bound (a fraction of the
parent's median), "unresolved" when it is not but the parent's quartile
spread is wider than that bound, unless every change run is better than
every parent run, and "no" otherwise. Which way is better, and each bound,
are read from CHANGE's BENCHMARK.json. A run that reports wrong answers or
failed operations is flagged and makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(root, args):
    """One bench/run.py run in checkout root; its last JSON line."""
    argv = [sys.executable, "bench/run.py", "--workload", args.workload, "--seed",
            str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
            "--size", args.size]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"error: bench/run.py in {root} exited with code {proc.returncode}\n"
                 f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    """(lower quartile, median, upper quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarise(parent, change, better, bounds=None):
    """One row per metric of paired runs parent[i], change[i].

    better maps a metric name to "higher" or "lower"; a metric missing from
    it gets no wins and no verdict. bounds maps a metric name to the
    fraction of the parent's median by which it may worsen; a metric
    missing from it gets no worse verdict.
    """
    bounds = bounds or {}
    rows = []
    for name in parent[0]["metrics"]:
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        pq, cq = quartiles(p), quartiles(c)
        sign = {"higher": 1.0, "lower": -1.0}.get(better.get(name))
        row = {"metric": name, "unit": parent[0]["metrics"][name]["unit"],
               "parent": pq, "change": cq,
               "ratio": cq[1] / pq[1] if pq[1] else float("nan"),
               "wins": None, "gain": None, "worse": None}
        if sign is not None:
            row["wins"] = sum(sign * (b - a) > 0 for a, b in zip(p, c))
            row["gain"] = (row["wins"] >= 0.9 * len(p)
                           and sign * (cq[1] - pq[1]) > pq[2] - pq[0])
            if name in bounds:
                allowed = bounds[name] * abs(pq[1])
                clear = all(sign * (b - a) > 0 for a in p for b in c)
                if sign * (pq[1] - cq[1]) > allowed:
                    row["worse"] = "yes"
                elif pq[2] - pq[0] > allowed and not clear:
                    row["worse"] = "unresolved"
                else:
                    row["worse"] = "no"
        rows.append(row)
    return rows


def flags(side, runs):
    """A line for each run with wrong answers or failed operations."""
    return [f"{side} run {i}: correct={r['correct']} failed={r['failed']}"
            for i, r in enumerate(runs) if not r["correct"] or r["failed"] > 0]


def format_rows(rows, pairs):
    def q(t):
        return f"{t[1]:.6g} [{t[0]:.6g}, {t[2]:.6g}]"

    lines = [f"{'metric':<24} {'parent median [q1, q3]':<34} {'change median [q1, q3]':<34}"
             f" {'change/parent':>13} {'wins':>6}  gain  worse"]
    for r in rows:
        wins = "-" if r["wins"] is None else f"{r['wins']}/{pairs}"
        gain = "-" if r["gain"] is None else ("yes" if r["gain"] else "no")
        lines.append(f"{r['metric']:<24} {q(r['parent']):<34} {q(r['change']):<34}"
                     f" {r['ratio']:>13.4f} {wins:>6}  {gain:<4}  {r['worse'] or '-'}")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"] if "bound" in m}
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            result = run_once(getattr(args, side), args)
            runs[side].append(result)
            figures = " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items())
            print(f"pair {i} {side}: {figures}", file=sys.stderr, flush=True)
    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s")
    rows = summarise(runs["parent"], runs["change"], better, bounds)
    print(format_rows(rows, args.pairs))
    bad = flags("parent", runs["parent"]) + flags("change", runs["change"])
    for line in bad:
        print(f"FLAG {line}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
