"""Tests of the benchmark itself: clean tiny runs, stable counts, and checks
that reject planted wrong answers.

Run from the repository root with `python3 -m pytest bench/tests -q`.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ctrlgauge as cg
from bench import checks, run, spans, systems, workloads

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# operations per round whose answer is wrong through a known program fault
KNOWN_FAULTS = {"compare-theorem": 1}

COUNTS = [
    m["name"]
    for m in SPEC["per_layer"]
    if m["name"].endswith((".calls", ".rows", ".infeasible", ".determinants", ".sign_sums",
                           ".samples"))
    or m["name"] == "lp.columns"
]


def _result_file(workload, seed, trace):
    return json.loads((run.OUT_DIR / f"result_{workload}_seed{seed}_trace{trace}.json").read_text())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_workload_runs_clean(workload):
    result = run.run_workload(workload, seed=5, seconds=0, trace=0, size="tiny", min_rounds=1)
    saved = _result_file(workload, 5, 0)
    assert result["correct"], saved["errors"]
    assert result["attempted"] == saved["rounds"] * saved["operations_per_round"]
    assert result["failed"] == KNOWN_FAULTS.get(workload, 0) * saved["rounds"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


@pytest.mark.parametrize("workload", ["mintime-freedom", "oracle-crosscheck"])
def test_traced_counts_repeat_for_a_seed(workload):
    first = run.run_workload(workload, seed=6, seconds=0, trace=1, size="tiny", min_rounds=1)
    second = run.run_workload(workload, seed=6, seconds=0, trace=1, size="tiny", min_rounds=1)
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert first["metrics"][m["name"]]["unit"] == m["unit"]
    for name in COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name


def test_tracer_restores_every_entry_point():
    before = (cg.min_time, cg.control.contains_point, cg.cli.min_time, cg.Zonotope.volume)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cg.cli.min_time is not before[2]
        system = workloads.TINY[2]
        cg.cli.min_time(system, np.array([0.3, -0.2]), max_steps=4)
    finally:
        tracer.uninstall()
    after = (cg.min_time, cg.control.contains_point, cg.cli.min_time, cg.Zonotope.volume)
    assert after == before
    names = {s.name for s in tracer.spans}
    assert {"control.min_time", "zonotope.contains_point", "lp.feasible"} <= names
    # the LP calls happen inside min_time, so each span has a traced parent
    assert all(s.parent >= 0 for s in tracer.spans if s.name in spans.LP_CALLS)


def test_command_prints_result_line_last():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "oracle-crosscheck", "--seed", "2",
         "--seconds", "0", "--trace", "0", "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] > 0 and result["failed"] == 0
    assert [result["metrics"][m["name"]]["unit"] for m in SPEC["end_to_end"]] == [
        m["unit"] for m in SPEC["end_to_end"]
    ]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "region-geometry", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# --- planted wrong answers ---------------------------------------------------------


@pytest.fixture(scope="module")
def steering():
    system = workloads.TINY[2]
    a, b = np.asarray(system.A), np.asarray(system.B)
    rows = systems.stage_rows(a, b, 4, "reach")
    x = np.array([0.3, 0.5, -0.4, 0.2]) @ rows
    sol = cg.min_time(system, x, max_steps=6)
    answer = {
        "min_steps": sol.min_steps,
        "inputs": sol.inputs,
        "certificate": sol.certificate,
        "margin": sol.margin,
        "strategy_dim": sol.strategy_dim,
    }
    assert checks.min_time_errors(a, b, "reach", x, 6, answer, "true") == []
    return a, b, x, answer


@pytest.mark.parametrize("shift", [1, -1])
def test_min_steps_off_by_one_is_rejected(steering, shift):
    a, b, x, answer = steering
    k = answer["min_steps"] + shift
    inputs = answer["inputs"]
    # keep the witness consistent with the planted step count
    inputs = np.vstack([np.zeros((1, 1)), inputs]) if shift > 0 else inputs[1:]
    wrong = dict(answer, min_steps=k, inputs=inputs)
    errs = checks.min_time_errors(a, b, "reach", x, 6, wrong, "planted")
    assert any("HiGHS finds stage" in e for e in errs), errs


def test_perturbed_witness_is_rejected(steering):
    a, b, x, answer = steering
    inputs = answer["inputs"].copy()
    inputs[-1, 0] -= 1e-5 * np.sign(inputs[-1, 0])
    errs = checks.min_time_errors(a, b, "reach", x, 6, dict(answer, inputs=inputs), "planted")
    assert any("replays" in e for e in errs), errs


@pytest.fixture(scope="module")
def stage():
    system = workloads.TINY[3]
    rows = systems.stage_rows(np.asarray(system.A), np.asarray(system.B), 6, "reach")
    z = cg.Zonotope(rows)
    verts, vol = z.vertices(), z.volume()
    assert checks.stage_errors(rows, verts, vol, "true") == []
    return rows, verts, vol


def test_dropped_vertex_is_rejected(stage):
    rows, verts, vol = stage
    assert checks.stage_errors(rows, verts[1:], vol, "planted")


def test_scaled_volume_is_rejected(stage):
    rows, verts, vol = stage
    assert checks.stage_errors(rows, verts, vol * (1.0 + 1e-6), "planted")


def test_flipped_relation_is_rejected():
    base = workloads.TINY[2]
    scaled = cg.LdtSystem("scaled", base.A, 1.5 * base.B)
    pair = ((np.asarray(base.A), np.asarray(base.B)), (np.asarray(scaled.A), np.asarray(scaled.B)))
    names = (base.name, scaled.name)
    verdict = cg.compare_ability(base, scaled, 3)
    got = {"relation": verdict.relation, "stronger": verdict.stronger,
           "aInB": verdict.certificate["aInB"], "bInA": verdict.certificate["bInA"]}
    assert checks.relation_errors(*pair, "reach", 3, got, names, "true") == []
    for wrong in (dict(got, stronger=base.name), dict(got, relation="Incomparable", stronger=None),
                  dict(got, aInB=False, bInA=True)):
        assert checks.relation_errors(*pair, "reach", 3, wrong, names, "planted")
