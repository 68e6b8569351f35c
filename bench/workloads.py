"""The four workloads: seeded inputs, the operations on them, their checks.

An operation is one query a user would make: one call into a public entry
point of ctrlgauge, or one `ctrlgauge.cli.main` command on the motor models.
A round is the fixed list of operations built from one seed; a run repeats
whole rounds. Every entry point is looked up on the package or module when
the operation runs, so the tracer's wrappers are seen.

Checks import scipy through `bench.checks` only when they run, after the
timed phase, so that set-up time holds only the program's own imports.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import ctrlgauge as cg
from bench import systems
from ctrlgauge import cli

MODEL_FILES = {"dc": "dc_motor.json", "ac": "ac_motor.json"}
MODES = ("rated", "target")
KINDS = ("reach", "recover")
CLI_MINTIME_CAP = 50  # the CLI default step cap, left implicit in the command


def _checks():
    from bench import checks

    return checks


def _kind(kind):
    return cg.RegionKind(kind)


@dataclass
class Op:
    """One operation: `call` runs it, `check` lists what is wrong with its output.

    `fault` names a known program fault that makes this operation's answer
    wrong on every attempt; such an operation counts as failed, not as a
    wrong answer, for as long as its check fails.
    """

    label: str
    call: object
    check: object
    fault: str | None = None


@dataclass
class Context:
    """Models loaded and normalised in set-up, plus where CLI reports go."""

    models_dir: Path
    out_dir: Path
    motors: dict = field(default_factory=dict)

    @classmethod
    def load(cls, models_dir, out_dir):
        ctx = cls(Path(models_dir), Path(out_dir))
        for key, fname in MODEL_FILES.items():
            system, spec = cg.load_model(ctx.models_dir / fname)
            for mode in MODES:
                ctx.motors[key, mode] = cg.normalize_full(
                    system, spec, use_target=mode == "target"
                )
        return ctx

    def model_path(self, key):
        return self.models_dir / MODEL_FILES[key]

    def cli_dir(self, label):
        path = self.out_dir / label.replace(" ", "_").replace(",", "-")
        path.mkdir(parents=True, exist_ok=True)
        return path


def run_cli(argv):
    """cli.main with its printed summary captured; returns (exit code, text).

    argparse exits on a usage error; that exit is caught and becomes the code.
    """
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, buf.getvalue()


def _read_report(path, code, tag):
    if code != 0:
        return None, [f"{tag}: exit code {code}"]
    with open(path, encoding="utf-8") as fh:
        return json.load(fh), []


# --- inputs ------------------------------------------------------------------


def random_system(rng, n, r, name):
    """A = P J P^-1 with eigenvalue moduli in [0.75, 1], B uniform in [-1, 1].

    Bounding the spectrum keeps reach and recover generators within the
    growth guard at every horizon used here, so no operation fails on it.
    """
    while True:
        p = rng.uniform(-1.0, 1.0, (n, n))
        if np.linalg.cond(p) < 20.0:
            break
    j = np.zeros((n, n))
    i = 0
    while i < n:
        rho = rng.uniform(0.75, 1.0)
        if i + 1 < n and rng.random() < 0.5:
            th = rng.uniform(0.2, 2.9)
            j[i : i + 2, i : i + 2] = rho * np.array(
                [[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]]
            )
            i += 2
        else:
            j[i, i] = rho * rng.choice((-1.0, 1.0))
            i += 1
    a = p @ j @ np.linalg.inv(p)
    b = rng.uniform(-1.0, 1.0, (n, r))
    return cg.LdtSystem(name, a, b)


def _stage_rows(system, horizon, kind):
    return systems.stage_rows(*_sys_pair(system), horizon, kind)


def interior_state(rng, rows):
    return rng.uniform(-1.0, 1.0, rows.shape[0]) @ rows


def extreme_state(rng, rows):
    """The vertex of the zonotope of rows exposed by a random direction."""
    d = rng.standard_normal(rows.shape[1])
    return np.sign(rows @ d) @ rows


def _sys_pair(system):
    return np.asarray(system.A), np.asarray(system.B)


# --- region-geometry ---------------------------------------------------------

# (n, r, horizons, kinds): one random system per horizon, summarised as the
# listed region kinds. Sizes are kept small, up to 16 generators for n = 2
# and 8 for n = 3 and 4, so that a round takes about 0.4 s and every
# operation repeats about 80 times in a run: the lowest of that many
# repeats is steady on a host whose speed swings, the lowest of ten is not.
# Horizons run in steps of one so that costs spread evenly; the median falls
# among the n = 2 summaries, and the 90th percentile inside the block of
# eight n = 3, m = 6 summaries, whose cost does not depend on the draw. The
# motor models go through the CLI at the listed step counts, one per model,
# mode and kind.
REGION_PLAN = {
    "full": (
        (2, 1, range(4, 17), KINDS),
        (2, 1, range(4, 14), KINDS),
        (2, 2, range(2, 9), KINDS),
        (3, 1, range(3, 8), KINDS),
        (3, 1, (6, 6, 6), KINDS),
        (3, 2, range(2, 5), KINDS),
        (4, 1, range(4, 8), KINDS),
        (4, 2, range(2, 4), KINDS),
    ),
    "tiny": ((2, 1, (4,), KINDS), (3, 1, (4,), KINDS), (4, 1, (5,), KINDS),
             (3, 2, (2,), KINDS)),
}
REGION_CLI_STEPS = {"full": (3, 4, 5, 6, 3, 4, 5, 6), "tiny": (3,)}


def _region_op(system, horizon, kind):
    label = f"region {system.name} N{horizon} {kind}"

    def call():
        builder = cg.reach_region if kind == "reach" else cg.recover_region
        return cg.region_summary(builder(system, horizon))

    def check(summary):
        rows = _stage_rows(system, horizon, kind)
        return _region_errors(_checks(), rows, system.r, kind, summary, label)

    return Op(label, call, check)


def _region_errors(chk, rows, r, kind, summary, label):
    verts = [
        cg.Zonotope(rows[: k * r]).vertices() for k in range(1, rows.shape[0] // r + 1)
    ]
    return chk.summary_errors(rows, r, kind, verts, summary, label)


def _cli_region_op(ctx, key, mode, kind, steps):
    label = f"cli region {key} {mode} {kind} N{steps}"
    out = ctx.cli_dir(label)
    argv = [
        "region", "--model", str(ctx.model_path(key)), "--mode", mode,
        "--kind", kind, "--steps", str(steps), "--out-dir", str(out),
    ]

    def check(result):
        report, errs = _read_report(out / "region_report.json", result[0], label)
        if errs:
            return errs
        chk = _checks()
        a, b, _ = systems.normalized_model(ctx.model_path(key), mode)
        rows = chk.stage_rows(a, b, steps, kind)
        return _region_errors(chk, rows, b.shape[1], kind, report, label)

    return Op(label, lambda: run_cli(argv), check)


def build_region_geometry(rng, ctx, size, seed):
    combos = [(key, mode, kind) for key in MODEL_FILES for mode in MODES for kind in KINDS]
    ops = [
        _cli_region_op(ctx, key, mode, kind, steps)
        for (key, mode, kind), steps in zip(combos, REGION_CLI_STEPS[size])
    ]
    for n, r, horizons, kinds in REGION_PLAN[size]:
        for horizon in horizons:
            system = random_system(rng, n, r, f"n{n}-r{r}-{len(ops)}")
            for kind in kinds:
                ops.append(_region_op(system, horizon, kind))
    return ops


def warm_region_geometry(ctx):
    for system in (TINY[2], TINY[4]):
        # five stages make the n = 4 family full rank, so the sign
        # enumeration route (and its Qhull import) runs here
        cg.region_summary(cg.reach_region(system, 5))
        cg.region_summary(cg.recover_region(system, 5))
    run_cli(["region", "--model", str(ctx.model_path("dc")), "--steps", "2",
             "--out-dir", str(ctx.cli_dir("warm-up"))])


# --- mintime-freedom -----------------------------------------------------------

# Queries per shape and kind, `copies` times, each on its own random system:
# min_time on interior states, (stage, cap) per entry, and on vertices of the
# given stages with that stage as the cap; strategy_space_dim on interior
# states, (stage, horizon), and on vertices at their own stage. Caps step
# through a range so that LP sizes, and with them costs, spread evenly. The
# states outside the region all have the shape in `outside`, (n, r, count
# per kind, cap): those calls sweep every horizon and cost nearly the same
# each, more than the other calls, so they hold the 90th percentile steady.
# The motor queries go through the CLI at its default cap, one state per
# listed stage.
MINTIME_PLAN = {
    "full": dict(systems=((2, 1), (2, 2), (3, 1), (3, 2)),
                 interior=((2, 6), (3, 8), (4, 10), (5, 12), (6, 14)), boundary=(3, 4, 5),
                 freedom_interior=((4, 10), (2, 6)), freedom_boundary=(4,),
                 outside=(3, 2, 12, 12), copies=2, cli_stages=(4, 6, 8, 10)),
    "tiny": dict(systems=((2, 1), (3, 1)), interior=((2, 4),), boundary=(2,),
                 freedom_interior=((2, 4),), freedom_boundary=(2,), outside=(3, 1, 1, 4),
                 copies=1, cli_stages=(3,)),
}
OUTSIDE_SCALE = 1.05


def _min_time_answer(sol):
    return {
        "min_steps": sol.min_steps,
        "inputs": sol.inputs,
        "certificate": sol.certificate,
        "margin": sol.margin,
        "strategy_dim": sol.strategy_dim,
    }


def _min_time_op(system, x, kind, cap, outside, label):
    def call():
        try:
            return cg.min_time(system, x, kind=_kind(kind), max_steps=cap)
        except cg.NotReachable as exc:
            return exc

    def check(result):
        chk = _checks()
        a, b = _sys_pair(system)
        if outside:
            if not isinstance(result, cg.NotReachable):
                return [f"{label}: state outside the region answered {result!r}"]
            return chk.not_reachable_errors(a, b, kind, x, cap, result.certificate, label)
        if not isinstance(result, cg.ControlSolution):
            return [f"{label}: reachable state answered {result!r}"]
        return chk.min_time_errors(a, b, kind, x, cap, _min_time_answer(result), label)

    return Op(label, call, check)


def _strategy_op(system, x, kind, horizon, label):
    def call():
        return cg.strategy_space_dim(system, x, horizon, kind=_kind(kind))

    def check(dim):
        chk = _checks()
        return chk.strategy_dim_errors(*_sys_pair(system), kind, x, horizon, dim, label)

    return Op(label, call, check)


def _cli_mintime_op(ctx, key, mode, x_phys, label):
    out = ctx.cli_dir(label)
    argv = [
        "mintime", "--model", str(ctx.model_path(key)), "--mode", mode,
        "--x0=" + ",".join(repr(float(v)) for v in x_phys), "--out-dir", str(out),
    ]

    def check(result):
        report, errs = _read_report(out / "mintime_report.json", result[0], label)
        if errs:
            return errs
        chk = _checks()
        a, b, scale = systems.normalized_model(ctx.model_path(key), mode)
        answer = {
            "min_steps": report["minSteps"],
            "inputs": report["inputs"],
            "certificate": report["certificate"],
            "margin": report["margin"],
            "strategy_dim": report["strategyDim"],
        }
        x = np.asarray(x_phys) / scale
        return chk.min_time_errors(a, b, "reach", x, CLI_MINTIME_CAP, answer, label)

    return Op(label, lambda: run_cli(argv), check)


def build_mintime_freedom(rng, ctx, size, seed):
    plan = MINTIME_PLAN[size]
    out_n, out_r, out_count, out_cap = plan["outside"]
    queries = []  # (kind of query, stage, cap or horizon)
    queries += [("interior", k, k_cap) for k, k_cap in plan["interior"]]
    queries += [("boundary", k, k) for k in plan["boundary"]]
    queries += [("freedom interior", k, h) for k, h in plan["freedom_interior"]]
    queries += [("freedom boundary", k, k) for k in plan["freedom_boundary"]]
    ops = []
    for n, r in plan["systems"]:
        shape_queries = queries * plan["copies"]
        if (n, r) == (out_n, out_r):
            shape_queries += [("outside", out_cap, out_cap)] * out_count
        for kind in KINDS:
            for query, k, h in shape_queries:
                # a system per query, so that no one draw sets the cost of many
                system = random_system(rng, n, r, f"n{n}-r{r}-{len(ops)}")
                rows = _stage_rows(system, k, kind)
                tag = f"{query} {system.name} {kind} k{k} h{h}"
                if query == "outside":
                    x = OUTSIDE_SCALE * extreme_state(rng, rows)
                elif query.endswith("boundary"):
                    x = extreme_state(rng, rows)
                else:
                    x = interior_state(rng, rows)
                if query.startswith("freedom"):
                    ops.append(_strategy_op(system, x, kind, h, f"strategy_space_dim {tag}"))
                else:
                    ops.append(_min_time_op(system, x, kind, h, query == "outside",
                                            f"min_time {tag}"))
    for (key, mode), k in zip([(key, mode) for key in MODEL_FILES for mode in MODES],
                              plan["cli_stages"]):
        system = ctx.motors[key, mode]
        scale = systems.normalized_model(ctx.model_path(key), mode)[2]
        x = interior_state(rng, _stage_rows(system, k, "reach")) * scale
        ops.append(_cli_mintime_op(ctx, key, mode, x, f"cli mintime {key} {mode} k{k}"))
    return ops


def warm_mintime_freedom(ctx):
    x = np.array([0.3, -0.2])
    cg.min_time(TINY[2], x, max_steps=4)
    cg.strategy_space_dim(TINY[2], x, 4)
    run_cli(["mintime", "--model", str(ctx.model_path("dc")), "--x0", "1,10,1",
             "--max-steps", "5", "--out-dir", str(ctx.cli_dir("warm-up"))])


# --- compare-theorem -------------------------------------------------------------

# Motor pairs go through the CLI as (mode, kind, horizon): horizon 2 takes
# the exact path, those above 16 the sampled one. Nested pairs scale B of a
# random base system, drawn afresh for each line and horizon, by each of the
# line's scales, as (n, r, horizons, scales); the theorem check scales B by
# 1.5, as (n, r, horizons). Sizes are kept small so that a round costs about
# 0.6 s of work and every operation repeats about 40 times in a run: the
# exact path makes one LP per stage vertex, about 2 ms at horizon 1, 6 ms at
# 2 and 15 ms at 3, and the motor pair at horizon 8 takes 0.8 s. The pairs
# at horizon 1 hold the median, those at horizon 3 the 90th percentile.
COMPARE_PLAN = {
    "full": dict(
        cli=(("rated", "reach", 2), ("target", "recover", 2), ("rated", "reach", 17),
             ("target", "recover", 20)),
        nested=((2, 1, (1,) * 6, (1.25, 1.5, 2.0)), (3, 1, (1,) * 4, (1.25, 1.5, 2.0)),
                (2, 1, (2,) * 3, (1.25, 1.5, 2.0)), (2, 1, (3, 3), (1.25, 1.5, 2.0)),
                (2, 1, (17,), (1.5,))),
        theorem=((2, 1, (1, 1)), (3, 1, (1,))),
        samples=2,
    ),
    "tiny": dict(
        cli=(("rated", "reach", 2), ("target", "recover", 17)),
        nested=((2, 1, (3,), (1.5,)), (3, 1, (2,), (1.5,)), (2, 1, (17,), (1.5,))),
        theorem=((2, 1, (2,)),),
        samples=3,
    ),
}
THEOREM_SCALE = 1.5


def _verdict_dict(verdict):
    return {
        "relation": verdict.relation,
        "stronger": verdict.stronger,
        "aInB": verdict.certificate["aInB"],
        "bInA": verdict.certificate["bInA"],
    }


def _compare_op(base, scaled, horizon, kind, seed, label):
    def call():
        return cg.compare_ability(base, scaled, horizon, kind=_kind(kind), seed=seed)

    def check(verdict):
        chk = _checks()
        got = _verdict_dict(verdict)
        errs = chk.relation_errors(_sys_pair(base), _sys_pair(scaled), kind, horizon,
                                   got, (base.name, scaled.name), label)
        if (got["relation"], got["stronger"]) != ("StrictlyStronger", scaled.name):
            errs.append(f"{label}: nested pair gives {got['relation']} {got['stronger']}")
        return errs

    return Op(label, call, check)


def _theorem_op(base, scaled, horizon, kind, samples, seed, label):
    def call():
        return cg.verify_theorem1(base, scaled, horizon, kind=_kind(kind),
                                  samples=samples, seed=seed)

    def check(report):
        chk = _checks()
        errs = []
        if not report.passed:
            errs.append(f"{label}: theorem check failed: {report.to_dict()}")
        if report.checked != samples or report.samples != samples:
            errs.append(f"{label}: checked {report.checked} of {samples} samples")
        rows_a = _stage_rows(base, horizon, kind)
        rows_b = _stage_rows(scaled, horizon, kind)
        inside, gap = chk.contained(rows_a, rows_b, base.r, horizon)
        if not inside:
            errs.append(f"{label}: precondition fails the exact test (gap {gap:.3e})")
        return errs

    return Op(label, call, check)


def _cli_compare_op(ctx, mode, kind, steps):
    # the motor items keep the CLI's default direction seed, so they do not
    # depend on the benchmark seed
    label = f"cli compare dc-ac {mode} {kind} N{steps}"
    out = ctx.cli_dir(label)
    argv = [
        "compare", "--model", str(ctx.model_path("dc")), "--model-b",
        str(ctx.model_path("ac")), "--mode", mode, "--kind", kind,
        "--steps", str(steps), "--out-dir", str(out),
    ]
    fault = None
    if steps > cg.control.EXACT_GENERATOR_CAP:
        fault = (
            "compare_ability's sampled path (exact=false) can miss a thin "
            "containment violation of these elongated regions"
        )

    def check(result):
        report, errs = _read_report(out / "compare_report.json", result[0], label)
        if errs:
            return errs
        chk = _checks()
        a = systems.normalized_model(ctx.model_path("dc"), mode)[:2]
        b = systems.normalized_model(ctx.model_path("ac"), mode)[:2]
        got = {
            "relation": report["relation"],
            "stronger": report["stronger"],
            "aInB": report["certificate"]["aInB"],
            "bInA": report["certificate"]["bInA"],
        }
        names = (report["modelA"], report["modelB"])
        return chk.relation_errors(a, b, kind, steps, got, names, label)

    return Op(label, lambda: run_cli(argv), check, fault)


def build_compare_theorem(rng, ctx, size, seed):
    plan = COMPARE_PLAN[size]
    ops = [_cli_compare_op(ctx, mode, kind, steps) for mode, kind, steps in plan["cli"]]
    for n, r, horizons, scales in plan["nested"]:
        for j, horizon in enumerate(horizons):
            base = random_system(rng, n, r, f"n{n}-r{r}-N{horizon}-{j}")
            for s in scales:
                scaled = cg.LdtSystem(f"{base.name}-x{s}", base.A, s * base.B)
                for kind in KINDS:
                    label = f"compare {scaled.name} {kind}"
                    ops.append(_compare_op(base, scaled, horizon, kind, seed, label))
    for n, r, horizons in plan["theorem"]:
        for j, horizon in enumerate(horizons):
            base = random_system(rng, n, r, f"n{n}-r{r}-N{horizon}-{j}")
            scaled = cg.LdtSystem(f"{base.name}-x{THEOREM_SCALE}", base.A, THEOREM_SCALE * base.B)
            for kind in KINDS:
                label = f"verify_theorem1 {scaled.name} {kind}"
                ops.append(_theorem_op(base, scaled, horizon, kind, plan["samples"], seed, label))
    return ops


def warm_compare_theorem(ctx):
    scaled = cg.LdtSystem("tiny-x2", TINY[2].A, 2.0 * TINY[2].B)
    cg.compare_ability(TINY[2], scaled, 2)
    cg.verify_theorem1(TINY[2], scaled, 2, samples=2)
    run_cli(["compare", "--model", str(ctx.model_path("dc")), "--model-b",
             str(ctx.model_path("ac")), "--steps", "2",
             "--out-dir", str(ctx.cli_dir("warm-up"))])


# --- oracle-crosscheck -----------------------------------------------------------

# brute_vertices on random generators, (n, m, sets) per line; mc_volume on
# random generators, (n, m, samples) per line; exhaustive_min_time on
# interior states of the listed stages of random systems, (n, r, stages) per
# line, reach and recover. brute_vertices costs depend on m alone, so the
# ten n = 3, m = 5 sets hold the median and the ten m = 7 sets the 90th
# percentile, whatever the draw of the other calls' costs. m stops
# at 8 and the Monte Carlo runs at 35 000 samples, so that a round costs
# about 0.3 s and every operation repeats about 110 times in a run:
# brute_vertices deduplicates its 2^m sums in quadratic time, 25 ms at
# m = 9 and about 2 s at m = 12.
ORACLE_PLAN = {
    "full": dict(
        brute=((2, 4, 4), (3, 4, 4), (2, 5, 4), (3, 5, 10), (2, 6, 5), (3, 6, 5),
               (2, 7, 5), (3, 7, 5), (2, 8, 2), (3, 8, 2)),
        mc=tuple((2, 6, int(10_000 * 1.15**i)) for i in range(10))
        + tuple((3, 6, int(8_000 * 1.15**i)) for i in range(10)),
        exhaustive=((2, 1, (3, 5, 7, 9, 11, 13)), (3, 1, (3, 5, 7, 9, 11)),
                    (2, 2, (2, 3, 4, 5, 6)), (3, 2, (2, 3, 4, 5))),
        suites=1,
        suite_samples=20_000,
    ),
    "tiny": dict(
        brute=((2, 5, 1), (3, 5, 1)),
        mc=((2, 5, 20_000),),
        exhaustive=((2, 1, (3,)),),
        suites=1,
        suite_samples=5_000,
    ),
}


def _brute_op(rows, label):
    def check(verts):
        return _checks().brute_vertices_errors(rows, verts, label)

    return Op(label, lambda: cg.brute_vertices(rows), check)


def _mc_op(rows, cfg, label):
    def check(result):
        errs = _checks().mc_volume_errors(rows, result, label)
        if result.samples != cfg.mc_samples or result.seed != cfg.seed:
            errs.append(f"{label}: ran {result.samples} samples from seed {result.seed}")
        return errs

    return Op(label, lambda: cg.mc_volume(rows, cfg), check)


def _exhaustive_op(system, x, kind, cap, label):
    def call():
        return cg.exhaustive_min_time(system, x, kind=kind, max_steps=cap)

    def check(steps):
        return _checks().exhaustive_errors(*_sys_pair(system), kind, x, cap, steps, label)

    return Op(label, call, check)


def _suite_op(cfg, label):
    def check(report):
        bad = [c for c in report["checks"] if c["status"] != "pass"]
        errs = [f"{label}: {c['name']} failed (discrepancy {c['discrepancy']!r})" for c in bad]
        if not report["passed"] or len(report["checks"]) != 24:
            errs.append(f"{label}: passed={report['passed']} over {len(report['checks'])} checks")
        return errs

    return Op(label, lambda: cg.verification_suite(cfg), check)


def build_oracle_crosscheck(rng, ctx, size, seed):
    plan = ORACLE_PLAN[size]
    ops = []
    for n, m, sets in plan["brute"]:
        for c in range(sets):
            rows = rng.uniform(-1.0, 1.0, (m, n))
            ops.append(_brute_op(rows, f"brute_vertices n{n} m{m} {c}"))
    for n, m, samples in plan["mc"]:
        rows = rng.uniform(-1.0, 1.0, (m, n))
        cfg = cg.OracleConfig(mc_samples=samples, seed=seed * 1000 + len(ops))
        ops.append(_mc_op(rows, cfg, f"mc_volume n{n} m{m} s{samples}"))
    for n, r, stages in plan["exhaustive"]:
        system = random_system(rng, n, r, f"n{n}-r{r}")
        for kind in KINDS:
            for k in stages:
                x = interior_state(rng, _stage_rows(system, k, kind))
                ops.append(_exhaustive_op(system, x, kind, k,
                                          f"exhaustive_min_time {system.name} {kind} k{k}"))
    for i in range(plan["suites"]):
        cfg = cg.OracleConfig(mc_samples=plan["suite_samples"], seed=seed * 1000 + len(ops))
        ops.append(_suite_op(cfg, f"verification_suite {i}"))
    return ops


def warm_oracle_crosscheck(ctx):
    for system in (TINY[2], TINY[3]):
        rows = cg.stage_generators(system, 3, cg.RegionKind.REACH)
        cg.brute_vertices(rows)
        cg.mc_volume(rows, cg.OracleConfig(mc_samples=1000))
    cg.exhaustive_min_time(TINY[2], np.array([0.3, -0.2]), max_steps=4)
    cg.verification_suite(cg.OracleConfig(mc_samples=1000))


# --- registry ----------------------------------------------------------------------

# Fixed small systems for the untimed warm-up calls; they do not depend on
# the seed.
TINY = {
    2: cg.LdtSystem("tiny-2", [[0.9, 0.2], [-0.1, 0.8]], [[0.5], [1.0]]),
    3: cg.LdtSystem(
        "tiny-3", [[0.9, 0.1, 0.0], [0.0, 0.8, 0.2], [0.1, 0.0, 0.7]], [[0.3], [0.6], [1.0]]
    ),
    4: cg.LdtSystem(
        "tiny-4",
        np.diag([0.9, 0.8, -0.7, 0.6]) + 0.1 * np.eye(4, k=1),
        [[0.3], [0.6], [1.0], [0.4]],
    ),
}


@dataclass(frozen=True)
class Workload:
    name: str
    build: object
    warm_up: object


WORKLOADS = {
    w.name: w
    for w in (
        Workload("region-geometry", build_region_geometry, warm_region_geometry),
        Workload("mintime-freedom", build_mintime_freedom, warm_mintime_freedom),
        Workload("compare-theorem", build_compare_theorem, warm_compare_theorem),
        Workload("oracle-crosscheck", build_oracle_crosscheck, warm_oracle_crosscheck),
    )
}


def build(name, seed, ctx, size="full"):
    """The round of operations for one workload and seed."""
    index = list(WORKLOADS).index(name)
    rng = np.random.default_rng([seed, index])
    return WORKLOADS[name].build(rng, ctx, size, seed)
