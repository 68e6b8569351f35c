"""Open-loop control ability: minimum time, strategy freedom, comparison.

Minimum-time questions reduce to membership of the target state in the
stage regions: the smallest horizon whose region contains the state is the
answer, and the LP witness converts directly into an input sequence. The
leftover freedom at a fixed horizon is the affine dimension of the set of
admissible input sequences; comparing two systems reduces to containment
of their regions stage by stage.

Every geometric fact comes from the stage's H-form (zonotope.hform): the
gauge max|D x|/c decides membership and gives the margin 1 - gauge and a
separating row, and containment compares supports on the outer stage's
normals. The LP runs only for witness inputs and strategy freedom, and
for the gauge of stages whose normals are capped (n >= 4 past
MAX_GENERATORS generators).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import lp
from .errors import (
    DimensionMismatch,
    Infeasible,
    InternalError,
    NotMember,
    NotReachable,
    PreconditionNotMet,
    TooManyGenerators,
)
from .region import RegionKind, reach_region, recover_region, stage_generators
# contains_point is not called here; bench/tests looks it up as
# control.contains_point, so the name stays importable
from .zonotope import _rank, contains_point, hform  # noqa: F401

BOUNDARY_TOL = 1e-7
STRICT_TOL = 1e-9
# membership slack on the gauge (and, off the span, on the distance
# relative to max(1, |x|)); tighter than the LP's feasibility tolerance,
# so the witness LP accepts every stage the gauge accepts
GAUGE_TOL = 1e-10
EPS = float(np.finfo(float).eps)
DECISIVE_GAP = 1e-6
# Not read by the library, which decides every horizon exactly; kept, with
# compare_ability's seed keyword, because bench/workloads.py reads both.
EXACT_GENERATOR_CAP = 16
DEFAULT_MAX_STEPS = 50


def _box_lp(rows, x, objective=None):
    m = rows.shape[0]
    return lp.BoxLp(
        G=rows.T,
        x0=x,
        lower=np.full(m, -1.0),
        upper=np.full(m, 1.0),
        objective=objective,
    )


def _check_state(sys, x0):
    x = np.asarray(x0, dtype=float).ravel()
    if x.size != sys.n:
        raise DimensionMismatch(f"state must have length {sys.n}, got {x.size}")
    if not np.isfinite(x).all():
        raise DimensionMismatch("state contains non-finite entries")
    return x


def _stage_gauge(rows, x):
    """Gauge max|D x|/c of x in the zonotope of rows, and a separating row.

    Returns (gauge, direction). x lies in the region when the gauge is at
    most 1: within GAUGE_TOL * max(1, |x|) of the span, and |D x| within
    GAUGE_TOL * c plus the rounding bound of the products; the gauge is
    then capped at 1, since rounding on a thin facet can push the ratio
    past it. Otherwise the gauge exceeds 1 (infinite off the span) and
    d . x > sum |d . g| for the returned unit direction d. Stages whose
    normals are capped take the gauge from the max-margin LP, whose
    separating direction may be None.
    """
    try:
        hf = hform(rows)
    except TooManyGenerators:
        try:
            return 1.0 - lp.max_margin(_box_lp(rows, x)).margin, None
        except Infeasible as exc:
            return math.inf, exc.certificate
    off = hf.complement @ x
    if off.size and np.abs(off).max() > GAUGE_TOL * max(1.0, np.abs(x).max()):
        j = int(np.argmax(np.abs(off)))
        return math.inf, np.sign(off[j]) * hf.complement[j]
    dx = hf.normals @ x
    if not dx.size:
        return 0.0, None
    rounding = rows.shape[0] * EPS * (np.abs(hf.normals) @ np.abs(x) + hf.supports)
    slack = np.abs(dx) - hf.supports * (1.0 + GAUGE_TOL) - rounding
    j = int(np.argmax(slack))
    gauge = float(np.max(np.abs(dx) / hf.supports))
    if slack[j] <= 0.0:
        return min(gauge, 1.0), None
    return gauge, np.sign(dx[j]) * hf.normals[j]


@dataclass(frozen=True)
class ControlSolution:
    """Minimum-time answer with the witness inputs and horizon diagnostics.

    inputs has one row per step in time order. certificate, when present,
    is a direction separating the state from the region one step shorter.
    strategy_dim is evaluated at `horizon` (the search cap), not at
    min_steps.
    """

    min_steps: int
    inputs: np.ndarray
    strategy_dim: int
    horizon: int
    boundary: str
    margin: float
    certificate: np.ndarray | None

    def to_dict(self):
        return {
            "minSteps": self.min_steps,
            "inputs": self.inputs.tolist(),
            "strategyDim": self.strategy_dim,
            "horizon": self.horizon,
            "boundary": self.boundary,
            "margin": self.margin,
            "certificate": (
                None if self.certificate is None else self.certificate.tolist()
            ),
        }


def _strategy_dim(rows, x):
    """Affine dimension of {u in box : rows^T u = x}.

    With a margin above tolerance the box is inactive, so the dimension
    is that of the full solution space. Otherwise coordinates whose LP
    range collapses are pinned and the rest contribute their null-space
    dimension.
    """
    gauge, _ = _stage_gauge(rows, x)
    if gauge > 1.0:
        raise NotMember("state is outside the region at this horizon")
    m = rows.shape[0]
    if 1.0 - gauge > BOUNDARY_TOL:
        return m - _rank(rows)
    free = np.zeros(m, dtype=bool)
    for j in range(m):
        c = np.zeros(m)
        c[j] = 1.0
        lo = lp.optimize(_box_lp(rows, x, c), sense="min").value
        hi = lp.optimize(_box_lp(rows, x, c), sense="max").value
        free[j] = (hi - lo) > STRICT_TOL
    if not free.any():
        return 0
    return int(free.sum()) - _rank(rows[free])


def min_time(sys, x0, kind=RegionKind.REACH, max_steps=DEFAULT_MAX_STEPS):
    """Fewest steps to reach x0 from the origin (or recover, by kind).

    Sweeps horizons with the stage gauge; the first stage that contains
    x0 is the answer, the horizon below it supplies the separating
    certificate, and one LP there gives the witness inputs. Raises
    NotReachable past max_steps.
    """
    x = _check_state(sys, x0)
    r = sys.r
    rows_all = stage_generators(sys, max_steps, kind)
    if float(np.abs(x).max(initial=0.0)) <= 1e-12:
        return ControlSolution(
            min_steps=0,
            inputs=np.zeros((0, r)),
            strategy_dim=_strategy_dim(rows_all, x),
            horizon=max_steps,
            boundary="Interior",
            margin=1.0,
            certificate=None,
        )
    # the zero-step region is the origin; x itself separates
    certificate = x / float(np.linalg.norm(x))
    for steps in range(1, max_steps + 1):
        gauge, direction = _stage_gauge(rows_all[: steps * r], x)
        if gauge <= 1.0:
            break
        certificate = direction
    else:
        raise NotReachable(
            f"state not reachable within {max_steps} steps",
            certificate=certificate,
            max_steps=max_steps,
        )
    res = lp.feasible(_box_lp(rows_all[: steps * r], x))
    if not res.feasible:
        raise InternalError(
            f"stage {steps} contains the state (gauge {gauge!r}) "
            "but the witness LP finds no inputs"
        )
    inputs = res.witness.reshape(steps, r)
    if kind is RegionKind.REACH:
        # generator block i acts at time steps-1-i
        inputs = inputs[::-1].copy()
    else:
        inputs = -inputs
    margin = 1.0 - gauge
    return ControlSolution(
        min_steps=steps,
        inputs=inputs,
        strategy_dim=_strategy_dim(rows_all, x),
        horizon=max_steps,
        boundary="Boundary" if margin <= BOUNDARY_TOL else "Interior",
        margin=margin,
        certificate=certificate,
    )


def strategy_space_dim(sys, x0, horizon, kind=RegionKind.REACH):
    """Affine dimension of the admissible input sequences at a horizon.

    Raises NotMember when the state is outside the horizon's region.
    """
    x = _check_state(sys, x0)
    rows = stage_generators(sys, horizon, kind)
    return _strategy_dim(rows, x)


@dataclass(frozen=True)
class AbilityVerdict:
    """Outcome of a two-system region comparison at one horizon.

    relation is Equal, StrictlyStronger, NotWeaker, or Incomparable;
    stronger names the dominating system for the one-sided relations.
    Containment is decided exactly on facet normals at every horizon, so
    exact is always True. The certificate lists, per failing stage, the
    deciding direction, its support gap and the inner vertex it exposes.
    """

    relation: str
    stronger: str | None
    at_horizon: int
    exact: bool
    certificate: dict | None
    metrics: dict

    def to_dict(self):
        return {
            "relation": self.relation,
            "stronger": self.stronger,
            "atHorizon": self.at_horizon,
            "exact": self.exact,
            "certificate": self.certificate,
            "metrics": self.metrics,
        }


def _containment(fam_inner, fam_outer):
    """Stage-wise containment on the outer stages' H-forms.

    Z_inner lies in Z_outer exactly when no inner generator leaves the
    outer span and h_inner <= h_outer on the outer normals, both within
    STRICT_TOL * max(1, h_outer). Returns (margin, violations): the
    margin is 1 - max h_inner/h_outer over all stages, or None when an
    inner stage leaves the outer span; violations hold one entry per
    failing stage.
    """
    worst = 0.0
    off_span = False
    violations = []
    for k in range(1, fam_inner.horizon + 1):
        inner = fam_inner.stage(k).generators
        hf = hform(fam_outer.stage(k).generators)
        nc = hf.complement.shape[0]
        dirs = np.vstack([hf.complement, hf.normals])
        h_in = np.abs(dirs @ inner.T).sum(axis=1)
        h_out = np.concatenate([np.zeros(nc), hf.supports])
        worst = max(worst, float(np.max(h_in[nc:] / hf.supports, initial=0.0)))
        excess = (h_in - h_out) / np.maximum(1.0, h_out)
        j = int(np.argmax(excess))
        if excess[j] <= STRICT_TOL:
            continue
        off_span = off_span or j < nc
        d = dirs[j]
        violations.append(
            {
                "stage": k,
                "direction": d.tolist(),
                "gap": float(h_in[j] - h_out[j]),
                "vertex": (np.where(inner @ d >= 0.0, 1.0, -1.0) @ inner).tolist(),
            }
        )
    return (None if off_span else 1.0 - worst), violations


def compare_ability(sys_a, sys_b, horizon, kind=RegionKind.REACH, seed=0):
    """Compare the stage regions of two same-dimension systems.

    Containment is exact at every horizon: supports on the outer stage's
    facet normals, no LP. Stages with n >= 4 and more than MAX_GENERATORS
    generators raise TooManyGenerators. The verdict names the stronger
    system; the certificate carries the witnesses behind it. seed is
    accepted and ignored (bench/workloads.py still passes it).
    """
    if sys_a.n != sys_b.n:
        raise DimensionMismatch(
            f"state dimensions differ: {sys_a.n} vs {sys_b.n}"
        )
    builder = reach_region if kind is RegionKind.REACH else recover_region
    fam_a = builder(sys_a, horizon)
    fam_b = builder(sys_b, horizon)
    margin_ab, fail_ab = _containment(fam_a, fam_b)
    margin_ba, fail_ba = _containment(fam_b, fam_a)
    a_in_b = not fail_ab
    b_in_a = not fail_ba
    if a_in_b and b_in_a:
        relation, stronger = "Equal", None
    elif a_in_b or b_in_a:
        fails = fail_ba if a_in_b else fail_ab
        decisive = any(f["gap"] > DECISIVE_GAP for f in fails)
        relation = "StrictlyStronger" if decisive else "NotWeaker"
        stronger = sys_b.name if a_in_b else sys_a.name
    else:
        relation, stronger = "Incomparable", None
    certificate = {
        "aInB": a_in_b,
        "bInA": b_in_a,
        "minMarginAInB": margin_ab,
        "minMarginBInA": margin_ba,
        "aViolations": fail_ab,
        "bViolations": fail_ba,
    }
    metrics = {
        "a": {"name": sys_a.name, **fam_a.stages[-1].shape_report().to_dict()},
        "b": {"name": sys_b.name, **fam_b.stages[-1].shape_report().to_dict()},
    }
    return AbilityVerdict(
        relation=relation,
        stronger=stronger,
        at_horizon=horizon,
        exact=True,
        certificate=certificate,
        metrics=metrics,
    )


@dataclass(frozen=True)
class TheoremReport:
    """Empirical check that region containment orders control ability.

    For sampled states x0 in the smaller system's region, the containing
    system must never need more steps and never offer fewer degrees of
    freedom. Violations carry the data needed to replay them.
    """

    horizon: int
    kind: str
    samples: int
    seed: int
    checked: int
    min_time_violations: list
    dim_violations: list
    summary: dict
    passed: bool

    def to_dict(self):
        return {
            "horizon": self.horizon,
            "kind": self.kind,
            "samples": self.samples,
            "seed": self.seed,
            "checked": self.checked,
            "minTimeViolations": self.min_time_violations,
            "dimViolations": self.dim_violations,
            "summary": self.summary,
            "passed": self.passed,
        }


def verify_theorem1(
    sys_a,
    sys_b,
    horizon,
    kind=RegionKind.REACH,
    samples=100,
    seed=0,
):
    """Sample states from system A's region and compare both systems.

    Precondition: A's stage regions are contained in B's at every stage up
    to the horizon (PreconditionNotMet otherwise), decided as in
    compare_ability. States are the final stage's vertices topped up with
    random convex combinations of them.
    """
    if sys_a.n != sys_b.n:
        raise DimensionMismatch(
            f"state dimensions differ: {sys_a.n} vs {sys_b.n}"
        )
    builder = reach_region if kind is RegionKind.REACH else recover_region
    fam_a = builder(sys_a, horizon)
    fam_b = builder(sys_b, horizon)
    _, violations = _containment(fam_a, fam_b)
    if violations:
        v = violations[0]
        raise PreconditionNotMet(
            f"stage {v['stage']} of {sys_a.name} is not contained in "
            f"{sys_b.name}; vertex {v['vertex']} is outside by {v['gap']:.3e} "
            f"along {v['direction']}"
        )
    verts = fam_a.stage(horizon).vertices()
    if verts.shape[0] >= samples:
        states = verts[:samples]
    else:
        rng = np.random.default_rng(seed)
        extra = samples - verts.shape[0]
        weights = rng.dirichlet(np.ones(verts.shape[0]), size=extra)
        states = np.vstack([verts, weights @ verts])
    min_time_violations = []
    dim_violations = []
    steps_tied = 0
    dims_tied = 0
    for x0 in states:
        sol_a = min_time(sys_a, x0, kind=kind, max_steps=horizon)
        sol_b = min_time(sys_b, x0, kind=kind, max_steps=horizon)
        if sol_b.min_steps > sol_a.min_steps:
            min_time_violations.append(
                {
                    "x0": x0.tolist(),
                    "minStepsA": sol_a.min_steps,
                    "minStepsB": sol_b.min_steps,
                }
            )
        elif sol_b.min_steps == sol_a.min_steps:
            steps_tied += 1
        if sol_a.strategy_dim > sol_b.strategy_dim:
            dim_violations.append(
                {
                    "x0": x0.tolist(),
                    "dimA": sol_a.strategy_dim,
                    "dimB": sol_b.strategy_dim,
                }
            )
        elif sol_a.strategy_dim == sol_b.strategy_dim:
            dims_tied += 1
    summary = {
        "stepsTied": steps_tied,
        "stepsStrictlyFewerB": len(states) - steps_tied - len(min_time_violations),
        "dimsTied": dims_tied,
        "dimsStrictlyMoreB": len(states) - dims_tied - len(dim_violations),
    }
    return TheoremReport(
        horizon=horizon,
        kind=kind.value if hasattr(kind, "value") else str(kind),
        samples=int(states.shape[0]),
        seed=int(seed),
        checked=int(states.shape[0]),
        min_time_violations=min_time_violations,
        dim_violations=dim_violations,
        summary=summary,
        passed=not min_time_violations and not dim_violations,
    )


def simulate(sys, start, inputs):
    """Roll the dynamics from `start` under an input sequence.

    Returns the (N+1, n) trajectory. Inputs above the unit amplitude in
    magnitude trigger a RuntimeWarning but are applied as given. Reach
    solutions replay from the origin; recover solutions from their x0.
    """
    x = _check_state(sys, start)
    u = np.asarray(inputs, dtype=float)
    if u.ndim == 1:
        u = u.reshape(-1, sys.r) if sys.r == 1 else u.reshape(1, -1)
    if u.ndim != 2 or (u.size and u.shape[1] != sys.r):
        raise DimensionMismatch(f"inputs must be (N, {sys.r})")
    if u.size and float(np.abs(u).max()) > 1.0 + STRICT_TOL:
        warnings.warn(
            "input amplitude exceeds the unit bound", RuntimeWarning, stacklevel=2
        )
    steps = u.shape[0]
    traj = np.zeros((steps + 1, sys.n))
    traj[0] = x
    for k in range(steps):
        traj[k + 1] = sys.A @ traj[k] + sys.B @ u[k]
    return traj
