"""Open-loop control ability: minimum time, strategy freedom, comparison.

Minimum-time questions reduce to membership of the target state in the
stage regions: the smallest horizon whose region contains the state is the
answer, and the LP witness converts directly into an input sequence. The
leftover freedom at a fixed horizon is the affine dimension of the set of
admissible input sequences; comparing two systems reduces to containment
of their regions stage by stage.

Stage k is the Minkowski sum of the first k generator blocks, so its
support along any direction is a prefix sum of |d . g|. Every geometric
fact comes from one _Family per (system, kind, horizon): facet normals
built once per run of stages (zonotope.hform) and the cumulative supports
of every stage along them. The gauge max|D x|/C, read in growing chunks of
stages, decides membership and gives the margin 1 - gauge and a
separating row; containment compares cumulative supports on the outer
family's rows. The LP runs only for witness inputs and strategy freedom,
and for the gauge of stages whose normals are capped (n >= 4 past
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
from .region import RegionKind, stage_generators
from .zonotope import MAX_GENERATORS, TIE_TOL, Zonotope, hform
from .zonotope import _normals_capped, _rank, _span
# not called here; bench/tests looks it up as control.contains_point
from .zonotope import contains_point  # noqa: F401

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


@dataclass(frozen=True)
class _Family:
    """Stage-major generator rows (stage k is rows[:k*r]) with their H-forms.

    The stages form runs: consecutive stages with the same span dimension,
    ended early where a generator that is nonzero in one stage falls to
    rounding level in the next (_falls), so that each run's last stage
    keeps every generator of the run. dirs stacks each stage's complement
    rows (zonotope._span) and the unit facet normals of each run's last
    stage (zonotope.hform): every facet normal of an earlier stage of the
    run is a subset normal of the last stage's generators in the same
    span. supports[i, k-1] is stage k's cumulative support
    sum_{j < k r} |dirs[i] . g_j| along a normal of its run, 0 along its
    own complement rows and infinite where row i does not apply to stage
    k (such a row bounds nothing). capped is the first stage past the
    normal cap (span dimension 4 or more and more than MAX_GENERATORS
    nonzero generators), or None; only the stages before it have a column.
    """

    rows: np.ndarray
    r: int
    dirs: np.ndarray
    supports: np.ndarray
    capped: int | None


def _family(rows, r):
    """The _Family of stage-major rows with r generators per stage."""
    n = rows.shape[1]
    stages = len(rows) // r
    forms = {}

    def form(k):
        if k not in forms:
            try:
                forms[k] = hform(rows[: k * r])
            except TooManyGenerators:
                forms[k] = None
        return forms[k]

    falls, bound = (), math.inf
    if stages > 1:
        # rows at most TIE_TOL times the largest entry so far count as
        # zero (zonotope._span); falls holds the stages at which a row
        # nonzero in an earlier stage drops to that level
        peak = np.maximum.accumulate(np.abs(rows).max(axis=1))
        zero = TIE_TOL * np.maximum(1.0, peak)
        norms = np.linalg.norm(rows, axis=1)
        fall = np.searchsorted(zero[r - 1 :: r], norms) + 1
        falls = set(fall[fall > np.arange(len(rows)) // r + 1].tolist())
        # singular values only grow as rows are added, less what rounding
        # drops: once the smallest clears this bound, every later stage
        # spans R^n as well
        bound = 2 * (TIE_TOL * np.linalg.norm(norms) + math.sqrt(len(rows)) * zero[-1])
    complements, ends, capped, rank, full = [], [], None, None, False
    for k in range(1, stages + 1):
        was = rank
        if k == stages and form(k):
            # the last stage's span comes with its H-form, inside the cap
            complement, count = form(k).complement, 0
        elif full:
            count = np.count_nonzero(norms[: k * r] > zero[k * r - 1])
        else:
            live, sv, rank, vt = _span(rows[: k * r])
            complement, count = vt[rank:], len(live)
            full = rank == n and sv[-1] > bound
        rank = n - len(complement)
        if _normals_capped(count, rank):
            capped = k
            break
        if complements and (rank != was or k in falls):
            ends.append(k - 1)
        complements.append(complement)
    if complements:
        ends.append(len(complements))
    normals = [form(k).normals for k in ends]
    dirs = np.vstack(complements + normals) if complements else np.zeros((0, n))
    supports = np.full((len(dirs), len(complements)), np.inf)
    i = 0
    for k, c in enumerate(complements):
        supports[i : i + len(c), k] = 0.0
        i += len(c)
    for start, end, d in zip([0, *ends], ends, normals):
        sums = _cumulative_supports(d, rows[: end * r], r)
        supports[i : i + len(d), start:end] = sums[:, start:]
        i += len(d)
    return _Family(rows, r, dirs, supports, capped)


def _cumulative_supports(dirs, rows, r):
    """Support of each stage of rows (r per stage) along each row of dirs."""
    return np.cumsum(np.abs(dirs @ rows.T), axis=1)[:, r - 1 :: r]


def _gauges(fam, x, lo, hi):
    """Gauges of x in stages lo+1 .. hi of a family, and separating
    directions.

    x lies in stage k when its gauge is at most 1: within GAUGE_TOL *
    max(1, |x|) of the span (the complement rows), and |D x| within
    GAUGE_TOL * C plus the rounding bound of the products; the gauge is
    then capped at 1, since rounding on a thin facet can push the ratio
    past it. Otherwise the gauge exceeds 1 (infinite off the span) and
    d . x > sum |d . g| for the unit direction d; it is None for members.
    """
    c = fam.supports[:, lo:hi]
    dx = fam.dirs @ x
    ax = np.abs(dx)[:, np.newaxis]
    off = np.where(c == 0.0, ax, 0.0)
    leaves = off.max(axis=0) > GAUGE_TOL * max(1.0, float(np.abs(x).max()))
    m = fam.r * np.arange(lo + 1, lo + 1 + c.shape[1])
    rounding = m * EPS * ((np.abs(fam.dirs) @ np.abs(x))[:, np.newaxis] + c)
    span = c > 0.0
    slack = np.where(span, ax - c * (1.0 + GAUGE_TOL) - rounding, -np.inf)
    outside = slack.max(axis=0) > 0.0
    gauge = np.divide(ax, c, out=np.zeros_like(c), where=span).max(axis=0)
    gauge = np.where(leaves, np.inf, np.where(outside, gauge, np.minimum(gauge, 1.0)))
    j = np.where(leaves, off.argmax(axis=0), slack.argmax(axis=0))
    direction = np.sign(dx[j])[:, np.newaxis] * fam.dirs[j]
    decided = leaves | outside
    return zip(gauge.tolist(), [d if o else None for d, o in zip(direction, decided)])


def _stage_gauges(fam, x, start=1):
    """(gauge, direction) of x in every stage from `start` on, in order.

    The stages with normals are read in chunks of 8, 16, 32, ... columns,
    so a caller that stops at an early stage reads few of them. Stages
    from fam.capped on take the max-margin LP, whose separating direction
    may be None.
    """
    stages = len(fam.rows) // fam.r
    lo = start - 1
    while lo < fam.supports.shape[1]:
        yield from _gauges(fam, x, lo, 2 * lo + 8)
        lo = 2 * lo + 8
    for k in range(max(start, fam.capped or stages + 1), stages + 1):
        try:
            yield 1.0 - lp.max_margin(_box_lp(fam.rows[: k * fam.r], x)).margin, None
        except Infeasible as exc:
            yield math.inf, exc.certificate


def _stage_gauge(rows, x):
    """Gauge of x in the zonotope of rows and a separating direction."""
    return next(_stage_gauges(_family(rows, len(rows)), x))


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


def _strategy_dim(rows, x, gauge):
    """Affine dimension of {u in box : rows^T u = x}, given x's gauge.

    With a margin above tolerance the box is inactive, so the dimension
    is that of the full solution space. Otherwise coordinates whose LP
    range collapses are pinned and the rest contribute their null-space
    dimension.
    """
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

    One family serves every stage up to max_steps: the first stage whose
    gauge contains x0 is the answer, read from the cumulative supports in
    chunks of stages so that an early answer reads few of them (stages
    past the normal cap take one max-margin LP each); the stage below it
    supplies the separating certificate, and one LP there gives the
    witness inputs. Raises NotReachable past max_steps.
    """
    x = _check_state(sys, x0)
    rows = stage_generators(sys, max_steps, kind)
    return _min_time(_family(rows, sys.r), x, kind)


def _min_time(fam, x, kind):
    """min_time on a built family, whose last stage is the horizon."""
    r = fam.r
    horizon = len(fam.rows) // r
    if float(np.abs(x).max(initial=0.0)) <= 1e-12:
        steps, gauge, inputs, certificate = 0, 0.0, np.zeros((0, r)), None
    else:
        # the zero-step region is the origin; x itself separates
        certificate = x / float(np.linalg.norm(x))
        for steps, (gauge, direction) in enumerate(_stage_gauges(fam, x), 1):
            if gauge <= 1.0:
                break
            certificate = direction
        else:
            raise NotReachable(
                f"state not reachable within {horizon} steps",
                certificate=certificate,
                max_steps=horizon,
            )
        res = lp.feasible(_box_lp(fam.rows[: steps * r], x))
        if not res.feasible:
            raise InternalError(
                f"stage {steps} contains the state (gauge {gauge!r}) "
                "but the witness LP finds no inputs"
            )
        inputs = res.witness.reshape(steps, r)
        # reach: generator block i acts at time steps-1-i
        inputs = inputs[::-1].copy() if kind is RegionKind.REACH else -inputs
    final = gauge if steps == horizon else next(_stage_gauges(fam, x, horizon))[0]
    margin = 1.0 - gauge
    return ControlSolution(
        min_steps=steps,
        inputs=inputs,
        strategy_dim=_strategy_dim(fam.rows, x, final),
        horizon=horizon,
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
    return _strategy_dim(rows, x, _stage_gauge(rows, x)[0])


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


def _containment(inner, outer):
    """Stage-wise containment of two families on the outer family's rows.

    Z_inner lies in Z_outer exactly when h_inner <= h_outer along every
    row of the outer run that applies to the stage (h_outer = 0 on
    complement rows), within STRICT_TOL * max(1, h_outer); rows that do
    not apply have h_outer infinite. Returns (margin, violations): the margin
    is 1 - max h_inner/h_outer over all stages and normals, or None when
    an inner stage leaves the outer span; violations hold one entry per
    failing stage. Raises TooManyGenerators when an outer stage is past
    the normal cap.
    """
    if outer.capped:
        raise TooManyGenerators(
            f"stage {outer.capped} is past the normal cap {MAX_GENERATORS}"
        )
    h_out = outer.supports
    h_in = _cumulative_supports(outer.dirs, inner.rows, inner.r)
    ratio = np.divide(h_in, h_out, out=np.zeros_like(h_in), where=h_out > 0.0)
    worst = float(ratio.max(initial=0.0))
    scale = np.maximum(1.0, h_out)
    failing = h_in - h_out > STRICT_TOL * scale
    violations = []
    for k in np.flatnonzero(failing.any(axis=0)):
        cand = np.flatnonzero(failing[:, k])
        j = int(cand[np.argmax((h_in[cand, k] - h_out[cand, k]) / scale[cand, k])])
        d = outer.dirs[j]
        rows = inner.rows[: (k + 1) * inner.r]
        violations.append(
            {
                "stage": int(k) + 1,
                "direction": d.tolist(),
                "gap": float(h_in[j, k] - h_out[j, k]),
                "vertex": (np.where(rows @ d >= 0.0, 1.0, -1.0) @ rows).tolist(),
            }
        )
    off_span = (failing & (h_out == 0.0)).any()
    return (None if off_span else 1.0 - worst), violations


def _families(sys_a, sys_b, horizon, kind):
    """The _family of each of two same-dimension systems."""
    if sys_a.n != sys_b.n:
        raise DimensionMismatch(f"state dimensions differ: {sys_a.n} vs {sys_b.n}")
    return [_family(stage_generators(s, horizon, kind), s.r) for s in (sys_a, sys_b)]


def compare_ability(sys_a, sys_b, horizon, kind=RegionKind.REACH, seed=0):
    """Compare the stage regions of two same-dimension systems.

    Containment is exact at every horizon: both directions compare
    cumulative supports on the facet normals built once per system, no
    LP. Stages with n >= 4 and more than MAX_GENERATORS generators raise
    TooManyGenerators. The verdict names the stronger system; the
    certificate carries the witnesses behind it. seed is accepted and
    ignored (bench/workloads.py still passes it).
    """
    fam_a, fam_b = _families(sys_a, sys_b, horizon, kind)
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
        "a": {"name": sys_a.name, **Zonotope(fam_a.rows).shape_report().to_dict()},
        "b": {"name": sys_b.name, **Zonotope(fam_b.rows).shape_report().to_dict()},
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
    random convex combinations of them. Each system's family is built once
    and serves the minimum time of every state.
    """
    fam_a, fam_b = _families(sys_a, sys_b, horizon, kind)
    _, violations = _containment(fam_a, fam_b)
    if violations:
        v = violations[0]
        raise PreconditionNotMet(
            f"stage {v['stage']} of {sys_a.name} is not contained in "
            f"{sys_b.name}; vertex {v['vertex']} is outside by {v['gap']:.3e} "
            f"along {v['direction']}"
        )
    verts = Zonotope(fam_a.rows).vertices()
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
        sol_a = _min_time(fam_a, x0, kind)
        sol_b = _min_time(fam_b, x0, kind)
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
