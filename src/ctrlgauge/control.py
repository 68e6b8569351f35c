"""Open-loop control ability: minimum time, strategy freedom, comparison.

Minimum-time questions reduce to membership of the target state in the
stage regions: the smallest horizon whose region contains the state is the
answer. The leftover freedom at a fixed horizon is the affine dimension of
the set of admissible input sequences; comparing two systems reduces to
containment of their regions stage by stage.

Stage k is the Minkowski sum of the first k generator blocks, so its
support along any direction is a prefix sum of |d . g|. Every geometric
fact comes from one zonotope._Family per (system, kind, horizon): one
zonotope._spans call (each stage keeps the span it decides alone),
facet normals built once per run of stages of one span dimension, and
the cumulative supports of every stage along them. The gauge max|D x|/C
(zonotope._gauges, the rule contains_point answers by too), read in
growing chunks of stages, decides membership and gives the margin
1 - gauge and a separating row; containment compares cumulative
supports on the outer family's rows. compare_ability's metrics and
verify_theorem1's vertex states read the family's spans too, so each
system's stage rows pass the span rule once.

Witness inputs and strategy freedom come from a face descent on the same
normals (_descend). A face of a zonotope is a translate of the zonotope of
the generators tied to its normal (McMullen, "On zonotopes", 1971), so
the deciding normal of x pins every generator it does not tie, and the
walk repeats on the tied ones. Tie rule: |d . g| <= TIE_TOL |g| for a
unit normal d; parallel generators tie together and stay free between
themselves. Thin stages keep their normals (the span rule keeps every
direction above TIE_TOL), and a gauge within rounding of 1 is taken as 1,
so noise along a thin facet does not rescale the inputs; flat stages are
walked inside their span, and the witness is replayed against x itself,
off-span rounding included; the strategy dimension ranks by the span
rule. The LP runs only for stages whose normals are capped (n >= 4 past
MAX_GENERATORS generators): the gauge LP of n rows behind lp.max_margin
gives their gauge and the normal that supports (or, outside, separates)
the state, and the descent walks on from there.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _report, lp
from .errors import (
    BadRange,
    DimensionMismatch,
    Infeasible,
    NotMember,
    NotReachable,
    PreconditionNotMet,
)
from .region import RegionKind, stage_generators
from .zonotope import EPS, TIE_TOL
from .zonotope import _cumulative_supports, _family, _gauges, _shape_report, _spans
from .zonotope import _uncapped, _vertices, _volume
# not called here; bench/tests looks it up as control.contains_point
from .zonotope import contains_point  # noqa: F401

BOUNDARY_TOL = 1e-7
STRICT_TOL = 1e-9
DECISIVE_GAP = 1e-6
# Not read by the library, which decides every horizon exactly; kept, with
# compare_ability's seed keyword, because bench/workloads.py reads both.
EXACT_GENERATOR_CAP = 16
DEFAULT_MAX_STEPS = 50


def _box_lp(rows, x):
    m = rows.shape[0]
    return lp.BoxLp(G=rows.T, x0=x, lower=np.full(m, -1.0), upper=np.full(m, 1.0))


def _check_state(sys, x0):
    x = np.asarray(x0, dtype=float).ravel()
    if x.size != sys.n:
        raise DimensionMismatch(f"state must have length {sys.n}, got {x.size}")
    if not np.isfinite(x).all():
        raise DimensionMismatch("state contains non-finite entries")
    return x


def _stage_gauges(fam, x, start=1):
    """(gauge, direction) of x in every stage from `start` on, in order.

    The stages with normals are read in chunks of 8, 16, 32, ... columns,
    so a caller that stops at an early stage reads few of them. Stages
    from fam.capped on take lp.max_margin's gauge LP, which decides
    membership by the rule _gauges uses: outside, the gauge is infinite
    and the direction is the LP's separating one; inside, the gauge is
    1 - margin, at most 1, so a rounding-level negative margin does not
    put a boundary state outside.
    """
    stages = len(fam.rows) // fam.r
    lo = start - 1
    while lo < fam.supports.shape[1]:
        yield from _gauges(fam, x, lo, 2 * lo + 8)
        lo = 2 * lo + 8
    for k in range(max(start, fam.capped or stages + 1), stages + 1):
        try:
            margin = lp.max_margin(_box_lp(fam.rows[: k * fam.r], x)).margin
            yield min(1.0 - margin, 1.0), None
        except Infeasible as exc:
            yield math.inf, exc.certificate


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

    to_dict = _report.to_dict


def _descend(fam, k, x):
    """Face descent in stage k of a family: (witness inputs, free mask).

    With t the gauge of y (first x) over the active generators and d its
    deciding normal, the untied generators are pinned at t sign(d . g) and
    the walk repeats on the tied ones, projected off d, with y/t minus the
    pinned sum; an independent tied set ends it with one linear solve. A
    normal that ties every active generator (a rounding-level direction
    of the span) is skipped. Every level reads its normals from one
    source: a family's stage column, stage k of fam at the first level and
    the one stage of _family(tied rows) deeper down, or, where that family
    is capped (stage k from fam.capped on, or a tied set past
    MAX_GENERATORS), one normal: lp.max_margin's direction, the duals of
    its gauge LP's n rows, which supports y's face. A gauge within the
    rounding bound of 1 counts as 1, so noise along a thin facet does not
    rescale the inputs. Generators that are not live (zonotope._spans)
    get input 0 and stay free; the free mask adds the active generators
    of the first level whose gauge is more than BOUNDARY_TOL below 1. The
    witness is replayed like an LP witness (lp._verify_witness), or
    InternalError.
    """
    rows = fam.rows[: k * fam.r]
    m, n = rows.shape
    norms = np.linalg.norm(rows, axis=1)
    tiny = ~fam.live[: k * fam.r]
    level, stage = fam, k
    u, y, scale, free = np.zeros(m), x, 1.0, None
    active = np.flatnonzero(~tiny)
    flat = rows[active]
    while active.size > 1 and not (
        active.size <= n and _spans(flat)[2][-1] == active.size
    ):
        if level is None:
            level, stage = _family(flat, len(flat)), 1
        if stage <= level.supports.shape[1]:
            c = level.supports[:, stage - 1]
            use = (c > 0.0) & (c < math.inf)
            dirs, sup = level.dirs[use], c[use]
        else:
            d = lp.max_margin(_box_lp(flat, y)).direction
            dirs, sup = d[np.newaxis], np.abs(flat @ d).sum(keepdims=True)
        dy = dirs @ y
        facet = (np.abs(dirs @ flat.T) > TIE_TOL * norms[active]).any(axis=1)
        if not facet.any():
            break
        i = int(np.argmax(np.where(facet, np.abs(dy) / sup, -1.0)))
        t = abs(float(dy[i])) / sup[i]
        if abs(abs(dy[i]) - sup[i]) <= m * EPS * (np.abs(dirs[i]) @ np.abs(y) + sup[i]):
            t = 1.0
        if free is None and 1.0 - t > BOUNDARY_TOL:
            free = tiny.copy()
            free[active] = True
        if t == 0.0:
            break
        d = math.copysign(1.0, dy[i]) * dirs[i]
        proj = flat @ d
        tied = np.abs(proj) <= TIE_TOL * norms[active]
        signs = np.sign(proj[~tied])
        u[active[~tied]] = scale * t * signs
        y = y / t - signs @ rows[active[~tied]]
        scale *= t
        active, flat, level = active[tied], flat[tied] - np.outer(proj[tied], d), None
    u[active] = scale * np.linalg.lstsq(rows[active].T, y, rcond=None)[0]
    # a faint generator can take rounding noise for its input: bring it
    # back into the box where that moves the state by a rounding amount
    excess = np.abs(u) - 1.0
    back = (excess > 0.0) & (excess * norms <= lp.RESIDUAL_TOL / m)
    u[back] = np.sign(u[back])
    lp._verify_witness(rows.T, x, -1.0, 1.0, u, "face descent")
    return u, tiny if free is None else free


def _strategy_dim(fam, x, gauge, walk=None):
    """Affine dimension of {u in box : rows^T u = x} at the last stage of a
    family, given x's gauge there: the free coordinates less the rank of
    their generators.

    With a margin above BOUNDARY_TOL the box is inactive and every
    coordinate is free. Otherwise the face descent (or walk, its result
    for this stage and state) marks them, past the normal cap too.
    """
    if gauge > 1.0:
        raise NotMember("state is outside the region at this horizon")
    rows = fam.rows
    if 1.0 - gauge > BOUNDARY_TOL:
        return len(rows) - int(fam.dims[-1])
    free = (walk or _descend(fam, len(rows) // fam.r, x))[1]
    # rows that are not live (input 0 in the descent) add no rank
    return int(free.sum()) - int(_spans(rows[free & fam.live])[2][-1])


def min_time(sys, x0, kind=RegionKind.REACH, max_steps=DEFAULT_MAX_STEPS):
    """Fewest steps to reach x0 from the origin (or recover, by kind).

    One family serves every stage up to max_steps: the first stage whose
    gauge contains x0 is the answer, read from the cumulative supports in
    chunks of stages so that an early answer reads few of them (stages
    past the normal cap take one max-margin LP each); the stage below it
    supplies the separating certificate, and the face descent from that
    stage's deciding normal gives the witness inputs, with no LP below
    the normal cap (past it, one more max-margin LP for the normal).
    Raises NotReachable past max_steps.
    """
    x = _check_state(sys, x0)
    rows = stage_generators(sys, max_steps, kind)
    return _min_time(_family(rows, sys.r), x, kind)


def _min_time(fam, x, kind):
    """min_time on a built family, whose last stage is the horizon."""
    r = fam.r
    horizon = len(fam.rows) // r
    walk = None
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
        walk = _descend(fam, steps, x)
        inputs = walk[0].reshape(steps, r)
        # reach: generator block i acts at time steps-1-i
        inputs = inputs[::-1].copy() if kind is RegionKind.REACH else -inputs
    margin = 1.0 - gauge
    if steps < horizon and margin <= BOUNDARY_TOL:
        # the strategy dimension is taken at the horizon; stages are nested,
        # so an interior state of stage steps is interior there too
        gauge, walk = next(_stage_gauges(fam, x, horizon))[0], None
    return ControlSolution(
        min_steps=steps,
        inputs=inputs,
        strategy_dim=_strategy_dim(fam, x, gauge, walk),
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
    fam = _family(rows, len(rows))
    return _strategy_dim(fam, x, next(_stage_gauges(fam, x))[0])


@dataclass(frozen=True)
class AbilityVerdict:
    """Outcome of a two-system region comparison at one horizon.

    relation is Equal, StrictlyStronger, NotWeaker, or Incomparable;
    stronger names the dominating system for the one-sided relations.
    Containment is decided exactly on facet normals at every horizon. The
    certificate lists, per failing stage, the deciding direction, its
    support gap and the inner vertex it exposes.
    """

    relation: str
    stronger: str | None
    at_horizon: int
    certificate: dict | None
    metrics: dict

    to_dict = _report.to_dict


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
    h_out = _uncapped(outer).supports
    h_in = _cumulative_supports(outer.dirs, inner.rows, inner.r)
    ratio = np.divide(h_in, h_out, out=np.zeros_like(h_in), where=h_out > 0.0)
    worst = float(ratio.max(initial=0.0))
    scale = np.maximum(1.0, h_out)
    gap = h_in - h_out
    failing = gap > STRICT_TOL * scale
    if not failing.any():
        return 1.0 - worst, []
    # each failing stage's deciding row: its largest gap relative to scale
    rel = np.divide(gap, scale, out=np.full_like(gap, -np.inf), where=failing)
    violations = []
    stages = zip(failing.any(axis=0).tolist(), rel.argmax(axis=0).tolist())
    for k, (fails, j) in enumerate(stages):
        if not fails:
            continue
        d = outer.dirs[j]
        rows = inner.rows[: (k + 1) * inner.r]
        violations.append(
            {
                "stage": k + 1,
                "direction": d.tolist(),
                "gap": float(gap[j, k]),
                "vertex": (np.where(rows @ d >= 0.0, 1.0, -1.0) @ rows).tolist(),
            }
        )
    off_span = (failing & (h_out == 0.0)).any()
    return (None if off_span else 1.0 - worst), violations


def _metrics(fam):
    """Zonotope(fam.rows).shape_report().to_dict(), from the family's spans."""
    rank = int(fam.dims[-1])
    return _shape_report(fam.rows, rank, _volume(fam.rows, rank)).to_dict()


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
    certificate carries the witnesses behind it. The metrics are each
    system's Zonotope(rows).shape_report(), read from its family's rank
    with no second span pass. seed is accepted and ignored
    (bench/workloads.py still passes it).
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
        key: {"name": sys_.name, **_metrics(fam)}
        for key, sys_, fam in (("a", sys_a, fam_a), ("b", sys_b, fam_b))
    }
    return AbilityVerdict(
        relation=relation,
        stronger=stronger,
        at_horizon=horizon,
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

    to_dict = _report.to_dict


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
    random convex combinations of them; the vertices read the family's
    spans. Each system's family is built once and serves the minimum time
    of every state. samples must be a positive integer (BadRange).
    """
    if not isinstance(samples, (int, np.integer)) or samples < 1:
        raise BadRange(f"samples must be a positive integer, got {samples!r}")
    fam_a, fam_b = _families(sys_a, sys_b, horizon, kind)
    _, violations = _containment(fam_a, fam_b)
    if violations:
        v = violations[0]
        raise PreconditionNotMet(
            f"stage {v['stage']} of {sys_a.name} is not contained in "
            f"{sys_b.name}; vertex {v['vertex']} is outside by {v['gap']:.3e} "
            f"along {v['direction']}"
        )
    verts = _vertices(fam_a.rows, (fam_a.live, fam_a.dirs[: sys_a.n], fam_a.dims))
    if verts.shape[0] >= samples:
        states = verts[:samples]
    else:
        rng = np.random.default_rng(seed)
        extra = samples - verts.shape[0]
        weights = rng.dirichlet(np.ones(verts.shape[0]), size=extra)
        states = np.vstack([verts, weights @ verts])
    answers = [(x0, _min_time(fam_a, x0, kind), _min_time(fam_b, x0, kind)) for x0 in states]
    min_time_violations = [
        {
            "x0": x0.tolist(),
            "minStepsA": a.min_steps,
            "minStepsB": b.min_steps,
        }
        for x0, a, b in answers
        if b.min_steps > a.min_steps
    ]
    dim_violations = [
        {
            "x0": x0.tolist(),
            "dimA": a.strategy_dim,
            "dimB": b.strategy_dim,
        }
        for x0, a, b in answers
        if a.strategy_dim > b.strategy_dim
    ]
    summary = {
        "stepsTied": sum(b.min_steps == a.min_steps for _, a, b in answers),
        "stepsStrictlyFewerB": sum(b.min_steps < a.min_steps for _, a, b in answers),
        "dimsTied": sum(b.strategy_dim == a.strategy_dim for _, a, b in answers),
        "dimsStrictlyMoreB": sum(b.strategy_dim > a.strategy_dim for _, a, b in answers),
    }
    return TheoremReport(
        horizon=horizon,
        kind=kind.value,
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
