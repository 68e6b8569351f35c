"""Self-contained dense linear programming over box-constrained variables.

Problems have the form

    optimize c . u   subject to   G u = x0,   lower <= u <= upper

with all bounds finite. The solver is a bounded-variable primal simplex:
phase 1 minimizes the l1 norm of the equality residuals through signed
artificial variables, phase 2 optimizes the caller's objective. Bland's
rule fixes the pivot order (lowest eligible index enters; lowest variable
index leaves among ratio ties, which are steps that move no basic
variable more than PIVOT_TOL past its bound), so runs are deterministic.
Finite boxes rule out unbounded rays; meeting one raises InternalError.

The library itself calls max_margin only, on stages past the facet-normal
cap: for the gauge, and for the normal its face descent starts from. Its
LP has n rows and m + 1 columns; an outside state gets the LP's dual
direction as certificate. feasible and optimize stay public.

Witnesses are always re-verified after the fact: equality residual within
RESIDUAL_TOL, bounds within BOUND_TOL. Per-iteration state can be dumped
by setting the ctrlgauge.lp logger (CTRLGAUGE_LOG=DEBUG) to debug level.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    Infeasible,
    InternalError,
    IterationLimit,
)
from .zonotope import EPS, GAUGE_TOL  # GAUGE_TOL: the membership slack of _gauges

logger = logging.getLogger("ctrlgauge.lp")

PIVOT_TOL = 1e-10
BOUND_TOL = 1e-9
RESIDUAL_TOL = 1e-7
ITERATION_LIMIT = 50000

_AT_LOWER, _AT_UPPER, _BASIC = 0, 1, 2


@dataclass(frozen=True)
class BoxLp:
    """Equality-constrained LP data over a box. objective may be None."""

    G: np.ndarray
    x0: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    objective: np.ndarray | None = None

    def __post_init__(self):
        G = np.atleast_2d(np.asarray(self.G, dtype=float))
        x0 = np.asarray(self.x0, dtype=float).ravel()
        lower = np.asarray(self.lower, dtype=float).ravel()
        upper = np.asarray(self.upper, dtype=float).ravel()
        n, m = G.shape
        if x0.size != n:
            raise DimensionMismatch(f"x0 must have length {n}, got {x0.size}")
        if lower.size != m or upper.size != m:
            raise DimensionMismatch(f"bounds must have length {m}")
        if not (
            np.isfinite(G).all()
            and np.isfinite(x0).all()
            and np.isfinite(lower).all()
            and np.isfinite(upper).all()
        ):
            raise ValueError("LP data must be finite")
        if np.any(lower > upper):
            raise ValueError("lower bounds exceed upper bounds")
        obj = self.objective
        if obj is not None:
            obj = np.asarray(obj, dtype=float).ravel()
            if obj.size != m:
                raise DimensionMismatch(f"objective must have length {m}")
            if not np.isfinite(obj).all():
                raise ValueError("objective must be finite")
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "objective", obj)


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    witness: np.ndarray | None
    certificate: np.ndarray | None
    residual: float


@dataclass(frozen=True)
class MarginResult:
    margin: float
    witness: np.ndarray
    direction: np.ndarray


@dataclass(frozen=True)
class OptimizeResult:
    value: float
    witness: np.ndarray


class _Simplex:
    """One bounded-variable simplex instance: A x = b, l <= x <= u."""

    def __init__(self, A, b, lower, upper):
        self.A = A
        self.b = b
        self.lower = lower.copy()
        self.upper = upper.copy()
        self.nrows, self.ncols = A.shape
        self.iterations = 0

    def _setup_phase1(self):
        ncols = self.ncols
        x = self.lower.copy()
        resid = self.b - self.A @ x
        sign = np.where(resid >= 0.0, 1.0, -1.0)
        art = np.zeros((self.nrows, self.nrows))
        art[np.arange(self.nrows), np.arange(self.nrows)] = sign
        self.A = np.hstack([self.A, art])
        self.lower = np.concatenate([self.lower, np.zeros(self.nrows)])
        self.upper = np.concatenate([self.upper, np.abs(resid) + 1.0])
        self.x = np.concatenate([x, np.abs(resid)])
        self.status = np.full(ncols + self.nrows, _AT_LOWER, dtype=np.int8)
        self.status[ncols:] = _BASIC
        self.basis = np.arange(ncols, ncols + self.nrows)

    def _solve_b(self, rhs, transpose=False):
        """Solve with the basis matrix (or its transpose); a singular basis
        raises InternalError."""
        basis = self.A[:, self.basis]
        try:
            return np.linalg.solve(basis.T if transpose else basis, rhs)
        except np.linalg.LinAlgError as exc:
            raise InternalError(f"basis matrix became singular: {exc}") from exc

    def _iterate(self, c):
        """Run simplex to optimality for objective c (minimization)."""
        debug = logger.isEnabledFor(logging.DEBUG)
        while True:
            self.iterations += 1
            if self.iterations > ITERATION_LIMIT:
                raise IterationLimit(
                    f"simplex exceeded {ITERATION_LIMIT} iterations"
                )
            y = self._solve_b(c[self.basis], transpose=True)
            reduced = c - self.A.T @ y
            at_lower = (self.status == _AT_LOWER) & (reduced < -PIVOT_TOL)
            at_upper = (self.status == _AT_UPPER) & (reduced > PIVOT_TOL)
            eligible = np.flatnonzero(at_lower | at_upper)
            if eligible.size == 0:
                self.duals = y
                self.reduced = reduced
                return
            enter = int(eligible[0])
            delta = 1.0 if self.status[enter] == _AT_LOWER else -1.0
            w = self._solve_b(self.A[:, enter])
            if debug:
                logger.debug(
                    "iter=%d enter=%d delta=%+.0f obj=%.12g basis=%s",
                    self.iterations,
                    enter,
                    delta,
                    float(c @ self.x),
                    self.basis.tolist(),
                )
            rate = -delta * w
            # ratio test: t_max is the longest step that moves no basic
            # variable more than PIVOT_TOL past its bound; among the
            # variables whose own ratio fits in it the smallest index
            # leaves, with the entering variable itself standing for a
            # bound flip, and the step is the leaver's own ratio, so it
            # lands on its bound and the iterate keeps A x = b
            pos = np.flatnonzero(np.abs(rate) > PIVOT_TOL)
            var = self.basis[pos]
            speed = np.abs(rate[pos])
            up = rate[pos] > 0.0
            room = np.where(
                up, self.upper[var] - self.x[var], self.x[var] - self.lower[var]
            )
            ratio = np.maximum(room, 0.0) / speed
            span = self.upper[enter] - self.lower[enter]
            t_max = min(span, float(np.min((room + PIVOT_TOL) / speed, initial=np.inf)))
            if not np.isfinite(t_max):
                raise InternalError("unbounded ray met despite finite boxes")
            t_max = max(t_max, 0.0)
            fits = np.flatnonzero(ratio <= t_max)
            j = fits[np.argmin(var[fits])] if fits.size else -1
            flip = j < 0 or (span <= t_max and enter < var[j])
            t_step = span if flip else float(ratio[j])
            if flip:
                # bound flip: the entering variable crosses its own box
                self.x[self.basis] += t_step * rate
                self.x[enter] = (
                    self.upper[enter] if delta > 0 else self.lower[enter]
                )
                self.status[enter] = _AT_UPPER if delta > 0 else _AT_LOWER
                continue
            leave_pos, hit_upper = int(pos[j]), bool(up[j])
            leave = int(self.basis[leave_pos])
            self.x[self.basis] += t_step * rate
            self.x[enter] = self.x[enter] + delta * t_step
            self.x[leave] = self.upper[leave] if hit_upper else self.lower[leave]
            self.status[enter] = _BASIC
            self.status[leave] = _AT_UPPER if hit_upper else _AT_LOWER
            self.basis[leave_pos] = enter

    def _polish(self):
        """Recompute basic values from the nonbasic ones to cut drift."""
        nonbasic = self.status != _BASIC
        rhs = self.b - self.A[:, nonbasic] @ self.x[nonbasic]
        self.x[self.basis] = self._solve_b(rhs)

    def solve(self, c_real):
        """Phase 1, then phase 2 with c_real (zeros mean feasibility only).

        Returns (feasible, x_real, phase1_objective, duals_at_phase1_end).
        """
        ncols = self.ncols
        self._setup_phase1()
        c1 = np.zeros(ncols + self.nrows)
        c1[ncols:] = 1.0
        self._iterate(c1)
        phase1 = float(self.x[ncols:].sum())
        y1 = self.duals.copy()
        scale = max(1.0, float(np.abs(self.b).max()))
        if phase1 > BOUND_TOL * scale:
            return False, None, phase1, y1
        # freeze artificials at zero and optimize the real objective
        self.upper[ncols:] = 0.0
        self.x[ncols:] = np.minimum(self.x[ncols:], 0.0)
        if np.any(c_real):
            c2 = np.concatenate([c_real, np.zeros(self.nrows)])
            self._iterate(c2)
        self._polish()
        return True, self.x[:ncols].copy(), phase1, y1


def _verify_witness(G, x0, lower, upper, u, context):
    # the published witness contract: equality residual and bound slip
    # both within RESIDUAL_TOL; ill-conditioned bases can drift past the
    # much tighter pivoting tolerance without being wrong answers
    resid = float(np.abs(G @ u - x0).max()) if u.size else 0.0
    low_viol = float((lower - u).max(initial=0.0))
    up_viol = float((u - upper).max(initial=0.0))
    if resid > RESIDUAL_TOL or low_viol > RESIDUAL_TOL or up_viol > RESIDUAL_TOL:
        raise InternalError(
            f"{context}: witness failed verification "
            f"(residual={resid:.3e}, bound violation={max(low_viol, up_viol):.3e})"
        )
    return resid


def _farkas_certificate(lp, y):
    """Extract a separating direction from phase-1 duals, if it validates.

    A valid certificate d satisfies d . x0 > max over the box of d . G u.
    """
    best = None
    best_gap = 0.0
    for d in (y, -y):
        nd = float(np.linalg.norm(d))
        if nd <= 0.0 or not np.isfinite(nd):
            continue
        d = d / nd
        coeff = lp.G.T @ d
        boxmax = float(
            np.sum(np.where(coeff > 0.0, coeff * lp.upper, coeff * lp.lower))
        )
        gap = float(d @ lp.x0) - boxmax
        if gap > best_gap:
            best_gap = gap
            best = d
    return best


def feasible(lp):
    """Decide G u = x0 over the box; witness or Farkas-style certificate."""
    solver = _Simplex(
        lp.G.copy(), lp.x0.copy(), lp.lower.copy(), lp.upper.copy()
    )
    ok, u, phase1, y = solver.solve(np.zeros(lp.G.shape[1]))
    if not ok:
        return FeasibilityResult(
            feasible=False,
            witness=None,
            certificate=_farkas_certificate(lp, y),
            residual=phase1,
        )
    resid = _verify_witness(lp.G, lp.x0, lp.lower, lp.upper, u, "feasible")
    return FeasibilityResult(
        feasible=True, witness=u, certificate=None, residual=resid
    )


def optimize(lp, sense="min"):
    """Optimize lp.objective over the feasible box slice.

    Optimality is certified by the reduced-cost signs at 1e-9; a failed
    certification raises InternalError. Raises Infeasible when the
    equality system has no point in the box.
    """
    if lp.objective is None:
        raise ValueError("optimize requires an objective")
    if sense not in ("min", "max"):
        raise ValueError(f"sense must be 'min' or 'max', got {sense!r}")
    c = lp.objective if sense == "min" else -lp.objective
    solver = _Simplex(
        lp.G.copy(), lp.x0.copy(), lp.lower.copy(), lp.upper.copy()
    )
    ok, u, phase1, y = solver.solve(c.copy())
    if not ok:
        raise Infeasible(
            f"no feasible point (phase-1 residual {phase1:.3e})",
            certificate=_farkas_certificate(lp, y),
        )
    _verify_witness(lp.G, lp.x0, lp.lower, lp.upper, u, "optimize")
    ncols = lp.G.shape[1]
    red = solver.reduced[:ncols]
    stat = solver.status[:ncols]
    bad = np.any(((stat == _AT_LOWER) & (red < -BOUND_TOL))) or np.any(
        (stat == _AT_UPPER) & (red > BOUND_TOL)
    )
    if bad:
        raise InternalError("optimality certification by reduced costs failed")
    value = float(lp.objective @ u)
    return OptimizeResult(value=value, witness=u)


def max_margin(lp):
    """Largest uniform shrink s of the box keeping G u = x0 solvable.

    The box must have one width: lower = c - h and upper = c + h for one
    half-width h > 0 (ValueError otherwise). With y = x0 - G c and the
    gauge of y in the zonotope of G's columns, the margin is
    min(s_cap, h - gauge) for s_cap = min(1, h); a margin of zero, within
    rounding, means x0 sits on the boundary of the reachable set. The gauge
    comes from one LP of n rows and m + 1 columns,

        maximize t   subject to   G v - t y = 0,   |v| <= 1,   0 <= t <= T,

    as 1/t, and the witness is c + v/t. T = 1/max(h - s_cap, EPS h), so
    y = 0 stops at the margin cap. v = 0, t = 0 is feasible, so phase 1
    fails only by rounding (InternalError).

    direction is a unit vector d with d . y >= 0, from the duals of the n
    rows. It supports the gauge's multiple of the zonotope at y:
    d . y = gauge sum_j |d . g_j| over the columns g_j of G, so at a
    margin below s_cap it is the normal of a face through x0. x0 is
    outside the box image when d separates it by more than rounding, the
    rule zonotope._gauges reads stage gauges by: d . y > C (1 + GAUGE_TOL)
    + (m + 1) EPS (|d| . |y| + C) with C = h sum_j |d . g_j|. Then
    Infeasible is raised with d as its certificate.
    """
    n, m = lp.G.shape
    span = lp.upper - lp.lower
    width = float(span.max(initial=0.0))
    if width <= 0.0 or float(span.min()) < width * (1.0 - 4.0 * EPS):
        raise ValueError("max_margin needs a box of one positive width")
    h = 0.5 * width
    s_cap = min(1.0, h)
    centre = 0.5 * (lp.lower + lp.upper)
    y = lp.x0 - lp.G @ centre
    A = np.hstack([lp.G, -y[:, np.newaxis]])
    lower = np.append(np.full(m, -1.0), 0.0)
    upper = np.append(np.ones(m), 1.0 / max(h - s_cap, EPS * h))
    solver = _Simplex(A, np.zeros(n), lower, upper)
    ok, z, phase1, _ = solver.solve(np.append(np.zeros(m), -1.0))
    if not ok:
        raise InternalError(f"gauge LP: phase 1 left a residual of {phase1:.3e}")
    norm = float(np.linalg.norm(solver.duals))
    d = solver.duals / norm if norm > 0.0 else np.eye(n)[0]
    d = d if d @ y >= 0.0 else -d
    support = h * float(np.abs(d @ lp.G).sum())
    rounding = (m + 1) * EPS * (float(np.abs(d) @ np.abs(y)) + support)
    gap = float(d @ y) - support
    if gap > GAUGE_TOL * support + rounding:
        raise Infeasible(f"state is outside the region by {gap:.3e}", certificate=d)
    t = float(z[m])
    if t <= 0.0:
        raise InternalError("gauge LP: infinite gauge on a state the rule keeps")
    u = centre + z[:m] / t
    _verify_witness(lp.G, lp.x0, lp.lower, lp.upper, u, "max_margin")
    return MarginResult(margin=min(s_cap, h - 1.0 / t), witness=u, direction=d)
