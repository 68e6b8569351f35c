"""Brute-force oracle for box-constrained linear feasibility.

Enumerates every vertex of the polytope

    P = { u in R^m : G u = x0, lower <= u <= upper }

by the standard basis argument: at a vertex, the coordinates strictly
inside their bounds index linearly independent columns of G.  We sweep
all column subsets of size <= n (G's rows), pin the remaining
coordinates to every corner of the box, and solve for the free block.
Any candidate that satisfies the equality system and the bounds is a
vertex; every vertex appears this way.  Exponential in m, fine for m <= 10.

Feasibility and sameness are judged at the rounding of the data, not at
a fixed constant.  A candidate u is feasible when its residual is within
c m n eps (|G| |u| + |x0|) (Frobenius and 2-norms), the backward error a
least-squares solve of the free block leaves for a modest constant c
(Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
Thm. 20.3); c is BACKWARD.  A free block counts as independent when its
smallest singular value is above c m n eps |G|.  Its solution is then
known to within the residual bound over that singular value, and two
candidates closer than the sum of their bounds are one vertex.
affine_dim drops the generators the package calls rounding-level (norm
at most LIVE_TOL times the largest before it, or LIVE_TOL): their inputs
stay free, and their norms widen the residual bound.

This module deliberately shares no code with the package's LP solver.
"""

import itertools

import numpy as np

BOUND_SLACK = 1e-9
RANK_TOL = 1e-9
LIVE_TOL = 1e-12
# c in the c m n eps backward error bound of a least-squares solve
BACKWARD = 16
EPS = float(np.finfo(float).eps)


def live_generators(norms):
    """Generators above rounding level, by their norms in stage order: a
    norm counts when above LIVE_TOL times the largest so far (or 1)."""
    return norms > LIVE_TOL * np.maximum(1.0, np.maximum.accumulate(norms))


def _rank(M):
    if M.size == 0:
        return 0
    s = np.linalg.svd(M, compute_uv=False)
    return int(np.sum(s > RANK_TOL * max(1.0, s[0])))


def _dedup(points, errs):
    out = []
    for p, e in zip(points, errs):
        if not any(np.max(np.abs(p - q)) <= e + f for q, f in out):
            out.append((p, e))
    return [p for p, _ in out]


def polytope_vertices(G, x0, lower=None, upper=None, spill=0.0):
    """All vertices of {u : G u = x0, lower <= u <= upper}.

    Returns an (nv, m) array; nv == 0 means the polytope is empty. spill
    widens every residual bound (affine_dim's dropped generators).
    """
    G = np.atleast_2d(np.asarray(G, dtype=float))
    n, m = G.shape
    x0 = np.asarray(x0, dtype=float).reshape(n)
    lower = -np.ones(m) if lower is None else np.asarray(lower, dtype=float)
    upper = np.ones(m) if upper is None else np.asarray(upper, dtype=float)

    unit = BACKWARD * m * n * EPS
    g_norm = float(np.linalg.norm(G))
    x_norm = float(np.linalg.norm(x0))
    found, errs = [], []
    for k in range(min(m, n) + 1):
        for free in itertools.combinations(range(m), k):
            free = list(free)
            fixed = [j for j in range(m) if j not in free]
            G_free = G[:, free]
            s_min = np.linalg.svd(G_free, compute_uv=False)[-1] if k else np.inf
            if k and s_min <= unit * g_norm:
                continue
            nf = len(fixed)
            bits = np.arange(1 << nf)
            pick = ((bits[:, None] >> np.arange(nf)) & 1).astype(float)
            vals = lower[fixed] * (1.0 - pick) + upper[fixed] * pick
            rhs = x0[:, None] - G[:, fixed] @ vals.T
            if k:
                sol = np.linalg.lstsq(G_free, rhs, rcond=None)[0]
                resid = G_free @ sol - rhs
            else:
                sol = np.zeros((0, len(bits)))
                resid = -rhs
            u_norm = np.sqrt((vals * vals).sum(axis=1) + (sol * sol).sum(axis=0))
            bound = unit * (g_norm * u_norm + x_norm) + spill
            ok = np.linalg.norm(resid, axis=0) <= bound
            if k:
                in_box = np.all(
                    (sol >= lower[free][:, None] - BOUND_SLACK)
                    & (sol <= upper[free][:, None] + BOUND_SLACK),
                    axis=0,
                )
                ok &= in_box
            for idx in np.nonzero(ok)[0]:
                u = np.empty(m)
                u[fixed] = vals[idx]
                u[free] = sol[:, idx]
                found.append(u)
                errs.append(bound[idx] / s_min if k else 0.0)
    found = _dedup(found, errs)
    if not found:
        return np.zeros((0, m))
    arr = np.array(found)
    order = np.lexsort(arr.T[::-1])
    return arr[order]


def affine_dim(G, x0, lower=None, upper=None):
    """Affine-hull dimension of the feasible set; None if empty.

    Rounding-level generators are dropped first, as the package drops
    them: their inputs are free, whatever x0 asks of them.
    """
    G = np.atleast_2d(np.asarray(G, dtype=float))
    norms = np.linalg.norm(G, axis=0)
    live = live_generators(norms)
    spill = float(norms[~live].sum())
    verts = polytope_vertices(np.where(live, G, 0.0), x0, lower, upper, spill)
    if verts.shape[0] == 0:
        return None
    if verts.shape[0] == 1:
        return 0
    centered = verts - verts[0]
    return _rank(centered)
