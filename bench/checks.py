"""Independent checks of ctrlgauge's answers.

Every check recomputes what it needs by other means than the program: stage
generators from numpy matrix powers, supports as sums |d . g|, volumes and
areas from scipy's Qhull, linear programs from scipy's HiGHS, and region
containment from support functions on facet normals. Each check returns a
list of error strings; an empty list means the answer is correct.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, QhullError

from bench.systems import stage_rows

RANK_TOL = 1e-9
VOLUME_RTOL = 1e-9
SUPPORT_RTOL = 1e-9
REPLAY_TOL = 1e-6
INPUT_TOL = 1e-7
MARGIN_TOL = 1e-6
# a coordinate whose HiGHS range is wider than this is free
RANGE_TOL = 1e-6
# a containment violation below this (relative) counts as touching
CONTAIN_RTOL = 1e-9
# gaps above this make a one-sided containment strict beyond doubt
STRICT_GAP = 1e-4


# --- generators and supports ----------------------------------------------------


def rank(rows):
    s = np.linalg.svd(np.atleast_2d(rows), compute_uv=False)
    return int(np.sum(s > RANK_TOL * max(1.0, float(s[0])))) if s.size else 0


def support(rows, dirs):
    return np.abs(dirs @ rows.T).sum(axis=1)


def directions(n, count=256, seed=7):
    d = np.random.default_rng(seed).standard_normal((count, n))
    return d / np.linalg.norm(d, axis=1)[:, np.newaxis]


def _rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


# --- geometry ------------------------------------------------------------------


def _span_basis(rows):
    _, _, vt = np.linalg.svd(rows, full_matrices=False)
    return vt[: rank(rows)]


def _hull_measure(points):
    """Length, area or volume of the hull of points in their own dimension."""
    q = points.shape[1]
    if q == 1:
        return float(points.max() - points.min())
    return float(ConvexHull(points).volume)


def _subset_volume(rows):
    """2^q * sum over q-subsets of |det|, the zonotope volume formula."""
    m, q = rows.shape
    total = 0.0
    for subset in itertools.combinations(range(m), q):
        total += abs(float(np.linalg.det(rows[list(subset)])))
    return 2.0**q * total


def stage_errors(rows, vertices, volume, tag):
    """Vertices span the zonotope of `rows` and `volume` is its volume.

    The hull of the vertices must have support sum |d . g| on random
    directions. A full-rank stage's Qhull volume must match `volume`; a flat
    stage must report 0, and its vertices must fill its span with the
    measure the determinant formula gives there.
    """
    errs = []
    n = rows.shape[1]
    vertices = np.atleast_2d(np.asarray(vertices, dtype=float))
    dirs = directions(n)
    want = support(rows, dirs)
    got = (dirs @ vertices.T).max(axis=1)
    worst = float(np.abs(got - want).max())
    if worst > SUPPORT_RTOL * max(1.0, float(want.max())):
        errs.append(f"{tag}: vertex hull support off by {worst:.3e}")
    q = rank(rows)
    if q == n:
        hull = _hull_measure(vertices)
        if _rel(hull, volume) > VOLUME_RTOL:
            errs.append(f"{tag}: volume {volume!r} but vertex hull has {hull!r}")
        return errs
    if volume != 0.0:
        errs.append(f"{tag}: flat stage reports volume {volume!r}")
    basis = _span_basis(rows)
    off = float(np.abs(vertices - (vertices @ basis.T) @ basis).max())
    if off > SUPPORT_RTOL * max(1.0, float(np.abs(vertices).max())):
        errs.append(f"{tag}: vertices leave the span by {off:.3e}")
    measure = _hull_measure(vertices @ basis.T)
    expect = _subset_volume(rows @ basis.T)
    if _rel(measure, expect) > VOLUME_RTOL:
        errs.append(f"{tag}: flat stage vertices cover {measure!r}, expected {expect!r}")
    return errs


def _projected_area(vertices, i, j):
    pts = vertices[:, [i, j]]
    if rank(pts - pts.mean(axis=0)) < 2:
        return 0.0
    try:
        return float(ConvexHull(pts).volume)
    except QhullError:
        return 0.0


def summary_errors(rows_all, r, kind, vertices_by_stage, summary, tag):
    """A region_summary report against stage checks and recomputed shape."""
    errs = []
    horizon = rows_all.shape[0] // r
    if summary["kind"] != kind or summary["N"] != horizon:
        errs.append(f"{tag}: report is for {summary['kind']} N={summary['N']}")
        return errs
    vols = summary["volumeByStage"]
    counts = summary["vertexCountByStage"]
    for k in range(1, horizon + 1):
        verts = vertices_by_stage[k - 1]
        errs += stage_errors(rows_all[: k * r], verts, vols[k - 1], f"{tag} stage {k}")
        if counts[k - 1] != len(verts):
            errs.append(f"{tag} stage {k}: count {counts[k - 1]} for {len(verts)} vertices")
    for k in range(1, horizon):
        if vols[k] < vols[k - 1] * (1.0 - VOLUME_RTOL):
            errs.append(f"{tag}: volume falls from stage {k} to {k + 1}")
    final = rows_all
    n = final.shape[1]
    if summary["rank"] != rank(final):
        errs.append(f"{tag}: rank {summary['rank']}, expected {rank(final)}")
    sides = 2.0 * np.abs(final).sum(axis=0)
    got_sides = np.asarray(summary["sideLengths"], dtype=float)
    if got_sides.shape != sides.shape or np.abs(got_sides - sides).max() > 1e-12 * sides.max():
        errs.append(f"{tag}: side lengths {got_sides.tolist()}, expected {sides.tolist()}")
        return errs
    overall = vols[-1] / float(np.prod(sides))
    if abs(summary["shapeFactors"]["overall"] - overall) > VOLUME_RTOL * max(overall, 1e-300):
        errs.append(f"{tag}: overall shape factor {summary['shapeFactors']['overall']!r}")
    planar = summary["shapeFactors"]["planar"]
    verts = np.atleast_2d(vertices_by_stage[-1])
    for i, j in itertools.combinations(range(n), 2):
        expect = _projected_area(verts, i, j) / (sides[i] * sides[j])
        got = planar.get(f"x{i + 1},x{j + 1}")
        if got is None or abs(got - expect) > VOLUME_RTOL * max(expect, 1e-12):
            errs.append(f"{tag}: planar factor x{i + 1},x{j + 1} is {got!r}, expected {expect!r}")
    return errs


def sign_sums(rows):
    m = rows.shape[0]
    bits = np.arange(1 << m)
    signs = ((bits[:, np.newaxis] >> np.arange(m)) & 1) * 2.0 - 1.0
    return signs @ rows


# --- linear programs (HiGHS) ---------------------------------------------------


def box_feasible(rows, x):
    """Is x = rows^T u solvable with |u| <= 1?"""
    if rows.shape[0] == 0:
        return bool(np.abs(x).max() <= 1e-12)
    res = linprog(
        np.zeros(rows.shape[0]), A_eq=rows.T, b_eq=x, bounds=(-1.0, 1.0), method="highs"
    )
    if res.status not in (0, 2):
        raise RuntimeError(f"HiGHS status {res.status}: {res.message}")
    return res.status == 0


def gauge(rows, x):
    """min t such that x = rows^T u with |u| <= t; inf off the span of rows."""
    m = rows.shape[0]
    c = np.zeros(m + 1)
    c[m] = 1.0
    eye = np.eye(m)
    a_ub = np.block([[eye, -np.ones((m, 1))], [-eye, -np.ones((m, 1))]])
    a_eq = np.hstack([rows.T, np.zeros((rows.shape[1], 1))])
    res = linprog(
        c,
        A_ub=a_ub,
        b_ub=np.zeros(2 * m),
        A_eq=a_eq,
        b_eq=x,
        bounds=[(None, None)] * m + [(0.0, None)],
        method="highs",
    )
    if res.status == 2:
        return np.inf
    if res.status != 0:
        raise RuntimeError(f"HiGHS status {res.status}: {res.message}")
    return float(res.fun)


def free_dim(rows, x):
    """Affine dimension of {u : rows^T u = x, |u| <= 1} from HiGHS ranges."""
    m = rows.shape[0]
    if gauge(rows, x) < 1.0 - RANGE_TOL:
        return m - rank(rows)
    free = np.zeros(m, dtype=bool)
    for j in range(m):
        c = np.zeros(m)
        c[j] = 1.0
        lo = linprog(c, A_eq=rows.T, b_eq=x, bounds=(-1.0, 1.0), method="highs")
        hi = linprog(-c, A_eq=rows.T, b_eq=x, bounds=(-1.0, 1.0), method="highs")
        if lo.status or hi.status:
            raise RuntimeError("HiGHS range LP failed")
        free[j] = (-hi.fun - lo.fun) > RANGE_TOL
    if not free.any():
        return 0
    return int(free.sum()) - rank(rows[free])


def separates(direction, x, rows):
    """d . x exceeds the support of the zonotope of rows in direction d."""
    if direction is None:
        return False
    d = np.asarray(direction, dtype=float)
    h = float(np.abs(rows @ d).sum()) if rows.shape[0] else 0.0
    return float(d @ x) > h


# --- control answers -------------------------------------------------------------


def replay(a, b, kind, x, inputs):
    """Final-state error of the witness rolled through x+ = A x + B u."""
    state = np.zeros(a.shape[0]) if kind == "reach" else np.array(x, dtype=float)
    for u in np.atleast_2d(inputs):
        state = a @ state + b @ u
    target = x if kind == "reach" else np.zeros_like(x)
    return float(np.abs(state - target).max(initial=0.0))


def min_time_errors(a, b, kind, x, cap, answer, tag):
    """A min_time answer: steps, witness, certificate, margin and freedom.

    answer holds min_steps, inputs, certificate, margin and strategy_dim.
    """
    errs = []
    r = b.shape[1]
    rows_all = stage_rows(a, b, cap, kind)
    k = int(answer["min_steps"])
    if not 1 <= k <= cap:
        return [f"{tag}: min_steps {k} outside 1..{cap}"]
    inputs = np.asarray(answer["inputs"], dtype=float).reshape(-1, r)
    if inputs.shape[0] != k:
        errs.append(f"{tag}: {inputs.shape[0]} input steps for min_steps {k}")
    if float(np.abs(inputs).max()) > 1.0 + INPUT_TOL:
        errs.append(f"{tag}: input amplitude {float(np.abs(inputs).max())!r}")
    miss = replay(a, b, kind, x, inputs)
    if miss > REPLAY_TOL:
        errs.append(f"{tag}: witness replays {miss:.3e} from the target")
    rows = rows_all[: k * r]
    below = rows_all[: (k - 1) * r]
    if not box_feasible(rows, x):
        errs.append(f"{tag}: HiGHS finds stage {k} infeasible")
    if box_feasible(below, x):
        errs.append(f"{tag}: HiGHS finds stage {k - 1} feasible")
    if not separates(answer["certificate"], x, below):
        errs.append(f"{tag}: certificate does not separate stage {k - 1}")
    margin = 1.0 - gauge(rows, x)
    if abs(answer["margin"] - max(margin, 0.0)) > MARGIN_TOL:
        errs.append(f"{tag}: margin {answer['margin']!r}, HiGHS gives {margin!r}")
    dim = free_dim(rows_all, x)
    if answer["strategy_dim"] != dim:
        errs.append(f"{tag}: strategy dim {answer['strategy_dim']}, HiGHS gives {dim}")
    return errs


def not_reachable_errors(a, b, kind, x, cap, certificate, tag):
    rows = stage_rows(a, b, cap, kind)
    errs = []
    if box_feasible(rows, x):
        errs.append(f"{tag}: NotReachable but HiGHS finds stage {cap} feasible")
    if not separates(certificate, x, rows):
        errs.append(f"{tag}: NotReachable certificate does not separate")
    return errs


def strategy_dim_errors(a, b, kind, x, horizon, dim, tag):
    want = free_dim(stage_rows(a, b, horizon, kind), x)
    return [] if dim == want else [f"{tag}: strategy dim {dim}, HiGHS gives {want}"]


# --- containment -----------------------------------------------------------------


def _normals(rows):
    """Unit normals covering every facet of the zonotope of rows (full rank)."""
    m, q = rows.shape
    if q == 1:
        return np.ones((1, 1))
    norms = np.linalg.norm(rows, axis=1)
    live = rows[norms > 1e-12 * max(1.0, float(norms.max()))]
    out = []
    for subset in itertools.combinations(range(live.shape[0]), q - 1):
        sub = live[list(subset)]
        _, s, vt = np.linalg.svd(sub, full_matrices=True)
        if s[-1] > RANK_TOL * s[0]:
            out.append(vt[-1])
    return np.asarray(out)


def containment_gap(inner, outer):
    """Largest excess of h_inner over h_outer, over directions that decide.

    Z_inner lies in Z_outer exactly when this is at most 0 (up to rounding):
    outside the span of Z_outer any inner generator component is an excess,
    and inside it the facet normals of Z_outer are enough.
    """
    basis = _span_basis(outer)
    off = inner - (inner @ basis.T) @ basis
    gap_off = float(np.linalg.norm(off, axis=1).sum()) if off.size else 0.0
    if gap_off > RANK_TOL * max(1.0, float(np.abs(inner).max())):
        return gap_off
    inner_r = inner @ basis.T
    outer_r = outer @ basis.T
    normals = _normals(outer_r)
    normals = np.vstack([normals, -normals])
    excess = support(inner_r, normals) - support(outer_r, normals)
    scale = np.maximum(1.0, support(outer_r, normals))
    return float((excess / scale).max())


def contained(inner_rows_all, outer_rows_all, r, horizon):
    """Stage-wise containment for stages 1..horizon; (all contained, max gap)."""
    worst = -np.inf
    for k in range(1, horizon + 1):
        worst = max(
            worst, containment_gap(inner_rows_all[: k * r], outer_rows_all[: k * r])
        )
    return worst <= CONTAIN_RTOL, worst


def relation_errors(a_sys, b_sys, kind, horizon, verdict, names, tag):
    """A compare verdict against exact stage-wise containment.

    a_sys and b_sys are (A, B) pairs; verdict holds relation, stronger,
    aInB and bInA.
    """
    r = a_sys[1].shape[1]
    rows_a = stage_rows(*a_sys, horizon, kind)
    rows_b = stage_rows(*b_sys, horizon, kind)
    a_in_b, gap_ab = contained(rows_a, rows_b, r, horizon)
    b_in_a, gap_ba = contained(rows_b, rows_a, r, horizon)
    errs = []
    if verdict["aInB"] != a_in_b or verdict["bInA"] != b_in_a:
        errs.append(
            f"{tag}: aInB={verdict['aInB']} bInA={verdict['bInA']}, exact test "
            f"gives {a_in_b} (gap {gap_ab:.3e}) and {b_in_a} (gap {gap_ba:.3e})"
        )
    if a_in_b and b_in_a:
        allowed = {("Equal", None)}
    elif a_in_b or b_in_a:
        winner = names[1] if a_in_b else names[0]
        gap = gap_ba if a_in_b else gap_ab
        allowed = {("StrictlyStronger", winner)}
        if gap <= STRICT_GAP:
            allowed.add(("NotWeaker", winner))
    else:
        allowed = {("Incomparable", None)}
    got = (verdict["relation"], verdict["stronger"])
    if got not in allowed:
        errs.append(f"{tag}: relation {got}, exact test allows {sorted(allowed, key=str)}")
    return errs


# --- oracle ----------------------------------------------------------------------


def brute_vertices_errors(rows, vertices, tag):
    """Returned points are sign sums whose hull is the whole zonotope."""
    cloud = sign_sums(rows)
    errs = stage_errors(rows, vertices, float(ConvexHull(cloud).volume), tag)
    for v in np.atleast_2d(vertices):
        if float(np.abs(cloud - v).max(axis=1).min()) > 1e-9:
            errs.append(f"{tag}: {v.tolist()} is not a signed generator sum")
            break
    return errs


def mc_volume_errors(rows, result, tag):
    hull = float(ConvexHull(sign_sums(rows)).volume)
    dev = abs(result.estimate - hull)
    if dev > 4.0 * result.std_error:
        return [f"{tag}: estimate {result.estimate!r} is {dev / result.std_error:.2f} "
                f"standard errors from the hull volume {hull!r}"]
    return []


def exhaustive_errors(a, b, kind, x, cap, steps, tag):
    rows_all = stage_rows(a, b, cap, kind)
    r = b.shape[1]
    want = next(
        (k for k in range(1, cap + 1) if box_feasible(rows_all[: k * r], x)), None
    )
    return [] if steps == want else [f"{tag}: {steps} steps, HiGHS sweep gives {want}"]
