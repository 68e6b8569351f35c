"""Independent reference computations for cross-checking the main paths.

Everything here recomputes results by deliberately different means: vertex
sets by exhaustive sign enumeration with a convex-hull filter, volumes by
Monte Carlo box sampling against a freshly built half-space form, and
minimum step counts by sweeping horizons, each decided by its bounding box
(outside), a replayed least-squares input (inside) or else point-cloud hull
containment. None of it reuses the geometry routines under test.

Randomness comes from a counter-based SplitMix64 stream so every draw is
reproducible from (seed, index) alone, independent of numpy's generator
internals and of chunk sizes. A Monte Carlo hit count is fixed by the draws
only up to BLAS rounding: the last bit of a sample's product with a normal
depends on the kernel that the chunk's shape and the BLAS build select, so
a sample within one rounding step of a facet may count differently under
another _CHUNK or BLAS.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import _report
from .errors import (
    DegenerateZonotope,
    DimensionMismatch,
    NotReachable,
    SingularA,
    TooManyGenerators,
)

_HARD_BIT_CAP = 24
_CHUNK = 1 << 14  # samples per pass: one contiguous row of products per normal

# SplitMix64 constants: the Weyl increment and the two finalizer multipliers.
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S11 = np.uint64(11)
_INV53 = float(2.0**-53)


@dataclass(frozen=True)
class OracleConfig:
    """Resource and reproducibility knobs for the reference computations."""

    max_sign_bits: int = 20
    mc_samples: int = 1_000_000
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.max_sign_bits <= _HARD_BIT_CAP:
            raise ValueError(
                f"max_sign_bits must be in 1..{_HARD_BIT_CAP}, got {self.max_sign_bits}"
            )
        if self.mc_samples < 1000:
            raise ValueError(f"mc_samples must be at least 1000, got {self.mc_samples}")


class SplitMix64:
    """Counter-based SplitMix64: value i mixes the state seed + (i+1)*gamma.

    Being a pure function of the index, the stream can be regenerated in
    any chunking without drift. uniforms() maps the top 53 bits into
    [0, 1).
    """

    def __init__(self, seed):
        self.seed = np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF)
        self.index = 0

    def raw(self, count):
        z = np.arange(self.index + 1, self.index + count + 1, dtype=np.uint64)
        self.index += int(count)
        with np.errstate(over="ignore"):
            z *= _GAMMA
            z += self.seed
            z ^= z >> _S30
            z *= _MIX1
            z ^= z >> _S27
            z *= _MIX2
            z ^= z >> _S31
        return z

    def uniforms(self, count):
        z = self.raw(count)
        z >>= _S11
        return z.astype(np.float64) * _INV53


def _as_generators(z):
    gens = z.generators if hasattr(z, "generators") else np.asarray(z, dtype=float)
    gens = np.atleast_2d(np.asarray(gens, dtype=float))
    if gens.ndim != 2 or gens.shape[0] < 1 or gens.shape[1] < 1:
        raise DimensionMismatch(f"expected an (m, n) generator array, got {gens.shape}")
    return gens


def _sign_sums(gens):
    """All 2^m signed sums of the generator rows."""
    m, n = gens.shape
    chunk_bits = min(m, 16)
    low = np.arange(1 << chunk_bits, dtype=np.int64)
    low_signs = ((low[:, np.newaxis] >> np.arange(chunk_bits)) & 1) * 2.0 - 1.0
    low_pts = low_signs @ gens[:chunk_bits]
    if m == chunk_bits:
        return low_pts
    out = []
    for hi in range(1 << (m - chunk_bits)):
        hi_signs = ((hi >> np.arange(m - chunk_bits)) & 1) * 2.0 - 1.0
        out.append(low_pts + hi_signs @ gens[chunk_bits:])
    return np.vstack(out)


def _lexsorted_unique(pts, tol=1e-9):
    """Lexsort the rows and drop each row within tol (max-norm) of a kept one.

    After the sort only the rows whose first coordinate lies within 2 tol
    below a row's own can match it (the window is widened from tol so that
    rounding in the bound never hides a match); one sorted search finds
    every row's window start. A row with no earlier row in its window is
    always kept; the others, in order, are merged into the kept rows of
    their window.
    """
    pts = np.atleast_2d(pts)
    pts = pts[np.lexsort(pts.T[::-1])]
    lead = pts[:, 0]
    start = np.searchsorted(lead, lead - 2.0 * tol)
    candidates = np.flatnonzero(start < np.arange(lead.size))
    if candidates.size == 0:
        return pts
    keep = np.ones(pts.shape[0], dtype=bool)
    for i in candidates.tolist():
        window = pts[start[i] : i][keep[start[i] : i]]
        p = pts[i]
        if window.shape[0] and not np.min(np.max(np.abs(window - p), axis=1)) > tol:
            keep[i] = False
    return pts[keep]


def _hull2d_indices(pts):
    """Andrew monotone chain; returns indices of hull vertices, collinear
    points dropped. The chain runs on Python floats, the same IEEE doubles
    as the array's, without a numpy scalar per access."""
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    sorted_pts = pts[order]
    scale = max(1.0, float(np.abs(sorted_pts).max()))
    eps = 1e-12 * scale * scale
    coords = sorted_pts.tolist()

    def build(seq):
        out = []
        for i in seq:
            while len(out) >= 2:
                o = coords[out[-2]]
                a = coords[out[-1]]
                b = coords[i]
                cross = (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])
                if cross <= eps:
                    out.pop()
                else:
                    break
            out.append(i)
        return out

    k = sorted_pts.shape[0]
    lower = build(range(k))
    upper = build(range(k - 1, -1, -1))
    idx = lower[:-1] + upper[:-1]
    if not idx:
        idx = [0]
    if len(idx) > 2:
        # the chain keeps its two ends; points tied in x up to rounding can
        # put an edge midpoint there, so drop every point collinear with
        # its cyclic neighbours
        q = sorted_pts[[idx[-1], *idx, idx[0]]]
        a = q[:-2] - q[1:-1]
        b = q[2:] - q[1:-1]
        idx = np.asarray(idx)[b[:, 0] * a[:, 1] - b[:, 1] * a[:, 0] > eps]
    return order[np.asarray(idx, dtype=int)]


def _extreme_mask_lp(pts):
    """Per-point extremeness for dimension >= 4 via convex-combination LPs."""
    from scipy.optimize import linprog

    k = pts.shape[0]
    mask = np.zeros(k, dtype=bool)
    for i in range(k):
        others = np.delete(pts, i, axis=0)
        a_eq = np.vstack([others.T, np.ones((1, k - 1))])
        b_eq = np.concatenate([pts[i], [1.0]])
        res = linprog(
            np.zeros(k - 1), A_eq=a_eq, b_eq=b_eq, bounds=(0.0, 1.0), method="highs"
        )
        mask[i] = not res.success
    return mask


def _extreme_points(pts):
    """Extreme points of a finite point cloud, any affine rank."""
    from scipy.spatial import ConvexHull

    pts = np.atleast_2d(pts)
    center = pts.mean(axis=0)
    shifted = pts - center
    _, s, vt = np.linalg.svd(shifted, full_matrices=False)
    scale = float(s[0]) if s.size else 0.0
    if scale <= 0.0:
        return pts[:1]
    rank = int(np.sum(s > 1e-9 * max(1.0, scale)))
    if rank == 0:
        return pts[:1]
    basis = vt[:rank]
    coords = shifted @ basis.T
    if rank == 1:
        t = coords[:, 0]
        idx = [int(np.argmin(t)), int(np.argmax(t))]
    elif rank == 2:
        idx = _hull2d_indices(coords)
    elif rank == 3:
        idx = ConvexHull(coords).vertices
    else:
        idx = np.flatnonzero(_extreme_mask_lp(coords))
    return pts[np.asarray(idx, dtype=int)]


def brute_vertices(z, cfg=None):
    """Vertex set by full sign enumeration plus an extreme-point filter.

    Accepts a zonotope object or a raw (m, n) generator array; the result
    is deduplicated at 1e-9 and lexicographically sorted, matching the
    main enumeration's output convention so sets compare directly.
    """
    cfg = cfg or OracleConfig()
    gens = _as_generators(z)
    m = gens.shape[0]
    if m > cfg.max_sign_bits:
        raise TooManyGenerators(
            f"{m} generators exceed the configured sign budget {cfg.max_sign_bits}"
        )
    pts = _lexsorted_unique(_sign_sums(gens))
    return _lexsorted_unique(_extreme_points(pts))


def vertex_set_distance(a, b):
    """Symmetric Hausdorff distance between two point sets given as rows."""
    pa = np.atleast_2d(np.asarray(a, dtype=float))
    pb = np.atleast_2d(np.asarray(b, dtype=float))
    if pa.shape[1] != pb.shape[1]:
        raise DimensionMismatch("point sets live in different dimensions")
    d = np.linalg.norm(pa[:, np.newaxis, :] - pb[np.newaxis, :, :], axis=2)
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def _oracle_halfspaces(gens):
    """Half-space form |d.x| <= c built from scratch for the hit test."""
    m, n = gens.shape
    norms = np.linalg.norm(gens, axis=1)
    live = gens[norms > 1e-12 * max(1.0, norms.max())]
    if n == 1:
        normals = np.ones((1, 1))
    elif n == 2:
        normals = np.stack([-live[:, 1], live[:, 0]], axis=1)
        normals /= np.linalg.norm(normals, axis=1)[:, np.newaxis]
    elif n == 3:
        i, j = np.triu_indices(live.shape[0], k=1)
        d = np.cross(live[i], live[j])
        # a row-wise dot product, as a 1-D norm takes it (not a sum of squares)
        nd = np.sqrt((d[:, np.newaxis, :] @ d[:, :, np.newaxis])[:, 0, 0])
        ln = np.linalg.norm(live, axis=1)
        keep = nd > 1e-12 * ln[i] * ln[j]
        normals = d[keep] / nd[keep, np.newaxis]
    else:
        import itertools

        rows = []
        for subset in itertools.combinations(range(live.shape[0]), n - 1):
            sub = live[list(subset)]
            s = np.linalg.svd(sub, compute_uv=False)
            if s[0] <= 0.0 or s[-1] <= 1e-9 * s[0]:
                continue
            _, _, vt = np.linalg.svd(sub, full_matrices=True)
            rows.append(vt[-1])
        normals = np.asarray(rows)
    offsets = np.abs(normals @ gens.T).sum(axis=1)
    return normals, offsets


@dataclass(frozen=True)
class McVolumeResult:
    estimate: float
    std_error: float
    hit_rate: float
    samples: int
    box_volume: float
    seed: int

    to_dict = _report.to_dict


def mc_volume(z, cfg=None):
    """Monte Carlo volume estimate with its binomial standard error.

    Samples the circumscribing box uniformly and counts hits against a
    half-space form built here from the generators. Flat zonotopes are
    rejected: the box has positive volume while the set has none.
    """
    cfg = cfg or OracleConfig()
    gens = _as_generators(z)
    n = gens.shape[1]
    s = np.linalg.svd(gens, compute_uv=False)
    if int(np.sum(s > 1e-9 * max(1.0, float(s[0])))) < n:
        raise DegenerateZonotope("generators do not span the space")
    half = np.abs(gens).sum(axis=0)
    box_volume = float(np.prod(2.0 * half))
    normals, offsets = _oracle_halfspaces(gens)
    rng = SplitMix64(cfg.seed)
    total = int(cfg.mc_samples)
    hits = 0
    done = 0
    while done < total:
        take = min(_CHUNK, total - done)
        pts = (2.0 * rng.uniforms(take * n) - 1.0).reshape(take, n)
        for k in range(n):  # column by column: long loops, not one per sample
            pts[:, k] *= half[k]
        dots = normals @ pts.T
        np.abs(dots, out=dots)
        below = dots <= offsets[:, np.newaxis]
        hits += int(np.count_nonzero(np.logical_and.reduce(below, axis=0)))
        done += take
    rate = hits / total
    return McVolumeResult(
        estimate=box_volume * rate,
        std_error=box_volume * math.sqrt(rate * (1.0 - rate) / total),
        hit_rate=rate,
        samples=total,
        box_volume=box_volume,
        seed=cfg.seed,
    )


def _hull_contains(pts, x, tol=1e-9):
    """Is x in the convex hull of the point rows? Rank-aware."""
    from scipy.spatial import ConvexHull, QhullError

    center = pts.mean(axis=0)
    shifted = pts - center
    _, s, vt = np.linalg.svd(shifted, full_matrices=False)
    scale = float(s[0]) if s.size else 0.0
    rank = 0 if scale <= 0.0 else int(np.sum(s > 1e-9 * max(1.0, scale)))
    y = x - center
    basis = vt[:rank]
    resid = y - basis.T @ (basis @ y) if rank else y
    if float(np.abs(resid).max(initial=0.0)) > tol:
        return False
    if rank == 0:
        return True
    coords = shifted @ basis.T
    cx = basis @ y
    if rank == 1:
        t = coords[:, 0]
        return bool(t.min() - tol <= cx[0] <= t.max() + tol)
    if rank <= 3:
        try:
            hull = ConvexHull(coords)
            gap = hull.equations[:, :-1] @ cx + hull.equations[:, -1]
            return bool(gap.max() <= tol)
        except QhullError:
            pass
    from scipy.optimize import linprog

    k = coords.shape[0]
    a_eq = np.vstack([coords.T, np.ones((1, k))])
    b_eq = np.concatenate([cx, [1.0]])
    res = linprog(np.zeros(k), A_eq=a_eq, b_eq=b_eq, bounds=(0.0, 1.0), method="highs")
    return bool(res.success)


def exhaustive_min_time(sys, x0, kind="reach", max_steps=50, cfg=None):
    """Smallest horizon whose region contains x0, by brute enumeration.

    Builds generator blocks step by step with its own matrix powers. Each
    horizon is decided by its bounding box (x0 outside it is outside), a
    least-squares input with |u| <= 1 that replays to x0 (inside), or else
    the hull of all signed sums. Raises NotReachable past max_steps and
    TooManyGenerators when a horizon would exceed the sign budget.
    """
    cfg = cfg or OracleConfig()
    kind_value = getattr(kind, "value", kind)
    if kind_value not in ("reach", "recover"):
        raise ValueError(f"kind must be 'reach' or 'recover', got {kind!r}")
    x = np.asarray(x0, dtype=float).ravel()
    if x.size != sys.n:
        raise DimensionMismatch(f"x0 must have length {sys.n}")
    if float(np.abs(x).max(initial=0.0)) <= 1e-12:
        return 0
    blocks = []
    M = sys.B.copy()
    for step in range(1, max_steps + 1):
        if kind_value == "reach":
            if step > 1:
                M = sys.A @ M
        else:
            try:
                M = np.linalg.solve(sys.A, M)
            except np.linalg.LinAlgError as exc:
                raise SingularA("state matrix is singular") from exc
        blocks.append(M.T.copy())
        rows = np.vstack(blocks)
        if rows.shape[0] > cfg.max_sign_bits:
            raise TooManyGenerators(
                f"horizon {step} needs {rows.shape[0]} sign bits, budget is "
                f"{cfg.max_sign_bits}"
            )
        if np.any(np.abs(x) > np.abs(rows).sum(axis=0) + 1e-9):
            continue  # outside the stage's bounding box
        u = np.linalg.lstsq(rows.T, x, rcond=None)[0]
        replay = float(np.abs(rows.T @ u - x).max())
        if float(np.abs(u).max()) <= 1.0 and replay <= 1e-12 * max(1.0, np.abs(x).max()):
            return step  # a replayed input in the box
        if _hull_contains(_sign_sums(rows), x):
            return step
    raise NotReachable(
        f"state not reachable within {max_steps} steps", max_steps=max_steps
    )


def verification_suite(cfg=None):
    """Re-run the pinned cross-checks on built-in random cases.

    Returns a JSON-ready report: per-check name, pass/fail status, a
    discrepancy measure, and the seed it can be replayed from. Volume
    checks pass within 4 standard errors; the exact checks at 1e-9.
    """
    from . import control
    from .model import LdtSystem
    from .region import RegionKind, stage_generators
    from .zonotope import Zonotope

    cfg = cfg or OracleConfig()
    rng = SplitMix64(cfg.seed)
    checks = []

    def draw(rows, cols):
        return (2.0 * rng.uniforms(rows * cols) - 1.0).reshape(rows, cols)

    def record(name, status, discrepancy, seed):
        checks.append(
            {
                "name": name,
                "status": "pass" if status else "fail",
                "discrepancy": float(discrepancy),
                "seed": int(seed),
            }
        )

    for i in range(12):
        n = 2 if i % 2 == 0 else 3
        steps = 3 + (i % 4)
        sys = LdtSystem(f"vertex-case-{i}", draw(n, n), draw(n, 1))
        rows = stage_generators(sys, steps, RegionKind.REACH)
        z = Zonotope(rows)
        main = z.vertices()
        ref = brute_vertices(z, cfg)
        if main.shape[0] != ref.shape[0]:
            record(f"vertices-{i}", False, float("inf"), cfg.seed)
            continue
        disc = vertex_set_distance(main, ref)
        record(f"vertices-{i}", disc <= 1e-9, disc, cfg.seed)

    for i in range(4):
        n = 2 if i % 2 == 0 else 3
        steps = n + 2
        sys = LdtSystem(f"volume-case-{i}", draw(n, n), draw(n, 1))
        z = Zonotope(stage_generators(sys, steps, RegionKind.REACH))
        sub_cfg = dataclasses.replace(cfg, seed=cfg.seed + 1000 + i)
        res = mc_volume(z, sub_cfg)
        vol = z.volume()
        disc = abs(res.estimate - vol) / max(res.std_error, 1e-300)
        record(f"volume-{i}", disc <= 4.0, disc, sub_cfg.seed)

    for i in range(8):
        sys = LdtSystem(f"mintime-case-{i}", draw(2, 2), draw(2, 1))
        k = 2 + (i % 4)
        rows = stage_generators(sys, k, RegionKind.REACH)
        u = 2.0 * rng.uniforms(rows.shape[0]) - 1.0
        x0 = u @ rows
        steps_main = control.min_time(sys, x0, max_steps=12).min_steps
        steps_ref = exhaustive_min_time(sys, x0, max_steps=12, cfg=cfg)
        disc = abs(steps_main - steps_ref)
        record(f"mintime-{i}", disc == 0, disc, cfg.seed)

    return {
        "seed": int(cfg.seed),
        "checks": checks,
        "passed": all(c["status"] == "pass" for c in checks),
    }
