"""Origin-centred zonotopes: vertices, support, volume, projections, shape.

A zonotope here is Z = {sum_k t_k g_k : t_k in [-1, 1]} for generators g_k,
stored as the rows of an (m, n) array. Controllability regions of
discrete-time linear systems under unit input amplitude bounds are exactly
such sets, so this module carries the geometric half of the analysis.

Vertex enumeration never walks all 2^m sign patterns:

* n = 1 and rank 1: the two extreme sums.
* n = 2 (and rank-2 slices of higher dimensions): generators are flipped
  into the upper half-plane, merged when parallel, and sorted by angle;
  walking the sorted list yields the 2q polygon vertices directly.
* n >= 3: a facet walk. Every facet normal is orthogonal to n-1
  generators (_facet_normals, shared with hform); a facet with exactly
  n-1 tied generators is a parallelotope whose corners are read off one
  sign table, and every other facet is enumerated in its own hyperplane
  by the same routine. Lower-rank zonotopes are flattened onto their span
  first.

Membership, gauges and containment all read one rank-aware H-form
(hform): the complement of the generators' span, unit facet normals in
it, and their supports.

Near-ties below 1e-12 (relative) are treated as exact ties and expanded on
both sides; inputs engineered with angle gaps between 1e-12 and 1e-9 are
outside the supported precision envelope.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadAxes,
    DegenerateZonotope,
    DimensionMismatch,
    NotConvex,
    TooManyGenerators,
    ZeroDirection,
)

DEDUP_TOL = 1e-9
RANK_TOL = 1e-9
TIE_TOL = 1e-12
MAX_GENERATORS = 20
# subsets Zonotope.volume sums at most; a 50-step stage in R^3 has 19 600
MAX_VOLUME_SUBSETS = 2_000_000
# corner sign patterns the facet walk builds at most, C(m, n-1) * 2^n; the
# same budget as enumerating all 2^MAX_GENERATORS sign sums
MAX_PATTERN_ROWS = 1 << MAX_GENERATORS
CHUNK_BYTES = 1 << 20


class Zonotope:
    """Origin-symmetric zonotope given by generator rows (m, n)."""

    def __init__(self, generators):
        G = np.asarray(generators, dtype=float)
        if G.ndim == 1:
            G = G.reshape(1, -1)
        if G.ndim != 2 or G.shape[0] < 1 or G.shape[1] < 1:
            raise DimensionMismatch(
                f"generators must form a non-empty (m, n) array, got shape {G.shape}"
            )
        if not np.isfinite(G).all():
            raise DimensionMismatch("generators contain non-finite entries")
        self.generators = G.copy()
        self.generators.flags.writeable = False

    @property
    def m(self):
        return self.generators.shape[0]

    @property
    def n(self):
        return self.generators.shape[1]

    def __repr__(self):
        return f"Zonotope(m={self.m}, n={self.n})"

    def support(self, direction):
        """Support function h(d) = sum_k |d . g_k|."""
        d = np.asarray(direction, dtype=float).ravel()
        if d.size != self.n:
            raise DimensionMismatch(f"direction must have length {self.n}")
        if not np.isfinite(d).all() or not np.any(d):
            raise ZeroDirection("direction must be nonzero and finite")
        return float(np.abs(self.generators @ d).sum())

    def rank(self, tol=RANK_TOL):
        return _rank(self.generators, tol)

    def vertices(self):
        """All vertices as rows, deduplicated at 1e-9, lexicographically sorted.

        Raises TooManyGenerators past MAX_GENERATORS generators, or past
        MAX_PATTERN_ROWS facet corner patterns (n >= 7 with many
        generators), checked before anything is built.
        """
        if self.m > MAX_GENERATORS:
            raise TooManyGenerators(
                f"{self.m} generators exceed the enumeration cap {MAX_GENERATORS}"
            )
        return _vertices(self.generators)

    def volume(self):
        """Exact volume 2^n * sum over n-subsets of |det|; 0 when flat.

        Raises TooManyGenerators past MAX_VOLUME_SUBSETS subsets, checked
        before any subset is built; the determinants are summed in chunks
        of about CHUNK_BYTES.
        """
        m, n = self.m, self.n
        if m < n or _rank(self.generators) < n:
            return 0.0
        count = math.comb(m, n)
        if count > MAX_VOLUME_SUBSETS:
            raise TooManyGenerators(
                f"{count} generator subsets exceed the volume cap {MAX_VOLUME_SUBSETS}"
            )
        chunk = max(1, CHUNK_BYTES // (8 * n * n))
        subsets = itertools.combinations(range(m), n)
        total = 0.0
        for start in range(0, count, chunk):
            take = min(chunk, count - start)
            flat = itertools.chain.from_iterable(itertools.islice(subsets, take))
            idx = np.fromiter(flat, dtype=np.intp, count=take * n).reshape(take, n)
            total += float(np.abs(np.linalg.det(self.generators[idx])).sum())
        return 2.0**n * total

    def project_2d(self, axes):
        """Project onto two coordinate axes and build the polygon outline.

        Returns a Polygon2D whose points run counterclockwise; flat
        projections (rank below 2) come back flagged degenerate.
        """
        axes = _check_axes(axes, self.n)
        pgens = self.generators[:, list(axes)]
        scale = max(1.0, float(np.abs(pgens).max(initial=0.0)))
        keep = np.linalg.norm(pgens, axis=1) > TIE_TOL * scale
        pgens = pgens[keep]
        if pgens.shape[0] == 0:
            return Polygon2D(points=np.zeros((1, 2)), degenerate=True, axes=axes)
        merged = _merge_parallel(pgens)
        if merged.shape[0] == 1:
            h = merged[0]
            return Polygon2D(points=np.vstack([-h, h]), degenerate=True, axes=axes)
        start = -merged.sum(axis=0)
        pts = [start]
        for h in merged:
            pts.append(pts[-1] + 2.0 * h)
        for h in merged[:-1]:
            pts.append(pts[-1] - 2.0 * h)
        return Polygon2D(points=np.asarray(pts), degenerate=False, axes=axes)

    def shape_report(self):
        """Volume, circumscribing-box sides, and shape factors in [0, 1].

        The overall factor compares the volume against the box volume; the
        planar factors compare each 2-D projection's area against the
        projected box area. Degenerate axes produce zero factors.
        """
        G = self.generators
        n = self.n
        rank = _rank(G)
        half = np.abs(G).sum(axis=0)
        side_lengths = 2.0 * half
        vol = self.volume()
        box = float(np.prod(side_lengths)) if n >= 1 else 0.0
        overall = vol / box if box > 0.0 else 0.0
        planar = {}
        for i, j in itertools.combinations(range(n), 2):
            denom = 4.0 * half[i] * half[j]
            if denom <= 0.0:
                planar[(i, j)] = 0.0
                continue
            poly = self.project_2d((i, j))
            planar[(i, j)] = polygon_area(poly) / denom
        return ShapeReport(
            volume=vol,
            side_lengths=side_lengths,
            overall_shape_factor=overall,
            planar_shape_factors=planar,
            rank=rank,
        )


@dataclass
class Polygon2D:
    """Planar polygon outline; points are (k, 2), counterclockwise."""

    points: np.ndarray
    degenerate: bool = False
    axes: tuple | None = None


@dataclass
class ShapeReport:
    volume: float
    side_lengths: np.ndarray
    overall_shape_factor: float
    planar_shape_factors: dict
    rank: int

    def to_dict(self):
        return {
            "volume": self.volume,
            "sideLengths": self.side_lengths.tolist(),
            "overallShapeFactor": self.overall_shape_factor,
            "planarShapeFactors": {
                f"x{i + 1},x{j + 1}": v
                for (i, j), v in sorted(self.planar_shape_factors.items())
            },
            "rank": self.rank,
        }


def polygon_area(poly):
    """Shoelace area of a convex counterclockwise polygon.

    Degenerate polygons (fewer than three points) have area zero. Concave
    or clockwise inputs raise NotConvex.
    """
    pts = poly.points if isinstance(poly, Polygon2D) else np.asarray(poly, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise DimensionMismatch("polygon points must be a (k, 2) array")
    k = pts.shape[0]
    if k < 3:
        return 0.0
    scale = max(1.0, float(np.abs(pts).max()))
    tol = 1e-9 * scale * scale
    x, y = pts[:, 0], pts[:, 1]
    signed = 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y))
    if signed < -tol:
        raise NotConvex("polygon is clockwise; counterclockwise order required")
    edges = np.roll(pts, -1, axis=0) - pts
    nxt = np.roll(edges, -1, axis=0)
    crosses = edges[:, 0] * nxt[:, 1] - edges[:, 1] * nxt[:, 0]
    if np.any(crosses < -tol):
        raise NotConvex("polygon has a concave corner")
    return abs(signed)


# --- vertex enumeration internals -------------------------------------------


def _rank(G, tol=RANK_TOL):
    s = np.linalg.svd(np.asarray(G, dtype=float), compute_uv=False)
    if s.size == 0:
        return 0
    return int(np.sum(s > tol * max(1.0, float(s[0]))))


def _check_axes(axes, n):
    try:
        i, j = (int(a) for a in axes)
    except (TypeError, ValueError) as exc:
        raise BadAxes(f"axes must be a pair of integers, got {axes!r}") from exc
    if i == j or not (0 <= i < n) or not (0 <= j < n):
        raise BadAxes(f"axes must be distinct indices in [0, {n}), got ({i}, {j})")
    return (i, j)


def _dedup_rows(pts, tol=DEDUP_TOL):
    """Merge rows closer than tol (max-norm); output stays lexsorted."""
    pts = np.asarray(pts, dtype=float)
    k = pts.shape[0]
    if k == 0:
        return pts
    pts = pts[np.lexsort(pts.T[::-1])]
    # rows stay lexsorted, so only rows whose first coordinate lies within
    # tol of p can match it; the 2 tol window absorbs rounding. When no
    # pair inside any window matches, the greedy merge keeps every row.
    lo = np.searchsorted(pts[:, 0], pts[:, 0] - 2.0 * tol)
    width = np.arange(k) - lo
    total = int(width.sum())
    if total == 0:
        return pts
    if total * pts.shape[1] <= CHUNK_BYTES // 8:
        i = np.repeat(np.arange(k), width)
        j = i - 1 - (np.arange(total) - np.repeat(np.cumsum(width) - width, width))
        if not (np.abs(pts[i] - pts[j]).max(axis=1) <= tol).any():
            return pts
    kept = [0]
    firsts = [pts[0, 0]]
    for i in range(1, k):
        p = pts[i]
        near = pts[kept[bisect.bisect_left(firsts, p[0] - 2.0 * tol) :]]
        if near.shape[0] == 0 or np.min(np.max(np.abs(near - p), axis=1)) > tol:
            kept.append(i)
            firsts.append(p[0])
    return pts[kept]


def _canonical_flip(pgens):
    """Flip 2-D rows into the upper half-plane; returns (flipped, signs).

    A row with |y| <= TIE_TOL |x| counts as lying on the x axis, so that
    rounding cannot split parallel rows between the angles 0 and pi.
    """
    x, y = pgens[:, 0], pgens[:, 1]
    flip = np.copysign(1.0, np.where(np.abs(y) <= TIE_TOL * np.abs(x), x, y))
    return pgens * flip[:, np.newaxis], flip


def _merge_parallel(pgens):
    """Sum parallel 2-D rows after canonical flipping; rows sorted by angle."""
    canon, _ = _canonical_flip(pgens)
    ang = np.arctan2(canon[:, 1], canon[:, 0])
    order = np.argsort(ang, kind="stable")
    merged = []
    last_ang = None
    for idx in order:
        if last_ang is not None and abs(ang[idx] - last_ang) <= TIE_TOL:
            merged[-1] = merged[-1] + canon[idx]
        else:
            merged.append(canon[idx].copy())
            last_ang = ang[idx]
    return np.asarray(merged)


def _planar_vertex_signs(pgens):
    """Sign patterns whose sums are the vertices of a planar zonotope.

    pgens rows must be nonzero. Rows are flipped into the upper half-plane
    and sorted by angle; rows less than TIE_TOL apart form one group and
    flip together, so the walk visits each polygon vertex once. For q
    groups it returns a (2q, m) array of +-1 whose row k < q sets the
    first k groups to +1 and the rest to -1; rows q.. are their negations.
    """
    m = pgens.shape[0]
    canon, flip = _canonical_flip(pgens)
    ang = np.arctan2(canon[:, 1], canon[:, 0])
    order = np.argsort(ang, kind="stable")
    starts = np.concatenate(([0], np.flatnonzero(np.diff(ang[order]) > TIE_TOL) + 1))
    chain = np.empty((starts.size, m))
    chain[:, order] = np.where(np.arange(m) < starts[:, np.newaxis], 1.0, -1.0)
    return np.concatenate([chain, -chain]) * flip


def _facet_walk_vertices(gens):
    """Vertex candidates of a full-rank zonotope in R^n, n >= 3.

    Every vertex lies on a facet, and every facet normal is among the
    (n-1)-subset normals of _facet_normals. Along a unit normal d a facet
    is the sum of the decided generators, sign(d . g) g, plus the zonotope
    of the tied ones, |d . g| <= TIE_TOL |g|. A simple facet has n-1 tied
    generators and is a parallelotope, so its corners are sign patterns;
    they are kept as bit codes (bit j set for +g_j), which merge repeated
    corners exactly. Every other facet is enumerated in its own hyperplane
    by _vertices, once per tied set; so is the lower-dimensional face of a
    normal too inexact to tie its own generators (a nearly parallel
    pair's), down to a single vertex when nothing is tied.

    Raises TooManyGenerators past MAX_PATTERN_ROWS corner patterns,
    counted before anything is built; the codes are built in chunks of
    about CHUNK_BYTES. The int64 codes hold the MAX_GENERATORS generators
    Zonotope.vertices allows.
    """
    m, n = gens.shape
    rows = math.comb(m, n - 1) << n
    if rows > MAX_PATTERN_ROWS:
        raise TooManyGenerators(
            f"{rows} facet corner patterns of {m} generators exceed the "
            f"vertex cap {MAX_PATTERN_ROWS}"
        )
    unit = gens / np.linalg.norm(gens, axis=1)[:, np.newaxis]
    normals = _facet_normals(unit)
    bits = np.left_shift(1, np.arange(m, dtype=np.int64))
    corners = (np.arange(1 << (n - 1))[:, np.newaxis] >> np.arange(n - 1)) & 1
    chunk = max(1, CHUNK_BYTES // (8 * (m + corners.shape[0])))
    codes, facet_sets, facet_bases = [], [], []
    for start in range(0, normals.shape[0], chunk):
        dots = normals[start : start + chunk] @ unit.T
        tied = np.abs(dots) <= TIE_TOL
        up = ((dots > 0.0) & ~tied) @ bits
        simple = tied.sum(axis=1) == n - 1
        cols = np.nonzero(tied[simple])[1].reshape(-1, n - 1)
        codes.append(np.unique(up[simple, np.newaxis] + bits[cols] @ corners.T))
        other = ~simple
        facet_sets.append(tied[other] @ bits)
        facet_bases.append(np.where(tied[other], 0.0, np.sign(dots[other])) @ gens)
    codes = np.concatenate(codes)
    codes = np.unique(np.concatenate([codes, codes ^ ((1 << m) - 1)]))
    signs = ((codes[:, np.newaxis] >> np.arange(m)) & 1) * 2.0 - 1.0
    pts = [signs @ gens]
    facet_sets, first = np.unique(np.concatenate(facet_sets), return_index=True)
    facet_bases = np.concatenate(facet_bases)[first]
    for code, base in zip(facet_sets, facet_bases):
        face = _vertices(gens[(code >> np.arange(m)) & 1 == 1])
        pts += [base + face, face - base]
    return np.vstack(pts)


def _vertices(G):
    scale = max(1.0, float(np.abs(G).max(initial=0.0)))
    n = G.shape[1]
    gens = G[np.linalg.norm(G, axis=1) > TIE_TOL * scale]
    if gens.shape[0] == 0:
        return np.zeros((1, n))
    rank = _rank(gens)
    if rank < n:
        # flatten onto the row space, enumerate there, lift back
        _, _, vt = np.linalg.svd(gens, full_matrices=False)
        basis = vt[:rank]
        reduced = _vertices(gens @ basis.T)
        return _dedup_rows(reduced @ basis)
    if n == 1:
        s = float(np.abs(gens).sum())
        return np.asarray([[-s], [s]])
    if n == 2:
        pts = _planar_vertex_signs(gens) @ gens
    else:
        pts = _facet_walk_vertices(gens)
    return _dedup_rows(pts)


# --- H-representation and membership -----------------------------------------


@dataclass(frozen=True)
class HForm:
    """Rank-aware H-form Z = {x : C x = 0, |D x| <= c}.

    complement (C) holds orthonormal rows spanning the complement of the
    generators' span; normals (D) are unit rows inside the span, one per
    facet direction there (extra non-facet rows are harmless), and
    supports (c) are their support values sum_k |D g_k|.
    """

    complement: np.ndarray
    normals: np.ndarray
    supports: np.ndarray


def _span(gens):
    """(nonzero rows, singular values, rank, vt) of the rows of gens.

    vt[:rank] spans the rows and vt[rank:] is the complement. Rows at most
    TIE_TOL times the largest entry (or 1) count as zero. The span keeps
    every singular direction above rounding level (TIE_TOL, not RANK_TOL),
    so a thin but solid zonotope is not flattened.
    """
    gens = np.asarray(gens, dtype=float)
    scale = max(1.0, float(np.abs(gens).max(initial=0.0)))
    gens = gens[np.linalg.norm(gens, axis=1) > TIE_TOL * scale]
    _, s, vt = np.linalg.svd(gens, full_matrices=True)
    return gens, s, int(np.sum(s > TIE_TOL * max(1.0, float(s.max(initial=0.0))))), vt


def hform(gens):
    """H-form of the zonotope generated by the rows of gens.

    Facet normals are computed in the generators' span (_span) and lifted
    back, so flat zonotopes keep exact facets there. Raises
    TooManyGenerators when the span has dimension 4 or more and there are
    more than MAX_GENERATORS nonzero generators.
    """
    n = np.shape(gens)[1]
    gens, _, rank, vt = _span(gens)
    basis = vt[:rank]
    normals = _facet_normals(gens @ basis.T) @ basis if rank else np.zeros((0, n))
    supports = np.abs(normals @ gens.T).sum(axis=1)
    return HForm(vt[rank:], normals, supports)


def _normals_capped(m, rank):
    """Whether hform raises TooManyGenerators for m nonzero generators
    spanning rank dimensions."""
    return rank >= 4 and m > MAX_GENERATORS


def _facet_normals(gens):
    """Unit normals covering every facet direction of a full-rank zonotope.

    Facet normals are orthogonal to n-1 independent generators, so rotated
    generators (n = 2), pair cross products (n = 3), and null vectors of
    (n-1)-subsets (n >= 4, capped at MAX_GENERATORS) cover them all. Extra
    non-facet normals are harmless: every support inequality is valid.
    """
    m, n = gens.shape
    if n == 1:
        return np.ones((1, 1))
    norms = np.linalg.norm(gens, axis=1)
    if n == 2:
        cand = np.stack([-gens[:, 1], gens[:, 0]], axis=1)
        return cand / norms[:, np.newaxis]
    if n == 3:
        i, j = np.triu_indices(m, 1)
        d = np.cross(gens[i], gens[j])
        nd = np.linalg.norm(d, axis=1)
        keep = nd > TIE_TOL * norms[i] * norms[j]
        return d[keep] / nd[keep, np.newaxis]
    if _normals_capped(m, n):
        raise TooManyGenerators(
            f"{m} generators exceed the H-representation cap {MAX_GENERATORS}"
        )
    subsets = np.array(list(itertools.combinations(range(m), n - 1)))
    _, s, vt = np.linalg.svd(gens[subsets], full_matrices=True)
    keep = (s[:, 0] > 0.0) & (s[:, -1] > TIE_TOL * s[:, 0])
    if not keep.any():
        raise DegenerateZonotope("no facet normals found")
    return vt[keep, -1]


def halfspace_representation(z):
    """Exact H-form (unit normals D, offsets c): Z = {x : |D x| <= c}.

    Requires generators spanning R^n; flat zonotopes raise
    DegenerateZonotope (use hform or contains_point for those).
    """
    hf = hform(z.generators)
    if hf.complement.shape[0]:
        raise DegenerateZonotope("generators do not span the space")
    return hf.normals, hf.supports


def contains_point(z, point, tol=DEDUP_TOL):
    """Membership test via the support inequalities; tol is a distance.

    Points farther than tol from the generators' span are outside.
    """
    x = np.asarray(point, dtype=float).ravel()
    if x.size != z.n:
        raise DimensionMismatch(f"point must have length {z.n}")
    if not np.isfinite(x).all():
        raise DimensionMismatch("point contains non-finite entries")
    hf = hform(z.generators)
    if np.linalg.norm(hf.complement @ x) > tol:
        return False
    return bool(np.all(np.abs(hf.normals @ x) <= hf.supports + tol))


# --- polygon exports ---------------------------------------------------------


def polygon_to_csv(poly):
    """CSV text with an "x,y" header; closing vertex not repeated."""
    pts = poly.points if isinstance(poly, Polygon2D) else np.asarray(poly, dtype=float)
    lines = ["x,y"]
    for x, y in pts:
        lines.append(f"{float(x)!r},{float(y)!r}")
    return "\n".join(lines) + "\n"


_SVG_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e"]


def svg_document(polygons, labels=None):
    """Standalone SVG drawing of one or more polygons, overlaid.

    The viewBox spans the joint bounding box with a 5 percent margin.
    Coordinates are emitted y-up (mirrored into SVG's y-down frame).
    """
    polys = [p.points if isinstance(p, Polygon2D) else np.asarray(p) for p in polygons]
    if not polys:
        raise DimensionMismatch("svg_document needs at least one polygon")
    allpts = np.vstack(polys)
    flipped = allpts * np.array([1.0, -1.0])
    lo = flipped.min(axis=0)
    hi = flipped.max(axis=0)
    span = float(max(hi[0] - lo[0], hi[1] - lo[1], 1e-12))
    margin = 0.05 * span
    x0, y0 = lo - margin
    w, h = (hi - lo) + 2 * margin
    stroke = 0.006 * span
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="640" '
        f'viewBox="{x0:.6g} {y0:.6g} {w:.6g} {h:.6g}">'
    ]
    for k, pts in enumerate(polys):
        color = _SVG_COLORS[k % len(_SVG_COLORS)]
        label = labels[k] if labels and k < len(labels) else None
        title = f"<title>{label}</title>" if label else ""
        mirrored = pts * np.array([1.0, -1.0])
        if mirrored.shape[0] == 1:
            x, y = mirrored[0]
            parts.append(
                f'<circle cx="{x:.6g}" cy="{y:.6g}" r="{stroke:.6g}" '
                f'fill="{color}">{title}</circle>'
            )
            continue
        coords = " L ".join(f"{x:.6g} {y:.6g}" for x, y in mirrored)
        closing = " Z" if mirrored.shape[0] > 2 else ""
        parts.append(
            f'<path d="M {coords}{closing}" fill="none" stroke="{color}" '
            f'stroke-width="{stroke:.6g}">{title}</path>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def polygon_to_svg(poly, label=None):
    return svg_document([poly], labels=[label] if label else None)
