"""Origin-centred zonotopes: vertices, support, volume, projections, shape.

A zonotope here is Z = {sum_k t_k g_k : t_k in [-1, 1]} for generators g_k,
stored as the rows of an (m, n) array. Controllability regions of
discrete-time linear systems under unit input amplitude bounds are exactly
such sets, so this module carries the geometric half of the analysis.

Vertex enumeration never walks all 2^m sign patterns:

* n = 1 and rank 1: the two extreme sums.
* n = 2 (and rank-2 slices of higher dimensions): generators are flipped
  into the upper half-plane and sorted by angle, parallel ones grouped;
  one sign chain over the sorted groups yields the 2q polygon vertices
  directly, counterclockwise. The same chain draws the outline of every
  2-D coordinate projection (project_2d).
* n >= 3: a facet walk. Every facet normal is orthogonal to n-1
  generators (_facet_normals, shared with hform); a facet with exactly
  n-1 tied generators is a parallelotope whose corners are read off one
  sign table, and every other facet is enumerated in its own hyperplane
  by the same routine. Lower-rank zonotopes are flattened onto their span
  first; every vertex is a sum of the generators themselves.

One span rule (_spans) decides every span and rank, here and in region
and control: a generator counts, and adds a direction, above TIE_TOL
times the largest generator norm before it. So its decision about the
first j generators reads those j only, nested stages have nested spans,
and a set's rank can depend on its generators' order. Membership, gauges and
containment all read one rank-aware H-form (hform): the complement of
the generators' span, unit facet normals in it, and their supports.

Vertex counts need no enumeration (_prefix_counts). The vertices of a
zonotope match the regions of the arrangement of the hyperplanes g-perp
of its generators (Zaslavsky, "Facing up to arrangements", Mem. AMS 1975;
Ziegler, Lectures on Polytopes, ch. 7). By deletion-restriction a live
generator parallel to no earlier one adds as many regions as the earlier
generators, projected onto its hyperplane, cut there, one dimension down;
in the plane the count is twice the angle classes of the vertex chain,
on a line it is 2. Summed in generator order, the additions give the
count of every leading block G[:p], so one pass over a region family's
final stage counts every stage's vertices, past MAX_GENERATORS too.

Volumes are one determinant sum (_det_sums): 2^n times the sum of |det|
over the generators' n-subsets. A subset lies in every leading block from
the one holding its last row on, so bucketing the |det| by that row and
taking cumulative sums gives every block's volume from the final block's
subsets; blocks of rank below n read 0. Shape factors come from volumes
too: the area of a 2-D coordinate projection is the volume of the
projected generators, so the planar factors share the determinant sum,
its cap and its flat rule (rank below 2 gives 0).

Near-ties below 1e-12 (relative) are treated as exact ties and expanded on
both sides; inputs engineered with angle gaps between 1e-12 and 1e-9 are
outside the supported precision envelope.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property

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
TIE_TOL = 1e-12
EPS = float(np.finfo(float).eps)
MAX_GENERATORS = 20
# subsets Zonotope.volume sums at most; a 50-step stage in R^3 has 19 600
MAX_VOLUME_SUBSETS = 2_000_000
# corner sign patterns the facet walk builds at most, C(m, n-1) * 2^n; the
# same budget as enumerating all 2^MAX_GENERATORS sign sums
MAX_PATTERN_ROWS = 1 << MAX_GENERATORS
CHUNK_BYTES = 1 << 20


class Zonotope:
    """Origin-symmetric zonotope given by generator rows (m, n).

    Rows are read in order (_spans), so the rank can depend on it:
    [[1e10, 0], [0, 1e-3]] has rank 1 and [[0, 1e-3], [1e10, 0]] rank 2.
    """

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

    @cached_property
    def _span_rule(self):
        return _spans(self.generators)

    def rank(self):
        """Dimension of the generators' span under the span rule (_spans)."""
        return int(self._span_rule[2][-1])

    def vertices(self):
        """All vertices as rows, deduplicated at 1e-9, lexicographically sorted.

        Raises TooManyGenerators past MAX_GENERATORS generators, or past
        MAX_PATTERN_ROWS facet corner patterns (n >= 7 with many
        generators), checked before anything is built.
        """
        return _vertices(self.generators, self._span_rule)

    def volume(self):
        """Exact volume 2^n * sum over n-subsets of |det|; 0 when flat.

        Raises TooManyGenerators past MAX_VOLUME_SUBSETS subsets, checked
        before any subset is built (_det_sums).
        """
        return _volume(self.generators, self.rank())

    def project_2d(self, axes):
        """Project onto two coordinate axes and build the polygon outline.

        The outline is the planar vertex chain (_planar_vertex_signs), so
        its points run counterclockwise from the lowest vertex; projections
        whose generators are all parallel come back as a degenerate
        segment, and all-zero ones as the single origin point.
        """
        axes = _check_axes(axes, self.n)
        pgens = self.generators[:, list(axes)]
        pgens = pgens[_spans(pgens)[0]]
        if pgens.shape[0] == 0:
            return Polygon2D(points=np.zeros((1, 2)), degenerate=True, axes=axes)
        pts = _planar_vertex_signs(pgens) @ pgens
        return Polygon2D(points=pts, degenerate=pts.shape[0] == 2, axes=axes)

    def shape_report(self):
        """Volume, circumscribing-box sides, and shape factors in [0, 1].

        The overall factor compares the volume against the box volume; the
        planar factors compare each 2-D projection's area, the volume of
        the projected generators, against the projected box area. Flat
        projections and degenerate axes produce zero factors.
        """
        return _shape_report(self.generators, self.rank(), self.volume())


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


def _shape_report(G, rank, volume):
    """Zonotope.shape_report of the generators G of the given rank and volume."""
    n = G.shape[1]
    half = np.abs(G).sum(axis=0)
    side_lengths = 2.0 * half
    box = float(np.prod(side_lengths))
    planar = {}
    for i, j in itertools.combinations(range(n), 2):
        denom = 4.0 * half[i] * half[j]
        if denom <= 0.0:
            planar[(i, j)] = 0.0
            continue
        pgens = G[:, [i, j]]
        # a planar set is its own projection: its determinants are summed once
        area = volume if n == 2 else _volume(pgens, _spans(pgens)[2][-1])
        planar[(i, j)] = area / denom
    return ShapeReport(
        volume=volume,
        side_lengths=side_lengths,
        overall_shape_factor=volume / box if box > 0.0 else 0.0,
        planar_shape_factors=planar,
        rank=rank,
    )


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


def _spans(rows):
    """The span rule for generator rows taken in order: (live, basis, dims).

    Row j's threshold is TIE_TOL times the largest row norm of rows[:j+1]
    (or 1): the row is live above it, and adds a direction when its
    Gram-Schmidt residual off the directions before it is above it too,
    so at a sine above TIE_TOL, the tie rule of _facet_normals. The span of
    rows[:j] has dimension dims[j]; orthonormal basis[:dims[j]] spans it,
    basis[dims[j]:] its complement."""
    n = rows.shape[1]
    # plain floats: on vectors this short they beat numpy calls
    zero, live, basis, dims = TIE_TOL, [], [], [0]
    for row in rows.tolist():
        size = math.sqrt(sum(map(operator.mul, row, row)))
        zero = max(zero, TIE_TOL * size)
        live.append(size > zero)
        if size > zero and len(basis) < n:
            res, left = _residual(row, basis)
            if left > zero:
                if left < 0.5 * size:  # cancellation: orthogonalize again
                    res, left = _residual(res, basis)
                basis.append([x / left for x in res])
        dims.append(len(basis))
    # complete with the unit vector farthest from the span so far
    lev = [sum(b[i] * b[i] for b in basis) for i in range(n)]
    while len(basis) < n:
        i = lev.index(min(lev))
        res, left = _residual([float(k == i) for k in range(n)], basis)
        basis.append([x / left for x in res])
        lev = [v + x * x for v, x in zip(lev, basis[-1])]
    return np.array(live, dtype=bool), np.array(basis), np.array(dims)


def _residual(row, basis):
    """(row less its projections on the orthonormal basis rows, its norm)."""
    for b in basis:
        c = sum(map(operator.mul, b, row))
        row = [x - c * y for x, y in zip(row, b)]
    return row, math.sqrt(sum(map(operator.mul, row, row)))


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
    x, y = pgens[..., 0], pgens[..., 1]
    flip = np.copysign(1.0, np.where(np.abs(y) <= TIE_TOL * np.abs(x), x, y))
    return pgens * flip[..., np.newaxis], flip


def _angles(pgens):
    """Angles in [0, pi] of the flipped rows (_canonical_flip), and the flips."""
    canon, flip = _canonical_flip(pgens)
    return np.arctan2(canon[..., 1], canon[..., 0]), flip


def _planar_vertex_signs(pgens):
    """Sign patterns whose sums are the vertices of a planar zonotope.

    pgens rows must be nonzero. Rows are flipped into the upper half-plane
    and sorted by angle; rows less than TIE_TOL apart form one group and
    flip together, so the walk visits each polygon vertex once. For q
    groups it returns a (2q, m) array of +-1 whose row k < q sets the
    first k groups to +1 and the rest to -1; rows q.. are their negations.
    Their sums therefore run counterclockwise around the polygon from
    minus the sum of the flipped rows, each step adding twice the next
    group's flipped sum (project_2d draws its outline in this order); a
    single group gives the two ends of a segment.
    """
    m = pgens.shape[0]
    ang, flip = _angles(pgens)
    order = np.argsort(ang, kind="stable")
    starts = np.concatenate(([0], np.flatnonzero(np.diff(ang[order]) > TIE_TOL) + 1))
    chain = np.empty((starts.size, m))
    chain[:, order] = np.where(np.arange(m) < starts[:, np.newaxis], 1.0, -1.0)
    return np.concatenate([chain, -chain]) * flip


def _facet_walk_signs(gens):
    """Vertex sign rows of a full-rank zonotope in R^n, n >= 3.

    Every vertex lies on a facet, and every facet normal is among the
    (n-1)-subset normals of _facet_normals. Along a unit normal d a facet
    is the sum of the decided generators, sign(d . g) g, plus the zonotope
    of the tied ones, |d . g| <= TIE_TOL |g|. A simple facet has n-1 tied
    generators and is a parallelotope, so its corners are sign patterns;
    they are kept as bit codes (bit j set for +g_j), which merge repeated
    corners exactly. Every other facet is enumerated by _vertex_signs, once
    per tied set, with the tied generators projected into its hyperplane;
    so is the lower-dimensional face of a normal too inexact to tie its own
    generators (a nearly parallel pair's), down to a single vertex when
    nothing is tied.

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
    normals = _facet_normals(gens)
    bits = np.left_shift(1, np.arange(m, dtype=np.int64))
    corners = (np.arange(1 << (n - 1))[:, np.newaxis] >> np.arange(n - 1)) & 1
    chunk = max(1, CHUNK_BYTES // (8 * (m + corners.shape[0])))
    codes, facet_sets, facet_normals = [], [], []
    for start in range(0, normals.shape[0], chunk):
        block = normals[start : start + chunk]
        dots = block @ unit.T
        tied = np.abs(dots) <= TIE_TOL
        up = ((dots > 0.0) & ~tied) @ bits
        simple = tied.sum(axis=1) == n - 1
        cols = np.nonzero(tied[simple])[1].reshape(-1, n - 1)
        codes.append(np.unique(up[simple, np.newaxis] + bits[cols] @ corners.T))
        other = ~simple
        facet_sets.append(tied[other] @ bits)
        facet_normals.append(block[other])
    codes = np.concatenate(codes)
    codes = np.unique(np.concatenate([codes, codes ^ ((1 << m) - 1)]))
    signs = [((codes[:, np.newaxis] >> np.arange(m)) & 1) * 2.0 - 1.0]
    facet_sets, first = np.unique(np.concatenate(facet_sets), return_index=True)
    for code, d in zip(facet_sets, np.concatenate(facet_normals)[first]):
        tied = (code >> np.arange(m)) & 1 == 1
        base = np.where(tied, 0.0, np.sign(unit @ d))
        # tied generators only, put into the facet's plane they may leave
        flat = np.where(tied[:, np.newaxis], gens - np.outer(gens @ d, d), 0.0)
        face = _vertex_signs(flat, _spans(flat))
        signs += [base + face, face - base]
    return np.vstack(signs)


def _vertices(G, spans):
    """Zonotope(G).vertices() given _spans(G), cap check included."""
    if len(G) > MAX_GENERATORS:
        raise TooManyGenerators(
            f"{len(G)} generators exceed the enumeration cap {MAX_GENERATORS}"
        )
    return _dedup_rows(_vertex_signs(G, spans) @ G)


def _vertex_signs(G, spans):
    """Sign rows s, 0 where a row is not live, with the vertex candidates
    of G's zonotope at s @ G (sums of the generators), given _spans(G)."""
    live, basis, dims = spans
    gens, rank, n = G[live], dims[-1], G.shape[1]
    if rank == 0:
        return np.zeros((1, len(G)))
    if rank < n:
        # flatten onto the span and enumerate there
        flat = gens @ basis[:rank].T
        signs = _vertex_signs(flat, _spans(flat))
    elif n == 1:
        signs = np.sign(gens.T) * np.array([[-1.0], [1.0]])
    elif n == 2:
        signs = _planar_vertex_signs(gens)
    else:
        signs = _facet_walk_signs(gens)
    out = np.zeros((len(signs), len(G)))
    out[:, live] = signs
    return out


# --- vertex counts and volumes of leading blocks -----------------------------


def _volume(G, rank):
    """2^n times the sum of |det| over G's n-subsets; 0.0 below rank n."""
    n = G.shape[1]
    if rank < n:
        return 0.0
    return 2.0**n * float(_det_sums(G).sum())


def _det_sums(G):
    """|det| of every n-subset of G's rows, summed by the subset's last row.

    Entry j sums the subsets whose largest row index is j. Such a subset
    belongs to every leading block G[:p] with p > j, so cumulative sums
    give the volume of every block. Raises TooManyGenerators past
    MAX_VOLUME_SUBSETS subsets, checked before any subset is built; the
    determinants are taken in chunks of about CHUNK_BYTES.
    """
    m, n = G.shape
    count = math.comb(m, n)
    if count > MAX_VOLUME_SUBSETS:
        raise TooManyGenerators(
            f"{count} generator subsets exceed the volume cap {MAX_VOLUME_SUBSETS}"
        )
    sums = np.zeros(m)
    chunk = max(1, CHUNK_BYTES // (8 * n * n))
    subsets = itertools.combinations(range(m), n)
    for start in range(0, count, chunk):
        take = min(chunk, count - start)
        flat = itertools.chain.from_iterable(itertools.islice(subsets, take))
        idx = np.fromiter(flat, dtype=np.intp, count=take * n).reshape(take, n)
        sums += np.bincount(idx[:, -1], np.abs(np.linalg.det(G[idx])), minlength=m)
    return sums


def _prefix_volumes(G, dims):
    """Volumes of the zonotopes of G[:p] for p = 0..m from one _det_sums;
    exactly 0.0 where the span rule's dims[p] is below n, and with no
    determinant taken (nor the subset cap checked) when G itself is flat."""
    n = G.shape[1]
    if dims[-1] < n:
        return np.zeros(len(dims))
    vol = 2.0**n * np.concatenate(([0.0], np.cumsum(_det_sums(G))))
    return np.where(dims == n, vol, 0.0)


def _count_size(m, rank):
    """Planar rows _prefix_counts sorts for m generators of a given rank."""
    return m ** max(2, rank - 1) if rank >= 2 else 0


def _prefix_counts(G, spans):
    """Vertex counts of the zonotopes of G[:p] for p = 0..m, given _spans(G).

    The rows are flattened onto their span, and each count is that of the
    regions of the arrangement of the hyperplanes g-perp of the live rows
    (_additions). Rank 0 gives 1, rank 1 gives 2, and rank 2 twice the
    angle classes of _planar_vertex_signs, prefix by prefix. A count is None past the
    count budget: _count_size(p, dims[p]) above MAX_PATTERN_ROWS, checked
    before any array is built; arrays are built in chunks of about
    CHUNK_BYTES.
    """
    live, basis, dims = spans
    m, n = G.shape
    p = m
    while _count_size(p, int(dims[p])) > MAX_PATTERN_ROWS:
        p -= 1
    rank = int(dims[p])
    flat = G[:p] if rank == n else G[:p] @ basis[:rank].T
    live = live[:p]
    if rank < 2:
        counts = np.where(np.cumsum(live) > 0, 2, 1)
    else:
        step = max(1, CHUNK_BYTES * p // (8 * rank * _count_size(p, rank)))
        starts = range(0, p, step)
        if rank == 2:
            # prefix by prefix: a row can join two angle classes into one
            ang, _ = _angles(flat)
            index = np.arange(p)
            counts = np.concatenate([
                _class_counts(ang, live & (index <= index[s : s + step, np.newaxis]))
                for s in starts
            ])
        else:
            adds = [_additions(flat, live, slice(s, s + step)) for s in starts]
            counts = 1 + np.cumsum(np.concatenate(adds))
    return [1] + counts.tolist() + [None] * (m - p)


def _region_counts(P, mask):
    """Regions of the arrangement of the hyperplanes g-perp of the rows g of
    P[b] under mask[b], for every batch index b of P (..., k, d), d >= 2."""
    if P.shape[-1] == 2:
        return _class_counts(_angles(P)[0], mask)
    return 1 + _additions(P, mask).sum(axis=-1)


def _class_counts(ang, mask):
    """Twice the angle classes of the masked rows, as _planar_vertex_signs
    groups them (sorted angles more than TIE_TOL apart), or 1 for none."""
    ang = np.where(mask, ang, 4.0)  # past pi: masked rows sort last
    ang.sort(axis=-1)
    rows = mask.sum(axis=-1)
    gaps = np.diff(ang, axis=-1) > TIE_TOL
    gaps &= np.arange(ang.shape[-1] - 1) < rows[..., np.newaxis] - 1
    return np.where(rows > 0, 2 * (1 + gaps.sum(axis=-1)), 1)


def _additions(P, mask, rows=slice(None)):
    """Regions each row g of P[..., rows, :] adds to the arrangement of the
    masked rows before it, for P (..., k, d), d >= 3.

    Deletion-restriction (Zaslavsky): a masked row parallel to no earlier
    one (sines above TIE_TOL) adds the regions of the earlier rows
    restricted to g-perp, one dimension down: their coordinates in a
    Householder basis of g-perp, less the rows parallel to g. A row
    parallel to an earlier one adds none.
    """
    k = P.shape[-2]
    norm = np.sqrt((P * P).sum(axis=-1))
    unit = P[..., rows, :] / np.where(mask, norm, 1.0)[..., rows, np.newaxis]
    # the reflector I - 2 v v^T / v.v maps g onto the first axis, so its
    # other rows span g-perp; |v[0]| >= 1 keeps v.v away from 0
    v = unit.copy()
    v[..., 0] += np.where(unit[..., 0] < 0.0, -1.0, 1.0)
    scale = 2.0 * (v @ np.swapaxes(P, -1, -2)) / (v * v).sum(axis=-1)[..., np.newaxis]
    proj = P[..., np.newaxis, :, 1:] - scale[..., np.newaxis] * v[..., np.newaxis, 1:]
    before = mask[..., np.newaxis, :] & (np.arange(k) < np.arange(k)[rows, np.newaxis])
    kept = before & (np.sqrt((proj * proj).sum(axis=-1)) > TIE_TOL * norm[..., np.newaxis, :])
    new = mask[..., rows] & ~(before & ~kept).any(axis=-1)
    return np.where(new, _region_counts(proj, kept), 0)


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


def hform(gens):
    """H-form of the zonotope generated by the rows of gens.

    Facet normals are computed in the generators' span (_spans) and lifted
    back, so flat zonotopes keep exact facets there; the supports sum over
    every row. Raises TooManyGenerators when the span has dimension 4 or
    more and there are more than MAX_GENERATORS live generators.
    """
    gens = np.asarray(gens, dtype=float)
    live, basis, dims = _spans(gens)
    span = basis[: dims[-1]]
    normals = _facet_normals(gens[live] @ span.T) @ span if len(span) else span
    # every row counts in the supports, rounding-level ones included: a row
    # the span drops can still weigh on a thin facet
    supports = np.abs(normals @ gens.T).sum(axis=1)
    return HForm(basis[dims[-1] :], normals, supports)


def _normals_capped(m, rank):
    """Whether hform raises TooManyGenerators for m live generators
    spanning rank dimensions."""
    return (rank >= 4) & (m > MAX_GENERATORS)


def _facet_normals(gens):
    """Unit normals covering every facet direction of a full-rank zonotope.

    Facet normals are orthogonal to n-1 independent generators, so rotated
    generators (n = 2), pair cross products (n = 3), and null vectors of
    (n-1)-subsets (n >= 4, capped at MAX_GENERATORS) cover them all. Extra
    non-facet normals are harmless: every support inequality is valid.
    Generators are scaled to unit length, so subsets are independent by
    their sines (above TIE_TOL, as in _spans); none is DegenerateZonotope.
    """
    m, n = gens.shape
    if n == 1:
        return np.ones((1, 1))
    unit = gens / np.linalg.norm(gens, axis=1)[:, np.newaxis]
    if n == 2:
        return np.stack([-unit[:, 1], unit[:, 0]], axis=1)
    if _normals_capped(m, n):
        raise TooManyGenerators(
            f"{m} generators exceed the H-representation cap {MAX_GENERATORS}"
        )
    if n == 3:
        i, j = np.triu_indices(m, 1)
        d = np.cross(unit[i], unit[j])
        nd = np.linalg.norm(d, axis=1)
        normals = d[nd > TIE_TOL] / nd[nd > TIE_TOL, np.newaxis]
    else:
        subsets = np.array(list(itertools.combinations(range(m), n - 1)))
        _, s, vt = np.linalg.svd(unit[subsets], full_matrices=True)
        normals = vt[s[:, -1] > TIE_TOL * s[:, 0], -1]
    if not len(normals):
        raise DegenerateZonotope("no facet normals found")
    return normals


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
    rounding = z.m * EPS * (np.abs(hf.normals) @ np.abs(x) + hf.supports)
    return bool(np.all(np.abs(hf.normals @ x) <= hf.supports + tol + rounding))


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
