"""Origin-centred zonotopes: vertices, support, volume, projections, shape.

A zonotope here is Z = {sum_k t_k g_k : t_k in [-1, 1]} for generators g_k,
stored as the rows of an (m, n) array. Controllability regions of
discrete-time linear systems under unit input amplitude bounds are exactly
such sets, so this module carries the geometric half of the analysis.

Vertices are the regions of the arrangement of the hyperplanes g-perp of
the generators (Zaslavsky, "Facing up to arrangements", Mem. AMS 1975;
Ziegler, Lectures on Polytopes, ch. 7): the sign vector s of a region
gives the vertex s @ G, the maximiser of every direction inside it.
Enumeration never walks all 2^m sign patterns:

* rank 1: the two extreme sums.
* rank 2: generators are flipped into the upper half-plane and sorted by
  angle, parallel ones grouped; one sign chain over the sorted groups
  yields the 2q polygon vertices directly, counterclockwise. The same
  chain draws the outline of every 2-D coordinate projection (project_2d).
* rank >= 3: deletion-restriction (_cells). Generators are added in order;
  a generator parallel to no earlier one splits the regions its
  hyperplane cuts, and those are the regions of the earlier generators
  restricted to that hyperplane, one dimension down. Each region carries
  one direction inside it, which certifies its signs.

Lower-rank zonotopes are flattened onto their span first; every vertex is
a sum of the generators themselves.

One span rule (_spans) decides every span and rank, here and in region
and control: a generator counts, and adds a direction, above TIE_TOL
times the largest generator norm before it. So its decision about the
first j generators reads those j only, nested stages have nested spans,
and a set's rank can depend on its generators' order. One H-form
(_family: span complements, facet normals and cumulative supports of
every stage of stage-major rows) serves membership, gauges and
containment; a zonotope's own is the one stage of _family(G, len(G)),
and membership has one rule (_gauges), min_time's and contains_point's.

Vertex counts need no enumeration (_prefix_counts): by the same
recursion a live generator parallel to no earlier one adds as many
regions as the earlier generators, restricted to its hyperplane, cut
there; in the plane the count is twice the angle classes of the vertex
chain, on a line it is 2. Summed in generator order, the additions give
the count of every leading block G[:p], so one pass over a region
family's final stage counts every stage's vertices. Counts and vertices
share the restriction and its tie decisions, so an enumeration yields
exactly as many vertices as the count, or raises.

Volumes are one determinant sum (_det_sums): 2^n times the sum of |det|
over the generators' n-subsets. A subset lies in every leading block from
the one holding its last row on, so bucketing the |det| by that row and
taking cumulative sums gives every block's volume from the final block's
subsets; blocks of rank below n read 0. Shape factors come from volumes
too: the area of a 2-D coordinate projection is the volume of the
projected generators, so the planar factors share the determinant sum,
its cap and its flat rule (rank below 2 gives 0), all planes in one pass.

Near-ties below TIE_TOL = 1e-12 (relative) are exact ties, above it
distinct. Where the float restriction ties generators that the full
arrangement keeps apart, or a region's direction fails its certificate
(the region is thinner than rounding, or the direction lies in the sliver
between two generators tied as parallel), vertices raise
DegenerateZonotope rather than return vertices they cannot certify.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import _report
from .errors import (
    BadAxes,
    DegenerateZonotope,
    DimensionMismatch,
    NotConvex,
    TooManyGenerators,
    ZeroDirection,
)

TIE_TOL = 1e-12
# membership slack on the gauge (_gauges), and off the span on the distance
# relative to max(1, |x|); lp.max_margin decides membership by it too
GAUGE_TOL = 1e-10
EPS = float(np.finfo(float).eps)
MAX_GENERATORS = 20
# subsets Zonotope.volume sums at most; a 50-step stage in R^3 has 19 600
MAX_VOLUME_SUBSETS = 2_000_000
# planar rows a vertex count sorts at most (_count_size), and sign entries
# a vertex enumeration returns at most, count * m; as many as the 2^20 sign
# sums of MAX_GENERATORS generators
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
        """All vertices as rows, one per region of the generators'
        hyperplane arrangement (_cells), lexicographically sorted.

        There are exactly as many as _prefix_counts counts. Raises
        TooManyGenerators when they would pass the output budget, count * m
        sign entries above MAX_PATTERN_ROWS, read from the count before
        anything is built; raises DegenerateZonotope where near-ties or
        thin regions leave a vertex uncertified (see the module notes).
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

        The outline is the planar vertex chain (_planar_cells), so
        its points run counterclockwise from the lowest vertex; projections
        whose generators are all parallel come back as a degenerate
        segment, and all-zero ones as the single origin point.
        """
        axes = _check_axes(axes, self.n)
        pgens = self.generators[:, list(axes)]
        pgens = pgens[_spans(pgens)[0]]
        if pgens.shape[0] == 0:
            return Polygon2D(points=np.zeros((1, 2)), degenerate=True, axes=axes)
        pts = _planar_cells(pgens)[0] @ pgens
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
        report = _report.to_dict(self)
        report["planarShapeFactors"] = {
            f"x{i + 1},x{j + 1}": v
            for (i, j), v in sorted(self.planar_shape_factors.items())
        }
        return report


def _shape_report(G, rank, volume):
    """Zonotope.shape_report of the generators G of the given rank and volume;
    the planar areas take one determinant pass over all planes (_planar_areas)."""
    n = G.shape[1]
    half = np.abs(G).sum(axis=0)
    side_lengths = 2.0 * half
    box = float(np.prod(side_lengths))
    planar = dict.fromkeys(itertools.combinations(range(n), 2), 0.0)
    planes = [(i, j) for i, j in planar if 4.0 * half[i] * half[j] > 0.0]
    # a planar set is its own projection: its determinants are summed once
    for (i, j), area in zip(planes, [volume] if n == 2 else _planar_areas(G, planes)):
        planar[(i, j)] = area / (4.0 * half[i] * half[j])
    return ShapeReport(
        volume=volume,
        side_lengths=side_lengths,
        overall_shape_factor=volume / box if box > 0.0 else 0.0,
        planar_shape_factors=planar,
        rank=rank,
    )


def _planar_areas(G, planes):
    """Zonotope(G[:, [i, j]]).volume() of each plane (i, j), bit for bit,
    from one _det_sums pass. A plane runs its own _spans pass only where no
    bucket's mean |det| passes _flat_det_bound and some |det| is not 0 (all
    0 reads 0 at any rank). Past MAX_VOLUME_SUBSETS pairs each plane takes
    its own volume rule: flat planes read 0, one of rank 2 raises."""
    if len(G) < 2 or not planes:  # one row spans no plane
        return [0.0] * len(planes)
    stack = G[:, planes].transpose(1, 0, 2)
    if math.comb(len(G), 2) > MAX_VOLUME_SUBSETS:
        return [_volume(p, _spans(p)[2][-1]) for p in stack]
    sums = _det_sums(stack)
    means = (sums[:, 1:] / np.arange(1, len(G))).max(axis=1)
    tops = np.sqrt(np.square(stack).sum(axis=2)).max(axis=1)
    return [
        4.0 * float(t) if fast or not s.any() or _spans(p)[2][-1] == 2 else 0.0
        for p, s, t, fast in zip(
            stack, sums, np.cumsum(sums, axis=1)[:, -1], means > _flat_det_bound(tops)
        )
    ]


def _flat_det_bound(top):
    """The largest |det| of two rows of norm at most top below rank 2.

    Below rank 2 under the span rule, every row is within t = TIE_TOL *
    max(1, top) of one line: a dead row's norm, and a live row's residual
    off the first live row's line, are at most the threshold TIE_TOL *
    max(1, largest norm so far). So |det(a, b)| <= |a| res(b) + res(a) |b|
    <= 2 top t; twice that covers the rounding of residuals and
    determinants.
    """
    return 4.0 * TIE_TOL * top * np.maximum(1.0, top)


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


def _angles(pgens):
    """Angles in [0, pi] of 2-D rows flipped into the upper half-plane, and
    the flips (+-1).

    A row with |y| <= TIE_TOL |x| counts as lying on the x axis, so that
    rounding cannot split parallel rows between the angles 0 and pi.
    """
    x, y = pgens[..., 0], pgens[..., 1]
    flip = np.copysign(1.0, np.where(np.abs(y) <= TIE_TOL * np.abs(x), x, y))
    return np.arctan2(y * flip, x * flip), flip


def _planar_cells(pgens):
    """Sign patterns whose sums are the vertices of a planar zonotope, and
    one direction inside each pattern's region of the line arrangement.

    pgens rows must be nonzero. Rows are flipped into the upper half-plane
    and sorted by angle; rows less than TIE_TOL apart form one group and
    flip together, so the walk visits each polygon vertex once. For q
    groups it returns a (2q, m) array of +-1 whose row k < q sets the
    first k groups to +1 and the rest to -1; rows q.. are their negations.
    Their sums therefore run counterclockwise around the polygon from
    minus the sum of the flipped rows, each step adding twice the next
    group's flipped sum (project_2d draws its outline in this order); a
    single group gives the two ends of a segment. Row k's unit direction
    is a right angle clockwise of the middle of the angle gap before group
    k (for k = 0 the gap that wraps past pi), so it meets every row of the
    groups before k at an acute angle and every later row at an obtuse one.
    """
    m = pgens.shape[0]
    ang, flip = _angles(pgens)
    order = np.argsort(ang, kind="stable")
    ang = ang[order]
    starts = np.concatenate(([0], np.flatnonzero(np.diff(ang) > TIE_TOL) + 1))
    chain = np.empty((starts.size, m))
    chain[:, order] = np.where(np.arange(m) < starts[:, np.newaxis], 1.0, -1.0)
    mid = 0.5 * (ang[starts - 1] + ang[starts])
    mid[0] -= 0.5 * np.pi
    dirs = np.stack([np.sin(mid), -np.cos(mid)], axis=1)
    return np.concatenate([chain, -chain]) * flip, np.concatenate([dirs, -dirs])


def _vertices(G, spans):
    """Zonotope(G).vertices() given _spans(G)."""
    live, basis, dims = spans
    m, n = G.shape
    count = _prefix_counts(G, spans)[-1]
    if count is None or count * m > MAX_PATTERN_ROWS:
        raise TooManyGenerators(f"the vertices of {m} generators pass the output budget")
    rank = int(dims[-1])
    flat = G if rank == n else G @ basis[:rank].T
    signs, dirs = _cells(flat, live)
    if len(signs) != count or not (signs[:, live] * (dirs @ flat[live].T) > 0.0).all():
        raise DegenerateZonotope("a region off the count, or its direction off its certificate")
    verts = signs @ G
    return verts[np.lexsort(verts.T[::-1])]


def _cells(P, mask):
    """Regions of the arrangement of the hyperplanes g-perp of the masked
    rows g of P (k, d), as _prefix_counts counts them: sign rows (r, k), 0
    off the mask, and one direction c inside each, s_i (c . g_i) > 0 up to
    rounding (_vertices checks it).

    Rows are added in order. A row parallel to an earlier one copies its
    signs, times the sign of their dot product. Any other row g splits the
    regions its hyperplane cuts, the regions of the earlier rows restricted
    to g-perp (_restrict, in _prefix_counts' chunks), found by their signs;
    a restricted region missing there means the restriction's float ties
    disagree with the full arrangement's: DegenerateZonotope. The halves
    take the restricted direction, lifted out of the reflector's basis,
    plus and minus eps g / |g|, eps half its sine distance to the nearest
    earlier hyperplane (at most 1/2), and the cut region's old direction on
    its side; every other region keeps its direction and takes sign(c . g).
    """
    k, d = P.shape
    if not mask.any():
        return np.zeros((1, k)), np.zeros((1, d))
    if d == 1:
        s = np.where(mask, np.sign(P[:, 0]), 0.0)
        return np.stack([-s, s]), np.array([[-1.0], [1.0]])
    if d == 2:
        signs, dirs = _planar_cells(P[mask])
        out = np.zeros((len(signs), k))
        out[:, mask] = signs
        return out, dirs
    signs, dirs = np.zeros((1, k)), np.zeros((1, d))
    unit = P / np.where(mask, np.sqrt((P * P).sum(axis=1)), 1.0)[:, np.newaxis]
    step = _count_step(k, d)
    for start in range(0, k, step):
        v, proj, kept, new = _restrict(P, mask, slice(start, start + step))
        for i, j in enumerate(range(start, min(start + step, k))):
            if not new[i]:
                if mask[j]:
                    a = np.flatnonzero(mask & ~kept[i])[0]
                    signs[:, j] = signs[:, a] * np.sign(P[j] @ P[a])
                continue
            sub, sub_dirs = _cells(proj[i], kept[i])
            lifted = sub_dirs @ (np.eye(d)[1:] - np.outer(v[i, 1:], 2.0 * v[i] / (v[i] @ v[i])))
            eps = 0.5 * np.min(np.abs(lifted @ unit[kept[i]].T), axis=1, initial=1.0)
            # sign rows as byte strings; column j is still 0 in both
            keys = np.packbits(np.concatenate([signs, sub])[:, : j + 1] > 0.0, axis=1)
            keys = keys.view(np.dtype((np.void, keys.shape[1]))).ravel()
            have, want = keys[: len(signs)], keys[len(signs) :]
            order = np.argsort(have)
            cut = order[np.minimum(np.searchsorted(have, want, sorter=order), len(have) - 1)]
            if not (have[cut] == want).all():
                raise DegenerateZonotope("restricted ties disagree with the full arrangement's")
            side = dirs @ P[j]
            signs[:, j] = np.sign(side)
            signs = np.concatenate([signs, signs[cut]])
            signs[cut, j], signs[len(side) :, j] = 1.0, -1.0
            # the old direction adds its margins to the half it lies in
            up, down = side[cut, np.newaxis] > 0.0, side[cut, np.newaxis] < 0.0
            halves = np.concatenate([lifted + up * dirs[cut], lifted + down * dirs[cut]])
            halves += np.concatenate([eps, -eps])[:, np.newaxis] * unit[j]
            halves /= np.sqrt((halves * halves).sum(axis=1, keepdims=True))
            dirs[cut] = halves[: len(cut)]
            dirs = np.concatenate([dirs, halves[len(cut) :]])
    return signs, dirs


# --- vertex counts and volumes of leading blocks -----------------------------


def _volume(G, rank):
    """2^n times the sum of |det| over G's n-subsets; 0.0 below rank n.

    The buckets are added in order, as _prefix_volumes adds them, so a
    stage has one volume whichever route asks for it."""
    n = G.shape[1]
    if rank < n:
        return 0.0
    return 2.0**n * float(np.cumsum(_det_sums(G))[-1])


def _det_sums(G):
    """|det| of every n-subset of G's rows, summed by the subset's last row.

    Entry j sums the subsets whose largest row index is j. Such a subset
    belongs to every leading block G[:p] with p > j, so cumulative sums
    give the volume of every block. Raises TooManyGenerators past
    MAX_VOLUME_SUBSETS subsets, checked before any subset is built; the
    determinants are taken in chunks of about CHUNK_BYTES, and a subset
    table that fits in one chunk is built once per (m, n). A stack
    (k, m, n) of sets gives (k, m) sums, as many whole sets a chunk as fit.
    """
    m, n = G.shape[-2:]
    count = math.comb(m, n)
    if count > MAX_VOLUME_SUBSETS:
        raise TooManyGenerators(
            f"{count} generator subsets exceed the volume cap {MAX_VOLUME_SUBSETS}"
        )
    chunk = max(1, CHUNK_BYTES // (8 * n * n))
    sets = G if G.ndim == 3 else G[np.newaxis]
    sums = np.zeros(len(sets) * m)
    offsets = np.arange(0, len(sums), m)[:, np.newaxis]
    group = max(1, chunk // max(1, count))
    for lo in range(0, len(sets), group):
        subsets = itertools.combinations(range(m), n)
        for start in range(0, count, chunk):
            take = min(chunk, count - start)
            if take == count:
                idx = _subset_table(m, n)
            else:
                idx = _subset_rows(subsets, take, n)
            dets = np.abs(np.linalg.det(sets[lo : lo + group, idx])).ravel()
            # bincount adds each bin's weights in input order: every set's
            # sums are those of its own call
            bins = (idx[:, -1] + offsets[lo : lo + group]).ravel()
            sums += np.bincount(bins, dets, len(sums))
            del dets, bins  # freed before the next chunk's matrices are built
    return sums.reshape(G.shape[:-1])


def _subset_rows(subsets, take, n):
    """The next take n-subsets of the iterator as rows of indices."""
    flat = itertools.chain.from_iterable(itertools.islice(subsets, take))
    return np.fromiter(flat, dtype=np.intp, count=take * n).reshape(take, n)


@lru_cache(maxsize=64)
def _subset_table(m, n):
    """Every n-subset of range(m) in combinations order, read-only; for
    _det_sums, which builds it only when it fits in one chunk, and for
    _facet_normals, whose m the normal cap holds to MAX_GENERATORS."""
    table = _subset_rows(itertools.combinations(range(m), n), math.comb(m, n), n)
    table.flags.writeable = False
    return table


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


def _count_step(p, rank):
    """Rows _prefix_counts and _cells restrict at once, p rows of rank >= 2."""
    return max(1, CHUNK_BYTES * p // (8 * rank * _count_size(p, rank)))


def _prefix_counts(G, spans):
    """Vertex counts of the zonotopes of G[:p] for p = 0..m, given _spans(G).

    The rows are flattened onto their span, and each count is that of the
    regions of the arrangement of the hyperplanes g-perp of the live rows
    (_additions). Rank 0 gives 1, rank 1 gives 2, and rank 2 twice the
    angle classes of _planar_cells, prefix by prefix. A count is None past the
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
        step = _count_step(p, rank)
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


def _class_counts(ang, mask):
    """Twice the angle classes of the masked rows, as _planar_cells
    groups them (sorted angles more than TIE_TOL apart), or 1 for none."""
    ang = np.where(mask, ang, 4.0)  # past pi: masked rows sort last
    ang.sort(axis=-1)
    rows = mask.sum(axis=-1)
    gaps = np.diff(ang, axis=-1) > TIE_TOL
    gaps &= np.arange(ang.shape[-1] - 1) < rows[..., np.newaxis] - 1
    return np.where(rows > 0, 2 * (1 + gaps.sum(axis=-1)), 1)


def _additions(P, mask, rows=slice(None)):
    """Regions each row of P[..., rows, :] adds to the arrangement of the
    masked rows before it, for P (..., k, d), d >= 3: a new row adds the
    regions of the rows it keeps, restricted to its hyperplane (_restrict),
    in the plane twice their angle classes, above it 1 plus their additions."""
    _, proj, kept, new = _restrict(P, mask, rows)
    if proj.shape[-1] == 2:
        counts = _class_counts(_angles(proj)[0], kept)
    else:
        counts = 1 + _additions(proj, kept).sum(axis=-1)
    return np.where(new, counts, 0)


def _restrict(P, mask, rows=slice(None)):
    """Deletion-restriction (Zaslavsky) for each row g of P[..., rows, :]
    against the masked rows of P (..., k, d) before it: (v, proj, kept, new).

    proj holds every row in a Householder basis of g-perp, the reflector
    I - 2 v v^T / v.v less its first row. kept marks the masked rows before
    g not parallel to it (sines above TIE_TOL): restricted to g-perp, their
    regions are the ones g adds, one dimension down. new marks the masked
    rows parallel to no masked row before them; the others add none.
    """
    k = P.shape[-2]
    norm = np.sqrt((P * P).sum(axis=-1))
    unit = P[..., rows, :] / np.where(mask, norm, 1.0)[..., rows, np.newaxis]
    # the reflector maps g onto the first axis, so its other rows span
    # g-perp; |v[0]| >= 1 keeps v.v away from 0
    v = unit.copy()
    v[..., 0] += np.where(unit[..., 0] < 0.0, -1.0, 1.0)
    scale = 2.0 * (v @ np.swapaxes(P, -1, -2)) / (v * v).sum(axis=-1)[..., np.newaxis]
    proj = P[..., np.newaxis, :, 1:] - scale[..., np.newaxis] * v[..., np.newaxis, 1:]
    before = mask[..., np.newaxis, :] & (np.arange(k) < np.arange(k)[rows, np.newaxis])
    kept = before & (np.sqrt((proj * proj).sum(axis=-1)) > TIE_TOL * norm[..., np.newaxis, :])
    new = mask[..., rows] & ~(before & ~kept).any(axis=-1)
    return v, proj, kept, new


# --- H-form and membership ----------------------------------------------------


@dataclass(frozen=True)
class _Family:
    """Stage-major generator rows (stage k is rows[:k*r]) with their facets.

    live and dims come from one _spans call. dirs stacks its basis, whose
    rows from dims[k*r] on are stage k's complement, and the unit facet
    normals of the last stage of each run of stages of one span dimension
    (they include every earlier stage's subset normals). supports[i, k-1]
    is stage k's cumulative support sum_{j < k r} |dirs[i] . g_j| along a
    normal of its run, 0 along its own complement rows and infinite where
    row i bounds nothing. capped is the first stage past the normal cap
    (span dimension 4 or more and more than MAX_GENERATORS live
    generators), or None; earlier stages have columns. It is the one
    source of what compare_ability and verify_theorem1 report (the rank
    dims[-1]; live, dirs[:n] and dims for the vertex states), and a
    zonotope's own H-form is the one stage of _family(G, len(G)).
    """

    rows: np.ndarray
    r: int
    live: np.ndarray
    dims: np.ndarray
    dirs: np.ndarray
    supports: np.ndarray
    capped: int | None


def _family(rows, r):
    """The _Family of stage-major rows with r generators per stage."""
    n = rows.shape[1]
    live, basis, dims = _spans(rows)
    # per-stage bookkeeping on plain lists: a few stages, so numpy's fixed
    # cost per call would outweigh the work
    span_dims = dims.tolist()[r::r]
    counts = itertools.islice(itertools.accumulate(live.tolist()), r - 1, None, r)
    over = (d >= 4 and m > MAX_GENERATORS for m, d in zip(counts, span_dims))
    capped = next((k for k, o in enumerate(over, 1) if o), None)
    stages = len(span_dims) if capped is None else capped - 1
    starts = [k for k in range(stages) if k == 0 or span_dims[k] != span_dims[k - 1]]
    runs = list(zip(starts, [*starts[1:], stages]))
    normals = []
    for _, end in runs:
        span = basis[: span_dims[end - 1]]
        head = rows[: end * r][live[: end * r]]
        normals.append(_facet_normals(head @ span.T) @ span if len(span) else span)
    dirs = np.vstack([basis, *normals])
    supports = np.full((len(dirs), stages), np.inf)
    i = n
    for (start, end), d in zip(runs, normals):
        supports[span_dims[start] : n, start:end] = 0.0
        sums = _cumulative_supports(d, rows[: end * r], r)
        supports[i : i + len(d), start:end] = sums[:, start:]
        i += len(d)
    return _Family(rows, r, live, dims, dirs, supports, capped)


def _uncapped(fam):
    """fam, or TooManyGenerators when a stage of it is past the normal cap."""
    if fam.capped:
        raise TooManyGenerators(f"stage {fam.capped} is past the normal cap {MAX_GENERATORS}")
    return fam


def _cumulative_supports(dirs, rows, r):
    """Support of each stage of rows (r per stage) along each row of dirs."""
    return np.cumsum(np.abs(dirs @ rows.T), axis=1)[:, r - 1 :: r]


def _gauges(fam, x, lo, hi):
    """Gauges of x in stages lo+1 .. hi of a family, and separating
    directions.

    x lies in stage k when its gauge is at most 1: within GAUGE_TOL *
    max(1, |x|) of the span (Euclidean distance, from the complement
    rows), and |D x| within GAUGE_TOL * C plus the rounding bound of the
    products; the gauge is then capped at 1, since rounding on a thin
    facet can push the ratio past it. Otherwise the gauge exceeds 1
    (infinite off the span) and d . x > sum |d . g| for the unit
    direction d; it is None for members.
    """
    c = fam.supports[:, lo:hi]
    dx = fam.dirs @ x
    ax = np.abs(dx)[:, np.newaxis]
    off = np.where(c == 0.0, ax, 0.0)
    # a distance, so the same in any basis of the stage's complement
    leaves = np.linalg.norm(off, axis=0) > GAUGE_TOL * max(1.0, np.linalg.norm(x))
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


def _facet_normals(gens):
    """Unit normals covering every facet direction of a full-rank zonotope.

    Facet normals are orthogonal to n-1 independent generators, so rotated
    generators (n = 2), pair cross products (n = 3), and null vectors of
    (n-1)-subsets (n >= 4) cover them all; _family caps the last. Extra
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
    if n == 3:
        # the pairs i < j, crossed in np.cross's operation order (the same
        # bits) without its fixed cost on tiny arrays
        i, j = np.nonzero(~np.tri(m, dtype=bool))
        (a0, a1, a2), (b0, b1, b2) = unit[i].T, unit[j].T
        d = np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=1)
        nd = np.linalg.norm(d, axis=1)
        normals = d[nd > TIE_TOL] / nd[nd > TIE_TOL, np.newaxis]
    else:
        _, s, vt = np.linalg.svd(unit[_subset_table(m, n - 1)], full_matrices=True)
        normals = vt[s[:, -1] > TIE_TOL * s[:, 0], -1]
    if not len(normals):
        raise DegenerateZonotope("no facet normals found")
    return normals


def halfspace_representation(z):
    """Exact H-form (unit normals D, offsets c): Z = {x : |D x| <= c}.

    D holds the normal rows of the zonotope's one-stage _family and c
    their supports, summed over every generator. Requires generators
    spanning R^n: flat zonotopes raise DegenerateZonotope (contains_point
    takes those). Past the normal cap, TooManyGenerators.
    """
    fam = _uncapped(_family(z.generators, z.m))
    if fam.dims[-1] < z.n:
        raise DegenerateZonotope("generators do not span the space")
    return fam.dirs[z.n :], fam.supports[z.n :, 0]


def contains_point(z, point):
    """Whether point lies in z: its gauge in the zonotope's one-stage
    _family is at most 1 (_gauges, the rule min_time decides stages by).

    Flat zonotopes hold the points within GAUGE_TOL * max(1, |x|) of their
    span. Past the normal cap, TooManyGenerators.
    """
    x = np.asarray(point, dtype=float).ravel()
    if x.size != z.n:
        raise DimensionMismatch(f"point must have length {z.n}")
    if not np.isfinite(x).all():
        raise DimensionMismatch("point contains non-finite entries")
    gauge, _ = next(_gauges(_uncapped(_family(z.generators, z.m)), x, 0, 1))
    return gauge <= 1.0


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
