"""Tests for zonotope geometry: vertices, volume, projections, membership."""

import itertools
import math
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    assert_vertex_sets_match,
    near_parallel_rows,
    own_hform,
    subprocess_env,
)
from ctrlgauge import (
    BadAxes,
    LdtSystem,
    DegenerateZonotope,
    DimensionMismatch,
    NotConvex,
    Polygon2D,
    RegionKind,
    TooManyGenerators,
    ZeroDirection,
    Zonotope,
    contains_point,
    halfspace_representation,
    polygon_area,
    polygon_to_csv,
    reach_region,
    region_summary,
    stage_generators,
    svg_document,
)
from ctrlgauge import zonotope
from ctrlgauge.oracle import brute_vertices
from ctrlgauge.zonotope import (
    CHUNK_BYTES,
    MAX_PATTERN_ROWS,
    MAX_VOLUME_SUBSETS,
    TIE_TOL,
    _cells,
    _count_size,
    _det_sums,
    _facet_normals,
    _flat_det_bound,
    _prefix_counts,
    _shape_report,
    _spans,
    _volume,
)


class TestBasics:
    def test_shape_and_rank(self):
        z = Zonotope([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        assert z.m == 3
        assert z.n == 2
        assert z.rank() == 2

    def test_one_dim_generator_coerced(self):
        z = Zonotope([3.0])
        assert z.m == 1 and z.n == 1

    def test_nonfinite_rejected(self):
        with pytest.raises(DimensionMismatch):
            Zonotope([[np.inf, 0.0]])

    def test_support_unit_square(self):
        z = Zonotope(np.eye(2))
        assert z.support([1.0, 1.0]) == pytest.approx(2.0)
        assert z.support([1.0, 0.0]) == pytest.approx(1.0)
        assert z.support([-3.0, 0.0]) == pytest.approx(3.0)

    def test_support_rejects_zero_direction(self):
        z = Zonotope(np.eye(2))
        with pytest.raises(ZeroDirection):
            z.support([0.0, 0.0])


class TestVertices:
    def test_unit_square(self):
        z = Zonotope(np.eye(2))
        expected = [[-1, -1], [-1, 1], [1, -1], [1, 1]]
        assert_vertex_sets_match(z.vertices(), expected)

    def test_segment_in_plane(self):
        z = Zonotope([[2.0, 1.0]])
        assert_vertex_sets_match(z.vertices(), [[-2, -1], [2, 1]])

    def test_single_point(self):
        z = Zonotope([[0.0, 0.0]])
        assert_vertex_sets_match(z.vertices(), [[0.0, 0.0]])

    def test_hexagon(self):
        z = Zonotope([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        got = z.vertices()
        assert got.shape == (6, 2)
        expected = [[2, 2], [2, 0], [0, 2], [-2, -2], [-2, 0], [0, -2]]
        assert_vertex_sets_match(got, expected)

    def test_cube(self):
        z = Zonotope(np.eye(3))
        got = z.vertices()
        expected = np.array(list(itertools.product([-1, 1], repeat=3)), dtype=float)
        assert_vertex_sets_match(got, expected)

    def test_symmetry(self, rng):
        for _ in range(10):
            gens = rng.uniform(-2, 2, size=(5, 3))
            verts = Zonotope(gens).vertices()
            assert_vertex_sets_match(verts, -verts)

    def test_support_attained_at_vertex(self, rng):
        z = Zonotope(rng.uniform(-1, 1, size=(6, 3)))
        verts = z.vertices()
        for _ in range(20):
            d = rng.standard_normal(3)
            assert float((verts @ d).max()) == pytest.approx(z.support(d), abs=1e-9)

    def test_flat_three_dim(self):
        # rank-2 body embedded in R^3: vertices live on the plane
        gens = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        verts = Zonotope(gens).vertices()
        assert verts.shape == (4, 3)
        normal = np.array([1.0, 1.0, -1.0])
        assert np.max(np.abs(verts @ normal)) < 1e-9

    def test_generator_cap(self, rng):
        # the cap is on the output, count * m sign entries, read from the
        # count: 21 parallel rows are a segment, 101 Gaussian rows in R^3
        # have 10102 vertices within it, and 102 rows pass it
        assert len(Zonotope(np.ones((21, 2))).vertices()) == 2
        gens = rng.standard_normal((102, 3))
        counts = _prefix_counts(gens, _spans(gens))
        assert counts[101] * 101 <= MAX_PATTERN_ROWS < counts[102] * 102
        assert len(Zonotope(gens[:101]).vertices()) == counts[101] == 10102
        with pytest.raises(TooManyGenerators):
            Zonotope(gens).vertices()

    def test_four_dim_box(self):
        verts = Zonotope(np.eye(4)).vertices()
        assert verts.shape == (16, 4)


def _degenerate(rng, family, n, m):
    gens = rng.uniform(-1, 1, size=(m, n))
    if family == "parallel":
        gens[1] = 1.5 * gens[0]
        gens[3] = -0.5 * gens[2]
    elif family == "coplanar":
        gens[2] = 0.3 * gens[0] - 0.8 * gens[1]
    elif family == "in_facet":
        gens[: n + 1, -1] = 0.0  # n + 1 generators in the hyperplane x_n = 0
    elif family == "thin":
        gens[:, -1] *= 1e-6
    elif family == "flat":
        gens = gens[:, : n - 1] @ rng.uniform(-1, 1, size=(n - 1, n))
    elif family == "zero_rows":
        gens[2] = 0.0
        gens[5] = 0.0
    return gens


class TestFacetWalk:
    @pytest.mark.parametrize("n,max_m", [(2, 20), (3, 20), (4, 12), (5, 12)])
    def test_general_position_count(self, rng, n, max_m):
        # Zaslavsky: m generic generators in R^n give 2 sum_{i<n} C(m-1, i)
        for m in range(1, max_m + 1):
            verts = Zonotope(rng.standard_normal((m, n))).vertices()
            want = 2 * sum(math.comb(m - 1, i) for i in range(n))
            assert verts.shape == (want, n), (n, m)

    @pytest.mark.parametrize(
        "family", ["parallel", "coplanar", "in_facet", "thin", "flat", "zero_rows"]
    )
    @pytest.mark.parametrize("n,m", [(3, 9), (4, 6)])
    def test_degenerate_families_match_brute(self, rng, family, n, m):
        for _ in range(3):
            z = Zonotope(_degenerate(rng, family, n, m))
            got, want = z.vertices(), brute_vertices(z)
            assert got.shape == want.shape
            for d in rng.standard_normal((20, n)):
                h = z.support(d)
                assert float((got @ d).max()) == pytest.approx(h, rel=1e-9)
                assert float((want @ d).max()) == pytest.approx(h, rel=1e-9)

    def test_parallel_inputs_regression(self):
        # rounding once split the parallel pair between the angles 0 and pi
        # inside a facet, and the stage-3 count read 18
        A = np.array([[0.9, 0.2, 0.0], [0.0, 0.8, 0.1], [0.1, 0.0, 0.7]])
        b = np.array([1.0, 0.5, 0.2])
        fam = reach_region(LdtSystem(name="par", A=A, B=np.stack([b, 1.5 * b], 1)), 3)
        assert region_summary(fam)["vertexCountByStage"] == [2, 4, 8]
        for k in range(1, 4):
            z = fam.stage(k)
            assert_vertex_sets_match(z.vertices(), brute_vertices(z))

    def test_pattern_cap_raises_before_allocating(self, rng):
        # 14282 vertices of 120 generators: 1.7e6 sign entries, past the
        # output budget, which the count gives before any sign is built
        gens = rng.uniform(-1, 1, size=(120, 3))
        assert _prefix_counts(gens, _spans(gens))[-1] * 120 > MAX_PATTERN_ROWS
        tracemalloc.start()
        try:
            with pytest.raises(TooManyGenerators):
                Zonotope(gens).vertices()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        # 20 generators in R^8: past the count's own budget, so uncounted
        with pytest.raises(TooManyGenerators):
            Zonotope(rng.uniform(-1, 1, size=(20, 8))).vertices()

    def test_no_hull_library_on_the_main_path(self):
        code = (
            "import sys, numpy as np, ctrlgauge as cg\n"
            "rng = np.random.default_rng(0)\n"
            "s = cg.LdtSystem(name='s', A=rng.uniform(-1, 1, (4, 4)),"
            " B=rng.uniform(-1, 1, (4, 1)))\n"
            "info = cg.region_summary(cg.reach_region(s, 6))\n"
            "assert info['vertexCountByStage'][-1] > 16, info\n"
            "print('scipy.spatial' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=subprocess_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestVolume:
    def test_unit_square(self):
        assert Zonotope(np.eye(2)).volume() == pytest.approx(4.0)

    def test_scaled_cube(self):
        assert Zonotope(2.0 * np.eye(3)).volume() == pytest.approx(64.0)

    def test_flat_is_zero(self):
        assert Zonotope([[1.0, 1.0], [2.0, 2.0]]).volume() == 0.0

    def test_monotone_under_new_generator(self, rng):
        for _ in range(10):
            gens = rng.uniform(-1, 1, size=(4, 3))
            bigger = np.vstack([gens, rng.uniform(-1, 1, size=(1, 3))])
            assert Zonotope(bigger).volume() >= Zonotope(gens).volume() - 1e-12

    def test_matches_pairwise_determinant_in_plane(self, rng):
        # 2-D volume equals 4 * sum over generator pairs of |det|
        gens = rng.uniform(-2, 2, size=(6, 2))
        acc = 0.0
        for i in range(6):
            for j in range(i + 1, 6):
                acc += abs(gens[i, 0] * gens[j, 1] - gens[i, 1] * gens[j, 0])
        assert Zonotope(gens).volume() == pytest.approx(4.0 * acc, rel=1e-12)


    def test_subset_cap_raises_before_allocating(self, rng):
        gens = rng.uniform(-1, 1, size=(60, 6))  # C(60, 6) = 5.0e7 subsets
        tracemalloc.start()
        try:
            with pytest.raises(TooManyGenerators):
                Zonotope(gens).volume()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_fifty_steps_in_three_dims_stay_under_cap(self, rng):
        # the motors' 50-step stages: C(50, 3) subsets, summed in two chunks
        gens = rng.uniform(-1, 1, size=(50, 3))
        assert math.comb(50, 3) <= MAX_VOLUME_SUBSETS
        subsets = np.array(list(itertools.combinations(range(50), 3)))
        want = 8.0 * np.abs(np.linalg.det(gens[subsets])).sum()
        assert Zonotope(gens).volume() == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("m, n", [(9, 1), (12, 2), (10, 3)])
    def test_cached_subset_table_sums_as_the_streamed_one(self, rng, monkeypatch, m, n):
        # a count within one chunk reads the table built once per (m, n):
        # on float rows its sums are those of the subsets in combinations
        # order, bit for bit
        G = rng.uniform(-1, 1, (m, n)) * 10.0 ** rng.uniform(-3, 3, (m, 1))
        subsets = np.array(list(itertools.combinations(range(m), n)))
        want = np.bincount(subsets[:, -1], np.abs(np.linalg.det(G[subsets])), m)
        assert _det_sums(G).tobytes() == want.tobytes()
        table = zonotope._subset_table(m, n)
        assert zonotope._subset_table(m, n) is table and not table.flags.writeable
        # entries in {-1, 0, 1} make every determinant and sum exact up to
        # n = 3, so three subsets a chunk, streamed, must give the same bits
        ints = rng.integers(-1, 2, (m, n)).astype(float)
        cached = _det_sums(ints)
        monkeypatch.setattr(zonotope, "CHUNK_BYTES", 3 * 8 * n * n)
        assert _det_sums(ints).tobytes() == cached.tobytes()
        assert cached.any()


def _projection_cases(rng):
    """Generator sets in R^3 whose 2-D projections cover random, parallel
    and antiparallel, zero-row, all-parallel and all-zero generators."""
    base = rng.uniform(-1, 1, size=(6, 3))
    parallel = base.copy()
    parallel[1] = 2.5 * parallel[0]
    parallel[3] = -0.7 * parallel[0]
    parallel[4] = -parallel[2]
    zero_row = base.copy()
    zero_row[2] = 0.0
    # columns 0 and 1 parallel: the (0, 1) projection is a segment
    line = base.copy()
    line[:, 1] = -1.3 * line[:, 0]
    # columns 0 and 1 zero: the (0, 1) projection is the origin
    point = base.copy()
    point[:, :2] = 0.0
    cases = [rng.uniform(-1, 1, size=(m, 3)) for m in (1, 2, 3, 5, 9, 14)]
    return cases + [parallel, zero_row, line, point]


class TestProjection:
    def test_box_projects_to_square(self):
        z = Zonotope(np.eye(3))
        poly = z.project_2d((0, 1))
        assert not poly.degenerate
        assert polygon_area(poly) == pytest.approx(4.0)

    def test_projection_area_matches_planar_volume(self, rng):
        # the outline is the counterclockwise vertex set of the projected
        # generators, and its area is their volume
        for gens in [rng.uniform(-1, 1, size=(5, 3)), *_projection_cases(rng)]:
            z = Zonotope(gens)
            for axes in itertools.combinations(range(z.n), 2):
                pgens = gens[:, list(axes)]
                poly = z.project_2d(axes)
                assert_vertex_sets_match(poly.points, brute_vertices(pgens), tol=1e-12)
                assert poly.degenerate == (poly.points.shape[0] < 3)
                # counterclockwise and convex, or polygon_area raises
                area = polygon_area(poly)
                want = Zonotope(pgens).volume()
                assert area == pytest.approx(want, rel=1e-12, abs=1e-12)
                # the chain starts at -sum g over the generators flipped
                # into the upper half-plane: the lowest point, leftmost
                pts = poly.points
                assert np.lexsort((pts[:, 0], pts[:, 1]))[0] == 0

    def test_degenerate_projection_flagged(self, rng):
        gens = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 1.0]])
        poly = Zonotope(gens).project_2d((0, 1))
        assert poly.degenerate
        # all parallel: the two ends of a segment; all zero: the origin
        gens = np.outer(rng.uniform(-2, 2, 4), rng.uniform(-1, 1, 2))
        poly = Zonotope(gens).project_2d((0, 1))
        assert poly.degenerate and poly.points.shape == (2, 2)
        assert np.allclose(poly.points[1], -poly.points[0], atol=1e-15)
        poly = Zonotope(np.zeros((3, 3))).project_2d((0, 2))
        assert poly.degenerate and np.array_equal(poly.points, np.zeros((1, 2)))

    def test_bad_axes(self):
        z = Zonotope(np.eye(3))
        with pytest.raises(BadAxes):
            z.project_2d((0, 0))
        with pytest.raises(BadAxes):
            z.project_2d((0, 5))


class TestPolygonArea:
    def test_shoelace_square(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        assert polygon_area(pts) == pytest.approx(1.0)

    def test_clockwise_rejected(self):
        pts = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0]])
        with pytest.raises(NotConvex):
            polygon_area(pts)

    def test_concave_rejected(self):
        pts = np.array(
            [[0.0, 0.0], [2.0, 0.0], [1.0, 0.2], [1.0, 2.0]],
        )
        with pytest.raises(NotConvex):
            polygon_area(pts)

    def test_degenerate_zero(self):
        assert polygon_area(np.array([[0.0, 0.0], [1.0, 1.0]])) == 0.0


class TestShapeReport:
    def test_cube_factors_are_one(self):
        rep = Zonotope(np.eye(3)).shape_report()
        assert rep.volume == pytest.approx(8.0)
        assert np.allclose(rep.side_lengths, [2.0, 2.0, 2.0])
        assert rep.overall_shape_factor == pytest.approx(1.0)
        for v in rep.planar_shape_factors.values():
            assert v == pytest.approx(1.0)
        assert rep.rank == 3

    def test_factors_in_unit_interval(self, rng):
        # planar factors are outline areas over projected box areas
        randoms = [rng.uniform(-1, 1, size=(6, 3)) for _ in range(5)]
        for gens in randoms + _projection_cases(rng):
            z = Zonotope(gens)
            rep = z.shape_report()
            assert 0.0 <= rep.overall_shape_factor <= 1.0 + 1e-12
            half = np.abs(gens).sum(axis=0)
            for (i, j), v in rep.planar_shape_factors.items():
                assert 0.0 <= v <= 1.0 + 1e-12
                denom = 4.0 * half[i] * half[j]
                want = polygon_area(z.project_2d((i, j))) / denom if denom else 0.0
                assert v == pytest.approx(want, rel=0.0, abs=1e-12)

    def test_flat_projections_read_zero(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 5))
            gens = np.outer(rng.uniform(-2, 2, int(rng.integers(1, 8))), rng.uniform(-1, 1, n))
            rep = Zonotope(gens).shape_report()
            assert all(v == 0.0 for v in rep.planar_shape_factors.values())
        gens = rng.uniform(-1, 1, size=(6, 3))
        gens[:, 1] = 0.7 * gens[:, 0]
        rep = Zonotope(gens).shape_report()
        assert rep.planar_shape_factors[(0, 1)] == 0.0
        assert rep.planar_shape_factors[(0, 2)] > 0.0

    def test_to_dict_keys(self):
        d = Zonotope(np.eye(2)).shape_report().to_dict()
        assert set(d) == {
            "volume",
            "sideLengths",
            "overallShapeFactor",
            "planarShapeFactors",
            "rank",
        }
        assert "x1,x2" in d["planarShapeFactors"]


def _planar_sets(rng, count):
    """Planar row sets for the fast rank test: flat ones at row scales
    1e-13 to 1e12, flat ones with rounding-level noise, zero columns, rows
    under the absolute 1e-12 floor, rows scaled 1e-13 to 1e12 one by one,
    near-parallel rows, and single rows."""
    for t in range(count):
        m = 1 if t % 8 == 7 else int(rng.integers(2, 10))
        rows = rng.uniform(-1.0, 1.0, (m, 2))
        kind = t % 8
        if kind == 0:
            rows = np.outer(rng.uniform(-2, 2, m), rng.uniform(-1, 1, 2))
            rows *= 10.0 ** rng.uniform(-13, 12)
        elif kind == 1:
            rows = np.outer(rng.uniform(-2, 2, m), rng.uniform(-1, 1, 2))
            rows += 10.0 ** rng.uniform(-16, -9) * rng.uniform(-1, 1, (m, 2))
        elif kind == 2:
            rows[:, rng.integers(2)] = 0.0
        elif kind == 3:
            rows *= 10.0 ** rng.uniform(-14, -11)
        elif kind == 4:
            rows *= 10.0 ** rng.uniform(-13, 12, (m, 1))
        elif kind == 5:
            rows = rows[:1] + 10.0 ** rng.uniform(-16, -8, (m, 1)) * rng.uniform(-1, 1, (m, 2))
        elif kind == 6:
            rows[rng.random(m) < 0.5] *= 1e-13
        yield rows


class TestPlanarPass:
    """Every plane's area from one determinant pass (_planar_areas)."""

    def test_fast_rank_bound_holds_only_at_rank_two(self, rng):
        fast = slow = unfloored = 0
        for rows in _planar_sets(rng, 8000):
            m = len(rows)
            pairs = np.array(list(itertools.combinations(range(m), 2))).reshape(-1, 2)
            peak = np.abs(np.linalg.det(rows[pairs])).max() if m > 1 else 0.0
            top = np.sqrt((rows * rows).sum(axis=1)).max()
            rank = _spans(rows)[2][-1]
            # the pass reads bucket means, which never exceed the largest |det|
            sums = _det_sums(rows)
            assert (sums[1:] / np.arange(1, m)).max(initial=0.0) <= peak
            if peak > _flat_det_bound(top):
                assert rank == 2, rows
                fast += 1
            elif rank == 2:
                slow += 1
            unfloored += rank < 2 and peak > 4.0 * TIE_TOL * top * top
        # both branches ran, and the max(1, top) floor was needed
        assert fast > 2000 and slow > 100 and unfloored > 100

    def test_planar_factors_are_each_projections_volume(self, rng):
        sets = [
            rng.uniform(-1, 1, (int(rng.integers(1, 12)), int(rng.integers(3, 6))))
            * 10.0 ** rng.uniform(-13, 12, (1, 1))
            for _ in range(150)
        ]
        # the planar kinds of the rank test in the first two columns
        for gens, cols in zip(sets[:60], _planar_sets(rng, 60)):
            k = min(len(cols), len(gens))
            mixed = gens[:k].copy()
            mixed[:, :2] = cols[:k]
            sets.append(mixed)
        # pair counts past one determinant chunk, and six planes at once
        sets += [rng.uniform(-1, 1, (300, 3)), rng.uniform(-1, 1, (270, 4))]
        for gens in sets:
            z = Zonotope(gens)
            rank = z.rank()
            report = _shape_report(gens, rank, 1.0).to_dict()["planarShapeFactors"]
            half = np.abs(gens).sum(axis=0)
            for i, j in itertools.combinations(range(gens.shape[1]), 2):
                denom = 4.0 * half[i] * half[j]
                want = Zonotope(gens[:, [i, j]]).volume() / denom if denom > 0.0 else 0.0
                assert repr(report[f"x{i + 1},x{j + 1}"]) == repr(want), (gens.shape, i, j)

    def test_a_stack_sums_each_set_as_alone(self, rng):
        # many sets to one determinant call below one chunk, one set over
        # several chunks past it
        for k, m in ((40, 9), (3, 300)):
            stack = rng.uniform(-1, 1, (k, m, 2)) * 10.0 ** rng.uniform(-6, 6, (k, 1, 1))
            sums = _det_sums(stack)
            assert sums.shape == (k, m)
            pairs = np.array(list(itertools.combinations(range(m), 2)))
            for got, rows in zip(sums, stack):
                assert got.tobytes() == _det_sums(rows).tobytes()
                want = np.bincount(pairs[:, 1], np.abs(np.linalg.det(rows[pairs])), m)
                assert np.allclose(got, want, rtol=1e-12, atol=0.0)

    def test_planes_without_a_determinant_run_no_span_pass(self, monkeypatch):
        calls = []
        spans = zonotope._spans
        monkeypatch.setattr(zonotope, "_spans", lambda G: calls.append(G.shape) or spans(G))
        one_row = np.array([[1.0, -2.0, 3.0, 0.5]])
        parallel = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [-1.0, -2.0, -3.0]])
        for gens in (one_row, parallel):
            assert all(f == 0.0 for f in _shape_report(gens, 1, 0.0).planar_shape_factors.values())
        assert calls == []
        # determinants at rounding level still need the span rule's answer
        _shape_report(parallel + [[0.0, 0.0, 1e-15], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]], 1, 0.0)
        assert calls == [(3, 2), (3, 2)]

    def test_past_the_subset_cap_flat_planes_still_answer(self, rng):
        # C(2100, 2) = 2 203 950 pairs, past the cap; every projection is flat
        gens = np.outer(rng.uniform(-1, 1, 2100), [1.0, 2.0, 3.0])
        assert math.comb(len(gens), 2) > MAX_VOLUME_SUBSETS
        rep = Zonotope(gens).shape_report()
        assert rep.volume == 0.0
        assert list(rep.planar_shape_factors.values()) == [0.0, 0.0, 0.0]

    def test_past_the_subset_cap_a_rank_two_plane_raises(self, rng):
        gens = rng.uniform(-1, 1, (2100, 2)) @ np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        assert Zonotope(gens).volume() == 0.0
        tracemalloc.start()
        try:
            with pytest.raises(TooManyGenerators, match="2203950 generator subsets"):
                Zonotope(gens).shape_report()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_one_pass_builds_no_more_than_one_plane(self, rng):
        # six planes of 79 800 pairs each: three chunks per plane, and the
        # pass holds one chunk of one plane's matrices at a time
        gens = rng.uniform(-1, 1, (400, 4))
        peaks = []
        for call in (lambda: _volume(np.ascontiguousarray(gens[:, :2]), 2),
                     lambda: _shape_report(gens, 4, 1.0)):
            tracemalloc.start()
            try:
                call()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + (128 << 10)
        assert peaks[1] < 2 * CHUNK_BYTES


class TestHalfspaces:
    def test_unit_square(self):
        normals, offsets = halfspace_representation(Zonotope(np.eye(2)))
        # every facet of the square is |x_i| <= 1
        for nrm, off in zip(normals, offsets):
            assert off / np.linalg.norm(nrm) == pytest.approx(1.0)

    def test_vertices_satisfy_all_inequalities(self, rng):
        for _ in range(10):
            gens = rng.uniform(-1, 1, size=(6, 3))
            z = Zonotope(gens)
            if z.rank() < 3:
                continue
            normals, offsets = halfspace_representation(z)
            verts = z.vertices()
            vals = np.abs(verts @ normals.T)
            assert np.all(vals <= offsets[np.newaxis, :] + 1e-9)
            # support in each facet direction is attained
            assert np.allclose(vals.max(axis=0), offsets, atol=1e-9)

    def test_flat_body_rejected(self):
        with pytest.raises(DegenerateZonotope):
            halfspace_representation(Zonotope([[1.0, 1.0], [2.0, 2.0]]))


class TestHForm:
    def test_flat_body_has_complement(self):
        complement, normals, _ = own_hform(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]))
        assert complement.shape == (1, 3)
        assert np.allclose(np.abs(complement[0]), 1.0 / np.sqrt(3.0))
        assert np.allclose(normals @ complement.T, 0.0, atol=1e-12)
        assert np.allclose(np.linalg.norm(normals, axis=1), 1.0)

    def test_zero_generators_are_the_origin(self):
        complement, normals, _ = own_hform(np.zeros((3, 2)))
        assert complement.shape == (2, 2)
        assert normals.shape == (0, 2)

    def test_thin_solid_body_keeps_its_facets(self):
        # aspect ratio 1e-10: solid for the span rule, so for the H-form and
        # the vertex enumeration alike
        z = Zonotope([[1e5, 0.0], [0.0, 1e-5]])
        assert z.rank() == 2
        assert z.vertices().shape == (4, 2)
        assert own_hform(z.generators)[0].shape == (0, 2)
        assert contains_point(z, [0.0, 0.5e-5])
        assert not contains_point(z, [0.0, 2e-5])


    @pytest.mark.parametrize("n", [3, 4])
    def test_normals_match_pairwise_loop(self, rng, n):
        gens = rng.uniform(-1, 1, size=(9, n))
        gens[3] = 2.0 * gens[1]  # a parallel pair yields no normal
        want = []
        # the subsets are judged on unit generators: by their angles alone
        unit = gens / np.linalg.norm(gens, axis=1)[:, np.newaxis]
        for subset in itertools.combinations(range(9), n - 1):
            sub = unit[list(subset)]
            if n == 3:
                d = np.cross(sub[0], sub[1])
                nd = np.linalg.norm(d)
                if nd > 1e-12:
                    want.append(d / nd)
            else:
                _, sv, vt = np.linalg.svd(sub, full_matrices=True)
                if sv[-1] > 1e-12 * sv[0]:
                    want.append(vt[-1])
        want = np.asarray(want)
        got = _facet_normals(gens)
        assert got.shape == want.shape
        assert np.allclose(got, want, rtol=0.0, atol=1e-14)

    def test_n3_normals_are_np_cross_bit_for_bit(self):
        # the pair products are written out in np.cross's operation order,
        # so the normals keep its bits: rows scaled 1e-8 to 1e8, and every
        # fifth draw with a parallel pair
        rng = np.random.default_rng(2024)
        for draw in range(300):
            m = 3 + draw % 9
            scale = 10.0 ** rng.uniform(-8, 8, size=(m, 1))
            gens = rng.uniform(-1, 1, size=(m, 3)) * scale
            if draw % 5 == 0:
                gens[-1] = -3.0 * gens[0]
            unit = gens / np.linalg.norm(gens, axis=1)[:, np.newaxis]
            i, j = np.triu_indices(m, 1)
            d = np.cross(unit[i], unit[j])
            nd = np.linalg.norm(d, axis=1)
            want = d[nd > 1e-12] / nd[nd > 1e-12, np.newaxis]
            assert np.array_equal(_facet_normals(gens), want)


class TestSpanRule:
    def test_generator_order_decides_a_thin_rank(self):
        # rows are read in order, each against the largest row norm so far:
        # a 1e-3 row after a 1e10 row is rounding level, while the same row
        # first is a direction of its own
        late = Zonotope([[1e10, 0.0], [0.0, 1e-3]])
        early = Zonotope([[0.0, 1e-3], [1e10, 0.0]])
        assert (late.rank(), late.volume(), len(late.vertices())) == (1, 0.0, 2)
        assert (early.rank(), len(early.vertices())) == (2, 4)
        assert early.volume() == pytest.approx(4e7)

    def test_near_parallel_rows_span_one_direction(self):
        # the span rule and the facet normals' sine rule agree: the rows span
        # one direction, so the set is a segment and holds nothing off it
        gens, e = near_parallel_rows()
        z = Zonotope(gens)
        assert z.rank() == 1
        assert len(z.vertices()) == 2
        complement, normals, _ = own_hform(gens)
        assert complement.shape == (2, 3) and normals.shape == (1, 3)
        assert contains_point(z, 2.9 * gens[0])
        assert not contains_point(z, 3.1 * gens[0])
        assert not contains_point(z, gens[0] + 1e-3 * e)

    def test_no_independent_subset_raises(self):
        # a full span whose pairs all tie: no normal, a typed error
        with pytest.raises(DegenerateZonotope):
            _facet_normals(near_parallel_rows()[0])


def _exact_count3(rows):
    """Vertex count of a zonotope in R^3 in exact arithmetic on the float
    rows: deletion-restriction, with a row adding 2 regions per distinct
    line its hyperplane meets the earlier hyperplanes in (1 if none)."""

    def cross(a, b):
        return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
                a[0] * b[1] - a[1] * b[0])

    gens = [tuple(map(Fraction, row)) for row in rows.tolist() if any(row)]
    count = 1
    for j, g in enumerate(gens):
        if any(not any(cross(h, g)) for h in gens[:j]):
            continue
        lines = []
        for h in gens[:j]:
            c = cross(h, g)
            if not any(not any(cross(c, line)) for line in lines):
                lines.append(c)
        count += 2 * len(lines) if lines else 1
    return count


def _certified_cells(rows):
    """Regions of the arrangement of the live rows' hyperplanes, after
    checking every region's certificate: s_i (c . g_i) > 0 on the live
    rows, for its signs s and direction c."""
    live, basis, dims = _spans(rows)
    flat = rows if dims[-1] == rows.shape[1] else rows @ basis[: dims[-1]].T
    signs, dirs = _cells(flat, live)
    assert (signs[:, live] * (dirs @ flat[live].T) > 0.0).all()
    return len(signs)


class TestVertexCounts:
    @pytest.mark.parametrize(
        "n,m,last", [(2, 40, 80), (3, 30, 872), (4, 50, 39300), (5, 24, 21806)]
    )
    def test_general_position_closed_form(self, rng, n, m, last):
        # Zaslavsky: 2 sum_{i<n} C(p-1, i) for every leading block G[:p],
        # past the enumeration cap of 20 generators too
        gens = rng.standard_normal((m, n))
        counts = _prefix_counts(gens, _spans(gens))
        want = [2 * sum(math.comb(p - 1, i) for i in range(n)) for p in range(1, m + 1)]
        assert counts == [1] + want
        assert counts[-1] == last

    def test_exact_where_the_facet_walk_misses(self):
        # a recover stage whose generators grow from 1e2 to 1.4e10 and turn
        # nearly parallel: the exact count on the float rows is 32, and so
        # is the vertex count (a facet walk found 30)
        rng = np.random.default_rng(93)
        A = rng.uniform(-1, 1, (3, 3))
        B = rng.uniform(-1, 1, (3, 1))
        rows = stage_generators(LdtSystem(name="s", A=A, B=B), 6, RegionKind.RECOVER)
        counts = _prefix_counts(rows, _spans(rows))
        assert counts[1:] == [_exact_count3(rows[:p]) for p in range(1, 7)]
        assert counts[-1] == 32
        assert len(Zonotope(rows).vertices()) == 32

    @pytest.mark.parametrize(
        "seed,n,kind,steps,stage,want",
        [
            (72, 3, "recover", 11, 11, 112),
            (142, 3, "recover", 11, 11, 112),
            (69, 3, "reach", 11, 11, 112),
            (93, 3, "recover", 6, 6, 32),
            (162, 3, "recover", 6, 6, 32),
            (24, 2, "reach", 20, 15, 30),
        ],
    )
    def test_vertices_are_the_counted_cells(self, seed, n, kind, steps, stage, want):
        # stages where a facet walk missed vertices at sines of 7e-13 to
        # 6e-9 (n = 3), or a 1e-9 merge joined vertices of generators near
        # 3e-10 (n = 2): one vertex per counted region, each certified,
        # and the rows come back lexsorted
        rng = np.random.default_rng(seed)
        A = rng.uniform(-1, 1, (n, n))
        B = rng.uniform(-1, 1, (n, 1))
        sys_ = LdtSystem(name="s", A=A, B=B)
        rows = stage_generators(sys_, steps, RegionKind(kind))[:stage]
        verts = Zonotope(rows).vertices()
        assert len(verts) == _prefix_counts(rows, _spans(rows))[-1] == want
        assert _certified_cells(rows) == want
        assert np.array_equal(verts, verts[np.lexsort(verts.T[::-1])])

    @pytest.mark.parametrize("seed,why", [(14, "restricted ties"), (69, "certificate")])
    def test_untieable_stages_raise(self, seed, why):
        # 16-step reach stages whose generators turn parallel step after
        # step: seed 14's restricted ties disagree with the full
        # arrangement's, and seed 69 has regions too thin (margins near
        # 1e-17) for their directions to pass the certificate in doubles;
        # the counts still read a number
        rng = np.random.default_rng(seed)
        A = rng.uniform(-1, 1, (3, 3))
        B = rng.uniform(-1, 1, (3, 1))
        rows = stage_generators(LdtSystem(name="s", A=A, B=B), 16, RegionKind.REACH)
        assert _prefix_counts(rows, _spans(rows))[-1] > 0
        with pytest.raises(DegenerateZonotope, match=why):
            Zonotope(rows).vertices()

    def test_budget_returns_none_before_allocating(self, rng):
        # eight Gaussian rows in R^8: the first 7 are counted in their
        # 7-dimensional span; from the eighth on the rows to sort, p^(rank-1),
        # pass MAX_PATTERN_ROWS, and 1000 rows would need 1e21 of them
        gens = rng.standard_normal((1000, 8))
        assert _count_size(7, 7) <= MAX_PATTERN_ROWS < _count_size(8, 8)
        spans = _spans(gens)
        tracemalloc.start()
        try:
            counts = _prefix_counts(gens, spans)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert counts[:8] == [1, 2, 4, 8, 16, 32, 64, 128]
        assert counts[8:] == [None] * 993
        assert peak < 4 << 20


class TestContainsPoint:
    def test_square_membership(self):
        z = Zonotope(np.eye(2))
        assert contains_point(z, [0.5, -0.5])
        assert contains_point(z, [1.0, 1.0])
        assert not contains_point(z, [1.001, 0.0])

    def test_vertices_and_scaled_vertices(self, rng):
        for _ in range(10):
            gens = rng.uniform(-1, 1, size=(5, 3))
            z = Zonotope(gens)
            verts = z.vertices()
            big = np.abs(verts).max()
            if big < 0.5:
                continue
            for v in verts[:: max(1, len(verts) // 6)]:
                assert contains_point(z, v)
                if np.linalg.norm(v) > 1e-6:
                    assert not contains_point(z, 1.01 * v)

    def test_flat_body_in_plane(self):
        gens = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        z = Zonotope(gens)
        assert contains_point(z, [1.0, 1.0, 2.0])
        assert not contains_point(z, [1.0, 1.0, 2.1])
        assert not contains_point(z, [0.0, 0.0, 0.5])

    def test_interval(self):
        z = Zonotope([[2.0]])
        assert contains_point(z, [1.5])
        assert not contains_point(z, [2.5])

    def test_rounding_level_generators_count_in_the_supports(self):
        # stage 14 of A = diag(10, 3), B = 1e-3 (1, 1): the first generator
        # is 1e-13 of the largest entry, yet weighs 1.6e-6 of the support
        # along the thin facet
        sys_ = LdtSystem(name="u", A=np.diag([10.0, 3.0]), B=np.full((2, 1), 1e-3))
        rows = stage_generators(sys_, 14, RegionKind.REACH)
        z = Zonotope(rows)
        rng = np.random.default_rng(0)
        verts = [np.where(rows @ rng.standard_normal(2) >= 0.0, 1.0, -1.0) @ rows
                 for _ in range(50)]
        assert sum(contains_point(z, v) for v in verts) == 50
        _, normals, supports = own_hform(rows)
        # every generator summed in order, the rounding-level first one too
        assert np.array_equal(supports, np.cumsum(np.abs(normals @ rows.T), axis=1)[:, -1])


class TestExports:
    def test_csv_round_trip(self):
        poly = Zonotope(np.eye(2)).project_2d((0, 1))
        text = polygon_to_csv(poly)
        lines = text.strip().splitlines()
        assert lines[0].lower().startswith("x")
        data = np.array([[float(c) for c in ln.split(",")] for ln in lines[1:]])
        assert_vertex_sets_match(data, poly.points, tol=1e-12)

    def test_svg_document(self):
        p1 = Zonotope(np.eye(2)).project_2d((0, 1))
        p2 = Zonotope(2 * np.eye(2)).project_2d((0, 1))
        doc = svg_document([p1, p2], labels=["a", "b"])
        assert doc.lstrip().startswith("<svg")
        assert doc.count("<path") >= 2
        assert "</svg>" in doc

    def test_svg_draws_a_point_as_a_circle(self):
        point = Zonotope(np.array([[0.0, 0.0, 1.0]])).project_2d((0, 1))
        assert point.points.shape == (1, 2)
        doc = svg_document([point], labels=["origin"])
        assert doc.count("<circle") == 1 and "<path" not in doc
        assert "<title>origin</title></circle>" in doc

    def test_svg_handles_degenerate(self):
        seg = Polygon2D(points=np.array([[-1.0, 0.0], [1.0, 0.0]]), degenerate=True)
        doc = svg_document([seg])
        assert "<svg" in doc
