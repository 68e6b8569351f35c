"""Tests for zonotope geometry: vertices, volume, projections, membership."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from conftest import assert_vertex_sets_match, near_duplicate_cloud, quadratic_dedup
from ctrlgauge import (
    BadAxes,
    DegenerateZonotope,
    DimensionMismatch,
    NotConvex,
    Polygon2D,
    TooManyGenerators,
    ZeroDirection,
    Zonotope,
    contains_point,
    halfspace_representation,
    polygon_area,
    polygon_to_csv,
    svg_document,
)
from ctrlgauge.zonotope import MAX_VOLUME_SUBSETS, _dedup_rows, _facet_normals, hform


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

    def test_generator_cap(self):
        with pytest.raises(TooManyGenerators):
            Zonotope(np.ones((21, 2))).vertices()

    def test_four_dim_box(self):
        verts = Zonotope(np.eye(4)).vertices()
        assert verts.shape == (16, 4)


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


class TestProjection:
    def test_box_projects_to_square(self):
        z = Zonotope(np.eye(3))
        poly = z.project_2d((0, 1))
        assert not poly.degenerate
        assert polygon_area(poly) == pytest.approx(4.0)

    def test_projection_area_matches_planar_volume(self, rng):
        gens = rng.uniform(-1, 1, size=(5, 3))
        for axes in [(0, 1), (0, 2), (1, 2)]:
            poly = Zonotope(gens).project_2d(axes)
            flat = Zonotope(gens[:, list(axes)])
            assert polygon_area(poly) == pytest.approx(flat.volume(), rel=1e-9)

    def test_degenerate_projection_flagged(self):
        gens = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 1.0]])
        poly = Zonotope(gens).project_2d((0, 1))
        assert poly.degenerate

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
        for _ in range(5):
            rep = Zonotope(rng.uniform(-1, 1, size=(6, 3))).shape_report()
            assert 0.0 <= rep.overall_shape_factor <= 1.0 + 1e-12
            for v in rep.planar_shape_factors.values():
                assert 0.0 <= v <= 1.0 + 1e-12

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
        hf = hform(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]))
        assert hf.complement.shape == (1, 3)
        assert np.allclose(np.abs(hf.complement[0]), 1.0 / np.sqrt(3.0))
        assert np.allclose(hf.normals @ hf.complement.T, 0.0, atol=1e-12)
        assert np.allclose(np.linalg.norm(hf.normals, axis=1), 1.0)

    def test_zero_generators_are_the_origin(self):
        hf = hform(np.zeros((3, 2)))
        assert hf.complement.shape == (2, 2)
        assert hf.normals.shape == (0, 2)

    def test_thin_solid_body_keeps_its_facets(self):
        # aspect ratio 1e-10: flat for vertex enumeration, solid here
        z = Zonotope([[1e5, 0.0], [0.0, 1e-5]])
        hf = hform(z.generators)
        assert hf.complement.shape == (0, 2)
        assert contains_point(z, [0.0, 0.5e-5], tol=0.0)
        assert not contains_point(z, [0.0, 2e-5], tol=0.0)


    @pytest.mark.parametrize("n", [3, 4])
    def test_normals_match_pairwise_loop(self, rng, n):
        gens = rng.uniform(-1, 1, size=(9, n))
        gens[3] = 2.0 * gens[1]  # a parallel pair yields no normal
        want = []
        for subset in itertools.combinations(range(9), n - 1):
            sub = gens[list(subset)]
            if n == 3:
                d = np.cross(sub[0], sub[1])
                nd = np.linalg.norm(d)
                if nd > 1e-12 * np.prod(np.linalg.norm(sub, axis=1)):
                    want.append(d / nd)
            else:
                _, sv, vt = np.linalg.svd(sub, full_matrices=True)
                if sv[-1] > 1e-12 * sv[0]:
                    want.append(vt[-1])
        want = np.asarray(want)
        got = _facet_normals(gens)
        assert got.shape == want.shape
        assert np.allclose(got, want, rtol=0.0, atol=1e-14)


class TestDedup:
    @pytest.mark.parametrize("m,n", [(8, 2), (9, 3), (10, 2)])
    def test_identical_to_quadratic_merge(self, rng, m, n):
        cloud = near_duplicate_cloud(rng, m, n)
        got = _dedup_rows(cloud)
        want = quadratic_dedup(cloud)
        assert got.shape[0] < cloud.shape[0]
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_face_sweep_vertices_unchanged(self, rng):
        gens = rng.uniform(-1, 1, size=(8, 3))
        from ctrlgauge.zonotope import _face_sweep_vertices

        raw = _face_sweep_vertices(gens)
        assert _dedup_rows(raw).tobytes() == quadratic_dedup(raw).tobytes()


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
                assert contains_point(z, v, tol=1e-7)
                if np.linalg.norm(v) > 1e-6:
                    assert not contains_point(z, 1.01 * v, tol=1e-9)

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

    def test_svg_handles_degenerate(self):
        seg = Polygon2D(points=np.array([[-1.0, 0.0], [1.0, 0.0]]), degenerate=True)
        doc = svg_document([seg])
        assert "<svg" in doc
