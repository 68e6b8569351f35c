"""Tests for the independent verification oracles."""

import math

import numpy as np
import pytest

from conftest import (
    assert_vertex_sets_match,
    make_system,
    near_duplicate_cloud,
    quadratic_dedup,
)
from ctrlgauge import (
    DegenerateZonotope,
    LdtSystem,
    NotReachable,
    OracleConfig,
    SplitMix64,
    TooManyGenerators,
    Zonotope,
    brute_vertices,
    exhaustive_min_time,
    mc_volume,
    min_time,
    verification_suite,
    vertex_set_distance,
)
from ctrlgauge import oracle
from ctrlgauge.oracle import _lexsorted_unique

MASK = (1 << 64) - 1


def _reference_splitmix(seed, count):
    """Big-integer SplitMix64, written independently of the numpy version."""
    gamma = 0x9E3779B97F4A7C15
    out = []
    for i in range(1, count + 1):
        z = (seed + gamma * i) & MASK
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        z = z ^ (z >> 31)
        out.append(z)
    return out


class TestSplitMix64:
    @pytest.mark.parametrize("seed", [0, 1, 42, 2**63, MASK])
    def test_matches_big_integer_reference(self, seed):
        got = SplitMix64(seed).raw(10)
        want = _reference_splitmix(seed, 10)
        assert [int(v) for v in got] == want

    def test_chunking_invariant(self):
        one = SplitMix64(7).uniforms(10)
        gen = SplitMix64(7)
        two = np.concatenate([gen.uniforms(4), gen.uniforms(6)])
        assert np.array_equal(one, two)

    def test_uniforms_in_unit_interval(self):
        u = SplitMix64(3).uniforms(10_000)
        assert u.min() >= 0.0
        assert u.max() < 1.0
        assert abs(u.mean() - 0.5) < 0.02


class TestOracleConfig:
    def test_defaults(self):
        cfg = OracleConfig()
        assert cfg.max_sign_bits == 20
        assert cfg.mc_samples == 1_000_000

    def test_bit_budget_bounds(self):
        with pytest.raises(ValueError):
            OracleConfig(max_sign_bits=0)
        with pytest.raises(ValueError):
            OracleConfig(max_sign_bits=25)

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            OracleConfig(mc_samples=10)


class TestBruteVertices:
    def test_unit_square(self):
        verts = brute_vertices(Zonotope(np.eye(2)))
        expected = [[-1, -1], [-1, 1], [1, -1], [1, 1]]
        assert_vertex_sets_match(verts, expected)

    def test_segment(self):
        verts = brute_vertices(Zonotope([[1.0, 2.0]]))
        assert_vertex_sets_match(verts, [[-1, -2], [1, 2]])

    def test_point(self):
        verts = brute_vertices(Zonotope([[0.0, 0.0]]))
        assert verts.shape == (1, 2)

    def test_bit_budget_enforced(self):
        z = Zonotope(np.ones((6, 1)))
        with pytest.raises(TooManyGenerators):
            brute_vertices(z, OracleConfig(max_sign_bits=5))

    def test_agrees_with_main_path(self, rng):
        for n in (2, 3):
            for _ in range(5):
                gens = rng.uniform(-2, 2, size=(6, n))
                z = Zonotope(gens)
                assert_vertex_sets_match(z.vertices(), brute_vertices(z))

    def test_planar_hull_drops_edge_midpoints(self):
        # after the SVD rotation the three sums on each of two edges tie in x
        # only up to rounding, and the hull chain may start at the midpoint
        G = np.array(
            [[-0.5, 0], [0, -0.5], [-0.0, -0.5], [1, 1], [-0.5, -0.5], [-0.5, 0.5],
             [-0.5, 0], [0.5, -0.5]]
        )
        got = brute_vertices(G)
        assert got.shape[0] == 8
        assert_vertex_sets_match(got, Zonotope(G).vertices())
        # the oracle shares no code with the enumeration it checks
        assert not [
            v for v in vars(oracle).values()
            if getattr(v, "__module__", None) == "ctrlgauge.zonotope"
        ]

    @pytest.mark.parametrize("m,n", [(8, 3), (9, 2), (10, 3)])
    def test_dedup_identical_to_quadratic_merge(self, rng, m, n):
        cloud = near_duplicate_cloud(rng, m, n)
        assert _lexsorted_unique(cloud).tobytes() == quadratic_dedup(cloud).tobytes()


class TestVertexSetDistance:
    def test_zero_for_identical(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0]])
        assert vertex_set_distance(pts, pts) == 0.0

    def test_symmetric_gap(self):
        a = np.array([[0.0, 0.0]])
        b = np.array([[3.0, 4.0]])
        assert vertex_set_distance(a, b) == pytest.approx(5.0)


class TestMcVolume:
    def test_box_is_exact(self):
        # the sampling box and the zonotope coincide: every sample hits
        res = mc_volume(Zonotope(np.eye(2)), OracleConfig(mc_samples=10_000))
        assert res.hit_rate == pytest.approx(1.0)
        assert res.estimate == pytest.approx(4.0)
        assert res.std_error == pytest.approx(0.0, abs=1e-12)

    def test_matches_exact_volume(self, rng):
        gens = rng.uniform(-1, 1, size=(5, 2))
        z = Zonotope(gens)
        res = mc_volume(z, OracleConfig(mc_samples=200_000, seed=11))
        exact = z.volume()
        assert abs(res.estimate - exact) <= 4.0 * max(res.std_error, 1e-12)

    def test_reproducible_for_seed(self):
        z = Zonotope(np.array([[1.0, 0.2], [0.1, 0.8], [0.4, -0.3]]))
        a = mc_volume(z, OracleConfig(mc_samples=50_000, seed=5))
        b = mc_volume(z, OracleConfig(mc_samples=50_000, seed=5))
        assert a.estimate == b.estimate
        assert a.seed == 5

    def test_flat_rejected(self):
        with pytest.raises(DegenerateZonotope):
            mc_volume(Zonotope([[1.0, 1.0], [2.0, 2.0]]), OracleConfig(mc_samples=1000))

    def test_report_dict(self):
        res = mc_volume(Zonotope(np.eye(2)), OracleConfig(mc_samples=1000))
        d = res.to_dict()
        assert set(d) == {
            "estimate",
            "stdError",
            "hitRate",
            "samples",
            "boxVolume",
            "seed",
        }


class TestExhaustiveMinTime:
    @pytest.mark.parametrize("x0", [0.5, 1.0, 2.3, -3.0, 4.0])
    def test_scalar_chain(self, x0):
        sys_ = LdtSystem(name="s", A=np.array([[1.0]]), B=np.array([[1.0]]))
        got = exhaustive_min_time(sys_, [x0], max_steps=8)
        assert got == math.ceil(abs(x0))

    def test_origin(self):
        sys_ = LdtSystem(name="s", A=np.array([[1.0]]), B=np.array([[1.0]]))
        assert exhaustive_min_time(sys_, [0.0]) == 0

    def test_unreachable(self):
        sys_ = LdtSystem(name="s", A=np.array([[1.0]]), B=np.array([[1.0]]))
        with pytest.raises(NotReachable):
            exhaustive_min_time(sys_, [9.0], max_steps=4)

    def test_agrees_with_lp_route(self, rng):
        for _ in range(6):
            sys_ = make_system(rng, 2)
            gens = np.vstack(
                [(np.linalg.matrix_power(sys_.A, i) @ sys_.B).T for i in range(4)]
            )
            x0 = gens.T @ rng.uniform(-1, 1, size=4)
            assert exhaustive_min_time(sys_, x0, max_steps=8) == min_time(
                sys_, x0, max_steps=8
            ).min_steps


class TestVerificationSuite:
    def test_all_checks_pass(self):
        cfg = OracleConfig(mc_samples=20_000, seed=2)
        report = verification_suite(cfg)
        assert report["passed"]
        assert report["seed"] == 2
        names = {c["name"].split("-")[0] for c in report["checks"]}
        assert {"vertices", "volume", "mintime"} <= names
        for check in report["checks"]:
            assert check["status"] == "pass"
