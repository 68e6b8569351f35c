"""Tests for the independent verification oracles."""

import math

import numpy as np
import pytest

from conftest import (
    assert_vertex_sets_match,
    make_system,
    near_duplicate_cloud,
    quadratic_dedup,
    reference_hull2d,
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
from ctrlgauge.oracle import (
    _hull2d_indices,
    _hull_contains,
    _lexsorted_unique,
    _sign_sums,
)

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

    def test_sign_sums_past_16_generators(self, rng):
        # the sums of the generators past the 16th are added chunk by chunk;
        # 17 in general position in R^3 give 2 (1 + 16 + C(16, 2)) vertices
        z = Zonotope(rng.uniform(-1, 1, size=(17, 3)))
        want = z.vertices()
        assert want.shape[0] == 274
        assert_vertex_sets_match(brute_vertices(z), want)

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

    @pytest.mark.parametrize("case", ["distinct", "zero-generator", "shared-lead"])
    def test_dedup_exact_ties_identical_to_quadratic_merge(self, rng, case):
        gens = rng.uniform(-1, 1, size=(8, 3))
        if case == "zero-generator":
            gens[3] = 0.0  # every sum appears twice, bit for bit
        elif case == "shared-lead":
            gens[:5, 0] = 0.0  # 32 sums share each first coordinate
        cloud = _sign_sums(gens)
        # distinct first coordinates take the early return; ties take the merge
        gaps = np.diff(np.sort(cloud[:, 0]))
        assert (gaps.min() > 2e-9) == (case == "distinct")
        assert _lexsorted_unique(cloud).tobytes() == quadratic_dedup(cloud).tobytes()


def _edge_midpoint_coords():
    """The planar cloud the oracle hands its hull chain for the edge-midpoint
    zonotope of test_planar_hull_drops_edge_midpoints: SVD-rotated sums,
    whose points on two edges tie in x only up to rounding."""
    G = np.array(
        [[-0.5, 0], [0, -0.5], [-0.0, -0.5], [1, 1], [-0.5, -0.5], [-0.5, 0.5],
         [-0.5, 0], [0.5, -0.5]]
    )
    pts = _lexsorted_unique(_sign_sums(G))
    shifted = pts - pts.mean(axis=0)
    _, _, vt = np.linalg.svd(shifted, full_matrices=False)
    return shifted @ vt[:2].T


def _planar_clouds():
    rng = np.random.default_rng(41)
    grid = rng.integers(-4, 5, size=(300, 2)).astype(float)  # x-ties, collinear runs
    t = np.linspace(-1.0, 1.0, 9)
    square = np.vstack([np.column_stack([t, np.full(9, s)]) for s in (-1.0, 1.0)]
                       + [np.column_stack([np.full(9, s), t]) for s in (-1.0, 1.0)])
    # edges bowed out by 1e-9 (kept) and 1e-14 (below the chain's 1e-12 rule)
    bow = np.concatenate([1.0 + 1e-9 * (1.0 - t**2), 1.0 + 1e-14 * (1.0 - t**2)])
    bowed = np.vstack([np.column_stack([np.tile(t, 2), bow]),
                       np.column_stack([bow, np.tile(t, 2)]), [[-1.0, -1.0]]])
    turn = np.array([[np.cos(0.7), -np.sin(0.7)], [np.sin(0.7), np.cos(0.7)]])
    return {
        "grid": grid,
        "square-edges": square,
        "rotated-grid": grid @ turn.T,  # x-ties broken by rounding
        "rotated-square": (square + 0.1 * rng.standard_normal((1, 2))) @ turn.T,
        "bowed-edges": bowed,
        "gaussian": rng.standard_normal((400, 2)),
        "edge-midpoint": _edge_midpoint_coords(),
        "point": np.array([[0.3, -0.2]]),
        "collinear": np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [0.5, 0.5]]),
    }


class TestPlanarHull:
    @pytest.mark.parametrize("name", list(_planar_clouds()))
    def test_same_indices_as_reference_chain(self, name):
        cloud = _planar_clouds()[name]
        got, want = _hull2d_indices(cloud), reference_hull2d(cloud)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


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

    @pytest.mark.parametrize("chunk", [1000, 4096])
    def test_chunk_size_does_not_change_the_answer(self, monkeypatch, chunk):
        z = Zonotope(np.array([[1.0, 0.2, 0.1], [0.1, 0.8, -0.3], [0.4, -0.3, 0.6]]))
        cfg = OracleConfig(mc_samples=10_007, seed=3)
        default = mc_volume(z, cfg)
        monkeypatch.setattr(oracle, "_CHUNK", chunk)
        assert mc_volume(z, cfg) == default

    @pytest.mark.parametrize(
        "gens,samples,seed,hits",
        [
            ([[1.0, 0.2], [0.1, 0.8], [0.4, -0.3]], 50_000, 5, 38702),
            ([[1.0, 0.2, 0.0], [0.1, 0.8, 0.3], [0.4, -0.3, 0.5], [0.2, 0.1, -0.7]],
             40_000, 9, 18378),
            ([[1.0, 0.2, 0.0, 0.3], [0.1, 0.8, 0.3, -0.2], [0.4, -0.3, 0.5, 0.1],
              [0.2, 0.1, -0.7, 0.4], [-0.3, 0.5, 0.2, 0.6]], 30_000, 13, 4841),
        ],
        ids=["n2", "n3", "n4"],
    )
    def test_pinned_hit_counts(self, gens, samples, seed, hits):
        # the counts fix the SplitMix64 stream; each sample's products with
        # the normals are fixed only up to the BLAS kernel's rounding, so a
        # count could move with _CHUNK or the BLAS build, for a sample
        # within one rounding step of a facet
        res = mc_volume(np.array(gens), OracleConfig(mc_samples=samples, seed=seed))
        assert res.hit_rate == hits / samples

    @pytest.mark.parametrize("chunks", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_hits_are_an_independent_count(self, n, chunks):
        # the whole sample stream at once, one row per sample, against the
        # oracle's own half-spaces; the odd remainder leaves a short chunk
        gens = np.random.default_rng(100 * n + chunks).uniform(-1, 1, (n + 3, n))
        cases = [gens, np.diag(np.arange(1.0, n + 1.0))]  # the last is its own box
        samples = (chunks - 1) * oracle._CHUNK + 1237
        for rows in cases:
            res = mc_volume(rows, OracleConfig(mc_samples=samples, seed=chunks))
            pts = 2.0 * SplitMix64(chunks).uniforms(samples * n) - 1.0
            pts = pts.reshape(samples, n) * np.abs(rows).sum(axis=0)
            normals, offsets = oracle._oracle_halfspaces(rows)
            hits = (np.abs(pts @ normals.T) <= offsets).all(axis=1).sum()
            assert res.hit_rate == hits / samples
        assert res.hit_rate == 1.0

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


def _stages(sys_, kind, steps):
    """Each horizon's generator rows, built as the oracle builds them."""
    M, blocks = sys_.B.copy(), []
    for step in range(1, steps + 1):
        if kind == "recover":
            M = np.linalg.solve(sys_.A, M)
        elif step > 1:
            M = sys_.A @ M
        blocks.append(M.T.copy())
        yield np.vstack(blocks)


def _hull_only_min_time(sys_, x, kind, max_steps):
    """The horizon sweep with the hull of all sign sums deciding every
    horizon; None where no horizon up to max_steps holds x."""
    for step, rows in enumerate(_stages(sys_, kind, max_steps), start=1):
        if _hull_contains(_sign_sums(rows), x):
            return step
    return None


def _stage_state(rng, rows, where):
    """An interior state, a vertex, or a vertex scaled out by 1.02."""
    if where == "interior":
        return rows.T @ rng.uniform(-1.0, 1.0, size=rows.shape[0])
    d = rng.standard_normal(rows.shape[1])
    x = rows.T @ np.where(rows @ d >= 0.0, 1.0, -1.0)
    return 1.02 * x if where == "outside" else x


def _parity_draws(count, seed=3):
    """Seeded (system, kind, state) draws: n = 1..3, r = 1..2, reach or
    (where |det A| >= 0.1) recover, states of stages 1..5."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        n, r = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        sys_ = make_system(rng, n, r)
        recover = rng.random() < 0.5 and abs(np.linalg.det(sys_.A)) >= 0.1
        kind = "recover" if recover else "reach"
        rows = list(_stages(sys_, kind, int(rng.integers(1, 6))))[-1]
        where = ("interior", "vertex", "outside")[i % 3]
        yield sys_, kind, _stage_state(rng, rows, where)


@pytest.fixture
def hull_calls(monkeypatch):
    """(sign sums, answer) of every hull test the oracle makes."""
    calls = []

    def counted(pts, x, tol=1e-9):
        inside = _hull_contains(pts, x, tol)
        calls.append((pts.shape[0], inside))
        return inside

    monkeypatch.setattr(oracle, "_hull_contains", counted)
    return calls


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

    def test_matches_the_hull_alone(self):
        # the box and the witness decide no horizon otherwise than the hull
        mismatches, unreachable = [], 0
        for i, (sys_, kind, x) in enumerate(_parity_draws(240)):
            steps = 10 // sys_.r  # at most 2^10 sign sums
            want = _hull_only_min_time(sys_, x, kind, steps)
            try:
                got = exhaustive_min_time(sys_, x, kind=kind, max_steps=steps)
            except NotReachable:
                got = None
            unreachable += want is None
            if got != want:
                mismatches.append((i, got, want))
        assert mismatches == []
        assert unreachable > 0

    def test_far_state_skips_every_hull(self, hull_calls):
        # outside every stage's box, up to the horizon past the sign budget
        far = LdtSystem("far", 0.5 * np.eye(2), [[1.0], [0.5]])
        with pytest.raises(TooManyGenerators, match="horizon 21 needs 21 sign bits"):
            exhaustive_min_time(far, [100.0, 100.0], max_steps=30)
        assert hull_calls == []

    def test_interior_state_settled_by_the_witness(self, hull_calls):
        rng = np.random.default_rng(8)
        sys_ = make_system(rng, 2)
        rows = list(_stages(sys_, "reach", 3))[-1]
        x = rows.T @ rng.uniform(-0.3, 0.3, size=3)
        got = exhaustive_min_time(sys_, x, max_steps=8)
        assert got == _hull_only_min_time(sys_, x, "reach", 8)
        # every hull test answered no: the witness returned the step
        assert not any(inside for _, inside in hull_calls)

    def test_vertex_state_reaches_the_hull(self, hull_calls):
        rng = np.random.default_rng(8)
        sys_ = make_system(rng, 2)
        rows = list(_stages(sys_, "reach", 4))[-1]
        x = _stage_state(rng, rows, "vertex")
        assert exhaustive_min_time(sys_, x, max_steps=8) == 4
        assert hull_calls[-1] == (2**4, True)


class TestHullVolume:
    # a second volume route, kept out of verification_suite: the hull of
    # the brute-force vertices against the determinant sum
    @pytest.mark.parametrize("n, r, steps", [(2, 2, 3), (2, 1, 6), (3, 2, 3), (3, 1, 5)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_determinant_volume(self, n, r, steps, seed):
        from scipy.spatial import ConvexHull

        sys_ = make_system(np.random.default_rng(100 * n + seed), n, r)
        z = Zonotope(list(_stages(sys_, "reach", steps))[-1])
        assert z.rank() == n
        want = z.volume()
        assert ConvexHull(brute_vertices(z)).volume == pytest.approx(want, rel=1e-9)


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
