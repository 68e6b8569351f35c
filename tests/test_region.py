"""Tests for stage-indexed controllability region families."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import make_system
from ctrlgauge import (
    BadRange,
    HorizonTooShort,
    LdtSystem,
    RegionKind,
    SingularA,
    TooManyGenerators,
    UnstableGrowth,
    Zonotope,
    contains_point,
    controllability_report,
    expansion_check,
    reach_region,
    recover_region,
    region_summary,
    stage_generators,
    validate,
)
from ctrlgauge.model import SINGULARITY_TOL
from ctrlgauge.oracle import SplitMix64
from ctrlgauge.region import GROWTH_LIMIT
from ctrlgauge.zonotope import CHUNK_BYTES, MAX_PATTERN_ROWS, _planar_cells, _spans


def _step_by_step(sys_, horizon, kind):
    """stage_generators as one guarded matmul or solve per step."""
    if kind is RegionKind.REACH:
        M, step = sys_.B, lambda X: sys_.A @ X
    else:
        M, step = np.linalg.solve(sys_.A, sys_.B), lambda X: np.linalg.solve(sys_.A, X)
    blocks = []
    for i in range(horizon):
        if i > 0:
            M = step(M)
        if not np.abs(M).max() <= GROWTH_LIMIT:
            raise UnstableGrowth(f"generator entries exceeded {GROWTH_LIMIT:g} at step {i}")
        blocks.append(M.T)
    return np.vstack(blocks)


def _scaled_chains():
    """200 systems of default_rng(0), n = 2-5, r = 1-3, entries uniform in
    [-1, 1] with each row of A and B scaled by 10^U(-2, 2)."""
    rng = np.random.default_rng(0)
    for _ in range(200):
        n, r = int(rng.integers(2, 6)), int(rng.integers(1, 4))
        scale = 10.0 ** rng.uniform(-2, 2, (n, 1))
        A, B = scale * rng.uniform(-1, 1, (n, n)), scale * rng.uniform(-1, 1, (n, r))
        yield LdtSystem(name="scaled", A=A, B=B)


def _rows_or_error(build, sys_, horizon, kind):
    try:
        return build(sys_, horizon, kind).tobytes()
    except UnstableGrowth as exc:
        return repr(exc)


def _chain(n):
    """Single-input integrator chain; controllable with index n."""
    A = np.eye(n, k=1)
    A[-1, -1] = 0.0
    # shift pattern alone is singular; add identity to keep A invertible
    A = A + np.eye(n) * 0.5
    B = np.zeros((n, 1))
    B[-1, 0] = 1.0
    return LdtSystem(name=f"chain{n}", A=A, B=B)


class TestStageGenerators:
    def test_reach_blocks_are_matrix_powers(self, rng):
        sys_ = make_system(rng, 3, r=2)
        rows = stage_generators(sys_, 4, RegionKind.REACH)
        assert rows.shape == (8, 3)
        M = sys_.B.copy()
        for i in range(4):
            assert np.allclose(rows[2 * i : 2 * i + 2], M.T, atol=1e-12)
            M = sys_.A @ M

    def test_recover_blocks_solve_back(self, rng):
        sys_ = make_system(rng, 3)
        rows = stage_generators(sys_, 3, RegionKind.RECOVER)
        # block i must satisfy A^(i+1) g = b
        Apow = np.eye(3)
        for i in range(3):
            Apow = sys_.A @ Apow
            assert np.allclose(Apow @ rows[i], sys_.B[:, 0], atol=1e-9)

    def test_bad_horizon(self, rng):
        sys_ = make_system(rng, 2)
        with pytest.raises(BadRange):
            stage_generators(sys_, 0, RegionKind.REACH)

    def test_unstable_growth_guard(self):
        # 100^7 = 1e14 is the first entry past 1e12, at step 7 of the first
        # chunk, whatever the horizon
        sys_ = LdtSystem(name="blowup", A=100.0 * np.eye(2), B=np.ones((2, 1)))
        for horizon in (8, 9, 1000):
            with pytest.raises(UnstableGrowth) as err:
                stage_generators(sys_, horizon, RegionKind.REACH)
            assert str(err.value) == "generator entries exceeded 1e+12 at step 7"
        # 10^13 at step 13, in the second chunk (steps 8 to 23)
        sys_ = LdtSystem(name="blowup", A=10.0 * np.eye(2), B=np.ones((2, 1)))
        with pytest.raises(UnstableGrowth, match=r"^generator entries exceeded 1e\+12 at step 13$"):
            stage_generators(sys_, 30, RegionKind.REACH)

    def test_non_finite_entries_stop_the_build(self):
        # A^-1 B overflows to inf in the triangular solve and inf - inf
        # gives a NaN at step 0, which no comparison with the limit passes
        sys_ = LdtSystem(name="nan", A=[[1.0, 1.0, 1.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1e-3]],
                         B=[[0.0], [0.0], [1e306]])
        with pytest.raises(UnstableGrowth, match="at step 0$"):
            recover_region(sys_, 12)

    @pytest.mark.parametrize(
        "kind, A, step",
        [(RegionKind.REACH, 2.0, 40), (RegionKind.RECOVER, 0.5, 39)],
    )
    def test_unstable_growth_stops_in_its_chunk(self, kind, A, step):
        # 2^40 > 1e12 >= 2^39: a million-step horizon raises in the chunk of
        # steps 24 to 55 and allocates nothing for the steps after it
        sys_ = LdtSystem(name="doubling", A=A * np.eye(2), B=np.ones((2, 1)))
        tracemalloc.start()
        try:
            with pytest.raises(UnstableGrowth, match=f"at step {step}$"):
                stage_generators(sys_, 10**6, kind)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("kind", list(RegionKind))
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_rows_match_step_by_step(self, rng, kind, r):
        # the rows are the blocks of one matmul or np.linalg.solve per step,
        # bit for bit, or the same UnstableGrowth
        q = np.linalg.qr(rng.uniform(-1, 1, (3, 3)))[0]
        A = q @ np.diag([0.95, -1.0, 1.05]) @ q.T
        sys_ = LdtSystem(name="modest", A=A, B=rng.uniform(-1, 1, (3, r)))
        chains = [chain for chain in _scaled_chains() if chain.r == r]
        for horizon in (1, 7, 8, 9, 24, 25, 60):
            rows = stage_generators(sys_, horizon, kind)
            want = _step_by_step(sys_, horizon, kind)
            assert rows.shape == want.shape == (horizon * r, 3)
            assert rows.flags.c_contiguous
            assert rows.tobytes() == want.tobytes()
        for chain in chains:
            got, want = (_rows_or_error(build, chain, 12, kind)
                         for build in (stage_generators, _step_by_step))
            assert got == want, (chain.A.tolist(), chain.B.tolist())

    @pytest.mark.parametrize(
        "A, B, kind",
        [
            # step 1 overflows the matmul to inf and raises
            ([[1e300, -1e300], [0.0, 1.0]], [[1e10], [1e10]], RegionKind.REACH),
            # step 0 holds a NaN (inf - inf in the triangular solve), which
            # the guard rejects there
            ([[1.0, 1.0, 1.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1e-3]], [[0.0], [0.0], [1e306]],
             RegionKind.RECOVER),
            # step 2 passes 1e12 in the second row of the first chunk
            ([[1.0, 1.0, 1.0], [0.0, 1.0, 1.0], [0.0, 0.0, 0.5]], [[0.0], [0.0], [1e11]],
             RegionKind.RECOVER),
            # the second entry underflows at step 3, the first passes 1e12
            # at step 7
            ([[100.0, 0.0], [0.0, 1e-100]], [[1.0], [1e-10]], RegionKind.REACH),
            # the same underflow in a chunk that stays within the limit
            ([[0.5, 0.0], [0.0, 1e-100]], [[1.0], [1e-10]], RegionKind.REACH),
        ],
    )
    @pytest.mark.parametrize("err", ["ignore", "warn", "raise"])
    def test_warnings_and_errors_match_step_by_step(self, A, B, kind, err):
        # the chunk's later steps are never seen: the same floating-point
        # warnings, errors and rows as one guarded step at a time
        sys_ = LdtSystem(name="overflow", A=A, B=B)
        outcomes = []
        for build in (stage_generators, _step_by_step):
            with warnings.catch_warnings(record=True) as seen, np.errstate(all=err):
                warnings.simplefilter("always")
                try:
                    got = build(sys_, 12, kind).tobytes()
                except (UnstableGrowth, FloatingPointError) as exc:
                    got = repr(exc)
            outcomes.append((got, [str(w.message) for w in seen]))
        assert outcomes[0] == outcomes[1]


    def test_singular_a_blocks_recover(self):
        sys_ = LdtSystem(name="flat", A=np.zeros((2, 2)), B=np.ones((2, 1)))
        with pytest.raises(SingularA):
            stage_generators(sys_, 2, RegionKind.RECOVER)

    @pytest.mark.parametrize("ratio", [0.99e-12, 1.01e-12])
    def test_singularity_rule_at_its_threshold(self, ratio):
        # det A = ratio and the row norms multiply to 1 in float64, so the
        # relative determinant is the ratio, 1 % off the threshold either way
        sys_ = LdtSystem(name="edge", A=[[1.0, 0.0], [1.0, ratio]], B=[[1.0], [1.0]])
        rep = validate(sys_)
        assert rep.relative_det == pytest.approx(ratio, rel=1e-9)
        assert rep.invertible is (ratio >= SINGULARITY_TOL)
        if rep.invertible:
            assert recover_region(sys_, 1).horizon == 1
        else:
            with pytest.raises(SingularA):
                recover_region(sys_, 1)


class TestFamilies:
    def test_stage_indexing(self, rng):
        sys_ = make_system(rng, 2)
        fam = reach_region(sys_, 5)
        assert fam.horizon == 5
        assert fam.kind is RegionKind.REACH
        assert fam.stage(1).m == 1
        assert fam.stage(5).m == 5
        with pytest.raises(BadRange):
            fam.stage(0)
        with pytest.raises(BadRange):
            fam.stage(6)

    def test_family_is_its_rows(self, rng):
        sys_ = make_system(rng, 3, r=2)
        for kind, builder in ((RegionKind.REACH, reach_region),
                              (RegionKind.RECOVER, recover_region)):
            fam = builder(sys_, 4)
            assert [f.name for f in dataclasses.fields(fam)] == ["system", "kind", "rows"]
            assert not fam.rows.flags.writeable
            with pytest.raises(ValueError):
                fam.rows[0, 0] = 1.0
            rows = stage_generators(sys_, 4, kind)
            for k in range(1, 5):
                assert np.array_equal(fam.stage(k).generators, rows[: 2 * k])

    def test_reports_build_no_zonotope(self, rng, monkeypatch):
        def refuse(self, generators):
            raise AssertionError("a region report built a Zonotope")

        sys_ = make_system(rng, 3)
        monkeypatch.setattr(Zonotope, "__init__", refuse)
        for builder in (reach_region, recover_region):
            fam = builder(sys_, 4)
            region_summary(fam)
            expansion_check(fam, 1, 3)
        controllability_report(sys_, 4)

    def test_stages_nest(self, rng):
        # every stage-k vertex stays inside stage k+1
        for _ in range(5):
            sys_ = make_system(rng, 2)
            fam = reach_region(sys_, 6)
            for k in range(1, 6):
                for v in fam.stage(k).vertices():
                    assert contains_point(fam.stage(k + 1), v)

    def test_recover_equals_reach_of_inverse(self, rng):
        # steering to zero under (A, B) matches reaching under (A^-1, A^-1 B)
        sys_ = make_system(rng, 3)
        if abs(np.linalg.det(sys_.A)) < 1e-6:
            pytest.skip("draw produced a nearly singular A")
        inv = np.linalg.inv(sys_.A)
        mirror = LdtSystem(name="mirror", A=inv, B=inv @ sys_.B)
        back = recover_region(sys_, 4)
        fwd = reach_region(mirror, 4)
        for k in range(1, 5):
            assert np.allclose(
                back.stage(k).generators, fwd.stage(k).generators, atol=1e-9
            )

    def test_scalar_chain_volumes(self):
        sys_ = LdtSystem(name="s", A=np.array([[1.0]]), B=np.array([[1.0]]))
        fam = reach_region(sys_, 5)
        for k in range(1, 6):
            assert fam.stage(k).volume() == pytest.approx(2.0 * k)


class TestControllabilityReport:
    def test_controllable_chain(self):
        sys_ = _chain(3)
        rep = controllability_report(sys_, 3)
        assert rep.controllable
        assert rep.rank_pn == 3
        assert rep.nc == 3
        assert rep.grammian_min_eigen > 0.0

    def test_uncontrollable_subspace(self):
        # input only ever excites the first coordinate
        sys_ = LdtSystem(
            name="stuck",
            A=np.diag([0.5, 0.7]),
            B=np.array([[1.0], [0.0]]),
        )
        rep = controllability_report(sys_, 4)
        assert not rep.controllable
        assert rep.nc == 1
        assert rep.grammian_min_eigen == pytest.approx(0.0, abs=1e-12)
        # flat region agrees: volume of the stage-n body is zero
        fam = reach_region(sys_, 4)
        assert fam.stage(4).volume() == 0.0

    def test_horizon_too_short(self):
        with pytest.raises(HorizonTooShort):
            controllability_report(_chain(3), 2)

    def test_to_dict_keys(self):
        d = controllability_report(_chain(2), 3).to_dict()
        assert set(d) == {"rankPn", "grammianMinEigen", "controllable", "nc"}


class TestExpansionCheck:
    def test_strict_for_controllable(self):
        fam = reach_region(_chain(3), 8)
        rep = expansion_check(fam, 2, 5)
        assert rep.verdict == "StrictlyExpanding"
        assert rep.added_rank == 3

    def test_scalar_identity_still_strict(self):
        # A = 1 repeats the same generator, but a segment keeps lengthening
        sys_ = LdtSystem(name="s", A=np.array([[1.0]]), B=np.array([[1.0]]))
        fam = reach_region(sys_, 6)
        rep = expansion_check(fam, 2, 4)
        assert rep.verdict == "StrictlyExpanding"
        assert rep.added_rank == 1

    def test_weak_for_trapped_input(self):
        # input never excites the second coordinate: growth stalls sideways
        trap = LdtSystem(
            name="trap", A=np.diag([0.5, 0.7]), B=np.array([[1.0], [0.0]])
        )
        tfam = reach_region(trap, 6)
        trep = expansion_check(tfam, 2, 4)
        assert trep.verdict == "WeaklyExpanding"
        w = np.asarray(trep.witness_direction)
        assert w.shape == (2,)
        # witness certifies boundary contact: no support gained along w
        assert trep.support_gap == pytest.approx(0.0, abs=1e-9)
        gap = tfam.stage(4).support(w) - tfam.stage(2).support(w)
        assert gap == pytest.approx(0.0, abs=1e-9)

    def test_gap_from_added_rows_is_nonnegative(self):
        # the difference of the stage 3 and stage 1 supports came out at
        # -1.9e-16 here; the added rows' own support cannot be negative
        A = [
            [-1.3109829393730736, -0.13014991414680582, 1.598938579494171],
            [0.7833234877124252, 0.8948363683743638, -0.5834727418531667],
            [-0.42367005154581916, -0.033160254187252776, 1.192351669039883],
        ]
        B = [[0.5207465919803644], [0.9858977174972121], [-0.7040237024758706]]
        fam = recover_region(LdtSystem(name="gap", A=A, B=B), 3)
        rep = expansion_check(fam, 1, 3)
        assert rep.verdict == "WeaklyExpanding"
        assert 0.0 <= rep.support_gap <= 1e-15
        w = rep.witness_direction
        assert rep.support_gap == pytest.approx(
            fam.stage(3).support(w) - fam.stage(1).support(w), abs=1e-15
        )

    def test_bad_stage_order(self):
        fam = reach_region(_chain(2), 4)
        with pytest.raises(BadRange):
            expansion_check(fam, 3, 3)
        with pytest.raises(BadRange):
            expansion_check(fam, 1, 5)

    def test_report_dict(self):
        fam = reach_region(_chain(2), 5)
        d = expansion_check(fam, 1, 3).to_dict()
        assert d["verdict"] in ("StrictlyExpanding", "WeaklyExpanding")
        assert "addedRank" in d and "supportGap" in d


class TestRegionSummary:
    def test_keys_and_lengths(self, rng):
        sys_ = make_system(rng, 2)
        fam = reach_region(sys_, 4)
        info = region_summary(fam)
        assert info["kind"] == "reach"
        assert info["N"] == 4
        assert len(info["volumeByStage"]) == 4
        assert len(info["vertexCountByStage"]) == 4
        assert all(c >= 1 for c in info["vertexCountByStage"])
        assert info["volumeByStage"] == sorted(info["volumeByStage"])
        assert "overall" in info["shapeFactors"]
        assert "planar" in info["shapeFactors"]

    def test_vertex_counts_past_cap(self, rng):
        # stages 21 and 22 pass MAX_GENERATORS: counted and enumerated
        # alike, twice the angle classes of the planar vertex chain
        sys_ = make_system(rng, 2, scale=0.4)
        fam = reach_region(sys_, 22)
        counts = region_summary(fam)["vertexCountByStage"]
        for k in (20, 21, 22):
            gens = fam.stage(k).generators
            assert counts[k - 1] == len(fam.stage(k).vertices())
            assert counts[k - 1] == len(_planar_cells(gens[_spans(gens)[0]])[0])
        assert counts[20] > counts[19]

    def test_flat_family_past_the_volume_cap(self):
        # B in an invariant plane: every stage is flat and reads volume 0,
        # though C(240, 3) subsets pass MAX_VOLUME_SUBSETS
        A = np.array([[0.6, -0.7, 0.0], [0.7, 0.6, 0.0], [0.0, 0.0, 0.9]])
        sys_ = LdtSystem(name="plane", A=A, B=np.array([[1.0], [0.5], [0.0]]))
        info = region_summary(reach_region(sys_, 240))
        assert info["rank"] == 2
        assert info["volumeByStage"] == [0.0] * 240
        assert info["vertexCountByStage"][-1] == 480

    def test_never_enumerates(self, rng, monkeypatch):
        def refuse(self):
            raise AssertionError("region_summary enumerated vertices")

        monkeypatch.setattr(Zonotope, "vertices", refuse)
        for n in (2, 3, 4):
            info = region_summary(recover_region(make_system(rng, n, r=2), 3))
            assert len(info["vertexCountByStage"]) == 3

    def test_vertices_raise_past_cap(self):
        # generators on a circular cone, no three coplanar: stage k has
        # k^2 - k + 2 vertices, counted at every stage, while from stage
        # 102 on their k signs each pass the output budget
        th = 0.5
        A = np.array([[np.cos(th), -np.sin(th), 0.0], [np.sin(th), np.cos(th), 0.0],
                      [0.0, 0.0, 1.0]])
        fam = reach_region(LdtSystem(name="cone", A=A, B=np.array([[1.0], [0.0], [0.6]])), 102)
        counts = region_summary(fam)["vertexCountByStage"]
        assert counts[-2:] == [10102, 10304]
        assert counts[-1] * 102 > MAX_PATTERN_ROWS >= counts[-2] * 101
        with pytest.raises(TooManyGenerators):
            fam.stage(102).vertices()


def _stable_system(rng, n, r, variant):
    """A = P J P^-1 with eigenvalue moduli in [0.75, 1] and cond(P) < 20, B
    uniform in [-1, 1]; variant "parallel" makes B's columns parallel,
    "zero" zeroes one column, and "block" makes A block diagonal with B
    inside the first block (an uncontrollable system, flat stages).

    The bounded spectrum keeps stage generators between about 1e-3 and
    1e3 and apart at sines far above TIE_TOL.
    """
    while True:
        P = rng.uniform(-1, 1, (n, n))
        if variant == "block":
            P[:2, 2:] = 0.0
            P[2:, :2] = 0.0
        if np.linalg.cond(P) < 20.0:
            break
    J = np.zeros((n, n))
    i = 0
    while i < n:
        rho = rng.uniform(0.75, 1.0)
        if i + 1 < n and i != 1 and rng.random() < 0.5:
            th = rng.uniform(0.2, 2.9)
            J[i : i + 2, i : i + 2] = rho * np.array(
                [[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]]
            )
            i += 2
        else:
            J[i, i] = rho * rng.choice((-1.0, 1.0))
            i += 1
    B = rng.uniform(-1, 1, (n, r))
    if variant == "parallel" and r > 1:
        B[:, 1:] = B[:, :1] * rng.uniform(-2, 2, r - 1)
    elif variant == "zero":
        B[:, int(rng.integers(r))] = 0.0
    elif variant == "block":
        B[2:] = 0.0
    return LdtSystem(name=variant, A=P @ J @ np.linalg.inv(P), B=B)


def _summary_cases(variant):
    """(system, horizon) pairs: twelve _stable_system draws of a variant,
    or for "scan" the n = 3 draws A, B ~ uniform(-1, 1) of default_rng(s),
    s = 0-39, at 11 steps, so their stages 6 and 11 too."""
    if variant == "scan":
        for s in range(40):
            rng = np.random.default_rng(s)
            A = rng.uniform(-1, 1, (3, 3))
            yield LdtSystem(name="scan", A=A, B=rng.uniform(-1, 1, (3, 1))), 11
        return
    rng = np.random.default_rng(["random", "parallel", "zero", "block"].index(variant))
    for _ in range(12):
        n = int(rng.integers(3 if variant == "block" else 2, 5))
        r = int(rng.integers(1, 4))
        yield _stable_system(rng, n, r, variant), max(1, {2: 18, 3: 9, 4: 8}[n] // r)


class TestOnePassSummary:
    @pytest.mark.parametrize("variant", ["random", "parallel", "zero", "block", "scan"])
    def test_every_stage_matches_its_zonotope(self, variant):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for sys_, horizon in _summary_cases(variant):
                n = sys_.n
                for builder in (reach_region, recover_region):
                    try:
                        fam = builder(sys_, horizon)
                    except UnstableGrowth:
                        # recover stages of two scan draws (s = 14, 36)
                        assert variant == "scan"
                        continue
                    info = region_summary(fam)
                    # the final stage's subsets fit one _det_sums chunk, so
                    # every stage's |det| buckets are added in one order
                    assert math.comb(len(fam.rows), n) <= CHUNK_BYTES // (8 * n * n)
                    for k in range(1, horizon + 1):
                        z = fam.stage(k)
                        tag = (variant, n, sys_.r, builder.__name__, k)
                        assert info["vertexCountByStage"][k - 1] == len(z.vertices()), tag
                        vol, want = info["volumeByStage"][k - 1], z.volume()
                        if z.rank() < n:
                            assert vol == 0.0, tag
                        else:
                            assert vol == want, tag
                    report = fam.stage(horizon).shape_report()
                    assert info["rank"] == report.rank
                    assert info["shapeFactors"]["overall"] == report.overall_shape_factor
                    assert info["shapeFactors"]["planar"] == report.to_dict()["planarShapeFactors"]

    def test_vertices_6_tie_stage(self):
        # verification_suite's vertices-6 case at suite seed 18106: a 5-step
        # planar reach stage whose generator angles differ by 9.4e-9 and
        # 1.9e-12, both above TIE_TOL
        rng = SplitMix64(18106)

        def draw(rows, cols):
            return (2.0 * rng.uniforms(rows * cols) - 1.0).reshape(rows, cols)

        for i in range(7):
            n = 2 if i % 2 == 0 else 3
            sys_ = LdtSystem(f"vertex-case-{i}", draw(n, n), draw(n, 1))
        fam = reach_region(sys_, 5)
        counts = region_summary(fam)["vertexCountByStage"]
        assert counts[-1] == len(fam.stage(5).vertices()) == 10
        assert counts == [len(fam.stage(k).vertices()) for k in range(1, 6)]
