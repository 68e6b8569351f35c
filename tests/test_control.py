"""Tests for minimum-time control, strategy freedom, and ability comparison."""

import math

import numpy as np
import pytest

from conftest import AC_MODEL, DC_MODEL, make_system
from ctrlgauge import (
    BoxLp,
    LdtSystem,
    NotMember,
    NotReachable,
    PreconditionNotMet,
    RegionKind,
    TooManyGenerators,
    Zonotope,
    brute_vertices,
    compare_ability,
    load_model,
    lp_feasible,
    min_time,
    normalize_full,
    reach_region,
    simulate,
    stage_generators,
    strategy_space_dim,
    verify_theorem1,
)
from ctrlgauge import control
from ctrlgauge.control import EPS, GAUGE_TOL, _family, _stage_gauge, _stage_gauges
from ctrlgauge.zonotope import hform
from polytope_enum import affine_dim


def _brute_contained(fam_inner, fam_outer):
    for k in range(1, fam_inner.horizon + 1):
        rows = fam_outer.stage(k).generators
        m = rows.shape[0]
        for v in brute_vertices(fam_inner.stage(k)):
            box = BoxLp(G=rows.T, x0=v, lower=-np.ones(m), upper=np.ones(m))
            if not lp_feasible(box).feasible:
                return False
    return True


def _scalar():
    return LdtSystem(name="s", A=np.array([[1.0]]), B=np.array([[1.0]]))


class TestMinTimeScalarChain:
    @pytest.mark.parametrize("x0", [0.3, 1.0, 1.5, -2.4, 3.0, -3.999, 4.0])
    def test_ceil_rule(self, x0):
        sol = min_time(_scalar(), [x0], max_steps=10)
        assert sol.min_steps == math.ceil(abs(x0))

    def test_origin_needs_no_steps(self):
        sol = min_time(_scalar(), [0.0])
        assert sol.min_steps == 0
        assert sol.inputs.shape == (0, 1)
        assert sol.boundary == "Interior"
        assert sol.margin == pytest.approx(1.0)

    def test_boundary_forces_saturated_inputs(self):
        sol = min_time(_scalar(), [4.0], max_steps=6)
        assert sol.min_steps == 4
        assert sol.boundary == "Boundary"
        assert np.allclose(sol.inputs, 1.0, atol=1e-9)

    def test_interior_flag(self):
        sol = min_time(_scalar(), [3.5], max_steps=6)
        assert sol.min_steps == 4
        assert sol.boundary == "Interior"
        assert sol.margin > 0.0

    def test_strategy_dim_from_chain(self):
        # at horizon 4 with x0 = 2 the input slack spans a 3-dim slice
        sol = min_time(_scalar(), [2.0], max_steps=4)
        assert sol.horizon == 4
        assert sol.strategy_dim == 3

    def test_unreachable_raises_with_certificate(self):
        with pytest.raises(NotReachable) as err:
            min_time(_scalar(), [7.5], max_steps=5)
        cert = err.value.certificate
        assert cert is not None
        d = np.asarray(cert, dtype=float)
        # separating direction: support at the cap is below d . x0
        rows = np.ones((5, 1))
        assert float(d @ [7.5]) > float(np.abs(rows @ d).sum())


class TestMinTimeRoundTrip:
    def test_reach_witness_replays_to_target(self, rng):
        for _ in range(8):
            sys_ = make_system(rng, 2)
            rows = reach_region(sys_, 6).stage(6).generators
            u = rng.uniform(-1, 1, size=6)
            x0 = rows.T @ u
            sol = min_time(sys_, x0, max_steps=8)
            traj = simulate(sys_, np.zeros(2), sol.inputs)
            assert np.allclose(traj[-1], x0, atol=1e-6)
            assert np.abs(sol.inputs).max() <= 1.0 + 1e-7

    def test_recover_witness_replays_to_origin(self, rng):
        for _ in range(8):
            sys_ = make_system(rng, 2)
            if abs(np.linalg.det(sys_.A)) < 1e-3:
                continue
            sol_probe = None
            for scale in (0.5, 0.25, 0.1):
                x0 = scale * rng.uniform(-1, 1, size=2)
                try:
                    sol_probe = min_time(sys_, x0, kind=RegionKind.RECOVER, max_steps=8)
                    break
                except NotReachable:
                    continue
            if sol_probe is None:
                continue
            traj = simulate(sys_, x0, sol_probe.inputs)
            assert np.allclose(traj[-1], np.zeros(2), atol=1e-6)

    def test_minimality_certificate(self, rng):
        # one step below the minimum must stay outside the region
        sys_ = make_system(rng, 2)
        rows = reach_region(sys_, 5).stage(5).generators
        x0 = rows.T @ rng.uniform(0.5, 1.0, size=5)
        sol = min_time(sys_, x0, max_steps=8)
        if sol.min_steps > 1 and sol.certificate is not None:
            d = np.asarray(sol.certificate)
            below = reach_region(sys_, sol.min_steps - 1).stage(sol.min_steps - 1)
            assert float(d @ x0) > below.support(d) - 1e-9


class TestMinTimeLpFallback:
    # n = 4 with 3 inputs: stages 7 and 8 have 21 and 24 generators, past
    # the facet-normal cap, so their gauge comes from the max-margin LP
    def _system(self):
        rng = np.random.default_rng(5)
        A = rng.uniform(-0.6, 0.6, size=(4, 4))
        B = rng.uniform(-1.0, 1.0, size=(4, 3))
        return LdtSystem(name="n4r3", A=A, B=B), rng

    def test_capped_stage_witness_and_certificate(self):
        sys_, rng = self._system()
        rows = stage_generators(sys_, 8, RegionKind.REACH)
        with pytest.raises(TooManyGenerators):
            hform(rows[:21])
        # the vertex a generic direction exposes needs all eight steps
        d = rng.standard_normal(4)
        x0 = np.where(rows @ d >= 0.0, 1.0, -1.0) @ rows
        sol = min_time(sys_, x0, max_steps=8)
        assert sol.min_steps == 8
        assert sol.boundary == "Boundary"
        traj = simulate(sys_, np.zeros(4), sol.inputs)
        assert np.allclose(traj[-1], x0, atol=1e-7)
        assert np.abs(sol.inputs).max() <= 1.0 + 1e-7
        cert = np.asarray(sol.certificate)
        below = Zonotope(rows[:21])
        assert float(cert @ x0) > below.support(cert) + 1e-9

    def test_capped_stage_unreachable(self):
        sys_, rng = self._system()
        rows = stage_generators(sys_, 8, RegionKind.REACH)
        d = rng.standard_normal(4)
        x0 = 1.1 * (np.where(rows @ d >= 0.0, 1.0, -1.0) @ rows)
        with pytest.raises(NotReachable):
            min_time(sys_, x0, max_steps=8)


class TestStageGauge:
    def test_thin_stage_keeps_its_vertices(self):
        # the dc motor's 80-step recover stage is 1e-8 thin; rounding puts
        # some of its vertices past gauge 1 + GAUGE_TOL
        dc, dc_spec = load_model(DC_MODEL)
        rows = stage_generators(normalize_full(dc, dc_spec), 80, RegionKind.RECOVER)
        hf = hform(rows)
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(40):
            x = np.where(rows @ rng.standard_normal(3) >= 0.0, 1.0, -1.0) @ rows
            worst = max(worst, float(np.max(np.abs(hf.normals @ x) / hf.supports)))
            assert _stage_gauge(rows, x)[0] <= 1.0
            gauge, d = _stage_gauge(rows, 1.001 * x)
            assert gauge > 1.0
            assert float(d @ (1.001 * x)) > np.abs(rows @ d).sum()
        assert worst > 1.0 + GAUGE_TOL


def _own_stage_gauge(rows, x):
    """Gauge of x from the stage's own H-form alone, one hform per stage.

    The supports sum over every row, the ones hform leaves out as rounding
    level (at most TIE_TOL times the largest entry) too.
    """
    hf = hform(rows)
    hf = type(hf)(hf.complement, hf.normals, np.abs(hf.normals @ rows.T).sum(axis=1))
    off = hf.complement @ x
    if off.size and np.abs(off).max() > GAUGE_TOL * max(1.0, np.abs(x).max()):
        return math.inf
    dx = np.abs(hf.normals @ x)
    if not dx.size:
        return 0.0
    rounding = rows.shape[0] * EPS * (np.abs(hf.normals) @ np.abs(x) + hf.supports)
    gauge = float(np.max(dx / hf.supports))
    inside = np.all(dx <= hf.supports * (1.0 + GAUGE_TOL) + rounding)
    return min(gauge, 1.0) if inside else gauge


def _stage_states(rows, r, rng):
    """Per stage: a random sum, a vertex, half of it and 1.03 times it."""
    states = []
    for k in range(1, rows.shape[0] // r + 1):
        rk = rows[: k * r]
        v = np.where(rk @ rng.standard_normal(rows.shape[1]) >= 0.0, 1.0, -1.0) @ rk
        states += [rk.T @ rng.uniform(-1, 1, rk.shape[0]), v, 0.5 * v, 1.03 * v]
    return states


def _assert_family_matches_own_stages(rows, r, states, rel=1e-8):
    fam = _family(rows, r)
    for x in states:
        gauges = list(_stage_gauges(fam, x))
        assert len(gauges) == rows.shape[0] // r
        for k, (got, d) in enumerate(gauges, 1):
            want = _own_stage_gauge(rows[: k * r], x)
            assert (got <= 1.0) == (want <= 1.0), (k, got, want)
            if math.isinf(want):
                assert math.isinf(got)
            elif rel is not None:
                assert got == pytest.approx(want, rel=rel), k
            if got > 1.0:
                assert float(d @ x) > np.abs(rows[: k * r] @ d).sum()
            else:
                assert d is None


class TestFamilyGauge:
    # one H-form per run of stages and cumulative supports must give every
    # stage the gauge that stage's own H-form gives
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("r", [1, 2])
    def test_every_stage_matches_its_own_hform(self, n, r):
        rng = np.random.default_rng(40 + 10 * n + r)
        for parallel in (False, True):
            sys_ = make_system(rng, n, r=r, scale=0.9)
            # well-conditioned A, so that the recover generators stay small
            A = 0.7 * np.linalg.qr(sys_.A)[0] + 0.2 * sys_.A
            # with r = 2, B's second column is parallel to its first
            B = np.hstack([sys_.B[:, :1], -1.7 * sys_.B[:, :1]]) if parallel else sys_.B
            sys_ = LdtSystem(name="s", A=A, B=B[:, :r])
            for kind in (RegionKind.REACH, RegionKind.RECOVER):
                rows = stage_generators(sys_, 12 // r if n == 4 else 6, kind)
                _assert_family_matches_own_stages(rows, r, _stage_states(rows, r, rng))

    def test_thin_motor_recover_family(self):
        dc, dc_spec = load_model(DC_MODEL)
        rows = stage_generators(normalize_full(dc, dc_spec), 80, RegionKind.RECOVER)
        rng = np.random.default_rng(2)
        states = _stage_states(rows, 1, rng)
        picked = [states[i] for i in rng.choice(len(states), 24)]
        _assert_family_matches_own_stages(rows, 1, picked)

    def test_leaky_uncontrollable_families(self):
        # B lies in an invariant plane of A, but rounding leaks the later
        # generators out of it (up to about 1e-8): stages of one span
        # dimension share normals, and the flat early stages keep their own.
        # The leaked normals are rounding noise, so only membership and the
        # separating directions are compared.
        rng = np.random.default_rng(3)
        for i in range(16):
            n = 3 + i % 2
            J = np.zeros((n, n))
            J[:2, :2] = rng.uniform(-1.2, 1.2, (2, 2))
            J[2:, 2:] = rng.uniform(-6.0, 6.0, (n - 2, n - 2))
            Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
            B = Q[:, :2] @ rng.uniform(-1, 1, (2, 1))
            sys_ = LdtSystem(name="u", A=Q @ J @ Q.T, B=B)
            rows = stage_generators(sys_, 10, RegionKind.REACH)
            states = _stage_states(rows, 1, rng)
            _assert_family_matches_own_stages(rows, 1, states, rel=None)


class TestUnstableFamily:
    # entries grow to about 1e10, so the early generators fall under the
    # rounding threshold of the late stages (TIE_TOL times the largest
    # entry); the stages that still count them must keep their facets
    A = np.diag([10.0, 3.0])
    B = np.array([[1e-3], [1e-3]])

    def _system(self, kind):
        A = self.A if kind is RegionKind.REACH else np.linalg.inv(self.A)
        return LdtSystem(name="u", A=A, B=self.B)

    @pytest.mark.parametrize("kind", [RegionKind.REACH, RegionKind.RECOVER])
    def test_every_stage_matches_its_own_hform(self, kind):
        rows = stage_generators(self._system(kind), 14, kind)
        # outside stage 2 only along the normal of its first generator
        pushed = rows[0] + rows[1] + 1e-4 * np.array([1.0, -1.0])
        states = _stage_states(rows, 1, np.random.default_rng(5)) + [pushed]
        _assert_family_matches_own_stages(rows, 1, states)

    def test_min_time_keeps_the_early_facets(self):
        sys_ = self._system(RegionKind.REACH)
        rows = stage_generators(sys_, 3, RegionKind.REACH)
        x = rows[0] + rows[1] + 1e-4 * np.array([1.0, -1.0])
        sol = min_time(sys_, x, max_steps=14)
        assert sol.min_steps == 3
        assert np.allclose(simulate(sys_, np.zeros(2), sol.inputs)[-1], x, atol=1e-12)

    def test_containment_keeps_the_early_facets(self):
        # the inner stages are segments [-x, x] from stage 2 on, with x
        # outside the outer stage 2 only along the normal of its first
        # generator, and inside from stage 3 on
        outer = self._system(RegionKind.REACH)
        g = stage_generators(outer, 2, RegionKind.REACH)
        x = g[0] + g[1] + 1e-4 * np.array([1.0, -1.0])
        b = 1e-9 * g[0] / np.linalg.norm(g[0])
        u = np.array([-x[1], x[0]]) / (x[0] * b[1] - x[1] * b[0])
        inner = LdtSystem(name="v", A=np.outer(x, u), B=b.reshape(2, 1))
        cert = compare_ability(inner, outer, 14).certificate
        assert [v["stage"] for v in cert["aViolations"]] == [2]

    @pytest.mark.parametrize("stretch", [0.5, 0.98, 1.0, 1.02, 1.5])
    def test_containment_matches_each_stage(self, stretch):
        outer = self._system(RegionKind.REACH)
        inner = LdtSystem(name="v", A=self.A, B=self.B * np.array([[1.0], [stretch]]))
        want = []
        rows_in = stage_generators(inner, 14, RegionKind.REACH)
        rows_out = stage_generators(outer, 14, RegionKind.REACH)
        for k in range(1, 15):
            hf = hform(rows_out[:k])
            dirs = np.vstack([hf.complement, hf.normals])
            # supports over every generator, the rounding-level ones too
            h_out = np.abs(dirs @ rows_out[:k].T).sum(axis=1)
            h_out[: len(hf.complement)] = 0.0
            h_in = np.abs(dirs @ rows_in[:k].T).sum(axis=1)
            if np.any(h_in - h_out > 1e-9 * np.maximum(1.0, h_out)):
                want.append(k)
        cert = compare_ability(inner, outer, 14).certificate
        assert [v["stage"] for v in cert["aViolations"]] == want


class TestHformCalls:
    # hform runs once per run of stages (same span dimension, no generator
    # falling to rounding level inside the run), never per stage, per state
    # or per sample
    def _count(self, monkeypatch):
        calls = []

        def counted(gens):
            calls.append(np.asarray(gens).shape[0])
            return hform(gens)

        monkeypatch.setattr(control, "hform", counted)
        return calls

    def test_full_rank_first_stage_builds_one_form(self, monkeypatch, rng):
        calls = self._count(monkeypatch)
        a = make_system(rng, 2, r=2, name="a", scale=0.6)
        b = LdtSystem(name="b", A=a.A, B=1.5 * a.B)
        x0 = reach_region(a, 3).stage(3).generators.T @ rng.uniform(-1, 1, 6)
        min_time(a, x0, max_steps=20)
        assert len(calls) == 1
        for horizon in (2, 9):
            del calls[:]
            compare_ability(a, b, horizon)
            assert len(calls) == 2
        for samples in (3, 30):
            del calls[:]
            verify_theorem1(a, b, 3, samples=samples)
            assert len(calls) == 2

    def test_one_form_per_span_dimension(self, monkeypatch):
        # the dc motor's stages span 1, 2, then 3 dimensions
        calls = self._count(monkeypatch)
        dc, dc_spec = load_model(DC_MODEL)
        sys_ = normalize_full(dc, dc_spec)
        rows = stage_generators(sys_, 50, RegionKind.REACH)
        for stage in (2, 4, 30):
            del calls[:]
            min_time(sys_, 0.5 * rows[:stage].sum(axis=0), max_steps=50)
            assert sorted(calls) == [1, 2, 50]
        del calls[:]
        big = LdtSystem(name="b", A=sys_.A, B=2.0 * sys_.B)
        verify_theorem1(sys_, big, 6, samples=20)
        assert sorted(calls) == [1, 1, 2, 2, 6, 6]


class TestStrategySpaceDim:
    def test_matches_enumeration_oracle(self, rng):
        for _ in range(12):
            sys_ = make_system(rng, 2)
            N = int(rng.integers(2, 7))
            rows = reach_region(sys_, N).stage(N).generators
            u = rng.uniform(-1, 1, size=N)
            x0 = rows.T @ u
            got = strategy_space_dim(sys_, x0, N)
            want = affine_dim(rows.T, x0)
            assert got == want

    def test_interior_shortcut(self):
        # deep interior point: all m coordinates free, one equality row
        sys_ = _scalar()
        assert strategy_space_dim(sys_, [0.5], 5) == 4

    def test_pinned_boundary(self):
        sys_ = _scalar()
        assert strategy_space_dim(sys_, [4.0], 4) == 0

    def test_outside_raises(self):
        with pytest.raises(NotMember):
            strategy_space_dim(_scalar(), [6.0], 4)


class TestCompareAbility:
    def test_equal_for_identical(self, rng):
        sys_ = make_system(rng, 2)
        twin = LdtSystem(name="twin", A=sys_.A, B=sys_.B)
        verdict = compare_ability(sys_, twin, 4)
        assert verdict.relation == "Equal"
        assert verdict.exact

    def test_scaled_input_strictly_stronger(self, rng):
        sys_a = make_system(rng, 2, name="small")
        sys_b = LdtSystem(name="big", A=sys_a.A, B=2.0 * sys_a.B)
        verdict = compare_ability(sys_a, sys_b, 5)
        assert verdict.relation == "StrictlyStronger"
        assert verdict.stronger == "big"
        assert verdict.certificate["aInB"]
        assert not verdict.certificate["bInA"]

    def test_incomparable_cross(self):
        a = LdtSystem(name="wide", A=np.zeros((2, 2)), B=np.diag([1.0, 0.2]))
        b = LdtSystem(name="tall", A=np.zeros((2, 2)), B=np.diag([0.2, 1.0]))
        verdict = compare_ability(a, b, 3)
        assert verdict.relation == "Incomparable"
        assert verdict.stronger is None

    def test_not_weaker_on_hairline_gap(self):
        # enlargement below the decisive gap: contained but not decisively
        A = 0.1 * np.eye(2)
        Ba = np.array([[1.0], [0.3]])
        a = LdtSystem(name="a", A=A, B=Ba)
        b = LdtSystem(name="b", A=A, B=(1.0 + 5e-7) * Ba)
        verdict = compare_ability(a, b, 2)
        assert verdict.relation == "NotWeaker"
        assert verdict.stronger == "b"

    def test_long_horizon_is_exact(self, rng):
        sys_a = make_system(rng, 2, name="small", scale=0.6)
        sys_b = LdtSystem(name="big", A=sys_a.A, B=2.0 * sys_a.B)
        verdict = compare_ability(sys_a, sys_b, 17)
        assert verdict.exact
        assert verdict.relation == "StrictlyStronger"
        assert verdict.stronger == "big"

    def test_motor_recover_long_horizon_not_contained(self):
        # a dc stage vertex pokes out of the elongated ac region here, along
        # a direction few random directions come near
        dc, dc_spec = load_model(DC_MODEL)
        ac, ac_spec = load_model(AC_MODEL)
        a = normalize_full(dc, dc_spec, use_target=True)
        b = normalize_full(ac, ac_spec, use_target=True)
        verdict = compare_ability(a, b, 20, kind=RegionKind.RECOVER)
        assert verdict.exact
        assert verdict.relation != "StrictlyStronger"
        cert = verdict.certificate
        assert not cert["aInB"]
        rows_a = stage_generators(a, 20, RegionKind.RECOVER)
        rows_b = stage_generators(b, 20, RegionKind.RECOVER)
        for v in cert["aViolations"]:
            k = v["stage"]
            d = np.asarray(v["direction"])
            h_a = np.abs(rows_a[:k] @ d).sum()
            h_b = np.abs(rows_b[:k] @ d).sum()
            assert h_a - h_b > 0.0
            assert v["gap"] == pytest.approx(h_a - h_b, rel=1e-9)
            assert float(d @ np.asarray(v["vertex"])) == pytest.approx(h_a, rel=1e-12)
        assert [v["stage"] for v in cert["aViolations"]] == sorted(
            {v["stage"] for v in cert["aViolations"]}
        )

    def test_margins_and_off_span_violations(self):
        A = np.array([[0.5, 1.0, 0.0], [0.0, 0.5, 1.0], [0.2, 0.0, 0.5]])
        B = np.array([[0.0], [0.0], [1.0]])
        a = LdtSystem(name="a", A=A, B=B)
        b = LdtSystem(name="b", A=A, B=2.0 * B)
        verdict = compare_ability(a, b, 4)
        cert = verdict.certificate
        # Z_a = Z_b / 2 at every stage: all ratios h_a / h_b are 1/2
        assert cert["minMarginAInB"] == pytest.approx(0.5, rel=1e-12)
        assert cert["minMarginBInA"] == pytest.approx(-1.0, rel=1e-12)
        assert [v["stage"] for v in cert["bViolations"]] == [1, 2, 3, 4]
        tilted = LdtSystem(name="t", A=A, B=np.array([[0.1], [0.0], [1.0]]))
        verdict = compare_ability(a, tilted, 4)
        # stage 1 of a is a segment off the segment of stage 1 of t
        assert verdict.certificate["minMarginAInB"] is None
        assert verdict.certificate["aViolations"][0]["stage"] == 1

    def test_margin_is_null_when_inner_leaves_the_span(self):
        # stage 1 of a is a segment off b's; its gap along b's own normal
        # (2) is larger than the one off b's line (0.001), and the margin
        # must still say that a leaves b's span
        A = 0.5 * np.eye(2)
        a = LdtSystem(name="a", A=A, B=np.array([[3.0], [0.001]]))
        b = LdtSystem(name="b", A=A, B=np.array([[1.0], [0.0]]))
        cert = compare_ability(a, b, 1).certificate
        assert cert["minMarginAInB"] is None
        assert cert["aViolations"][0]["gap"] == pytest.approx(2.0)
        assert cert["minMarginBInA"] is None

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_containment_matches_brute_reference(self, n):
        # every brute-force vertex of the inner stage must be LP-feasible in
        # the outer stage exactly when compare_ability reports containment
        rng = np.random.default_rng(100 + n)
        for r in (1, 2):
            for horizon in range(1, 5):
                base = make_system(rng, n, r=r, name="a", scale=0.8)
                others = (
                    LdtSystem(name="b", A=base.A, B=1.5 * base.B),
                    LdtSystem(name="b", A=base.A, B=0.7 * base.B),
                    LdtSystem(name="b", A=base.A, B=base.B.copy()),
                    LdtSystem(
                        name="b",
                        A=base.A,
                        B=1.3 * base.B + 0.05 * rng.uniform(-1, 1, base.B.shape),
                    ),
                    make_system(rng, n, r=r, name="b", scale=0.8),
                )
                for other in others:
                    verdict = compare_ability(base, other, horizon)
                    fam_a = reach_region(base, horizon)
                    fam_b = reach_region(other, horizon)
                    tag = f"n={n} r={r} N={horizon}"
                    assert verdict.certificate["aInB"] == _brute_contained(
                        fam_a, fam_b
                    ), tag
                    assert verdict.certificate["bInA"] == _brute_contained(
                        fam_b, fam_a
                    ), tag

    def test_capped_normals_raise(self):
        rng = np.random.default_rng(9)
        a = make_system(rng, 4, r=3, name="a", scale=0.6)
        b = LdtSystem(name="b", A=a.A, B=2.0 * a.B)
        with pytest.raises(TooManyGenerators):
            compare_ability(a, b, 7)

    def test_metrics_present(self, rng):
        sys_ = make_system(rng, 2)
        verdict = compare_ability(sys_, sys_, 3)
        assert set(verdict.metrics) == {"a", "b"}
        assert "volume" in verdict.metrics["a"]


class TestTheorem:
    def test_nested_pair_passes(self, rng):
        sys_a = make_system(rng, 2, name="a", scale=0.8)
        sys_b = LdtSystem(name="b", A=sys_a.A, B=1.5 * sys_a.B)
        rep = verify_theorem1(sys_a, sys_b, 5, samples=40, seed=3)
        assert rep.passed
        assert rep.min_time_violations == []
        assert rep.dim_violations == []
        assert rep.checked == 40
        total = (
            rep.summary["stepsTied"] + rep.summary["stepsStrictlyFewerB"]
        )
        assert total == rep.checked

    def test_precondition_rejects_reversed_pair(self, rng):
        sys_a = make_system(rng, 2, name="a")
        sys_b = LdtSystem(name="b", A=sys_a.A, B=0.5 * sys_a.B)
        with pytest.raises(PreconditionNotMet):
            verify_theorem1(sys_a, sys_b, 4, samples=10, seed=0)

    def test_report_dict_keys(self, rng):
        sys_a = make_system(rng, 2, name="a", scale=0.7)
        sys_b = LdtSystem(name="b", A=sys_a.A, B=2.0 * sys_a.B)
        d = verify_theorem1(sys_a, sys_b, 4, samples=12, seed=1).to_dict()
        for key in (
            "horizon",
            "kind",
            "samples",
            "seed",
            "checked",
            "minTimeViolations",
            "dimViolations",
            "summary",
            "passed",
        ):
            assert key in d


class TestSimulate:
    def test_trajectory_shape_and_rollout(self, rng):
        sys_ = make_system(rng, 3, r=2)
        u = rng.uniform(-1, 1, size=(4, 2))
        traj = simulate(sys_, np.zeros(3), u)
        assert traj.shape == (5, 3)
        x = np.zeros(3)
        for k in range(4):
            x = sys_.A @ x + sys_.B @ u[k]
        assert np.allclose(traj[-1], x, atol=1e-12)

    def test_overdriven_input_warns(self):
        sys_ = _scalar()
        with pytest.warns(RuntimeWarning):
            simulate(sys_, [0.0], np.array([[1.5]]))

    def test_flat_input_vector_accepted(self):
        sys_ = _scalar()
        traj = simulate(sys_, [0.0], np.array([1.0, 1.0, -1.0]))
        assert traj.shape == (4, 1)
        assert traj[-1, 0] == pytest.approx(1.0)
