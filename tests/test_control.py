"""Tests for minimum-time control, strategy freedom, and ability comparison."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st

from conftest import AC_MODEL, DC_MODEL, make_system, near_parallel_rows
from ctrlgauge import (
    BadRange,
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
    lp_optimize,
    min_time,
    normalize_full,
    reach_region,
    simulate,
    stage_generators,
    strategy_space_dim,
    verify_theorem1,
)
from ctrlgauge import control, lp, zonotope
from ctrlgauge.control import EPS, GAUGE_TOL, _descend, _family, _stage_gauges
from ctrlgauge.errors import CtrlGaugeError, InternalError, SingularA, UnstableGrowth
from ctrlgauge.zonotope import _spans, hform
from polytope_enum import _rank, affine_dim


def _brute_contained(fam_inner, fam_outer):
    for k in range(1, fam_inner.horizon + 1):
        rows = fam_outer.stage(k).generators
        m = rows.shape[0]
        for v in brute_vertices(fam_inner.stage(k)):
            box = BoxLp(G=rows.T, x0=v, lower=-np.ones(m), upper=np.ones(m))
            if not lp_feasible(box).feasible:
                return False
    return True


def _count_lp_calls(monkeypatch):
    """Record (entry point, columns) of every LP the library solves."""
    calls = []
    for name in ("feasible", "optimize", "max_margin"):
        def counted(box, *args, _name=name, _real=getattr(lp, name), **kwargs):
            calls.append((_name, box.G.shape[1]))
            return _real(box, *args, **kwargs)

        monkeypatch.setattr(lp, name, counted)
    return calls


def _stage_gauge(rows, x):
    return next(_stage_gauges(_family(rows, len(rows)), x))


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

    def test_capped_stage_uses_the_lp(self, monkeypatch):
        # past the cap the LP gives the gauge and its supporting normal
        # only; the witness and the freedom come from the face descent
        sys_, rng = self._system()
        rows = stage_generators(sys_, 8, RegionKind.REACH)
        d = rng.standard_normal(4)
        x0 = np.where(rows @ d >= 0.0, 1.0, -1.0) @ rows
        calls = _count_lp_calls(monkeypatch)
        sol = min_time(sys_, x0, max_steps=8)
        assert strategy_space_dim(sys_, x0, 8) == sol.strategy_dim == 0
        assert [name for name, _ in calls] == ["max_margin"] * len(calls)
        # stages 7 and 8 (21 and 24 generators) are the capped ones
        assert {columns for _, columns in calls} == {21, 24}

    @pytest.mark.parametrize("seed", [0, 2, 8, 9, 10, 13])
    def test_capped_stage_vertex_at_rounding_margin(self, seed):
        # the max-margin LP puts these vertices a rounding step outside
        # (margin about -2e-16); the gauge reads them as on the boundary
        rng = np.random.default_rng(seed)
        A = rng.uniform(-0.6, 0.6, (4, 4))
        B = rng.uniform(-1, 1, (4, 3))
        sys_ = LdtSystem(name="capped", A=A, B=B)
        rows = stage_generators(sys_, 8, RegionKind.REACH)
        x0 = np.sign(rows @ rng.standard_normal(4)) @ rows
        sol = min_time(sys_, x0, max_steps=8)
        assert sol.min_steps == 8
        assert sol.strategy_dim == 0
        traj = simulate(sys_, np.zeros(4), sol.inputs)
        assert np.abs(traj[-1] - x0).max() <= 1e-7
        assert np.abs(sol.inputs).max() <= 1.0 + 1e-7
        assert strategy_space_dim(sys_, x0, 8) == 0

    def test_capped_stage_unreachable(self):
        sys_, rng = self._system()
        rows = stage_generators(sys_, 8, RegionKind.REACH)
        d = rng.standard_normal(4)
        x0 = 1.1 * (np.where(rows @ d >= 0.0, 1.0, -1.0) @ rows)
        with pytest.raises(NotReachable):
            min_time(sys_, x0, max_steps=8)


@pytest.fixture
def capped(monkeypatch):
    """Call a function with the normal cap patched down to 4 generators, so
    n = 4 stages of 5 or more generators are past it; returns its result
    and the LPs it solved."""

    def run(f, *args, **kwargs):
        with monkeypatch.context() as mp:
            mp.setattr(zonotope, "MAX_GENERATORS", 4)
            calls = _count_lp_calls(mp)
            return f(*args, **kwargs), calls

    return run


def _parity_states(rng, rows):
    """A vertex, a point on an edge, an interior point and the vertex
    shrunk by 5e-8, within BOUNDARY_TOL of the boundary."""
    m, n = rows.shape
    vertex = np.sign(rows @ rng.standard_normal(n))
    edge = vertex.copy()
    edge[rng.integers(m)] = rng.uniform(-1.0, 1.0)
    return {
        "vertex": vertex @ rows,
        "edge": edge @ rows,
        "interior": rng.uniform(-0.5, 0.5, m) @ rows,
        "near": (1.0 - 5e-8) * (vertex @ rows),
    }


class TestCappedParity:
    # the same n = 4 stages answered past the normal cap (the LP's gauge
    # and supporting normal, then the face descent) and below it (the
    # family's normals) give the same answers, with no feasibility or
    # range LP
    def _answers(self, sys_, x, horizon):
        sol = min_time(sys_, x, max_steps=horizon)
        dim = strategy_space_dim(sys_, x, horizon)
        traj = simulate(sys_, np.zeros(sys_.n), sol.inputs)
        assert np.abs(traj[-1] - x).max() <= 1e-7
        assert np.abs(sol.inputs).max() <= 1.0 + 1e-7
        return sol.min_steps, sol.strategy_dim, sol.boundary, dim

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("r, horizon", [(1, 6), (2, 4)])
    def test_same_answers(self, capped, seed, r, horizon):
        rng = np.random.default_rng(seed)
        sys_ = make_system(rng, 4, r=r)
        rows = stage_generators(sys_, horizon, RegionKind.REACH)
        assert capped(_family, rows, r)[0].capped is not None
        solved = []
        for where, x in _parity_states(rng, rows).items():
            free = self._answers(sys_, x, horizon)
            got, calls = capped(self._answers, sys_, x, horizon)
            assert got == free, where
            if where != "near":
                # the enumeration counts a state 5e-8 inside as interior;
                # the library puts it on the boundary (BOUNDARY_TOL)
                assert got[3] == affine_dim(rows.T, x), where
            solved += calls
        assert {name for name, _ in solved} == {"max_margin"}

    def test_tied_set_past_the_cap(self, capped):
        # n = 5 with parallel inputs: a facet of stage 5 ties 4 directions,
        # 8 generators, so the descent's second level is past the cap too
        # and takes the LP's normal of the tied set
        rng = np.random.default_rng(4)
        A = rng.uniform(-1.0, 1.0, (5, 5))
        b = rng.uniform(-1.0, 1.0, 5)
        sys_ = LdtSystem(name="p", A=A, B=np.column_stack([b, -1.7 * b]))
        rows = stage_generators(sys_, 5, RegionKind.REACH)
        for where, x in _parity_states(rng, rows).items():
            free = self._answers(sys_, x, 5)
            got, calls = capped(self._answers, sys_, x, 5)
            assert got == free, where
            assert {name for name, _ in calls} == {"max_margin"}
            if where == "vertex":
                assert ("max_margin", 8) in calls


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
    """Gauge of x from the stage's own H-form alone, one hform per stage."""
    hf = hform(rows)
    off = hf.complement @ x
    if np.linalg.norm(off) > GAUGE_TOL * max(1.0, np.linalg.norm(x)):
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


def _thin_system(eps):
    # reach stages are solid but thin: about eps wide across their length
    return LdtSystem(name="thin", A=np.array([[0.9, 0.2], [0.0, 0.5]]),
                     B=np.array([[1.0], [eps]]))


def _rank_drop_system():
    # its late stages are 1e-13 thin: the smallest singular value of stage
    # 14 falls under TIE_TOL times the largest
    return LdtSystem(name="d", A=np.diag([10.0, 0.5]), B=np.full((2, 1), 1e-3))


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

    @pytest.mark.parametrize("sys_, horizon", [
        (_thin_system(1e-9), 8), (_thin_system(1e-10), 8), (_rank_drop_system(), 16),
    ])
    def test_thin_and_rank_drop_families(self, sys_, horizon):
        rows = stage_generators(sys_, horizon, RegionKind.REACH)
        pushed = rows[0] + rows[1] + 1e-4 * np.array([1.0, -1.0])
        states = _stage_states(rows, 1, np.random.default_rng(6)) + [pushed]
        _assert_family_matches_own_stages(rows, 1, states)

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
    # entries grow to about 1e10, so the early generators are far under the
    # rounding threshold of the late stages (TIE_TOL times the largest
    # entry); each generator is judged on its own prefix, so the stages
    # keep its facets
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

    def test_rank_drop_keeps_the_answer(self):
        # stage 2 already spans R^2, so no later stage may lose a direction
        sys_ = _rank_drop_system()
        g = stage_generators(sys_, 2, RegionKind.REACH)
        x = g[0] + g[1] + 1e-4 * np.array([1.0, -1.0])
        steps = [min_time(sys_, x, max_steps=cap).min_steps for cap in range(3, 17)]
        assert steps == [3] * 14

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
    # a family builds facet normals once per run of stages (same span
    # dimension), never per stage, per state or per sample
    def _count(self, monkeypatch):
        calls = []
        build = control._facet_normals

        def counted(gens):
            calls.append(np.asarray(gens).shape[0])
            return build(gens)

        monkeypatch.setattr(control, "_facet_normals", counted)
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


def _lp_sweep_dim(rows, x):
    """Strategy dimension from the 2m-LP range sweep, as a reference; the
    free rows are ranked as affine_dim ranks, so rounding-level rows count
    as zero."""
    m = rows.shape[0]
    free = np.zeros(m, dtype=bool)
    for j in range(m):
        box = BoxLp(G=rows.T, x0=x, lower=-np.ones(m), upper=np.ones(m),
                    objective=np.eye(m)[j])
        free[j] = lp_optimize(box, "max").value - lp_optimize(box, "min").value > 1e-9
    return int(free.sum()) - (_rank(rows[free]) if free.any() else 0)


def _lp_sweep_dim_or_reject(rows, x):
    # the simplex itself fails on a few badly scaled recover stages (its
    # witness slips out of the box); such an example has no reference
    try:
        return _lp_sweep_dim(rows, x)
    except InternalError:
        reject()


def _descent_system(rng, n, r, style):
    """A random system; style shapes its stages. parallel, zero and rounding
    act on B's second column and need r = 2."""
    A = rng.uniform(-1.0, 1.0, size=(n, n))
    B = rng.uniform(-1.0, 1.0, size=(n, r))
    if style == "parallel":
        B = np.column_stack([B[:, 0], -1.7 * B[:, 0]])
    elif style == "zero":
        B[:, -1] = 0.0
    elif style == "rounding":
        B[:, -1] *= 1e-14
    elif style == "flat":
        # B inside an invariant plane of A: every stage spans 2 dimensions
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        core = np.zeros((n, n))
        core[:2, :2] = rng.uniform(-1.0, 1.0, size=(2, 2))
        core[2:, 2:] = np.diag(rng.uniform(0.5, 1.0, size=n - 2))
        A, B = q @ core @ q.T, q[:, :2] @ rng.uniform(-1.0, 1.0, size=(2, r))
    elif style == "thin":
        # fast and slow modes: late stages are long and thin
        A = np.diag(np.geomspace(1.6, 0.2, n))
        B = np.ones((n, r)) + 0.01 * B
    elif style == "nilpotent":
        # A^n = 0 exactly: the stages past n add zero generators
        A = np.triu(rng.uniform(0.5, 1.5, size=(n, n)), 1)
    return LdtSystem(name=style, A=A, B=B)


def _descent_state(rng, rows, where):
    """A vertex, a point inside a face (edge) or an interior point.

    The face is the one exposed by a direction orthogonal to 1 .. n-1
    random generators: the others are pinned at its signs and these are
    left free in the box.
    """
    m, n = rows.shape
    if where == "interior":
        return rows.T @ rng.uniform(-0.5, 0.5, size=m)
    k = min(m, int(rng.integers(1, n))) if where == "edge" else 0
    free = rng.choice(m, size=k, replace=False)
    _, _, vt = np.linalg.svd(rows[free], full_matrices=True)
    d = vt[free.size :].T @ rng.standard_normal(n - free.size)
    u = np.where(rows @ d >= 0.0, 1.0, -1.0)
    u[free] = rng.uniform(-1.0, 1.0, size=free.size)
    return rows.T @ u


DESCENT_STYLES = ["plain", "parallel", "zero", "rounding", "flat", "thin", "nilpotent"]


class TestFaceDescent:
    # witness inputs and strategy freedom from the family's normals: every
    # witness replays within 1e-7 and every dimension equals the LP sweep's
    # and the enumerated strategy polytope's

    def _check(self, sys_, kind, horizon, where, rng, enumerate_=True, reference=None):
        rows = stage_generators(sys_, horizon, kind)
        x = _descent_state(rng, rows, where)
        u, _ = _descend(_family(rows, sys_.r), horizon, x)
        assert float(np.abs(rows.T @ u - x).max()) <= 1e-7
        assert float(np.abs(u).max()) <= 1.0 + 1e-7
        dim = strategy_space_dim(sys_, x, horizon, kind=kind)
        assert dim == (reference or _lp_sweep_dim)(rows, x)
        if enumerate_:
            assert affine_dim(rows.T, x) == dim
        sol = min_time(sys_, x, kind=kind, max_steps=horizon)
        start = np.zeros(sys_.n) if kind is RegionKind.REACH else x
        end = x if kind is RegionKind.REACH else np.zeros(sys_.n)
        assert float(np.abs(simulate(sys_, start, sol.inputs)[-1] - end).max()) <= 1e-7
        assert float(np.abs(sol.inputs).max(initial=0.0)) <= 1.0 + 1e-7
        return dim

    @pytest.mark.parametrize(
        "style, n",
        # a flat stage needs n >= 3
        [(s, n) for s in DESCENT_STYLES for n in (2, 3, 4) if (s, n) != ("flat", 2)],
    )
    def test_matches_lp_and_enumeration(self, style, n):
        rng = np.random.default_rng(10 * n + DESCENT_STYLES.index(style))
        for r, kind in ((1, RegionKind.REACH), (2, RegionKind.RECOVER)):
            if style in ("parallel", "zero", "rounding"):
                r = 2
            if style == "nilpotent":
                kind = RegionKind.REACH
            sys_ = _descent_system(rng, n, r, style)
            horizon = 8 // r if n < 4 else 6 // r
            for where in ("vertex", "edge", "interior"):
                self._check(sys_, kind, horizon, where, rng)

    def test_face_states_of_a_square(self):
        # stage 2 of A = I, B = I is the square [-2, 2]^2 with generators
        # e1, e2, e1, e2: an edge pins u1 = u3 = 1 and leaves u2 + u4 free
        sys_ = LdtSystem(name="sq", A=np.eye(2), B=np.eye(2))
        rows = stage_generators(sys_, 2, RegionKind.REACH)
        for x, want in (((2.0, 0.5), 1), ((2.0, -2.0), 0), ((1.0, 0.5), 2)):
            assert strategy_space_dim(sys_, x, 2) == want
            assert _lp_sweep_dim(rows, np.array(x)) == want
        u, free = _descend(_family(rows, 2), 2, np.array([2.0, 0.5]))
        assert u[0] == u[2] == 1.0
        assert free.tolist() == [False, True, False, True]
        assert np.allclose(rows.T @ u, [2.0, 0.5], atol=1e-12)

    def test_skips_rounding_level_normals(self):
        # B in an invariant plane of A: rounding leaks the generators out
        # of it along one line, so stage 10's span has a fourth direction
        # only by rounding, and some of its subset normals tie every
        # generator. Picking one pinned nothing, and the walk never ended.
        A = np.array([
            [4.827258728999159, 0.7790169547317864, 1.8710136637063208,
             5.265171966650419],
            [-0.28006058932407546, -0.8606293092691548, -0.20261231065527996,
             -0.08080922467876127],
            [0.9232554651505713, -0.0182039094951285, -0.3954637947669632,
             0.9970003053492704],
            [4.4407319984408105, 0.7925052420292643, 1.461590582100757,
             2.63611979990572],
        ])
        B = np.array([[-4.1107836997998843e-04], [-5.2244039876159964e-01],
                      [8.3417920962319991e-01], [-2.2689450483480225e-01]])
        u = np.array([-0.5318462951837988, 0.6360085989837876, -0.9733069404077219,
                      -0.6857825248670222, 0.14911458778796227, 0.952424170258245,
                      -0.15282632116323214, -0.42210675715643275, -0.07898456549671762,
                      0.18823036867252063])
        sys_ = LdtSystem(name="leak", A=A, B=B)
        x = stage_generators(sys_, 10, RegionKind.REACH).T @ u
        sol = min_time(sys_, x, max_steps=10)
        assert np.abs(simulate(sys_, np.zeros(4), sol.inputs)[-1] - x).max() <= 1e-7

    def test_failed_replay_raises(self, monkeypatch):
        # the walk's witness is replayed like an LP witness
        sys_ = make_system(np.random.default_rng(2), 3, r=1)
        rows = stage_generators(sys_, 5, RegionKind.REACH)
        monkeypatch.setattr(lp, "RESIDUAL_TOL", -1.0)
        with pytest.raises(InternalError):
            _descend(_family(rows, 1), 5, rows.T @ np.full(5, 0.3))

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 4),
        r=st.integers(1, 2),
        horizon=st.integers(1, 5),
        recover=st.booleans(),
        style=st.sampled_from(DESCENT_STYLES),
        where=st.sampled_from(["vertex", "edge", "interior"]),
    )
    # draws where an absolute residual bound (1e-7) in the enumeration
    # reference lets u slide along a singular value of 3.3e-10 (two
    # vertices, spread 2) or splits a vertex at entries near 1e7 into four,
    # 9.6e-9 apart
    @example(seed=43916, n=4, r=1, horizon=4, recover=False, style="nilpotent",
             where="interior")
    @example(seed=151574, n=2, r=1, horizon=5, recover=True, style="plain",
             where="vertex")
    def test_property_matches_lp(self, seed, n, r, horizon, recover, style, where):
        rng = np.random.default_rng(seed)
        if style == "flat" and n == 2:
            style = "plain"
        if style in ("parallel", "zero", "rounding"):
            r = 2
        sys_ = _descent_system(rng, n, r, style)
        kind = RegionKind.RECOVER if recover else RegionKind.REACH
        if recover and abs(np.linalg.det(sys_.A)) < 0.05:
            kind = RegionKind.REACH
        self._check(sys_, kind, horizon, where, rng, enumerate_=horizon * r <= 6,
                    reference=_lp_sweep_dim_or_reject)


THIN_CASES = [(eps, n) for eps in (1e-6, 1e-8, 1e-9, 1e-10) for n in (3, 5, 8)]


def _stiff_system(rng, n, r, style):
    """|lambda| from 1e-3 to 10, both ends present, in a random orthonormal
    frame; B is 1e-4 to 1 in size. parallel and tiny act on B's second
    column (r = 2): parallel to the first, or 1e-14 times a random one."""
    mags = np.concatenate([[1e-3, 10.0], 10.0 ** rng.uniform(-3.0, 1.0, n - 2)])
    T = np.diag(mags * rng.choice([-1.0, 1.0], n))
    T += np.triu(rng.uniform(-1.0, 1.0, (n, n)), 1)
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    B = rng.uniform(-1.0, 1.0, (n, r)) * 10.0 ** -rng.uniform(0.0, 4.0)
    if style == "parallel":
        B[:, 1] = -1.7 * B[:, 0]
    elif style == "tiny":
        B[:, 1] *= 1e-14
    return LdtSystem(name=style, A=Q @ T @ Q.T, B=B)


class TestOneSpanRule:
    # one span rule (zonotope._spans) for vertices, rank, volume, the
    # families and the strategy dimension

    @pytest.mark.parametrize("eps, horizon", THIN_CASES)
    def test_thin_stage_is_solid(self, eps, horizon):
        sys_ = _thin_system(eps)
        rows = stage_generators(sys_, horizon, RegionKind.REACH)
        z = Zonotope(rows)
        assert z.rank() == 2
        assert z.volume() > 0.0
        verts = z.vertices()
        assert len(verts) == 2 * horizon
        for v in verts:
            # every vertex is a member at its own horizon (a flat earlier
            # stage may hold it within GAUGE_TOL)
            sol = min_time(sys_, v, max_steps=horizon)
            traj = simulate(sys_, np.zeros(2), sol.inputs)
            assert np.abs(traj[-1] - v).max() <= 1e-7

    @pytest.mark.parametrize("eps, horizon", THIN_CASES)
    def test_thin_strategy_dim(self, eps, horizon):
        # interior: every input is free, less the two equations
        sys_ = _thin_system(eps)
        x = 0.3 * stage_generators(sys_, horizon, RegionKind.REACH).sum(axis=0)
        assert strategy_space_dim(sys_, x, horizon) == horizon - 2
        assert min_time(sys_, x, max_steps=horizon).strategy_dim == horizon - 2

    def test_near_parallel_inputs_compare_as_a_segment(self):
        # three near-parallel input columns (pairwise sines below TIE_TOL)
        # give a segment; a segment across it is neither inside nor around it
        rows, e = near_parallel_rows()
        A = 0.5 * np.eye(3)
        thin = LdtSystem(name="thin", A=A, B=rows.T)
        across = LdtSystem(name="across", A=A, B=(1000.0 * e)[:, np.newaxis])
        along = LdtSystem(name="along", A=A, B=(2.0 * rows[:1]).T)
        assert compare_ability(thin, across, 1).relation == "Incomparable"
        verdict = compare_ability(thin, along, 1)
        assert (verdict.relation, verdict.stronger) == ("StrictlyStronger", "thin")

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 4),
        r=st.integers(1, 2),
        horizon=st.integers(2, 14),
        recover=st.booleans(),
        style=st.sampled_from(["plain", "parallel", "tiny"]),
    )
    # a 4-D stage 2e-9 thin across generators up to 1.7e8: its facet
    # normals must be exact enough to place an interior state inside
    @example(seed=50000, n=4, r=1, horizon=12, recover=False, style="plain")
    # a 4-D stage whose generators grow about 1e3 per step: its 3-subsets
    # are independent by their angles, though not relative to the largest
    @example(seed=33250, n=4, r=1, horizon=4, recover=True, style="tiny")
    def test_property_stiff_systems(self, seed, n, r, horizon, recover, style):
        rng = np.random.default_rng(seed)
        if style != "plain":
            r = 2
        # recover stages grow about 1e3 per step, past GROWTH_LIMIT soon
        horizon = min(horizon, 20 // r, 4 if recover else 14)
        sys_ = _stiff_system(rng, n, r, style)
        kind = RegionKind.RECOVER if recover else RegionKind.REACH
        try:
            rows = stage_generators(sys_, horizon, kind)
        except UnstableGrowth:
            return
        norms = np.linalg.norm(rows, axis=1)
        assume(norms.max() > 1e10 * norms[norms > 0.0].min())
        m = rows.shape[0]
        live, basis, dims = _spans(rows)
        assert np.all(np.diff(dims) >= 0)
        # the prefix property: each stage alone decides the spans of the
        # whole family, so the spans of the stages are nested
        for k in range(1, horizon + 1):
            own_live, own_basis, own_dims = _spans(rows[: k * r])
            assert np.array_equal(own_live, live[: k * r])
            assert np.array_equal(own_dims, dims[: k * r + 1])
            d = own_dims[-1]
            span = own_basis[:d]
            assert np.abs(span - span @ basis[:d].T @ basis[:d]).max() <= 1e-9
            assert Zonotope(rows[: k * r]).rank() == own_dims[-1]
        try:
            fam = _family(rows, r)
            assert np.array_equal(fam.dims, dims)
            verts = Zonotope(rows).vertices()
            for v in verts:
                assert next(_stage_gauges(fam, v, horizon))[0] <= 1.0
            # an interior state: every input free, less the span's dimension
            x = rows.T @ rng.uniform(-0.5, 0.5, m)
            assert next(_stage_gauges(fam, x, horizon))[0] < 1.0
            dim = strategy_space_dim(sys_, x, horizon, kind=kind)
            sol = min_time(sys_, x, kind=kind, max_steps=horizon)
            assert sol.strategy_dim == dim == m - dims[-1]
        except (NotMember, NotReachable):
            raise
        except CtrlGaugeError:
            pass  # a typed refusal is an answer; a wrong number is not


class TestZeroLp:
    # below the normal cap the witness and the freedom come from the face
    # descent: no LP runs
    @pytest.fixture(autouse=True)
    def _no_lp(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("LP called below the normal cap")

        for name in ("feasible", "optimize", "max_margin"):
            monkeypatch.setattr(lp, name, refuse)

    def test_min_time_and_freedom(self, rng):
        for n, r in ((2, 1), (3, 2), (4, 1)):
            sys_ = make_system(rng, n, r=r)
            rows = stage_generators(sys_, 5, RegionKind.REACH)
            vertex = np.sign(rows @ rng.standard_normal(n))
            for u in (vertex, rng.uniform(-1, 1, 5 * r)):
                x = rows.T @ u
                sol = min_time(sys_, x, max_steps=8)
                traj = simulate(sys_, np.zeros(n), sol.inputs)
                assert np.allclose(traj[-1], x, atol=1e-7)
                assert strategy_space_dim(sys_, x, 5) == affine_dim(rows.T, x)

    def test_verify_theorem1(self, rng):
        sys_a = make_system(rng, 3, name="a", scale=0.8)
        sys_b = LdtSystem(name="b", A=sys_a.A, B=1.5 * sys_a.B)
        assert verify_theorem1(sys_a, sys_b, 5, samples=30, seed=2).passed


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


def _theorem_states(monkeypatch):
    """Record the states verify_theorem1 hands to _min_time, with a stub
    answer in place of the minimum time (the same for both systems)."""
    states = []

    def stub(fam, x, kind):
        states.append(x)
        return SimpleNamespace(min_steps=1, strategy_dim=0)

    monkeypatch.setattr(control, "_min_time", stub)
    return states


class TestReadsTheFamily:
    # compare_ability's metrics and verify_theorem1's states come from each
    # system's family, and answer as the public Zonotope path does

    def test_parity_with_the_public_path(self, monkeypatch):
        rng = np.random.default_rng(2604)
        states = _theorem_states(monkeypatch)
        # full rank, a zero input column, B in an invariant plane of A
        cases = [(n, r, style) for n in (2, 3, 4) for r in (1, 2, 3)
                 for style in ("plain", "zero", "flat") if (style, n) != ("flat", 2)]
        checked = set()
        for n, r, style in cases:
            base = _descent_system(rng, n, r, style)
            scaled = LdtSystem(name="b", A=base.A, B=1.5 * base.B)
            for kind in RegionKind:
                for horizon in range(1, 7):
                    try:
                        rows_a = stage_generators(base, horizon, kind)
                        rows_b = stage_generators(scaled, horizon, kind)
                    except (SingularA, UnstableGrowth):
                        continue
                    tag = f"n={n} r={r} {style} {kind.value} N={horizon}"
                    verdict = compare_ability(base, scaled, horizon, kind=kind)
                    for key, sys_, rows in (("a", base, rows_a), ("b", scaled, rows_b)):
                        shape = Zonotope(rows).shape_report().to_dict()
                        assert verdict.metrics[key] == {"name": sys_.name, **shape}, tag
                    verts = Zonotope(rows_a).vertices()
                    states.clear()
                    verify_theorem1(base, scaled, horizon, kind=kind,
                                    samples=len(verts) + 2)
                    # each state goes to A's family, then to B's
                    got = np.array(states[::2])[: len(verts)]
                    assert np.array_equal(got, verts), tag
                    checked.add((n, r, style, kind))
        assert len(checked) == 2 * len(cases)

    def test_no_zonotope_and_one_span_pass(self, rng, monkeypatch):
        # the planar projections' own _spans calls are allowed; the stage
        # rows go through the span rule once per system, in _family
        sys_a = make_system(rng, 3, r=2, name="a")
        sys_b = LdtSystem(name="b", A=sys_a.A, B=1.5 * sys_a.B)
        rows = [stage_generators(s, 3, RegionKind.REACH) for s in (sys_a, sys_b)]
        seen = []

        def counted(G):
            seen.append(G)
            return real(G)

        def refuse(self, *args, **kwargs):
            raise AssertionError("a Zonotope was built")

        real = zonotope._spans
        monkeypatch.setattr(zonotope, "_spans", counted)
        monkeypatch.setattr(control, "_spans", counted)
        monkeypatch.setattr(Zonotope, "__init__", refuse)
        _theorem_states(monkeypatch)
        for call in (
            lambda: compare_ability(sys_a, sys_b, 3),
            lambda: verify_theorem1(sys_a, sys_b, 3, samples=5),
        ):
            seen.clear()
            call()
            for stage_rows in rows:
                passes = [G for G in seen if G.shape == stage_rows.shape
                          and np.array_equal(G, stage_rows)]
                assert len(passes) == 1


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

    @pytest.mark.parametrize("samples", [0, -3, 2.5, "3", None])
    def test_samples_must_be_a_positive_integer(self, rng, samples):
        # -3 would slice verts[:-3] and pass on the remaining states
        sys_a = make_system(rng, 2, name="a", scale=0.7)
        sys_b = LdtSystem(name="b", A=sys_a.A, B=2.0 * sys_a.B)
        with pytest.raises(BadRange, match="samples must be a positive integer"):
            verify_theorem1(sys_a, sys_b, 4, samples=samples)

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
