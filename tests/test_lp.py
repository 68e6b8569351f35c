"""Tests for the bounded-variable simplex core."""

import numpy as np
import pytest

from ctrlgauge import BoxLp, DimensionMismatch, Infeasible, InternalError, LdtSystem
from ctrlgauge import RegionKind, stage_generators
from ctrlgauge import lp_feasible, lp_max_margin, lp_optimize
from ctrlgauge.lp import _Simplex
from polytope_enum import affine_dim, polytope_vertices


def _box(G, x0, objective=None, lo=-1.0, hi=1.0):
    G = np.atleast_2d(np.asarray(G, dtype=float))
    m = G.shape[1]
    return BoxLp(
        G=G,
        x0=np.asarray(x0, dtype=float),
        lower=np.full(m, lo),
        upper=np.full(m, hi),
        objective=objective,
    )


class TestBoxLp:
    def test_bound_length_checked(self):
        with pytest.raises(DimensionMismatch):
            BoxLp(G=np.eye(2), x0=np.zeros(2), lower=np.zeros(1), upper=np.ones(2))

    def test_crossed_bounds_rejected(self):
        with pytest.raises(ValueError):
            BoxLp(G=np.eye(1), x0=np.zeros(1), lower=np.ones(1), upper=-np.ones(1))

    def test_objective_length_checked(self):
        with pytest.raises(DimensionMismatch):
            _box(np.eye(2), np.zeros(2), objective=np.ones(3))


class TestFeasible:
    def test_identity_witness(self):
        res = lp_feasible(_box(np.eye(2), [0.5, -0.25]))
        assert res.feasible
        assert np.allclose(res.witness, [0.5, -0.25], atol=1e-9)
        assert res.residual <= 1e-7

    def test_outside_box_image(self):
        res = lp_feasible(_box(np.eye(2), [2.0, 0.0]))
        assert not res.feasible
        assert res.witness is None

    def test_certificate_separates(self):
        # Farkas direction: d . x0 must exceed the box support sum |d . g|
        G = np.array([[1.0, 0.5, -0.25], [0.0, 1.0, 1.0]])
        x0 = np.array([5.0, -4.0])
        res = lp_feasible(_box(G, x0))
        assert not res.feasible
        d = res.certificate
        assert d is not None
        assert float(d @ x0) > float(np.abs(d @ G).sum()) + 1e-9

    def test_boundary_point(self):
        # sum of four unit steps reaching exactly 4 forces all-ones
        res = lp_feasible(_box(np.ones((1, 4)), [4.0]))
        assert res.feasible
        assert np.allclose(res.witness, np.ones(4), atol=1e-9)

    def test_just_outside_boundary(self):
        res = lp_feasible(_box(np.ones((1, 4)), [4.0 + 1e-5]))
        assert not res.feasible

    def test_determinism(self, rng):
        G = rng.uniform(-1, 1, size=(3, 6))
        x0 = G @ rng.uniform(-0.9, 0.9, size=6)
        a = lp_feasible(_box(G, x0))
        b = lp_feasible(_box(G, x0))
        assert a.feasible and b.feasible
        assert np.array_equal(a.witness, b.witness)

    def test_matches_enumeration(self, rng):
        hits = 0
        for _ in range(60):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(n, 7))
            G = rng.uniform(-1, 1, size=(n, m))
            u = rng.uniform(-1.4, 1.4, size=m)
            x0 = G @ u
            verts = polytope_vertices(G, x0)
            res = lp_feasible(_box(G, x0))
            assert res.feasible == (verts.shape[0] > 0)
            hits += int(res.feasible)
        assert 0 < hits < 60  # both branches exercised


class TestOptimize:
    def test_requires_objective(self):
        with pytest.raises(ValueError):
            lp_optimize(_box(np.eye(2), [0.0, 0.0]))

    def test_min_and_max_on_segment(self):
        # u1 + u2 = 1 in the unit box: u1 ranges over [0, 1]
        prob = _box(np.array([[1.0, 1.0]]), [1.0], objective=np.array([1.0, 0.0]))
        lo = lp_optimize(prob, sense="min")
        hi = lp_optimize(prob, sense="max")
        assert lo.value == pytest.approx(0.0, abs=1e-9)
        assert hi.value == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(prob.G @ lo.witness, [1.0], atol=1e-9)

    def test_infeasible_raises(self):
        prob = _box(np.eye(2), [3.0, 0.0], objective=np.ones(2))
        with pytest.raises(Infeasible):
            lp_optimize(prob)

    def test_matches_vertex_enumeration(self, rng):
        for _ in range(40):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(n, 7))
            G = rng.uniform(-1, 1, size=(n, m))
            x0 = G @ rng.uniform(-0.8, 0.8, size=m)
            verts = polytope_vertices(G, x0)
            if verts.shape[0] == 0:
                continue
            c = rng.standard_normal(m)
            vals = verts @ c
            lo = lp_optimize(_box(G, x0, objective=c), sense="min")
            hi = lp_optimize(_box(G, x0, objective=c), sense="max")
            assert lo.value == pytest.approx(float(vals.min()), abs=1e-7)
            assert hi.value == pytest.approx(float(vals.max()), abs=1e-7)


class TestSingularBasis:
    # a singular basis is a typed InternalError on every solve, never a
    # raw numpy LinAlgError
    def test_freedom_sweep_lp_of_parallel_inputs(self):
        # one LP of the old strategy-freedom sweep: a vertex of stage 6 of
        # an n = 4 recover family with B = [b, 1.7 b] (entries up to 2e6),
        # minimising its 11th input; the simplex meets a singular basis
        rng = np.random.default_rng(287)
        A = rng.uniform(-1, 1, size=(4, 4))
        b = rng.uniform(-1, 1, size=4)
        sys_ = LdtSystem(name="p", A=A, B=np.column_stack([b, 1.7 * b]))
        rows = stage_generators(sys_, 6, RegionKind.RECOVER)
        rng.standard_normal(4)
        x0 = np.where(rows @ rng.standard_normal(4) >= 0.0, 1.0, -1.0) @ rows
        with pytest.raises(InternalError, match="singular"):
            lp_optimize(_box(rows.T, x0, objective=np.eye(12)[10]), sense="min")

    def test_dual_solve_guarded(self):
        # two equal columns made basic by hand: the dual solve of the
        # pricing step is the first to see the singular basis
        solver = _Simplex(np.ones((2, 2)), np.ones(2), -np.ones(2), np.ones(2))
        solver._setup_phase1()
        solver.basis[:] = [0, 1]
        with pytest.raises(InternalError, match="singular"):
            solver._iterate(np.ones(4))


class TestMaxMargin:
    def test_scalar_chain_half(self):
        # sum of four steps equal to 2: best centering leaves margin 1/2
        res = lp_max_margin(_box(np.ones((1, 4)), [2.0]))
        assert res.margin == pytest.approx(0.5, abs=1e-8)
        assert np.allclose(np.ones(4) @ res.witness, 2.0, atol=1e-7)
        assert np.max(np.abs(res.witness)) <= 1.0 - res.margin + 1e-7

    def test_origin_has_full_margin(self):
        res = lp_max_margin(_box(np.eye(3), [0.0, 0.0, 0.0]))
        assert res.margin == pytest.approx(1.0, abs=1e-8)

    def test_boundary_point_zero_margin(self):
        res = lp_max_margin(_box(np.ones((1, 4)), [4.0]))
        assert res.margin == pytest.approx(0.0, abs=1e-8)

    def test_outside_raises(self):
        with pytest.raises(Infeasible):
            lp_max_margin(_box(np.ones((1, 4)), [4.5]))

    def test_margin_matches_slack_geometry(self, rng):
        # for G = I the margin is 1 - max|x0_i|
        x0 = rng.uniform(-0.9, 0.9, size=3)
        res = lp_max_margin(_box(np.eye(3), x0))
        assert res.margin == pytest.approx(1.0 - np.abs(x0).max(), abs=1e-8)


def _capped_vertex(seed):
    """The stage-8 vertex of an n = 4, r = 3 system that the capped min_time
    tests use; its max-margin LP answers a rounding-level margin."""
    rng = np.random.default_rng(seed)
    A = rng.uniform(-0.6, 0.6, (4, 4))
    B = rng.uniform(-1, 1, (4, 3))
    rows = stage_generators(LdtSystem(name="capped", A=A, B=B), 8, RegionKind.REACH)
    return rows.T, np.sign(rows @ rng.standard_normal(4)) @ rows


class TestMarginDirection:
    # over the unit box the direction supports the shrunken image at x0:
    # d . x0 = (1 - margin) sum_j |d . g_j|
    def _check(self, G, x0):
        G = np.atleast_2d(np.asarray(G, dtype=float))
        x0 = np.asarray(x0, dtype=float)
        res = lp_max_margin(_box(G, x0))
        d = res.direction
        support = float(np.abs(d @ G).sum())
        assert np.linalg.norm(d) == pytest.approx(1.0, abs=1e-12)
        assert d @ x0 >= 0.0
        assert abs(d @ x0 - (1.0 - res.margin) * support) <= 1e-12 * max(1.0, support)
        return res

    @pytest.mark.parametrize("x0", [2.0, -3.0, 4.0, 0.0])
    def test_scalar_chain(self, x0):
        res = self._check(np.ones((1, 4)), [x0])
        assert res.direction == pytest.approx([1.0 if x0 >= 0.0 else -1.0])

    def test_identity(self, rng):
        # for G = I the normal is the axis of the largest |x0_i|
        for _ in range(20):
            x0 = rng.uniform(-0.9, 0.9, size=3)
            i = int(np.argmax(np.abs(x0)))
            res = self._check(np.eye(3), x0)
            assert res.direction == pytest.approx(np.sign(x0[i]) * np.eye(3)[i])

    def test_origin(self):
        # margin 1: every unit vector supports the image at the origin
        self._check(np.eye(3), np.zeros(3))

    def test_random_unit_boxes(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(n, 9))
            G = rng.uniform(-1, 1, size=(n, m))
            u = rng.uniform(-1, 1, size=m)
            if rng.random() < 0.5:
                u = np.sign(u)  # a vertex
            self._check(G, G @ u)

    @pytest.mark.parametrize("seed", [0, 2, 8, 9, 10, 13])
    def test_capped_vertices(self, seed):
        res = self._check(*_capped_vertex(seed))
        assert abs(res.margin) <= 1e-8


class TestMarginNearVertices:
    # states delta inside a vertex of a single-input stage: an input and
    # the slack of its shrunken bound reach their bounds at steps delta /
    # rate apart, with rates up to 1e4, and only a tie window on the values
    # keeps the witness inside the shrunken box
    @pytest.mark.parametrize("delta", [0.0, 1e-8, 1e-7, 3e-7, 1e-6, 1e-5, 1e-3])
    def test_margin_is_delta(self, delta):
        for seed in range(200):
            rng = np.random.default_rng(seed)
            n = [2, 3, 4, 5][seed % 4]
            A = rng.uniform(-1, 1, (n, n))
            B = rng.uniform(-1, 1, (n, 1))
            rows = stage_generators(LdtSystem(name="v", A=A, B=B), 8, RegionKind.REACH)
            v = np.sign(rows @ rng.standard_normal(n)) @ rows
            res = lp_max_margin(_box(rows.T, (1.0 - delta) * v))
            assert res.margin == pytest.approx(delta, abs=1e-9), f"seed {seed}"



def _recover_recipe(seed):
    """Six recover steps of an n = 3 system whose second input column is at
    rounding level (1e-14), and the vertex a random direction exposes."""
    rng = np.random.default_rng(seed)
    A = rng.uniform(-1, 1, (3, 3))
    B = rng.uniform(-1, 1, (3, 2))
    B[:, 1] *= 1e-14
    rows = stage_generators(LdtSystem(name="t", A=A, B=B), 6, RegionKind.RECOVER)
    return rows, np.sign(rows @ rng.standard_normal(3)) @ rows


class TestRoundingLevelColumn:
    # the slack-block form of this LP (n + 2m rows, 3m + 1 columns)
    # cycles to the iteration limit of 50 000 pivots on these stages; the
    # gauge LP ends in a few dozen
    @pytest.mark.parametrize("seed", [56, 182, 492])
    def test_vertex_answers(self, seed):
        rows, x = _recover_recipe(seed)
        res = lp_max_margin(_box(rows.T, x))
        assert abs(res.margin) <= 1e-8
        assert np.abs(rows.T @ res.witness - x).max() <= 1e-7
        assert np.abs(res.witness).max() <= 1.0 + 1e-7

    def test_replay_past_double_precision(self):
        # entries of 1.2e10: the witness replays to 1.9e-6, above the
        # absolute 1e-7 contract, so the answer is a typed refusal
        rows, x = _recover_recipe(98)
        with pytest.raises(InternalError, match="witness failed verification"):
            lp_max_margin(_box(rows.T, x))


class TestOneWidthBox:
    # max_margin shrinks every side of the box by the same amount, so it
    # takes boxes whose sides all have one width
    def test_unequal_widths_rejected(self):
        box = BoxLp(G=np.eye(2), x0=np.zeros(2), lower=-np.ones(2), upper=[1.0, 2.0])
        with pytest.raises(ValueError, match="one positive width"):
            lp_max_margin(box)

    def test_zero_width_rejected(self):
        with pytest.raises(ValueError, match="one positive width"):
            lp_max_margin(_box(np.eye(2), np.zeros(2), lo=0.0, hi=0.0))

    @pytest.mark.parametrize(
        "G, u, lo, want",
        [
            # the largest s with G u = x0, lower + s <= u <= upper - s and
            # s <= min(1, h), as the slack-block LP answers it
            ([[1.0, 1.0, 1.0, 1.0]], [1.5] * 4, -2.0, 0.5),
            ([[1.0, 1.0, 1.0, 1.0]], [0.5] * 4, -2.0, 1.0),
            ([[1.0, 1.0, 1.0, 1.0]], [1.25] * 4, 0.0, 0.75),
            ([[1.0, 1.0, 1.0, 1.0]], [1.0] * 4, 0.0, 1.0),
            ([[1.0, 0.5, -0.3], [0.2, -1.0, 0.7]], [1.5, -0.5, 1.0], -2.0,
             0.5217391304347827),
            ([[1.0, 0.5, -0.3], [0.2, -1.0, 0.7]], [1.5, 0.5, 1.8], 0.0,
             0.3774193548387096),
            ([[1.0, 0.5, -0.3], [0.2, -1.0, 0.7]], [2.0, -2.0, 2.0], -2.0, 0.0),
        ],
    )
    def test_margins_of_wider_boxes(self, G, u, lo, want):
        G = np.asarray(G)
        res = lp_max_margin(_box(G, G @ np.asarray(u), lo=lo, hi=2.0))
        assert res.margin == pytest.approx(want, abs=1e-12)
        assert np.abs(G @ res.witness - G @ np.asarray(u)).max() <= 1e-12
        assert lo + res.margin - 1e-12 <= res.witness.min()
        assert res.witness.max() <= 2.0 - res.margin + 1e-12


class TestFlatStage:
    # n = 4 with an uncontrollable fourth coordinate, 3 inputs and 8 steps:
    # 24 generators, past the facet-normal cap, spanning a hyperplane
    def _stage(self):
        rng = np.random.default_rng(7)
        A = np.zeros((4, 4))
        A[:3] = rng.uniform(-0.6, 0.6, (3, 4))
        A[3, 3] = 0.5
        B = np.zeros((4, 3))
        B[:3] = rng.uniform(-1.0, 1.0, (3, 3))
        rows = stage_generators(LdtSystem(name="flat", A=A, B=B), 8, RegionKind.REACH)
        assert not rows[:, 3].any()
        return rows, np.sign(rows @ rng.standard_normal(4)) @ rows

    def test_vertex_on_the_span(self):
        rows, v = self._stage()
        assert abs(lp_max_margin(_box(rows.T, v)).margin) <= 1e-8

    def test_off_the_span_has_a_complement_certificate(self):
        rows, v = self._stage()
        x = v + 1e-3 * np.eye(4)[3]
        with pytest.raises(Infeasible) as info:
            lp_max_margin(_box(rows.T, x))
        d = info.value.certificate
        assert np.linalg.norm(d) == pytest.approx(1.0, abs=1e-12)
        assert np.abs(d - np.eye(4)[3]).max() <= 1e-9
        assert d @ x - np.abs(rows @ d).sum() == pytest.approx(1e-3, rel=1e-6)

class TestEnumerationOracleSelfCheck:
    def test_affine_dim_chain(self):
        G = np.ones((1, 4))
        assert affine_dim(G, [2.0]) == 3
        assert affine_dim(G, [4.0]) == 0
        assert affine_dim(G, [4.5]) is None

    def test_vertices_of_square_slice(self):
        verts = polytope_vertices(np.array([[1.0, 1.0]]), [0.0])
        assert verts.shape == (2, 2)
