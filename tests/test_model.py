"""Tests for system containers, validation, and normalization."""

import json

import numpy as np
import pytest

from conftest import AC_MODEL, DC_MODEL, make_system
from ctrlgauge import (
    DimensionMismatch,
    LdtSystem,
    MissingTarget,
    NonPositiveBound,
    NormalizationSpec,
    load_model,
    model_from_dict,
    model_to_dict,
    normalize_full,
    normalize_input_only,
    save_model,
    validate,
)


def _fmt(M):
    return [" ".join(f"{v:.4g}" for v in row) for row in np.atleast_2d(M)]


class TestLdtSystem:
    def test_dimensions(self, rng):
        sys_ = make_system(rng, 3, r=2)
        assert sys_.n == 3
        assert sys_.r == 2

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            LdtSystem(name="bad", A=np.eye(2), B=np.ones((3, 1)))
        with pytest.raises(DimensionMismatch):
            LdtSystem(name="bad", A=np.ones((2, 3)), B=np.ones((2, 1)))

    def test_one_dim_inputs_coerced(self):
        sys_ = LdtSystem(name="s", A=np.array([[1.0]]), B=np.array([2.0]))
        assert sys_.B.shape == (1, 1)

    def test_validate_flags_singular_a(self):
        sys_ = LdtSystem(name="s", A=np.array([[1.0, 2.0], [2.0, 4.0]]), B=np.ones((2, 1)))
        rep = validate(sys_)
        assert not rep.invertible
        ok = validate(LdtSystem(name="s", A=np.eye(2), B=np.ones((2, 1))))
        assert ok.invertible
        assert ok.finite
        assert ok.n == 2 and ok.r == 1


class TestNormalizationSpec:
    def test_positive_bounds_required(self):
        with pytest.raises(NonPositiveBound):
            NormalizationSpec(input_rated=np.array([0.0]), state_rated=np.ones(2))
        with pytest.raises(NonPositiveBound):
            NormalizationSpec(input_rated=np.ones(1), state_rated=np.array([1.0, -3.0]))

    def test_target_optional(self):
        spec = NormalizationSpec(input_rated=np.ones(1), state_rated=np.ones(2))
        assert spec.state_target is None


class TestNormalization:
    def test_input_scaling_only_touches_b(self, rng):
        sys_ = make_system(rng, 3, r=2)
        out = normalize_input_only(sys_, np.array([2.0, 5.0]))
        assert np.allclose(out.A, sys_.A)
        assert np.allclose(out.B, sys_.B * np.array([2.0, 5.0]))

    def test_unit_spec_is_identity(self, rng):
        sys_ = make_system(rng, 3)
        spec = NormalizationSpec(input_rated=np.ones(1), state_rated=np.ones(3))
        out = normalize_full(sys_, spec)
        assert np.allclose(out.A, sys_.A)
        assert np.allclose(out.B, sys_.B)

    def test_eigenvalues_invariant(self, rng):
        # similarity transform: spectrum of A must not move
        sys_ = make_system(rng, 4)
        spec = NormalizationSpec(
            input_rated=np.array([3.0]),
            state_rated=np.array([2.0, 0.5, 7.0, 1.5]),
        )
        out = normalize_full(sys_, spec)
        ev_in = np.sort_complex(np.linalg.eigvals(sys_.A))
        ev_out = np.sort_complex(np.linalg.eigvals(out.A))
        assert np.allclose(ev_in, ev_out, atol=1e-9)

    def test_two_scalings_compose(self, rng):
        sys_ = make_system(rng, 3)
        p = np.array([2.0, 3.0, 0.5])
        q = np.array([4.0, 0.25, 2.0])
        spec_p = NormalizationSpec(input_rated=np.array([2.0]), state_rated=p)
        spec_q = NormalizationSpec(input_rated=np.array([3.0]), state_rated=q)
        spec_pq = NormalizationSpec(input_rated=np.array([6.0]), state_rated=p * q)
        once = normalize_full(normalize_full(sys_, spec_p), spec_q)
        direct = normalize_full(sys_, spec_pq)
        assert np.allclose(once.A, direct.A, atol=1e-12)
        assert np.allclose(once.B, direct.B, atol=1e-12)

    def test_target_mode_requires_target(self, rng):
        sys_ = make_system(rng, 2)
        spec = NormalizationSpec(input_rated=np.ones(1), state_rated=np.ones(2))
        with pytest.raises(MissingTarget):
            normalize_full(sys_, spec, use_target=True)

    def test_dc_rated_golden(self):
        sys_, spec = load_model(DC_MODEL)
        out = normalize_full(sys_, spec)
        assert _fmt(out.A) == [
            "0 6.667 0",
            "0 0 0.15",
            "0.6953 -15.71 2.66",
        ]
        assert _fmt(out.B.T) == ["0 0 6.992"]

    def test_ac_target_golden(self):
        sys_, spec = load_model(AC_MODEL)
        out = normalize_full(sys_, spec, use_target=True)
        assert _fmt(out.A) == [
            "0 6 0",
            "0 0 0.1667",
            "0.6571 -13.61 2.61",
        ]
        assert _fmt(out.B.T) == ["0 0 7.668"]


class TestModelIo:
    def test_round_trip(self, tmp_path, rng):
        sys_ = make_system(rng, 3, r=2, name="roundtrip")
        spec = NormalizationSpec(
            input_rated=np.array([2.0, 3.0]),
            state_rated=np.array([1.0, 2.0, 3.0]),
            state_target=np.array([0.5, 1.0, 1.5]),
        )
        path = tmp_path / "m.json"
        save_model(path, sys_, spec)
        back_sys, back_spec = load_model(path)
        assert back_sys.name == "roundtrip"
        assert np.allclose(back_sys.A, sys_.A)
        assert np.allclose(back_sys.B, sys_.B)
        assert np.allclose(back_spec.input_rated, spec.input_rated)
        assert np.allclose(back_spec.state_target, spec.state_target)

    def test_dict_round_trip_without_target(self, rng):
        sys_ = make_system(rng, 2, name="nt")
        spec = NormalizationSpec(input_rated=np.ones(1), state_rated=np.ones(2))
        data = model_to_dict(sys_, spec)
        back_sys, back_spec = model_from_dict(data)
        assert back_spec.state_target is None
        assert np.allclose(back_sys.A, sys_.A)

    def test_missing_key_rejected(self):
        with pytest.raises(ValueError):
            model_from_dict({"name": "x", "A": [[1.0]]})

    def test_bad_bound_length_rejected(self):
        data = {
            "name": "x",
            "A": [[1.0, 0.0], [0.0, 1.0]],
            "B": [[1.0], [1.0]],
            "rated": {"u": [1.0], "x": [1.0]},
        }
        with pytest.raises(DimensionMismatch):
            model_from_dict(data)

    def test_load_reports_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(json.JSONDecodeError):
            load_model(path)
