"""Discrete-time linear system models and per-unit normalization.

A system is x[k+1] = A x[k] + B u[k] with A (n x n) and B (n x r).
Normalization rescales inputs by their rated amplitudes and states by
rated or target operating bounds, so that downstream region analysis can
assume unit input boxes and dimensionless states.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, MissingTarget, NonPositiveBound

# |det A| relative to the product of row norms below this flags A singular.
SINGULARITY_TOL = 1e-12


def _as_matrix(value, name):
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise DimensionMismatch(f"{name} must be a 2-D matrix, got ndim={arr.ndim}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


class LdtSystem:
    """Linear discrete-time system x[k+1] = A x[k] + B u[k]."""

    def __init__(self, name, A, B):
        A = _as_matrix(A, "A")
        B = _as_matrix(B, "B")
        if A.shape[0] != A.shape[1]:
            raise DimensionMismatch(f"A must be square, got {A.shape}")
        if B.shape[0] != A.shape[0]:
            raise DimensionMismatch(
                f"B has {B.shape[0]} rows but A is {A.shape[0]} x {A.shape[1]}"
            )
        self.name = str(name)
        self.A = A.copy()
        self.B = B.copy()
        self.A.flags.writeable = False
        self.B.flags.writeable = False

    @property
    def n(self):
        """State dimension."""
        return self.A.shape[0]

    @property
    def r(self):
        """Input dimension."""
        return self.B.shape[1]

    def __repr__(self):
        return f"LdtSystem(name={self.name!r}, n={self.n}, r={self.r})"


def _check_bounds(vec, length, what):
    arr = np.asarray(vec, dtype=float).ravel()
    if arr.size != length:
        raise DimensionMismatch(f"{what} must have length {length}, got {arr.size}")
    if not np.isfinite(arr).all() or np.any(arr <= 0.0):
        raise NonPositiveBound(f"{what} entries must be positive and finite")
    return arr


@dataclass(frozen=True)
class NormalizationSpec:
    """Rated input amplitudes and state bounds used for per-unit scaling.

    input_rated has length r, state_rated length n. state_target is an
    optional second set of state bounds (expected operating ranges); when
    absent, target-mode normalization is unavailable.
    """

    input_rated: np.ndarray
    state_rated: np.ndarray
    state_target: np.ndarray | None = None

    def __post_init__(self):
        ir = np.asarray(self.input_rated, dtype=float).ravel()
        sr = np.asarray(self.state_rated, dtype=float).ravel()
        if not np.isfinite(ir).all() or np.any(ir <= 0.0):
            raise NonPositiveBound("input_rated entries must be positive and finite")
        if not np.isfinite(sr).all() or np.any(sr <= 0.0):
            raise NonPositiveBound("state_rated entries must be positive and finite")
        object.__setattr__(self, "input_rated", ir)
        object.__setattr__(self, "state_rated", sr)
        if self.state_target is not None:
            st = np.asarray(self.state_target, dtype=float).ravel()
            if not np.isfinite(st).all() or np.any(st <= 0.0):
                raise NonPositiveBound("state_target entries must be positive and finite")
            object.__setattr__(self, "state_target", st)


@dataclass(frozen=True)
class ValidationReport:
    n: int
    r: int
    finite: bool
    invertible: bool
    relative_det: float


def validate(sys):
    """Report finiteness, dimension agreement, and invertibility of A.

    Invertibility compares |det A| against the product of the row norms
    of A (a Hadamard-style scale), flagging ratios below 1e-12.
    """
    finite = bool(np.isfinite(sys.A).all() and np.isfinite(sys.B).all())
    row_norms = np.linalg.norm(sys.A, axis=1)
    scale = float(np.prod(row_norms))
    if not finite or scale == 0.0:
        rel = 0.0
    else:
        rel = float(abs(np.linalg.det(sys.A)) / scale)
    return ValidationReport(
        n=sys.n,
        r=sys.r,
        finite=finite,
        invertible=rel >= SINGULARITY_TOL,
        relative_det=rel,
    )


def normalize_input_only(sys, input_rated):
    """Scale input channels by their rated amplitudes: B <- B diag(u*)."""
    ir = _check_bounds(input_rated, sys.r, "input_rated")
    return LdtSystem(sys.name, sys.A, sys.B * ir[np.newaxis, :])


def normalize_full(sys, spec, use_target=False):
    """Per-unit normalization of both states and inputs.

    With P = diag(state bounds), the transformed system is
    (P^-1 A P, P^-1 B diag(u*)). use_target selects the target bounds
    instead of the rated ones and requires them to be present.
    """
    ir = _check_bounds(spec.input_rated, sys.r, "input_rated")
    if use_target:
        if spec.state_target is None:
            raise MissingTarget("target-state bounds are not defined for this model")
        p = _check_bounds(spec.state_target, sys.n, "state_target")
    else:
        p = _check_bounds(spec.state_rated, sys.n, "state_rated")
    # P^-1 A P and P^-1 B diag(u*) via row/column scaling, no inverse call.
    a_new = sys.A * (p[np.newaxis, :] / p[:, np.newaxis])
    b_new = (sys.B / p[:, np.newaxis]) * ir[np.newaxis, :]
    return LdtSystem(sys.name, a_new, b_new)


# --- model files -----------------------------------------------------------
#
# JSON schema:
# {
#   "name": str,
#   "A": [[...], ...],          n x n
#   "B": [[...], ...],          n x r (a flat list is accepted for r = 1)
#   "rated": {"u": [...], "x": [...]},
#   "target": {"x": [...]}      optional
# }


def model_from_dict(data):
    """Build (LdtSystem, NormalizationSpec) from a parsed model dict."""
    try:
        name = data["name"]
        a = data["A"]
        b = data["B"]
        rated = data["rated"]
        rated_u = rated["u"]
        rated_x = rated["x"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"model file is missing required field: {exc}") from exc
    target = data.get("target")
    target_x = None
    if target is not None:
        if "x" not in target:
            raise ValueError("model file target block must contain 'x'")
        target_x = target["x"]
    sys = LdtSystem(name, a, b)
    spec = NormalizationSpec(
        input_rated=rated_u, state_rated=rated_x, state_target=target_x
    )
    if spec.input_rated.size != sys.r:
        raise DimensionMismatch(
            f"rated.u has length {spec.input_rated.size}, expected r={sys.r}"
        )
    if spec.state_rated.size != sys.n:
        raise DimensionMismatch(
            f"rated.x has length {spec.state_rated.size}, expected n={sys.n}"
        )
    if spec.state_target is not None and spec.state_target.size != sys.n:
        raise DimensionMismatch(
            f"target.x has length {spec.state_target.size}, expected n={sys.n}"
        )
    return sys, spec


def model_to_dict(sys, spec):
    data = {
        "name": sys.name,
        "A": sys.A.tolist(),
        "B": sys.B.tolist(),
        "rated": {
            "u": np.asarray(spec.input_rated).tolist(),
            "x": np.asarray(spec.state_rated).tolist(),
        },
    }
    if spec.state_target is not None:
        data["target"] = {"x": np.asarray(spec.state_target).tolist()}
    return data


def load_model(path):
    """Read a model JSON file into (LdtSystem, NormalizationSpec)."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return model_from_dict(data)


def save_model(path, sys, spec):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(sys, spec), fh, indent=2)
        fh.write("\n")
