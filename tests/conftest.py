"""Shared helpers for the test suite.

Random systems are always built from an explicit seeded generator so
every test is reproducible in isolation.
"""

from pathlib import Path

import numpy as np
import pytest

from ctrlgauge import LdtSystem

MODELS_DIR = Path(__file__).resolve().parent.parent / "models"
DC_MODEL = MODELS_DIR / "dc_motor.json"
AC_MODEL = MODELS_DIR / "ac_motor.json"


def make_system(rng, n, r=1, name="sys", scale=1.0):
    """Random system with entries uniform in [-scale, scale]."""
    A = rng.uniform(-scale, scale, size=(n, n))
    B = rng.uniform(-scale, scale, size=(n, r))
    return LdtSystem(name=name, A=A, B=B)


def hausdorff_distance(pts_a, pts_b):
    """Symmetric Hausdorff distance between two finite point sets."""
    a = np.atleast_2d(np.asarray(pts_a, dtype=float))
    b = np.atleast_2d(np.asarray(pts_b, dtype=float))
    if a.size == 0 and b.size == 0:
        return 0.0
    if a.size == 0 or b.size == 0:
        return float("inf")
    d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def assert_vertex_sets_match(got, expected, tol=1e-9):
    """Same cardinality and every point matched within tol."""
    got = np.atleast_2d(np.asarray(got, dtype=float))
    expected = np.atleast_2d(np.asarray(expected, dtype=float))
    assert got.shape[0] == expected.shape[0], (
        f"vertex counts differ: {got.shape[0]} vs {expected.shape[0]}"
    )
    dist = hausdorff_distance(got, expected)
    assert dist <= tol, f"vertex sets differ by {dist:.3e}"


def quadratic_dedup(pts, tol=1e-9):
    """Lexsort, then merge rows within tol (max-norm) of any kept row."""
    pts = pts[np.lexsort(pts.T[::-1])]
    kept = [pts[0]]
    for p in pts[1:]:
        if np.min(np.max(np.abs(np.asarray(kept) - p), axis=1)) > tol:
            kept.append(p)
    return np.asarray(kept)


def near_duplicate_cloud(rng, m, n):
    """All 2^m sign sums, repeated with jitter below, near and above 1e-9."""
    gens = rng.uniform(-1, 1, size=(m, n))
    bits = np.arange(1 << m)
    signs = ((bits[:, np.newaxis] >> np.arange(m)) & 1) * 2.0 - 1.0
    cloud = signs @ gens
    near = cloud + rng.uniform(-4e-10, 4e-10, size=cloud.shape)
    edge = cloud + rng.uniform(-1.5e-9, 1.5e-9, size=cloud.shape)
    return np.vstack([cloud, near, edge, np.round(cloud, 9)])


@pytest.fixture
def rng():
    return np.random.default_rng(0)
