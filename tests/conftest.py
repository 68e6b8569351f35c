"""Shared helpers for the test suite.

Random systems are always built from an explicit seeded generator so
every test is reproducible in isolation.
"""

import os
from pathlib import Path

import numpy as np
import pytest

import ctrlgauge
from ctrlgauge import LdtSystem
from ctrlgauge.zonotope import _family

MODELS_DIR = Path(__file__).resolve().parent.parent / "models"
DC_MODEL = MODELS_DIR / "dc_motor.json"
AC_MODEL = MODELS_DIR / "ac_motor.json"


def subprocess_env():
    """The environment for a Python subprocess that imports ctrlgauge: the
    package's source directory leads PYTHONPATH, which a subprocess does
    not take from pytest's pythonpath setting."""
    src = str(Path(ctrlgauge.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


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


def reference_hull2d(pts):
    """Andrew monotone chain on numpy scalars, one point at a time: indices
    of the hull vertices of a planar cloud, collinear points dropped, in the
    order the oracle's chain returns them."""
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    sorted_pts = pts[order]
    scale = max(1.0, float(np.abs(sorted_pts).max()))
    eps = 1e-12 * scale * scale

    def build(seq):
        out = []
        for i in seq:
            while len(out) >= 2:
                o = sorted_pts[out[-2]]
                a = sorted_pts[out[-1]]
                b = sorted_pts[i]
                cross = (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])
                if cross <= eps:
                    out.pop()
                else:
                    break
            out.append(i)
        return out

    k = sorted_pts.shape[0]
    idx = build(range(k))[:-1] + build(range(k - 1, -1, -1))[:-1]
    if not idx:
        idx = [0]
    if len(idx) > 2:
        q = sorted_pts[[idx[-1], *idx, idx[0]]]
        a = q[:-2] - q[1:-1]
        b = q[2:] - q[1:-1]
        idx = np.asarray(idx)[b[:, 0] * a[:, 1] - b[:, 1] * a[:, 0] > eps]
    return order[np.asarray(idx, dtype=int)]


def near_duplicate_cloud(rng, m, n):
    """All 2^m sign sums, repeated with jitter below, near and above 1e-9."""
    gens = rng.uniform(-1, 1, size=(m, n))
    bits = np.arange(1 << m)
    signs = ((bits[:, np.newaxis] >> np.arange(m)) & 1) * 2.0 - 1.0
    cloud = signs @ gens
    near = cloud + rng.uniform(-4e-10, 4e-10, size=cloud.shape)
    edge = cloud + rng.uniform(-1.5e-9, 1.5e-9, size=cloud.shape)
    return np.vstack([cloud, near, edge, np.round(cloud, 9)])


def near_parallel_rows():
    """Three rows of norm 1000 whose pairwise sines are at most 0.92e-12,
    below TIE_TOL, though they lie farther apart than TIE_TOL times the
    largest entry; and a unit vector e orthogonal to the first row."""
    g1 = 1000.0 * np.ones(3) / np.sqrt(3.0)
    e = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
    f = np.array([1.0, 1.0, -2.0]) / np.sqrt(6.0)
    return np.array([g1, g1 + 0.65e-9 * e, g1 + 0.65e-9 * f]), e


def own_hform(rows):
    """A zonotope's own H-form, the one stage of _family(rows, len(rows)):
    (complement rows, unit facet normals, their supports)."""
    fam = _family(rows, len(rows))
    n = rows.shape[1]
    return fam.dirs[fam.dims[-1] : n], fam.dirs[n:], fam.supports[n:, 0]


@pytest.fixture
def rng():
    return np.random.default_rng(0)
