"""Systems and their stage generators, computed with numpy alone.

The workloads build their inputs from these and the checks recompute from
them; neither goes through ctrlgauge. Nothing here imports scipy, so input
generation leaves the process's imports and memory as set-up left them.
"""

from __future__ import annotations

import json

import numpy as np


def normalized_model(path, mode):
    """Per-unit (A, B, state scale) of a model file, computed with numpy."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    a = np.asarray(data["A"], dtype=float)
    b = np.asarray(data["B"], dtype=float).reshape(a.shape[0], -1)
    u = np.asarray(data["rated"]["u"], dtype=float)
    p = np.asarray(
        data["target"]["x"] if mode == "target" else data["rated"]["x"], dtype=float
    )
    a_n = np.diag(1.0 / p) @ a @ np.diag(p)
    b_n = np.diag(1.0 / p) @ b @ np.diag(u)
    return a_n, b_n, p


def stage_rows(a, b, horizon, kind):
    """Generator rows of stages 1..horizon, one block of r rows per step."""
    blocks = []
    if kind == "reach":
        m = b.copy()
        for i in range(horizon):
            if i:
                m = a @ m
            blocks.append(m.T)
    else:
        a_inv = np.linalg.inv(a)
        m = b.copy()
        for _ in range(horizon):
            m = a_inv @ m
            blocks.append(m.T)
    return np.vstack(blocks)
