"""Input checks of every module: each bad input raises its documented error."""

import numpy as np
import pytest

from ctrlgauge import (
    BadAxes,
    BadRange,
    BoxLp,
    DimensionMismatch,
    LdtSystem,
    RegionKind,
    SingularA,
    TooManyGenerators,
    Zonotope,
    brute_vertices,
    contains_point,
    controllability_report,
    exhaustive_min_time,
    lp_optimize,
    min_time,
    model_from_dict,
    normalize_input_only,
    polygon_area,
    simulate,
    stage_generators,
    strategy_space_dim,
    svg_document,
    vertex_set_distance,
)

SYS = LdtSystem("s", np.eye(2), [[1.0], [0.5]])
# unreachable from anywhere: the reach regions of 0.5 I stay in a bounded box
FAR = LdtSystem("far", 0.5 * np.eye(2), [[1.0], [0.5]])
SQUARE = Zonotope(np.eye(2))
MODEL = {
    "name": "m",
    "A": [[1.0]],
    "B": [[1.0]],
    "rated": {"u": [1.0], "x": [1.0]},
    "target": {"u": [1.0]},
}


def _box(x0=(0.0, 0.0), G=np.eye(2), objective=None):
    return BoxLp(G=G, x0=np.asarray(x0), lower=-np.ones(2), upper=np.ones(2),
                 objective=objective)


CASES = {
    # zonotope
    "zonotope no rows": (
        lambda: Zonotope(np.zeros((0, 2))), DimensionMismatch, "non-empty"),
    "support length": (
        lambda: SQUARE.support([1.0, 0.0, 0.0]), DimensionMismatch, "direction must"),
    "polygon_area 3-D points": (
        lambda: polygon_area(np.zeros((3, 3))), DimensionMismatch, r"\(k, 2\)"),
    "project_2d non-integer axis": (
        lambda: SQUARE.project_2d(("a", 1)), BadAxes, "pair of integers"),
    "contains_point length": (
        lambda: contains_point(SQUARE, [0.0]), DimensionMismatch, "length 2"),
    "contains_point nan": (
        lambda: contains_point(SQUARE, [np.nan, 0.0]), DimensionMismatch, "non-finite"),
    "svg_document no polygons": (
        lambda: svg_document([]), DimensionMismatch, "at least one polygon"),
    # control
    "min_time length": (
        lambda: min_time(SYS, [1.0]), DimensionMismatch, "length 2, got 1"),
    "min_time inf": (
        lambda: min_time(SYS, [np.inf, 0.0]), DimensionMismatch, "non-finite"),
    "strategy_space_dim length": (
        lambda: strategy_space_dim(SYS, [1.0, 0.0, 0.0], 3), DimensionMismatch,
        "length 2, got 3"),
    "strategy_space_dim nan": (
        lambda: strategy_space_dim(SYS, [np.nan, 0.0], 3), DimensionMismatch, "non-finite"),
    "simulate input width": (
        lambda: simulate(SYS, [0.0, 0.0], np.zeros((2, 2))), DimensionMismatch,
        r"inputs must be \(N, 1\)"),
    # model
    "LdtSystem 3-D A": (
        lambda: LdtSystem("s", np.zeros((2, 2, 2)), [[1.0]]), DimensionMismatch, "ndim=3"),
    "LdtSystem nan A": (
        lambda: LdtSystem("s", [[np.nan]], [[1.0]]), ValueError, "A contains non-finite"),
    "normalize_input_only length": (
        lambda: normalize_input_only(SYS, [1.0, 2.0]), DimensionMismatch,
        "input_rated must have length 1"),
    "target block without x": (
        lambda: model_from_dict(MODEL), ValueError, "target block must contain 'x'"),
    # region
    "stage_generators string kind": (
        lambda: stage_generators(SYS, 3, "reach"), ValueError, "unknown region kind"),
    "controllability_report horizon 0": (
        lambda: controllability_report(SYS, 0), BadRange, "positive integer"),
    # lp
    "BoxLp x0 length": (
        lambda: _box(x0=[0.0]), DimensionMismatch, "x0 must have length 2"),
    "BoxLp nan data": (
        lambda: _box(G=np.array([[np.nan, 0.0], [0.0, 1.0]])), ValueError,
        "LP data must be finite"),
    "BoxLp inf objective": (
        lambda: _box(objective=[np.inf, 0.0]), ValueError, "objective must be finite"),
    "optimize sense": (
        lambda: lp_optimize(_box(objective=[1.0, 0.0]), sense="up"), ValueError,
        "sense must be"),
    # oracle
    "brute_vertices no rows": (
        lambda: brute_vertices(np.zeros((0, 2))), DimensionMismatch, "generator array"),
    "vertex_set_distance dimensions": (
        lambda: vertex_set_distance(np.zeros((2, 2)), np.zeros((2, 3))), DimensionMismatch,
        "different dimensions"),
    "exhaustive_min_time kind": (
        lambda: exhaustive_min_time(SYS, [1.0, 0.0], kind="up"), ValueError,
        "kind must be"),
    "exhaustive_min_time length": (
        lambda: exhaustive_min_time(SYS, [1.0]), DimensionMismatch, "x0 must have length 2"),
    "exhaustive_min_time recover singular": (
        lambda: exhaustive_min_time(
            LdtSystem("z", np.zeros((2, 2)), [[1.0], [0.5]]), [1.0, 0.0],
            kind=RegionKind.RECOVER),
        SingularA, "singular"),
    "exhaustive_min_time past the sign budget": (
        lambda: exhaustive_min_time(FAR, [100.0, 100.0], max_steps=30), TooManyGenerators,
        "horizon 21 needs 21 sign bits"),
}


@pytest.mark.parametrize("call,error,match", CASES.values(), ids=CASES.keys())
def test_bad_input_raises(call, error, match):
    with pytest.raises(error, match=match):
        call()
