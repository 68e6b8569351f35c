"""Quantify open-loop control ability of discrete-time linear systems.

The library builds the reachable and recoverable sets of x+ = A x + B u
under unit input amplitude bounds as zonotopes, measures them (volume,
side lengths, shape factors), solves minimum-time control questions with
one gauge sweep over facet normals and a face descent for the witness
inputs and the strategy freedom (past the facet-normal cap a gauge LP
of n rows gives the gauge and the normal the descent starts from, or
the direction that separates an outside state), and compares systems
by region containment. Independent brute-force
oracles cross-check every main computation.
"""

from .control import (
    AbilityVerdict,
    ControlSolution,
    TheoremReport,
    compare_ability,
    min_time,
    simulate,
    strategy_space_dim,
    verify_theorem1,
)
from .errors import (
    BadAxes,
    BadRange,
    CtrlGaugeError,
    DegenerateZonotope,
    DimensionMismatch,
    HorizonTooShort,
    Infeasible,
    InternalError,
    IterationLimit,
    MissingTarget,
    NonPositiveBound,
    NotConvex,
    NotMember,
    NotReachable,
    PreconditionNotMet,
    SingularA,
    TooManyGenerators,
    UnstableGrowth,
    ZeroDirection,
)
from .lp import BoxLp, FeasibilityResult, MarginResult, OptimizeResult
from .lp import feasible as lp_feasible
from .lp import max_margin as lp_max_margin
from .lp import optimize as lp_optimize
from .model import (
    LdtSystem,
    NormalizationSpec,
    ValidationReport,
    load_model,
    model_from_dict,
    model_to_dict,
    normalize_full,
    normalize_input_only,
    save_model,
    validate,
)
from .oracle import (
    McVolumeResult,
    OracleConfig,
    SplitMix64,
    brute_vertices,
    exhaustive_min_time,
    mc_volume,
    verification_suite,
    vertex_set_distance,
)
from .region import (
    ControllabilityReport,
    ExpansionReport,
    RegionFamily,
    RegionKind,
    controllability_report,
    expansion_check,
    reach_region,
    recover_region,
    region_summary,
    stage_generators,
)
from .zonotope import (
    Polygon2D,
    ShapeReport,
    Zonotope,
    contains_point,
    halfspace_representation,
    polygon_area,
    polygon_to_csv,
    svg_document,
)

__version__ = "0.1.0"

__all__ = [
    "AbilityVerdict",
    "BadAxes",
    "BadRange",
    "BoxLp",
    "ControllabilityReport",
    "ControlSolution",
    "CtrlGaugeError",
    "DegenerateZonotope",
    "DimensionMismatch",
    "ExpansionReport",
    "FeasibilityResult",
    "HorizonTooShort",
    "Infeasible",
    "InternalError",
    "IterationLimit",
    "LdtSystem",
    "MarginResult",
    "McVolumeResult",
    "MissingTarget",
    "NonPositiveBound",
    "NormalizationSpec",
    "NotConvex",
    "NotMember",
    "NotReachable",
    "OptimizeResult",
    "OracleConfig",
    "Polygon2D",
    "PreconditionNotMet",
    "RegionFamily",
    "RegionKind",
    "ShapeReport",
    "SingularA",
    "SplitMix64",
    "TheoremReport",
    "TooManyGenerators",
    "UnstableGrowth",
    "ValidationReport",
    "ZeroDirection",
    "Zonotope",
    "brute_vertices",
    "compare_ability",
    "contains_point",
    "controllability_report",
    "exhaustive_min_time",
    "expansion_check",
    "halfspace_representation",
    "load_model",
    "lp_feasible",
    "lp_max_margin",
    "lp_optimize",
    "mc_volume",
    "min_time",
    "model_from_dict",
    "model_to_dict",
    "normalize_full",
    "normalize_input_only",
    "polygon_area",
    "polygon_to_csv",
    "reach_region",
    "recover_region",
    "region_summary",
    "save_model",
    "simulate",
    "stage_generators",
    "strategy_space_dim",
    "svg_document",
    "validate",
    "verification_suite",
    "verify_theorem1",
    "vertex_set_distance",
    "__version__",
]
