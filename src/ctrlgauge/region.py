"""Controllability regions of discrete-time linear systems as zonotopes.

Under the unit input amplitude bound, the set of states reachable from the
origin in k steps (and the set recoverable to the origin in k steps, when
the state matrix is invertible) are origin-symmetric zonotopes whose
generators are columns of powers of A applied to B. A RegionFamily holds
the nested stages k = 1..N of one kind.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadRange,
    HorizonTooShort,
    SingularA,
    TooManyGenerators,
    UnstableGrowth,
)
from .model import validate
from .zonotope import RANK_TOL, Zonotope, _rank

GROWTH_LIMIT = 1e12


class RegionKind(enum.Enum):
    REACH = "reach"
    RECOVER = "recover"


@dataclass(frozen=True)
class RegionFamily:
    """Stages 1..horizon of one region kind; stage k has k*r generators."""

    system: object
    kind: RegionKind
    horizon: int
    stages: tuple

    def stage(self, k):
        """1-based stage accessor."""
        if not 1 <= k <= self.horizon:
            raise BadRange(f"stage {k} outside 1..{self.horizon}")
        return self.stages[k - 1]


def stage_generators(sys, horizon, kind):
    """Generator rows for stages up to `horizon`, stage-major.

    Row block i (size r) holds the columns of A^i B for reach regions and
    of A^-(i+1) B for recover regions, so the first k*r rows generate
    stage k. Entries beyond GROWTH_LIMIT abort with UnstableGrowth.
    """
    if not isinstance(horizon, (int, np.integer)) or horizon < 1:
        raise BadRange(f"horizon must be a positive integer, got {horizon!r}")
    blocks = []
    if kind is RegionKind.REACH:
        M = sys.B.copy()
        for i in range(horizon):
            if i > 0:
                M = sys.A @ M
            if np.abs(M).max() > GROWTH_LIMIT:
                raise UnstableGrowth(
                    f"generator entries exceeded {GROWTH_LIMIT:g} at step {i}"
                )
            blocks.append(M.T.copy())
    elif kind is RegionKind.RECOVER:
        if not validate(sys).invertible:
            raise SingularA("state matrix is singular; recover regions undefined")
        M = sys.B.copy()
        for i in range(horizon):
            M = np.linalg.solve(sys.A, M)
            if np.abs(M).max() > GROWTH_LIMIT:
                raise UnstableGrowth(
                    f"generator entries exceeded {GROWTH_LIMIT:g} at step {i}"
                )
            blocks.append(M.T.copy())
    else:
        raise ValueError(f"unknown region kind {kind!r}")
    return np.vstack(blocks)


def _build_family(sys, horizon, kind):
    rows = stage_generators(sys, horizon, kind)
    r = sys.r
    stages = tuple(Zonotope(rows[: k * r]) for k in range(1, horizon + 1))
    return RegionFamily(system=sys, kind=kind, horizon=horizon, stages=stages)


def reach_region(sys, horizon):
    """Nested reach regions R(1) .. R(horizon) from the origin."""
    return _build_family(sys, horizon, RegionKind.REACH)


def recover_region(sys, horizon):
    """Nested recover-to-origin regions; requires invertible A."""
    return _build_family(sys, horizon, RegionKind.RECOVER)


@dataclass(frozen=True)
class ControllabilityReport:
    rank_pn: int
    grammian_min_eigen: float
    controllable: bool
    nc: int

    def to_dict(self):
        return {
            "rankPn": self.rank_pn,
            "grammianMinEigen": self.grammian_min_eigen,
            "controllable": self.controllable,
            "nc": self.nc,
        }


def controllability_report(sys, horizon):
    """Rank of the controllability matrix and Grammian extreme eigenvalue.

    Requires horizon >= n so the rank verdict is meaningful. The rank is
    evaluated at tolerance 1e-9; the Grammian is P P^T for
    P = [B, AB, ..., A^(horizon-1) B].
    """
    if not isinstance(horizon, (int, np.integer)) or horizon < 1:
        raise BadRange(f"horizon must be a positive integer, got {horizon!r}")
    if horizon < sys.n:
        raise HorizonTooShort(
            f"horizon {horizon} is below the state dimension {sys.n}"
        )
    rows = stage_generators(sys, horizon, RegionKind.REACH)
    p = rows.T  # n x (horizon * r)
    rank = _rank(p, RANK_TOL)
    grammian = p @ p.T
    min_eig = float(np.linalg.eigvalsh(grammian)[0])
    return ControllabilityReport(
        rank_pn=rank,
        grammian_min_eigen=min_eig,
        controllable=rank == sys.n,
        nc=rank,
    )


@dataclass(frozen=True)
class ExpansionReport:
    verdict: str  # "StrictlyExpanding" or "WeaklyExpanding"
    added_rank: int
    witness_direction: np.ndarray | None
    support_gap: float | None
    stage_from: int
    stage_to: int

    def to_dict(self):
        return {
            "verdict": self.verdict,
            "addedRank": self.added_rank,
            "witnessDirection": (
                None
                if self.witness_direction is None
                else self.witness_direction.tolist()
            ),
            "supportGap": self.support_gap,
            "stageFrom": self.stage_from,
            "stageTo": self.stage_to,
        }


def expansion_check(family, stage_from, stage_to):
    """Classify growth between two stages.

    The region grows strictly in every direction exactly when the
    generators added between the stages span the full state space. When
    they do not, any direction orthogonal to all added generators keeps
    the support unchanged, so the two stage boundaries touch; one such
    witness direction is returned with its (zero) support gap.
    """
    if (
        not isinstance(stage_from, (int, np.integer))
        or not isinstance(stage_to, (int, np.integer))
        or not 1 <= stage_from < stage_to
        or stage_to > family.horizon
    ):
        raise BadRange(
            f"need 1 <= from < to <= {family.horizon}, got ({stage_from}, {stage_to})"
        )
    r = family.system.r
    big = family.stage(stage_to).generators
    added = big[stage_from * r : stage_to * r]
    n = big.shape[1]
    added_rank = _rank(added, RANK_TOL)
    if added_rank == n:
        return ExpansionReport(
            verdict="StrictlyExpanding",
            added_rank=added_rank,
            witness_direction=None,
            support_gap=None,
            stage_from=int(stage_from),
            stage_to=int(stage_to),
        )
    _, _, vt = np.linalg.svd(added, full_matrices=True)
    witness = vt[-1]
    gap = family.stage(stage_to).support(witness) - family.stage(
        stage_from
    ).support(witness)
    return ExpansionReport(
        verdict="WeaklyExpanding",
        added_rank=added_rank,
        witness_direction=witness,
        support_gap=float(gap),
        stage_from=int(stage_from),
        stage_to=int(stage_to),
    )


def region_summary(family):
    """JSON-ready per-stage summary of a region family.

    Vertex counts are omitted (None) for stages past the enumeration caps
    (Zonotope.vertices raises TooManyGenerators).
    """
    final = family.stages[-1]
    report = final.shape_report()
    counts = []
    for z in family.stages:
        try:
            counts.append(int(z.vertices().shape[0]))
        except TooManyGenerators:
            counts.append(None)
    return {
        "kind": family.kind.value,
        "N": family.horizon,
        "rank": report.rank,
        "volumeByStage": [z.volume() for z in family.stages[:-1]] + [report.volume],
        "sideLengths": report.side_lengths.tolist(),
        "shapeFactors": {
            "overall": report.overall_shape_factor,
            "planar": report.to_dict()["planarShapeFactors"],
        },
        "vertexCountByStage": counts,
    }
