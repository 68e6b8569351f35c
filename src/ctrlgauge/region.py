"""Controllability regions of discrete-time linear systems as zonotopes.

Under the unit input amplitude bound, the set of states reachable from the
origin in k steps (and the set recoverable to the origin in k steps, when
the state matrix is invertible) are origin-symmetric zonotopes whose
generators are columns of powers of A applied to B. Stage k is generated
by the first k*r rows of one stage-major block, so a RegionFamily is that
block for the nested stages k = 1..N of one kind; every report here reads
the block, and a stage's Zonotope is built only when stage(k) asks for it.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from . import _report
from .errors import (
    BadRange,
    HorizonTooShort,
    SingularA,
    UnstableGrowth,
)
from .model import _invertible
from .zonotope import Zonotope, _prefix_counts, _prefix_volumes, _shape_report, _spans

GROWTH_LIMIT = 1e12


class RegionKind(enum.Enum):
    REACH = "reach"
    RECOVER = "recover"


# eq=False: families compare and hash by identity; rows is an array
@dataclass(frozen=True, eq=False)
class RegionFamily:
    """Stages 1..horizon of one region kind as their stage-major rows.

    rows is the read-only generator block of the final stage, r rows per
    step (stage_generators); stage k is the zonotope of rows[:k*r].
    """

    system: object
    kind: RegionKind
    rows: np.ndarray

    @property
    def horizon(self):
        return len(self.rows) // self.system.r

    def stage(self, k):
        """1-based stage accessor; builds the stage's Zonotope on each call."""
        if not 1 <= k <= self.horizon:
            raise BadRange(f"stage {k} outside 1..{self.horizon}")
        return Zonotope(self.rows[: k * self.system.r])


def stage_generators(sys, horizon, kind):
    """Generator rows for stages up to `horizon`, stage-major.

    Row block i (size r) holds the columns of A^i B for reach regions and
    of A^-(i+1) B for recover regions, so the first k*r rows generate
    stage k. Blocks are written in place in chunks of 8, 16, 32, ... steps;
    entries beyond GROWTH_LIMIT, or not finite, abort with UnstableGrowth at
    their first step, checked chunk by chunk, so nothing is allocated past
    that chunk. A recover step is the dgesv gufunc that np.linalg.solve
    wraps, without the wrapper; it flags only a singular A, which
    _invertible has refused, so its rows and warnings are np.linalg.solve's.
    """
    if not isinstance(horizon, (int, np.integer)) or horizon < 1:
        raise BadRange(f"horizon must be a positive integer, got {horizon!r}")
    A = sys.A
    if kind is RegionKind.REACH:
        M, step = sys.B, lambda X: A @ X
    elif kind is RegionKind.RECOVER:
        if not _invertible(A)[0]:
            raise SingularA("state matrix is singular; recover regions undefined")
        step = functools.partial(_umath_linalg.solve, A, signature="dd->d")
        M = step(sys.B)
    else:
        raise ValueError(f"unknown region kind {kind!r}")
    n, r = M.shape
    rows, lo = np.empty((min(horizon, 8), r, n)), 0
    while True:
        first, errors = M, []
        with np.errstate(all="call", call=lambda *err: errors.append(err)):
            for i in range(lo, len(rows)):
                if i > 0:
                    M = step(M)
                rows[i] = M.T
        if errors or not np.abs(rows[lo:]).max() <= GROWTH_LIMIT:
            M = first  # redone step by step, warning and raising as the caller would
            for i in range(lo, len(rows)):
                if i > 0:
                    M = step(M)
                if not np.abs(M).max() <= GROWTH_LIMIT:
                    raise UnstableGrowth(
                        f"generator entries exceeded {GROWTH_LIMIT:g} at step {i}"
                    )
        if len(rows) == horizon:
            return rows.reshape(-1, n)
        lo = len(rows)
        rows = np.concatenate((rows, np.empty((min(horizon, 2 * lo + 8) - lo, r, n))))


def _build_family(sys, horizon, kind):
    rows = stage_generators(sys, horizon, kind)
    rows.flags.writeable = False
    return RegionFamily(system=sys, kind=kind, rows=rows)


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

    to_dict = _report.to_dict


def controllability_report(sys, horizon):
    """Rank of the controllability matrix and Grammian extreme eigenvalue.

    Requires horizon >= n so the rank verdict is meaningful. The rank is
    the regions' span rule's (zonotope._spans); the Grammian is P P^T for
    P = [B, AB, ..., A^(horizon-1) B].
    """
    if not isinstance(horizon, (int, np.integer)) or horizon < 1:
        raise BadRange(f"horizon must be a positive integer, got {horizon!r}")
    if horizon < sys.n:
        raise HorizonTooShort(
            f"horizon {horizon} is below the state dimension {sys.n}"
        )
    rows = stage_generators(sys, horizon, RegionKind.REACH)
    rank = int(_spans(rows)[2][-1])
    grammian = rows.T @ rows
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

    to_dict = _report.to_dict


def expansion_check(family, stage_from, stage_to):
    """Classify growth between two stages.

    The region grows strictly in every direction exactly when the
    generators added between the stages span the full state space. When
    they do not, any direction orthogonal to all added generators keeps
    the support unchanged, so the two stage boundaries touch; one such
    witness direction (from _spans) is returned with its gap, the support
    the added generators have along it, sum |g . w| (zero up to rounding).
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
    added = family.rows[stage_from * r : stage_to * r]
    _, basis, dims = _spans(added)
    added_rank = int(dims[-1])
    witness = basis[-1] if added_rank < added.shape[1] else None
    gap = None if witness is None else float(np.abs(added @ witness).sum())
    return ExpansionReport(
        verdict="StrictlyExpanding" if witness is None else "WeaklyExpanding",
        added_rank=added_rank,
        witness_direction=witness,
        support_gap=gap,
        stage_from=int(stage_from),
        stage_to=int(stage_to),
    )


def region_summary(family):
    """JSON-ready per-stage summary of a region family.

    Every stage's volume, vertex count and rank come from one pass over
    the final stage's stage-major rows: the volumes from one bucketed
    determinant sum (zonotope._prefix_volumes), the counts by
    deletion-restriction (zonotope._prefix_counts), the planar factors from
    one determinant pass over every plane. A count is None only past the
    count budget; no stage's vertices are enumerated.
    """
    rows = family.rows
    spans = _spans(rows)
    ends = family.system.r * np.arange(1, family.horizon + 1)
    volumes = _prefix_volumes(rows, spans[2])[ends].tolist()
    counts = _prefix_counts(rows, spans)
    report = _shape_report(rows, int(spans[2][-1]), volumes[-1])
    return {
        "kind": family.kind.value,
        "N": family.horizon,
        "rank": report.rank,
        "volumeByStage": volumes,
        "sideLengths": report.side_lengths.tolist(),
        "shapeFactors": {
            "overall": report.overall_shape_factor,
            "planar": report.to_dict()["planarShapeFactors"],
        },
        "vertexCountByStage": [counts[p] for p in ends],
    }
