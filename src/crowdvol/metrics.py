"""Volume-error metric suite: MAE, per-person MAE, RMSE, and the per-frame
scatter decomposition relating the first two.

All reductions use exactly-rounded summation (math.fsum), so results are
bit-stable across runs and invariant under record permutation. Reports are
returned as values; `cli` lays out their CSV rows.
"""
from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class EvalRecord:
    frame_id: str
    v_true: float  # dm^3
    v_pred: float  # dm^3
    n_persons: int

    def __post_init__(self):
        if not (self.v_true >= 0 and math.isfinite(self.v_true)):
            raise ValueError(f"frame {self.frame_id!r}: v_true must be finite and >= 0")
        if not (self.v_pred >= 0 and math.isfinite(self.v_pred)):
            raise ValueError(f"frame {self.frame_id!r}: v_pred must be finite and >= 0")
        if self.n_persons < 0:
            raise ValueError(f"frame {self.frame_id!r}: n_persons must be >= 0")


@dataclass(frozen=True)
class MetricsReport:
    mae: float
    ppmae: float  # over frames with n_persons >= 1
    rmse: float
    k: int  # total frame count
    ppmae_k: int  # frames contributing to ppmae; the k - ppmae_k others have n_persons == 0


def mean(name: str, items: list, term) -> float:
    """The mean of `term(x)` over the items, naming `name` if they are none or
    if it is not finite: a term or their sum overflows, or a term is
    infinite. Every mean a report prints goes here."""
    if not items:
        raise ValueError(f"{name} of an empty record set is undefined")
    try:
        result = math.fsum(term(x) for x in items) / len(items)
    except OverflowError:
        result = math.inf
    if not math.isfinite(result):
        raise OverflowError(f"{name} overflows the float range")
    return result


def mae(records: list[EvalRecord]) -> float:
    return mean("mae", records, lambda r: abs(r.v_true - r.v_pred))


def ppmae(records: list[EvalRecord]) -> float:
    for r in records:
        if r.n_persons == 0:
            raise ValueError(f"PP-MAE undefined for empty frames (frame {r.frame_id!r})")
    return mean("ppmae", records, lambda r: abs(r.v_true - r.v_pred) / r.n_persons)


def rmse(records: list[EvalRecord]) -> float:
    return math.sqrt(mean("rmse", records, lambda r: (r.v_true - r.v_pred) ** 2))


def compute_report(records: list[EvalRecord]) -> MetricsReport:
    """Full metric suite; frames with zero persons are legal for MAE/RMSE and
    excluded (but counted) for PP-MAE."""
    crowd = [r for r in records if r.n_persons >= 1]
    return MetricsReport(
        mae=mae(records),
        ppmae=ppmae(crowd) if crowd else math.nan,
        rmse=rmse(records),
        k=len(records),
        ppmae_k=len(crowd),
    )


@dataclass(frozen=True)
class ScatterPoint:
    """Per-frame point of the absolute-error vs per-person-error scatter.

    Points of frames sharing the same person count are collinear through the
    origin: ae / ppae recovers n whenever ae > 0.
    """

    frame_id: str
    ae: float
    ppae: float  # ae / n
    n_persons: int


def mae_ppmae_scatter(records: list[EvalRecord]) -> list[ScatterPoint]:
    points = []
    for r in records:
        if r.n_persons == 0:
            raise ValueError(f"scatter undefined for empty frame {r.frame_id!r}")
        ae = abs(r.v_true - r.v_pred)
        points.append(
            ScatterPoint(frame_id=r.frame_id, ae=ae, ppae=ae / r.n_persons, n_persons=r.n_persons)
        )
    return points
