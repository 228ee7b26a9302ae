"""Volume-error metric suite: MAE, per-person MAE, RMSE, and the per-frame
scatter decomposition relating the first two.

All reductions use exactly-rounded summation (math.fsum), so results are
bit-stable across runs and invariant under record permutation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .datamodel import csv_text


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


def mae(records: list[EvalRecord]) -> float:
    if not records:
        raise ValueError("mae of an empty record set is undefined")
    return math.fsum(abs(r.v_true - r.v_pred) for r in records) / len(records)


def ppmae(records: list[EvalRecord]) -> float:
    if not records:
        raise ValueError("ppmae of an empty record set is undefined")
    for r in records:
        if r.n_persons == 0:
            raise ValueError(f"PP-MAE undefined for empty frames (frame {r.frame_id!r})")
    return math.fsum(abs(r.v_true - r.v_pred) / r.n_persons for r in records) / len(records)


def rmse(records: list[EvalRecord]) -> float:
    if not records:
        raise ValueError("rmse of an empty record set is undefined")
    return math.sqrt(math.fsum((r.v_true - r.v_pred) ** 2 for r in records) / len(records))


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


def scatter_to_csv(points: list[ScatterPoint]) -> str:
    header = ("frame_id", "ae_dm3", "ppae_dm3", "n_persons")
    return csv_text([header] + [(p.frame_id, p.ae, p.ppae, p.n_persons) for p in points])
