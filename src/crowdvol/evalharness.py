"""Evaluation protocols over ground-truth annotations and predictions.

Predictions are either per-frame scalars (dm^3) or density maps; protocols
cover full-set metrics, per-person decoupling with a detection threshold,
crowd-size binning, tag-based subset filtering, and the mean-volume
reference estimator.
"""
from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from io import StringIO
from pathlib import Path

import numpy as np

from .datamodel import DensityMap, FrameAnnotation, ParseError, open_text, read_vdm
from .densitymap import integrate
from .metrics import EvalRecord, MetricsReport, compute_report


class EvalError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Predictions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PredictionSet:
    """Per-frame predictions by frame id: a scalar total (dm^3), an
    in-memory density map, or the path of a .vdm map that is read only when
    a protocol reaches its frame."""

    by_frame: dict[str, float | DensityMap | Path]

    def has(self, frame_id: str) -> bool:
        return frame_id in self.by_frame

    def is_map(self, frame_id: str) -> bool:
        return isinstance(self.by_frame.get(frame_id), (DensityMap, Path))

    def map_for(self, frame_id: str) -> DensityMap:
        """The frame's map; a map on disk is read anew on every call."""
        pred = self.by_frame.get(frame_id)
        if isinstance(pred, Path):
            return read_vdm(pred)
        if isinstance(pred, DensityMap):
            return pred
        raise EvalError(f"no density-map prediction for frame {frame_id!r}")


def load_predictions_csv(path) -> PredictionSet:
    """CSV with header frame_id,V_pred_dm3: one row per frame, each value a
    finite number >= 0. Anything else raises ParseError naming the line."""
    values: dict[str, float] = {}
    with open_text(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [col for col in ("frame_id", "V_pred_dm3") if col not in (reader.fieldnames or ())]
        if missing:
            raise ParseError(f"{path}: missing column {', '.join(missing)}")
        for row in reader:
            where = f"{path}: line {reader.line_num}"
            frame_id, text = row["frame_id"], row["V_pred_dm3"]
            try:
                value = float(text)
            except (TypeError, ValueError):
                raise ParseError(f"{where}: V_pred_dm3 {text!r} is not a number") from None
            if not (value >= 0 and math.isfinite(value)):
                raise ParseError(f"{where}: V_pred_dm3 must be finite and >= 0, got {text!r}")
            if frame_id in values:
                raise ParseError(f"{where}: duplicate frame_id {frame_id!r}")
            values[frame_id] = value
    return PredictionSet(values)


def load_prediction_maps(directory) -> PredictionSet:
    """Directory of <frame_id>.vdm files, indexed by frame id; no map is read
    here."""
    return PredictionSet({p.stem: p for p in sorted(Path(directory).glob("*.vdm"))})


# ---------------------------------------------------------------------------
# Dataset statistics and reference estimators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DatasetStats:
    mean_person_volume_dm3: float
    count_histogram: dict[int, int]  # persons-per-frame -> frame count
    tag_counts: dict[str, int]
    n_frames: int
    n_persons: int


def dataset_stats(frames: list[FrameAnnotation]) -> DatasetStats:
    volumes = [p.volume_dm3 for f in frames for p in f.persons]
    if not volumes:
        raise EvalError("dataset has no persons; mean volume undefined")
    hist: dict[int, int] = {}
    tags: dict[str, int] = {}
    for f in frames:
        hist[f.n_persons] = hist.get(f.n_persons, 0) + 1
        for tag in sorted(f.scene_tags):
            tags[tag] = tags.get(tag, 0) + 1
    return DatasetStats(
        mean_person_volume_dm3=math.fsum(volumes) / len(volumes),
        count_histogram=dict(sorted(hist.items())),
        tag_counts=dict(sorted(tags.items())),
        n_frames=len(frames),
        n_persons=len(volumes),
    )


def oracular_count_estimator(frames: list[FrameAnnotation], mean_volume_dm3: float) -> PredictionSet:
    """Counting-based reference fed with ground-truth person counts:
    V_hat = count * dataset mean person volume."""
    return PredictionSet({f.frame_id: f.n_persons * mean_volume_dm3 for f in frames})


# ---------------------------------------------------------------------------
# Protocols
# ---------------------------------------------------------------------------

def _frame_map(preds: PredictionSet, frame: FrameAnnotation) -> DensityMap:
    dmap = preds.map_for(frame.frame_id)
    if dmap.width != frame.image_w or dmap.height != frame.image_h:
        raise EvalError(
            f"frame {frame.frame_id!r}: map size {dmap.width}x{dmap.height} "
            f"does not match image {frame.image_w}x{frame.image_h}"
        )
    return dmap


def build_records(frames: list[FrameAnnotation], preds: PredictionSet) -> list[EvalRecord]:
    """One record per frame; each map prediction is fetched once, checked
    against the image size and reduced to its total before the next."""
    missing = [f.frame_id for f in frames if not preds.has(f.frame_id)]
    if missing:
        raise EvalError(f"missing predictions for frames: {', '.join(missing)}")
    records = []
    for f in frames:
        v_pred = _frame_map(preds, f).total() if preds.is_map(f.frame_id) else preds.by_frame[f.frame_id]
        records.append(
            EvalRecord(frame_id=f.frame_id, v_true=f.total_volume_dm3, v_pred=v_pred, n_persons=f.n_persons)
        )
    return records


@dataclass(frozen=True)
class FullReport:
    overall: MetricsReport
    per_tag: dict[str, MetricsReport]
    records: list[EvalRecord]


def evaluate_full(frames: list[FrameAnnotation], preds: PredictionSet) -> FullReport:
    """Frame-level metric suite, plus the same metrics stratified per tag."""
    records = build_records(frames, preds)
    per_tag: dict[str, MetricsReport] = {}
    all_tags = sorted({t for f in frames for t in f.scene_tags})
    for tag in all_tags:
        tagged = [r for r, f in zip(records, frames) if tag in f.scene_tags]
        if tagged:
            per_tag[tag] = compute_report(tagged)
    return FullReport(overall=compute_report(records), per_tag=per_tag, records=records)


# Elements per block of pairwise box arrays: 64 KB of float64 at most.
_PAIR_BLOCK = 8192


def _overlapping(boxes, iou_threshold: float) -> list[bool]:
    """For each (x0, y0, x1, y1) box, whether its IoU with some other box of
    the list is strictly above the threshold.

    IoU is intersection over union, 0 for boxes that do not intersect. Rows
    of the pair matrix are taken in blocks so the temporaries stay small,
    and each IoU uses the same IEEE operations in the same order as the
    scalar formula, so the flags are exact."""
    n = len(boxes)
    if n < 2:
        return [False] * n
    b = np.asarray(boxes, dtype=np.float64)
    x0, y0, x1, y1 = b[:, 0], b[:, 1], b[:, 2], b[:, 3]
    area = (x1 - x0) * (y1 - y0)
    hit = np.zeros(n, dtype=bool)
    rows = max(1, _PAIR_BLOCK // n)
    for s in range(0, n, rows):
        e = min(n, s + rows)
        ix = np.maximum(np.minimum(x1[s:e, None], x1) - np.maximum(x0[s:e, None], x0), 0.0)
        iy = np.maximum(np.minimum(y1[s:e, None], y1) - np.maximum(y0[s:e, None], y0), 0.0)
        inter = ix * iy
        i, j = np.nonzero(inter > 0)
        iou = np.zeros_like(inter)
        iou[i, j] = inter[i, j] / (area[s + i] + area[j] - inter[i, j])
        over = iou > iou_threshold
        over[np.arange(e - s), np.arange(s, e)] = False
        hit[s:e] = over.any(axis=1)
    return hit.tolist()


@dataclass(frozen=True)
class DecouplingReport:
    """Per-person volume error isolated from detection error."""

    ppmae: float  # mean |V_hat_p - V_p| over kept-and-detected persons
    misses: int  # kept persons whose integrated volume fell below threshold
    kept: int  # persons surviving the non-overlap filter
    dropped_overlap: int
    total_persons: int


def decoupling_eval(
    frames: list[FrameAnnotation],
    pred_maps: PredictionSet,
    min_volume_dm3: float = 10.0,
    iou_threshold: float = 0.0,
) -> DecouplingReport:
    """Integrate predicted density over each isolated person's gt bbox.

    Persons whose bbox overlaps another bbox in the same frame (IoU strictly
    above the threshold; the default 0.0 drops any positive intersection) are
    excluded. Integrated volumes below `min_volume_dm3` count as detection
    misses and do not contribute to the volume-error average.
    """
    if not 0.0 <= iou_threshold <= 1.0:
        raise EvalError(f"iou_threshold must lie in [0, 1], got {iou_threshold}")
    if not 0.0 <= min_volume_dm3 < math.inf:
        raise EvalError(f"min_volume_dm3 must be finite and >= 0, got {min_volume_dm3}")
    errors: list[float] = []
    misses = 0
    dropped = 0
    total = 0
    for frame in frames:
        dmap = _frame_map(pred_maps, frame)
        overlapping = _overlapping([p.bbox_px for p in frame.persons], iou_threshold)
        for person, overlaps in zip(frame.persons, overlapping):
            total += 1
            if overlaps:
                dropped += 1
                continue
            v_hat = integrate(dmap, person.bbox_px)
            if v_hat < min_volume_dm3:
                misses += 1
            else:
                errors.append(abs(v_hat - person.volume_dm3))
    kept = len(errors) + misses
    return DecouplingReport(
        ppmae=math.fsum(errors) / len(errors) if errors else math.nan,
        misses=misses,
        kept=kept,
        dropped_overlap=dropped,
        total_persons=total,
    )


@dataclass(frozen=True)
class CrowdBin:
    lo: float
    hi: float
    n_frames: int
    report: MetricsReport | None  # None when the bin is empty


def crowd_size_bins(
    frames: list[FrameAnnotation], preds: PredictionSet, bin_edges: list[float]
) -> list[CrowdBin]:
    """Partition frames by person count into [e_i, e_{i+1}) and report per bin."""
    if len(bin_edges) < 2 or not all(a < b for a, b in zip(bin_edges[:-1], bin_edges[1:])):
        raise EvalError(f"bin edges must be strictly increasing, got {bin_edges}")
    records = build_records(frames, preds)
    bins: list[list[EvalRecord]] = [[] for _ in range(len(bin_edges) - 1)]
    for record in records:
        for i, (lo, hi) in enumerate(zip(bin_edges[:-1], bin_edges[1:])):
            if lo <= record.n_persons < hi:
                bins[i].append(record)
                break
    return [
        CrowdBin(
            lo=bin_edges[i],
            hi=bin_edges[i + 1],
            n_frames=len(bins[i]),
            report=compute_report(bins[i]) if bins[i] else None,
        )
        for i in range(len(bins))
    ]


S1_EXCLUDE_TAGS = frozenset({"night", "rain", "heavy_occlusion"})
S2_INCLUDE_TAGS = frozenset({"birds_eye"})


def filter_subset(
    frames: list[FrameAnnotation],
    include_tags=(),
    exclude_tags=(),
) -> list[FrameAnnotation]:
    """Keep frames carrying every include tag and none of the exclude tags."""
    include = frozenset(include_tags)
    exclude = frozenset(exclude_tags)
    known = {t for f in frames for t in f.scene_tags}
    for tag in sorted((include | exclude) - known):
        warnings.warn(f"tag {tag!r} does not occur in the dataset", stacklevel=2)
    return [
        f
        for f in frames
        if include <= f.scene_tags and not (exclude & f.scene_tags)
    ]


def apply_subset_preset(frames: list[FrameAnnotation], name: str) -> list[FrameAnnotation]:
    if name == "all":
        return list(frames)
    if name == "S1":
        return filter_subset(frames, exclude_tags=S1_EXCLUDE_TAGS)
    if name == "S2":
        return filter_subset(frames, include_tags=S2_INCLUDE_TAGS)
    raise EvalError(f"unknown subset preset {name!r}; expected all, S1, or S2")


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def full_report_to_csv(report: FullReport) -> str:
    out = StringIO()
    writer = csv.writer(out)
    writer.writerow(["subset", "metric", "value", "k"])
    rows = [("overall", report.overall)] + sorted(report.per_tag.items())
    for name, rep in rows:
        writer.writerow([name, "mae", repr(rep.mae), rep.k])
        writer.writerow([name, "ppmae", repr(rep.ppmae), rep.ppmae_k])
        writer.writerow([name, "rmse", repr(rep.rmse), rep.k])
    return out.getvalue()


def decoupling_to_csv(report: DecouplingReport) -> str:
    out = StringIO()
    writer = csv.writer(out)
    writer.writerow(["metric", "value"])
    writer.writerow(["ppmae", repr(report.ppmae)])
    writer.writerow(["misses", report.misses])
    writer.writerow(["kept", report.kept])
    writer.writerow(["dropped_overlap", report.dropped_overlap])
    writer.writerow(["total_persons", report.total_persons])
    return out.getvalue()


def bins_to_csv(bins: list[CrowdBin]) -> str:
    out = StringIO()
    writer = csv.writer(out)
    writer.writerow(["lo", "hi", "n_frames", "mae", "ppmae", "rmse"])
    for b in bins:
        if b.report is None:
            writer.writerow([b.lo, b.hi, 0, "", "", ""])
        else:
            writer.writerow([b.lo, b.hi, b.n_frames, repr(b.report.mae), repr(b.report.ppmae), repr(b.report.rmse)])
    return out.getvalue()


def stats_to_csv(stats: DatasetStats) -> str:
    out = StringIO()
    writer = csv.writer(out)
    writer.writerow(["key", "value"])
    writer.writerow(["mean_person_volume_dm3", repr(stats.mean_person_volume_dm3)])
    writer.writerow(["n_frames", stats.n_frames])
    writer.writerow(["n_persons", stats.n_persons])
    for n, count in stats.count_histogram.items():
        writer.writerow([f"frames_with_{n}_persons", count])
    for tag, count in stats.tag_counts.items():
        writer.writerow([f"frames_tagged_{tag}", count])
    return out.getvalue()
