"""Evaluation protocols over ground-truth annotations and predictions.

Predictions map each frame id to a scalar total (dm^3), an in-memory
density map, or the path of a .vdm map that is read only when a protocol
reaches its frame. Protocols cover full-set metrics, per-person decoupling
with a detection threshold, crowd-size binning and tag-based subset presets.
Each protocol returns its report as a value; `cli` lays out its CSV rows.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .datamodel import DensityMap, FrameAnnotation, ParseError, ValidationError, read_csv, read_vdm
from .densitymap import BoxGrid, integrate
from .metrics import EvalRecord, MetricsReport, compute_report, mean


# ---------------------------------------------------------------------------
# Predictions
# ---------------------------------------------------------------------------

Predictions = dict[str, float | DensityMap | Path]  # by frame id

def load_predictions_csv(path) -> dict[str, float]:
    """CSV with header frame_id,V_pred_dm3: one row per frame, each value a
    finite number >= 0. Anything else raises ParseError naming the line."""
    values: dict[str, float] = {}
    for where, row in read_csv(path, ("frame_id", "V_pred_dm3")):
        frame_id, text = row["frame_id"], row["V_pred_dm3"]
        try:
            value = float(text)
        except ValueError:
            raise ParseError(f"{where}: V_pred_dm3 {text!r} is not a number") from None
        if not (value >= 0 and math.isfinite(value)):
            raise ParseError(f"{where}: V_pred_dm3 must be finite and >= 0, got {text!r}")
        if frame_id in values:
            raise ParseError(f"{where}: duplicate frame_id {frame_id!r}")
        values[frame_id] = value
    return values


def load_prediction_maps(directory) -> dict[str, Path]:
    """Directory of <frame_id>.vdm files, indexed by frame id; no map is read
    here."""
    return {p.stem: p for p in sorted(Path(directory).glob("*.vdm"))}


# ---------------------------------------------------------------------------
# Dataset statistics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DatasetStats:
    mean_person_volume_dm3: float
    count_histogram: dict[int, int]  # persons-per-frame -> frame count
    tag_counts: dict[str, int]
    n_frames: int
    n_persons: int


def dataset_stats(frames: list[FrameAnnotation]) -> DatasetStats:
    persons = [p for f in frames for p in f.persons]
    if not persons:
        raise ValidationError("dataset has no persons; mean volume undefined")
    hist: dict[int, int] = {}
    tags: dict[str, int] = {}
    for f in frames:
        hist[f.n_persons] = hist.get(f.n_persons, 0) + 1
        for tag in sorted(f.scene_tags):
            tags[tag] = tags.get(tag, 0) + 1
    return DatasetStats(
        mean_person_volume_dm3=mean("mean_person_volume_dm3", persons, lambda p: p.volume_dm3),
        count_histogram=dict(sorted(hist.items())),
        tag_counts=dict(sorted(tags.items())),
        n_frames=len(frames),
        n_persons=len(persons),
    )


# ---------------------------------------------------------------------------
# Protocols
# ---------------------------------------------------------------------------

def _check_predictions(frames: list[FrameAnnotation], preds: Predictions) -> None:
    """Every protocol's first check: each frame has a prediction."""
    missing = [f.frame_id for f in frames if f.frame_id not in preds]
    if missing:
        more = "" if len(missing) <= 8 else f" (+{len(missing) - 8} more)"
        raise ValidationError(f"missing predictions for frames: {', '.join(missing[:8])}{more}")


def _frame_map(preds: Predictions, frame: FrameAnnotation) -> DensityMap:
    """The frame's map, checked against its image size; a map on disk is
    read anew on every call."""
    dmap = preds[frame.frame_id]
    if isinstance(dmap, Path):
        dmap = read_vdm(dmap)
    elif not isinstance(dmap, DensityMap):
        raise ValidationError(f"frame {frame.frame_id!r}: the prediction is a total volume, not a density map; "
                              "decoupling needs a directory of .vdm maps")
    height, width = dmap.values.shape
    if width != frame.image_w or height != frame.image_h:
        raise ValidationError(
            f"frame {frame.frame_id!r}: map size {width}x{height} "
            f"does not match image {frame.image_w}x{frame.image_h}"
        )
    return dmap


def build_records(frames: list[FrameAnnotation], preds: Predictions) -> list[EvalRecord]:
    """One record per frame; each map prediction is fetched once, checked
    against the image size and reduced to its total before the next."""
    _check_predictions(frames, preds)
    records = []
    for f in frames:
        v_pred = preds[f.frame_id]
        if isinstance(v_pred, (DensityMap, Path)):
            v_pred = _frame_map(preds, f).total()
        records.append(
            EvalRecord(frame_id=f.frame_id, v_true=f.total_volume_dm3, v_pred=v_pred, n_persons=f.n_persons)
        )
    return records


@dataclass(frozen=True)
class FullReport:
    overall: MetricsReport
    per_tag: dict[str, MetricsReport]


def evaluate_full(frames: list[FrameAnnotation], preds: Predictions) -> FullReport:
    """Frame-level metric suite, plus the same metrics stratified per tag."""
    records = build_records(frames, preds)
    per_tag = {tag: compute_report([r for r, f in zip(records, frames) if tag in f.scene_tags])
               for tag in sorted({t for f in frames for t in f.scene_tags})}
    return FullReport(overall=compute_report(records), per_tag=per_tag)


def _overlapping(boxes, iou_threshold: float, group=0) -> list[bool]:
    """For each (x0, y0, x1, y1) box, whether its IoU with some other box of
    the list and of its `BoxGrid` group is strictly above the threshold >= 0.

    IoU is intersection over union, 0 for boxes that do not intersect, so
    only the grid's candidate pairs can pass. Each IoU uses the same IEEE
    operations in the same order as the scalar formula: the flags are exact."""
    b = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    x0, y0, x1, y1 = b.T
    area = (x1 - x0) * (y1 - y0)
    hit = np.zeros(len(b), dtype=bool)
    for i, j in BoxGrid(b, group).box_pairs():
        ix = np.maximum(np.minimum(x1[i], x1[j]) - np.maximum(x0[i], x0[j]), 0.0)
        iy = np.maximum(np.minimum(y1[i], y1[j]) - np.maximum(y0[i], y0[j]), 0.0)
        inter = ix * iy
        i, j, inter = i[inter > 0], j[inter > 0], inter[inter > 0]
        over = inter / (area[i] + area[j] - inter) > iou_threshold
        hit[i[over]] = hit[j[over]] = True
    return hit.tolist()


@dataclass(frozen=True)
class DecouplingReport:
    """Per-person volume error isolated from detection error."""

    ppmae: float  # mean |V_hat_p - V_p| over kept-and-detected persons
    misses: int  # kept persons whose integrated volume fell below threshold
    dropped_overlap: int
    total_persons: int

    @property
    def kept(self) -> int:  # persons surviving the non-overlap filter
        return self.total_persons - self.dropped_overlap


def decoupling_eval(
    frames: list[FrameAnnotation],
    pred_maps: Predictions,
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
        raise ValidationError(f"iou_threshold must lie in [0, 1], got {iou_threshold}")
    if not 0.0 <= min_volume_dm3 < math.inf:
        raise ValidationError(f"min_volume_dm3 must be finite and >= 0, got {min_volume_dm3}")
    _check_predictions(frames, pred_maps)
    hits: list[tuple[float, float]] = []  # (integrated, annotated) volume of each detected person
    misses = 0
    # One grid for all frames, each its own group: a frame of few boxes costs no numpy call.
    frame_of = np.repeat(np.arange(len(frames)), [f.n_persons for f in frames])
    flags = _overlapping([p.bbox_px for f in frames for p in f.persons], iou_threshold, frame_of)
    overlapping = iter(flags)  # each frame's zip below takes the flags of its persons
    for frame in frames:
        dmap = _frame_map(pred_maps, frame)
        for person, overlaps in zip(frame.persons, overlapping):
            if overlaps:
                continue
            v_hat = integrate(dmap, person.bbox_px)
            if v_hat < min_volume_dm3:
                misses += 1
            else:
                hits.append((v_hat, person.volume_dm3))
    return DecouplingReport(
        ppmae=mean("ppmae", hits, lambda h: abs(h[0] - h[1])) if hits else math.nan,
        misses=misses,
        dropped_overlap=sum(flags),
        total_persons=len(flags),
    )


@dataclass(frozen=True)
class CrowdBin:
    lo: float
    hi: float
    report: MetricsReport | None  # None when the bin is empty

    @property
    def n_frames(self) -> int:
        return 0 if self.report is None else self.report.k


def crowd_size_bins(
    frames: list[FrameAnnotation], preds: Predictions, bin_edges: list[float]
) -> list[CrowdBin]:
    """Partition frames by person count into [e_i, e_{i+1}) and report per bin."""
    if len(bin_edges) < 2 or not all(a < b for a, b in zip(bin_edges[:-1], bin_edges[1:])):
        raise ValidationError(f"bin edges must be strictly increasing, got {bin_edges}")
    records = build_records(frames, preds)
    bins = []
    for lo, hi in zip(bin_edges[:-1], bin_edges[1:]):  # disjoint, since the edges increase
        held = [r for r in records if lo <= r.n_persons < hi]
        bins.append(CrowdBin(lo=lo, hi=hi, report=compute_report(held) if held else None))
    return bins


# Subset presets: (tags a frame must carry, tags it must not carry).
SUBSETS = {
    "all": (frozenset(), frozenset()),
    "S1": (frozenset(), frozenset({"heavy_occlusion"})),
    "S2": (frozenset({"birds_eye"}), frozenset()),
}


def apply_subset_preset(frames: list[FrameAnnotation], name: str) -> list[FrameAnnotation]:
    if name not in SUBSETS:
        raise ValidationError(f"unknown subset preset {name!r}; expected {', '.join(SUBSETS)}")
    include, exclude = SUBSETS[name]
    return [f for f in frames if include <= f.scene_tags and not exclude & f.scene_tags]
