"""Output checks that recompute every expected value apart from the program.

Annotations are read with ``json`` and VDM maps with numpy; nothing here
imports crowdvol. Each check raises CheckError on the first mismatch.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

MASS_REL_TOL = 1e-6  # map mass against the frame total (float32 storage)
REPORT_REL_TOL = 1e-9  # report values recomputed from the same inputs
LABEL_REL_TOL = 1e-6  # part volumes against the closed-form frusta
MIN_VOLUME_DM3 = 10.0  # ``eval --protocol decoupling`` default threshold


class CheckError(AssertionError):
    pass


def _close(got: float, want: float, rel: float, what: str) -> None:
    if math.isnan(want) and math.isnan(got):
        return
    if not abs(got - want) <= rel * abs(want) + 1e-300:
        raise CheckError(f"{what}: got {got!r}, expected {want!r}")


def read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]


def read_vdm(path: Path) -> np.ndarray:
    """VDM1: magic, u32-LE width and height, width*height float32-LE values."""
    data = path.read_bytes()
    if data[:4] != b"VDM1":
        raise CheckError(f"{path.name}: bad magic {data[:4]!r}")
    width, height = np.frombuffer(data, dtype="<u4", count=2, offset=4).tolist()
    if len(data) != 12 + 4 * width * height:
        raise CheckError(f"{path.name}: {len(data)} bytes for a {width}x{height} map")
    return np.frombuffer(data, dtype="<f4", offset=12).astype(np.float64).reshape(height, width)


def frame_total(frame: dict) -> float:
    return math.fsum(p["volume_dm3"] for p in frame["persons"])


def check_frames(frames: list[dict], n_frames: int, persons_range: tuple[int, int]) -> None:
    if len(frames) != n_frames:
        raise CheckError(f"expected {n_frames} frames, got {len(frames)}")
    lo, hi = persons_range
    for frame in frames:
        n = len(frame["persons"])
        if not lo <= n <= hi:
            raise CheckError(f"{frame['frame_id']}: {n} persons outside [{lo}, {hi}]")
        for p in frame["persons"]:
            _close(math.fsum(p["part_volumes_dm3"].values()), p["volume_dm3"], 1e-6,
                   f"{p['person_id']} part volumes")


def bbox_sum(values: np.ndarray, bbox) -> float:
    """Map mass over pixels x in [ceil(x0), ceil(x1)), y in [ceil(y0), ceil(y1))."""
    x0, y0, x1, y1 = (math.ceil(v) for v in bbox)
    return float(values[y0:y1, x0:x1].sum())


def check_maps(frames: list[dict], maps_dir: Path) -> dict[str, tuple[float, list[float]]]:
    """Every frame has a map of the image size whose mass is the frame total.

    Returns each frame's map mass and the mass inside each person's bbox.
    Maps are read one at a time: a large benchmark process would also inflate
    the max-RSS that wait4 reports for the CLI processes it starts.
    """
    sums = {}
    for frame in frames:
        values = read_vdm(maps_dir / f"{frame['frame_id']}.vdm")
        if values.shape != (frame["image_h"], frame["image_w"]):
            raise CheckError(f"{frame['frame_id']}: map shape {values.shape}")
        if (values < 0).any():
            raise CheckError(f"{frame['frame_id']}: negative density")
        mass = float(values.sum())
        _close(mass, frame_total(frame), MASS_REL_TOL, f"{frame['frame_id']} map mass")
        sums[frame["frame_id"]] = (mass, [bbox_sum(values, p["bbox_px"]) for p in frame["persons"]])
    return sums


def _metrics(pairs: list[tuple[float, float, int]]) -> tuple[float, float, float, int]:
    """(MAE, PP-MAE, RMSE, k) over (v_true, v_pred, n_persons) triples."""
    k = len(pairs)
    crowd = [(t, p, n) for t, p, n in pairs if n >= 1]
    mae = math.fsum(abs(t - p) for t, p, _ in pairs) / k
    ppmae = math.fsum(abs(t - p) / n for t, p, n in crowd) / len(crowd) if crowd else math.nan
    rmse = math.sqrt(math.fsum((t - p) ** 2 for t, p, _ in pairs) / k)
    return mae, ppmae, rmse, k


def _triples(frames: list[dict], preds: dict[str, float]) -> list[tuple[float, float, int]]:
    return [(frame_total(f), preds[f["frame_id"]], len(f["persons"])) for f in frames]


def _read_rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def check_full_report(report_csv: Path, frames: list[dict], preds: dict[str, float]) -> None:
    """Overall and per-tag MAE, PP-MAE and RMSE of ``eval --protocol full``."""
    groups = {"overall": frames}
    for tag in sorted({t for f in frames for t in f["scene_tags"]}):
        groups[tag] = [f for f in frames if tag in f["scene_tags"]]
    rows = _read_rows(report_csv)[1:]
    if len(rows) != 3 * len(groups):
        raise CheckError(f"full report has {len(rows)} rows, expected {3 * len(groups)}")
    got = {(r[0], r[1]): (float(r[2]), int(r[3])) for r in rows}
    for name, group in groups.items():
        mae, ppmae, rmse, k = _metrics(_triples(group, preds))
        for metric, want in (("mae", mae), ("ppmae", ppmae), ("rmse", rmse)):
            value, count = got.get((name, metric), (math.nan, -1))
            _close(value, want, REPORT_REL_TOL, f"full {name} {metric}")
            if metric != "ppmae" and count != k:
                raise CheckError(f"full {name} {metric}: k={count}, expected {k}")


def check_bins(bins_csv: Path, frames: list[dict], preds: dict[str, float], edges) -> None:
    """Frame count and metrics of every crowd-size bin [lo, hi)."""
    rows = _read_rows(bins_csv)[1:]
    if len(rows) != len(edges) - 1:
        raise CheckError(f"bins report has {len(rows)} rows, expected {len(edges) - 1}")
    for row, lo, hi in zip(rows, edges[:-1], edges[1:]):
        members = [f for f in frames if lo <= len(f["persons"]) < hi]
        if int(row[2]) != len(members):
            raise CheckError(f"bin [{lo}, {hi}): {row[2]} frames, expected {len(members)}")
        if members:
            mae, ppmae, rmse, _ = _metrics(_triples(members, preds))
            for value, want, metric in zip(row[3:6], (mae, ppmae, rmse), ("mae", "ppmae", "rmse")):
                _close(float(value), want, REPORT_REL_TOL, f"bin [{lo}, {hi}) {metric}")


def expected_decoupling(frames: list[dict], sums: dict[str, tuple[float, list[float]]]) -> dict[str, float]:
    """Persons whose bbox intersects no other bbox in the frame are kept; a
    kept person is missed when the map mass in its bbox is below 10 dm^3."""
    errors: list[float] = []
    misses = dropped = total = 0
    for frame in frames:
        persons = frame["persons"]
        total += len(persons)
        if not persons:
            continue
        boxes = np.array([p["bbox_px"] for p in persons], dtype=np.float64)
        ix = np.minimum(boxes[:, None, 2], boxes[None, :, 2]) - np.maximum(boxes[:, None, 0], boxes[None, :, 0])
        iy = np.minimum(boxes[:, None, 3], boxes[None, :, 3]) - np.maximum(boxes[:, None, 1], boxes[None, :, 1])
        overlap = (ix > 0) & (iy > 0)
        np.fill_diagonal(overlap, False)
        in_box = sums[frame["frame_id"]][1]
        for person, v_hat, hit in zip(persons, in_box, overlap.any(axis=1).tolist()):
            if hit:
                dropped += 1
            elif v_hat < MIN_VOLUME_DM3:
                misses += 1
            else:
                errors.append(abs(v_hat - person["volume_dm3"]))
    return {
        "ppmae": math.fsum(errors) / len(errors) if errors else math.nan,
        "misses": misses,
        "kept": len(errors) + misses,
        "dropped_overlap": dropped,
        "total_persons": total,
    }


def check_decoupling(report_csv: Path, frames: list[dict], sums: dict[str, tuple[float, list[float]]]) -> None:
    want = expected_decoupling(frames, sums)
    got = {r[0]: r[1] for r in _read_rows(report_csv)[1:]}
    if set(got) != set(want):
        raise CheckError(f"decoupling report keys {sorted(got)}")
    for key, value in want.items():
        if key == "ppmae":
            _close(float(got[key]), value, REPORT_REL_TOL, "decoupling ppmae")
        elif int(got[key]) != value:
            raise CheckError(f"decoupling {key}: got {got[key]}, expected {value}")


def check_label(stdout: str, part_volumes: dict[int, float]) -> None:
    """``label`` CSV: each part within LABEL_REL_TOL of its closed form, and
    the parts summing to the reported total."""
    rows = list(csv.reader(stdout.splitlines()))[1:]
    got = {int(r[0]): float(r[2]) for r in rows if r[0] != "total"}
    totals = [float(r[2]) for r in rows if r[0] == "total"]
    if set(got) != set(part_volumes) or len(totals) != 1:
        raise CheckError(f"label reported parts {sorted(got)} and {len(totals)} totals")
    for pid, want in part_volumes.items():
        _close(got[pid], want, LABEL_REL_TOL, f"part {pid} volume")
    _close(math.fsum(got.values()), totals[0], 1e-9, "sum of part volumes")
    _close(totals[0], math.fsum(part_volumes.values()), LABEL_REL_TOL, "total volume")


def check_identical(got_dir: Path, want_dir: Path) -> int:
    """Every file of want_dir exists in got_dir with the same bytes, and no
    other file does. Returns the number of files compared."""
    want = sorted(p.name for p in want_dir.iterdir() if p.is_file())
    got = sorted(p.name for p in got_dir.iterdir() if p.is_file())
    if got != want:
        raise CheckError(f"{got_dir.name}: {len(got)} files, expected {len(want)}")
    for name in want:
        if (got_dir / name).read_bytes() != (want_dir / name).read_bytes():
            raise CheckError(f"{got_dir.name}/{name} differs from the one-worker output")
    return len(want)
