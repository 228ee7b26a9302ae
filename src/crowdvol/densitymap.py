"""Rasterization of volume density maps.

A map carries one impulse per person (or per keypoint for the per-part
variant), optionally smoothed by a truncated Gaussian kernel that is
renormalized over its in-image support, so the total map mass always equals
the total annotated volume. Accumulation order is fixed (person order, then
row-major) to keep outputs bit-stable.

Each normalized kernel depends only on sigma and on how far the stamp's
support is clipped by the image border, so kernels are built once and kept
in a small LRU cache. A cached kernel is computed by the same code as a
fresh one, so the map bytes are the same as when every stamp built its own.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .datamodel import (
    DensityMap,
    FrameAnnotation,
    PartTaxonomy,
    ValidationError,
    default_taxonomy,
)


class DensityMapError(ValueError):
    pass


@dataclass(frozen=True)
class SmoothingConfig:
    """Gaussian smoothing: std in pixels and kernel truncation radius in
    multiples of sigma. sigma_px = 0 keeps pure impulses."""

    sigma_px: float = 4.0
    truncation_radius: float = 4.0

    def __post_init__(self):
        if not 0 <= self.sigma_px < math.inf:
            raise ValidationError(f"sigma_px must be >= 0 and finite, got {self.sigma_px}")
        if not 0 < self.truncation_radius < math.inf:
            raise ValidationError(f"truncation_radius must be positive and finite, got {self.truncation_radius}")


def nearest_pixel(coord: float, size: int) -> int:
    """Nearest pixel index with ties toward the smaller index; coordinates in
    the half-open edge band [size - 0.5, size) land on the last pixel."""
    idx = math.ceil(coord - 0.5)
    return min(max(idx, 0), size - 1)


@lru_cache(maxsize=16)
def _kernel(sigma_px: float, left: int, right: int, up: int, down: int) -> np.ndarray:
    """Truncated Gaussian over offsets [-left, right] x [-up, down] around
    the center pixel, normalized to sum 1; read-only, since it is shared."""
    dx = np.arange(-left, right + 1)
    dy = np.arange(-up, down + 1)
    inv = 1.0 / (2.0 * sigma_px * sigma_px)
    kernel = np.outer(np.exp(-dy * dy * inv), np.exp(-dx * dx * inv))
    kernel /= kernel.sum()
    kernel.flags.writeable = False
    return kernel


def _stamp(acc: np.ndarray, x: float, y: float, mass: float, cfg: SmoothingConfig) -> None:
    h, w = acc.shape
    ix = nearest_pixel(x, w)
    iy = nearest_pixel(y, h)
    if cfg.sigma_px == 0:
        acc[iy, ix] += mass
        return
    radius = int(math.ceil(cfg.truncation_radius * cfg.sigma_px))
    left, right = min(ix, radius), min(w - 1 - ix, radius)
    up, down = min(iy, radius), min(h - 1 - iy, radius)
    kernel = _kernel(cfg.sigma_px, left, right, up, down)
    acc[iy - up : iy + down + 1, ix - left : ix + right + 1] += mass * kernel


def render_vdm(frame: FrameAnnotation, cfg: SmoothingConfig = SmoothingConfig()) -> DensityMap:
    """One impulse of each person's total volume at their head pixel."""
    acc = np.zeros((frame.image_h, frame.image_w), dtype=np.float64)
    for person in frame.persons:
        hx, hy = person.head_px
        if not (0 <= hx < frame.image_w and 0 <= hy < frame.image_h):
            raise DensityMapError(
                f"person {person.person_id!r} has head_px {person.head_px} outside the image"
            )
        _stamp(acc, hx, hy, person.volume_dm3, cfg)
    return DensityMap(width=frame.image_w, height=frame.image_h, values=acc)


def render_ppvdm(
    frame: FrameAnnotation,
    taxonomy: PartTaxonomy | None = None,
    cfg: SmoothingConfig = SmoothingConfig(),
) -> DensityMap:
    """Distribute each part's volume equally over that part's visible
    in-image keypoints; parts with none fall back to the head pixel."""
    tax = taxonomy if taxonomy is not None else default_taxonomy()
    acc = np.zeros((frame.image_h, frame.image_w), dtype=np.float64)
    for person in frame.persons:
        hx, hy = person.head_px
        head_ok = 0 <= hx < frame.image_w and 0 <= hy < frame.image_h
        anchors_by_part: dict[int, list[tuple[float, float]]] = {}
        for x, y, part_id, visible in person.keypoints:
            if visible and 0 <= x < frame.image_w and 0 <= y < frame.image_h:
                anchors_by_part.setdefault(part_id, []).append((x, y))
        for part_id in tax.part_ids:
            v_part = person.part_volumes_dm3.get(part_id, 0.0)
            if v_part == 0.0:
                continue
            anchors = anchors_by_part.get(part_id)
            if anchors:
                share = v_part / len(anchors)
                for x, y in anchors:
                    _stamp(acc, x, y, share, cfg)
            elif head_ok:
                _stamp(acc, hx, hy, v_part, cfg)
            else:
                raise DensityMapError(
                    f"person {person.person_id!r}: part {part_id} has no visible "
                    f"in-image keypoints and head_px {person.head_px} is invalid"
                )
    return DensityMap(width=frame.image_w, height=frame.image_h, values=acc)


def integrate(dmap: DensityMap, bbox_px) -> float:
    """Sum of pixel values with integer pixel membership x in [x0, x1),
    y in [y0, y1)."""
    x0, y0, x1, y1 = (float(v) for v in bbox_px)
    if not (x0 < x1 and y0 < y1):
        raise ValidationError(f"malformed bbox {bbox_px}")
    if x0 < 0 or y0 < 0 or x1 > dmap.width or y1 > dmap.height:
        raise ValidationError(
            f"bbox {bbox_px} outside {dmap.width}x{dmap.height} image"
        )
    xs, xe = math.ceil(x0), math.ceil(x1)
    ys, ye = math.ceil(y0), math.ceil(y1)
    return float(dmap.values[ys:ye, xs:xe].sum())
