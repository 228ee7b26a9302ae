"""Rasterization of volume density maps, and the box grid of pairwise box tests.

A map carries one impulse per person (or per keypoint for the per-part
variant), optionally smoothed by a truncated Gaussian kernel that is
renormalized over its in-image support, so the total map mass always equals
the total annotated volume. Accumulation order is fixed (person order, then
row-major) to keep outputs bit-stable.

Each map builds one list of 1-D Gaussian factors and, when a full-radius
stamp fits the image, one full kernel; a stamp near the border builds its
own clipped kernel from two slices of that list. Nothing is kept between
maps, so memory stays at a few image-sized arrays however wide the kernel.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datamodel import (
    DensityMap,
    FrameAnnotation,
    PartTaxonomy,
    ValidationError,
)


@dataclass(frozen=True)
class SmoothingConfig:
    """Gaussian smoothing: std in pixels and kernel truncation radius in
    multiples of sigma. sigma_px = 0 keeps pure impulses. The only defaults
    are those of the `maps` flags --sigma and --truncation."""

    sigma_px: float
    truncation_radius: float

    def __post_init__(self):
        if not 0 <= self.sigma_px < math.inf:
            raise ValidationError(f"sigma_px must be >= 0 and finite, got {self.sigma_px}")
        if self.sigma_px and not 1.0 / max(2.0 * self.sigma_px * self.sigma_px, math.ulp(0.0)) < math.inf:
            raise ValidationError(f"sigma_px must be 0 or make 1/(2 sigma^2) finite, got {self.sigma_px}")
        if not 0 < self.truncation_radius < math.inf:
            raise ValidationError(f"truncation_radius must be positive and finite, got {self.truncation_radius}")


def nearest_pixel(coord: float, size: int) -> int:
    """Nearest pixel index with ties toward the smaller index; coordinates in
    the half-open edge band [size - 0.5, size) land on the last pixel."""
    idx = math.ceil(coord - 0.5)
    return min(max(idx, 0), size - 1)


def _kernel(factors: list[float], radius: int, left: int, right: int, up: int, down: int) -> np.ndarray:
    """Truncated Gaussian over offsets [-left, right] x [-up, down], normalized to sum 1:
    the outer product of two slices of `factors`, the weights of offsets -radius..radius."""
    kernel = np.outer(factors[radius - up : radius + down + 1], factors[radius - left : radius + right + 1])
    kernel /= kernel.sum()
    return kernel


def _stamp_all(frame: FrameAnnotation, stamps: list[tuple[float, float, float]], cfg: SmoothingConfig) -> DensityMap:
    """The frame's map: each (x, y, mass) stamp added in order at its nearest pixel,
    over the full kernel a full radius from every border (at sigma 0, radius 0 and
    [[1.0]]), else over the truncated kernel renormalized to its in-image support."""
    w, h = frame.image_w, frame.image_h
    try:
        acc = np.zeros((h, w), dtype=np.float64)
    except MemoryError:
        raise ValidationError(f"frame {frame.frame_id!r}: no memory for a {w}x{h} density map") from None
    radius = int(math.ceil(min(cfg.truncation_radius * cfg.sigma_px, max(h, w))))  # a wider one clips alike
    inv = 1.0 / (2.0 * cfg.sigma_px * cfg.sigma_px) if cfg.sigma_px else 0.0
    factors = [math.exp(-d * d * inv) for d in range(-radius, radius + 1)]  # libm's exp, not numpy's dispatched one
    full = _kernel(factors, radius, radius, radius, radius, radius) if 2 * radius < min(h, w) else None  # else unused
    for x, y, mass in stamps:
        ix, iy = nearest_pixel(x, w), nearest_pixel(y, h)
        if radius <= ix < w - radius and radius <= iy < h - radius:
            acc[iy - radius : iy + radius + 1, ix - radius : ix + radius + 1] += mass * full
        else:
            left, right = min(ix, radius), min(w - 1 - ix, radius)
            up, down = min(iy, radius), min(h - 1 - iy, radius)
            kernel = _kernel(factors, radius, left, right, up, down)
            acc[iy - up : iy + down + 1, ix - left : ix + right + 1] += mass * kernel
    try:
        return DensityMap(acc)
    except ValidationError as exc:  # a pixel past what float32 holds
        raise ValidationError(f"frame {frame.frame_id!r}: {exc}") from None


def render_vdm(frame: FrameAnnotation, cfg: SmoothingConfig) -> DensityMap:
    """One impulse of each person's total volume at their head pixel."""
    return _stamp_all(frame, [(*person.head_px, person.volume_dm3) for person in frame.persons], cfg)


def render_ppvdm(frame: FrameAnnotation, taxonomy: PartTaxonomy, cfg: SmoothingConfig) -> DensityMap:
    """Distribute each part's volume equally over that part's visible
    in-image keypoints; parts with none fall back to the head pixel."""
    stamps = []
    for person in frame.persons:
        anchors_by_part: dict[int, list[tuple[float, float]]] = {}
        for x, y, part_id, visible in person.keypoints:
            if visible and 0 <= x < frame.image_w and 0 <= y < frame.image_h:
                anchors_by_part.setdefault(part_id, []).append((x, y))
        for part_id in taxonomy.part_ids:
            v_part = person.part_volumes_dm3.get(part_id, 0.0)
            if v_part == 0.0:
                continue
            anchors = anchors_by_part.get(part_id) or [person.head_px]
            share = v_part / len(anchors)
            stamps += [(x, y, share) for x, y in anchors]
    return _stamp_all(frame, stamps, cfg)


_CLIP = 2.0**20  # px; a BoxGrid clips coordinates to +-_CLIP, so rows and columns lie within +-2**15
_ROW = 1 << 17  # a cell's key is row * _ROW + column; group g's rows are offset by g * _ROW
_PAIR_BLOCK = 1 << 15  # candidate pairs yielded at once: bounds the memory


class BoxGrid:
    """Boxes (x0, y0, x1, y1), the rows of an (n, 4) array, entered once in
    the grid cells that each spans, so exact tests run on candidate pairs
    only; boxes of different groups (`group`: an int, or one per box, below
    2**29) share no cell. A cell index is floor(c / cell) for a coordinate
    c clipped to +-_CLIP, monotone in c. So a box that holds a point spans
    the point's cell, and two boxes whose intersection has a positive area
    both span the cell of its top-left corner."""

    def __init__(self, boxes: np.ndarray, group=0):
        clipped = np.clip(boxes, -_CLIP, _CLIP)
        cell = 32.0  # px, doubled while the boxes span more than 64 cells each on average
        while True:
            c0, r0, c1, r1 = np.floor(clipped / cell).astype(np.int64).T
            w = np.maximum(c1 - c0 + 1, 0)
            cells = w * np.maximum(r1 - r0 + 1, 0)
            if cells.sum() <= 64 * len(boxes):
                break
            cell *= 2.0
        box = np.repeat(np.arange(len(boxes)), cells)
        k = np.arange(len(box)) - np.repeat(np.cumsum(cells) - cells, cells)  # the entry's place in its box
        self.row0, self.c0 = r0 + group * _ROW, c0  # each box's first cell
        key = (self.row0 * _ROW + c0)[box] + (k // w[box]) * _ROW + k % w[box]
        order = np.argsort(key, kind="stable")
        self.cell, self.key, self.box = cell, key[order], box[order]

    def point_pairs(self, px: np.ndarray, py: np.ndarray):
        """Blocks of (point, box) index arrays: each point of the flat
        arrays with every box of group 0 entered in its cell."""
        col, row = (np.floor(np.clip(v, -_CLIP, _CLIP) / self.cell).astype(np.int64) for v in (px, py))
        key = row * _ROW + col
        first = np.searchsorted(self.key, key, "left")
        for q, e in _blocks(first, np.searchsorted(self.key, key, "right") - first):
            yield q, self.box[e]

    def box_pairs(self):
        """Blocks of (i, j) box index arrays: every pair of boxes that share
        a cell, once, in the top-left cell that both span."""
        first = np.arange(1, len(self.key) + 1)
        for q, e in _blocks(first, np.searchsorted(self.key, self.key, "right") - first):
            i, j = self.box[q], self.box[e]
            keep = self.key[q] == np.maximum(self.row0[i], self.row0[j]) * _ROW + np.maximum(self.c0[i], self.c0[j])
            yield i[keep], j[keep]


def _blocks(first: np.ndarray, count: np.ndarray):
    """(query, entry) index arrays in which query q meets the entries
    first[q] to first[q] + count[q] - 1, about _PAIR_BLOCK pairs a block."""
    ends = np.cumsum(count)
    offset = first - (ends - count)  # query q's pair p meets entry p + offset[q]
    bounds = [0, *np.searchsorted(ends, np.arange(_PAIR_BLOCK, count.sum(), _PAIR_BLOCK)).tolist(), len(count)]
    for start, stop in zip(bounds, bounds[1:]):
        if start < stop:
            counts = count[start:stop]
            q = np.repeat(np.arange(start, stop), counts)
            yield q, np.arange(ends[start] - counts[0], ends[stop - 1]) + np.repeat(offset[start:stop], counts)


def integrate(dmap: DensityMap, bbox_px) -> float:
    """Sum of pixel values with integer pixel membership x in [x0, x1),
    y in [y0, y1)."""
    x0, y0, x1, y1 = (float(v) for v in bbox_px)
    if not (x0 < x1 and y0 < y1):
        raise ValidationError(f"malformed bbox {bbox_px}")
    height, width = dmap.values.shape
    if x0 < 0 or y0 < 0 or x1 > width or y1 > height:
        raise ValidationError(
            f"bbox {bbox_px} outside {width}x{height} image"
        )
    xs, xe = math.ceil(x0), math.ceil(x1)
    ys, ye = math.ceil(y0), math.ceil(y1)
    return float(dmap.values[ys:ye, xs:xe].sum())
