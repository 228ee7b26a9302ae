"""Inputs of the benchmark workloads, all made from the run's seed.

Scene configs are plain key=value files for ``crowdvol gen``. Prediction CSVs
scale each frame's true volume by a seeded factor, so the benchmark knows the
metrics ``eval`` must report. Bodies for ``crowdvol label`` are stacks of
polygonal frusta with planar part boundaries; every part volume has a closed
form that the benchmark computes without the program.
"""
from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from checks import frame_total

# The default scene (640x480, default tags and identity pools; the person
# range is the default too), with every frame in the test split so that maps
# and eval see all of them. 200 frames keep three rounds within a 25-second
# run.
DESK_SCENE = {
    "persons.min": "1",
    "persons.max": "8",
    "frames.train": "0",
    "frames.val": "0",
    "frames.test": "200",
}

# The desk scene with fewer frames for the two-worker runs, whose times vary
# more from round to round: shorter rounds let a run take more of them.
PARALLEL_SCENE = dict(DESK_SCENE, **{"frames.test": "75"})

# A dense crowd at 1920x1080. The ground area lies inside every camera's
# view and bird's-eye frames are off, so nearly every placement attempt is
# accepted and the work per run hardly depends on the seed. The narrow person
# range keeps the persons^2 work per run within about 3% across seeds. Six
# frames keep three rounds of the workload within a 25-second run.
DENSE_SCENE = {
    "image_w": "1920",
    "image_h": "1080",
    "focal.lo": "1000.0",
    "focal.hi": "1200.0",
    "persons.min": "280",
    "persons.max": "320",
    "area.w": "12.0",
    "area.d": "40.0",
    "area.y0": "10.0",
    "tag.birds_eye": "0.0",
    "frames.train": "0",
    "frames.val": "0",
    "frames.test": "6",
}

# Crowd-size bins for ``eval --protocol bins``; the CLI default.
BIN_EDGES = (1.0, 5.0, 10.0, 20.0, math.inf)


def write_scene_config(pairs: dict[str, str], path: Path) -> None:
    path.write_text("".join(f"{k}={v}\n" for k, v in pairs.items()), encoding="utf-8")


def prediction_factors(seed: int, n: int) -> np.ndarray:
    """Per-frame multipliers of the true volume, uniform in [0.7, 1.3)."""
    return np.random.default_rng([seed, 0x9E0]).uniform(0.7, 1.3, size=n)


def write_predictions(frames: list[dict], seed: int, path: Path) -> dict[str, float]:
    """Write ``frame_id,V_pred_dm3`` rows and return the values written."""
    factors = prediction_factors(seed, len(frames))
    preds = {frame["frame_id"]: float(frame_total(frame) * factor) for frame, factor in zip(frames, factors)}
    lines = ["frame_id,V_pred_dm3"] + [f"{fid},{v!r}" for fid, v in preds.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return preds


# ---------------------------------------------------------------------------
# Frusta bodies
# ---------------------------------------------------------------------------

# Part stack bottom to top with height fractions, as in scenegen's humanoid:
# a path of the default taxonomy's nine parts, so the part adjacency is a tree.
STACK = ((8, 0.26), (6, 0.11), (7, 0.11), (1, 0.30), (2, 0.035),
         (4, 0.035), (3, 0.035), (5, 0.035), (0, 0.08))
BASE_RADII = {8: 0.048, 6: 0.062, 7: 0.062, 1: 0.105, 2: 0.055, 4: 0.047, 3: 0.055, 5: 0.047, 0: 0.058}
BOUNDARY_BAND = 1e-3  # meters between a boundary ring and the next part's first ring

# (polygon sides, rings per part): 13,824 faces (SMPL scale, 6,914 vertices)
# and 55,296 faces.
BODY_SIZES = ((96, 8), (192, 16))


class Body:
    """Labeled ring stack: ``rings`` holds (z, circumradius, part) bottom to top."""

    def __init__(self, rings: list[tuple[float, float, int]], sides: int):
        self.rings = rings
        self.sides = sides

    @property
    def n_faces(self) -> int:
        return 2 * self.sides * len(self.rings)

    def mesh_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(vertices, faces, labels) of the closed surface, outward oriented."""
        n = self.sides
        angles = 2.0 * math.pi * np.arange(n) / n
        z = np.array([r[0] for r in self.rings])
        rad = np.array([r[1] for r in self.rings])
        ring_verts = np.stack([
            rad[:, None] * np.cos(angles)[None, :],
            rad[:, None] * np.sin(angles)[None, :],
            np.repeat(z[:, None], n, axis=1),
        ], axis=2).reshape(-1, 3)
        bottom, top = len(ring_verts), len(ring_verts) + 1
        vertices = np.concatenate([ring_verts, [[0.0, 0.0, z[0]], [0.0, 0.0, z[-1]]]])
        labels = np.concatenate([
            np.repeat([r[2] for r in self.rings], n), [self.rings[0][2], self.rings[-1][2]]
        ])
        j = np.arange(n)
        k = (j + 1) % n
        faces = []
        for ring in range(len(self.rings) - 1):
            a0, b0 = ring * n, (ring + 1) * n
            faces.append(np.stack([a0 + j, a0 + k, b0 + k], axis=1))
            faces.append(np.stack([a0 + j, b0 + k, b0 + j], axis=1))
        last = (len(self.rings) - 1) * n
        faces.append(np.stack([np.full(n, bottom), k, j], axis=1))
        faces.append(np.stack([np.full(n, top), last + j, last + k], axis=1))
        return vertices, np.concatenate(faces).astype(np.int64), labels.astype(np.int64)

    def part_volumes_dm3(self) -> dict[int, float]:
        """Closed-form volume of each part between its cut planes.

        Consecutive rings bound a frustum of a regular pyramid, whose volume
        is h (A0 + sqrt(A0 A1) + A1) / 3 with A = n R^2 sin(2 pi / n) / 2.
        Every cut plane passes through a boundary ring, so each frustum lies
        wholly in one part: the part of the ring pair's upper boundary.
        """
        k = 0.5 * self.sides * math.sin(2.0 * math.pi / self.sides)
        bounds = np.cumsum([frac for _, frac in STACK]) * self.height
        volumes: dict[int, list[float]] = {pid: [] for pid, _ in STACK}
        idx = 0
        for (z0, r0, _), (z1, r1, _) in zip(self.rings[:-1], self.rings[1:]):
            while z1 > bounds[idx] + 1e-12:
                idx += 1
            volumes[STACK[idx][0]].append((z1 - z0) * k * (r0 * r0 + r0 * r1 + r1 * r1) / 3.0)
        return {pid: 1000.0 * math.fsum(v) for pid, v in volumes.items()}

    @property
    def height(self) -> float:
        return self.rings[-1][0]

    def write(self, obj_path: Path, labels_path: Path) -> None:
        vertices, faces, labels = self.mesh_arrays()
        lines = [f"v {x!r} {y!r} {z!r}" for x, y, z in vertices.tolist()]
        lines += [f"f {a + 1} {b + 1} {c + 1}" for a, b, c in faces.tolist()]
        obj_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        labels_path.write_text(
            "\n".join(f"{i} {pid}" for i, pid in enumerate(labels.tolist())) + "\n", encoding="utf-8"
        )


def frusta_body(seed: int, sides: int, rings_per_part: int) -> Body:
    """A seeded body of ``len(STACK) * rings_per_part`` rings.

    A ring on a part boundary belongs to the smaller part id of the pair and
    the other part's first ring sits BOUNDARY_BAND away, so the frontier that
    ``split_parts`` fits its plane to is exactly that boundary ring.
    """
    rng = np.random.default_rng([seed, 0xB0D, sides])
    height = float(rng.uniform(1.55, 1.95))
    bounds = np.concatenate([[0.0], np.cumsum([frac for _, frac in STACK]) * height])
    rings: list[tuple[float, float, int]] = []
    for idx, (pid, _) in enumerate(STACK):
        lo, hi = float(bounds[idx]), float(bounds[idx + 1])
        if idx == len(STACK) - 1:
            hi = height
        if idx > 0 and STACK[idx - 1][0] < pid:
            lo += BOUNDARY_BAND
        if idx < len(STACK) - 1 and STACK[idx + 1][0] < pid:
            hi -= BOUNDARY_BAND
        radius = BASE_RADII[pid] * height * float(rng.uniform(0.9, 1.1))
        taper = rng.uniform(0.85, 1.15, size=rings_per_part)
        for z, t in zip(np.linspace(lo, hi, rings_per_part), taper):
            rings.append((float(z), radius * float(t), pid))
    return Body(rings, sides)
