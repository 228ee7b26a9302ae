"""Deterministic synthesis of desk-scale annotated crowd scenes.

Bodies are stylized humanoids built from a vertical stack of solids of
revolution, one per body part. The stack gives every part a closed-form
volume, a strictly planar boundary ring toward each neighbor, and a
path-shaped part adjacency, so mesh-derived part volumes can be checked
against the closed forms exactly. Keypoint anchors stay at anatomically
plausible positions independent of the stack layout.

Everything is a pure function of (config, seed): frames may be generated in
parallel without changing a single output byte.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .anthro import AnthropometricModel, PersonSample, default_model, model_from_config, model_to_config
from .datamodel import (
    CameraParams,
    FrameAnnotation,
    Keypoint,
    PersonAnnotation,
    TriMesh,
)
from .densitymap import nearest_pixel
from .parallel import parallel_map
from .rng import SplitMix64, mix_seed

SPLIT_NAMES = ("train", "val", "test")


class PlacementError(RuntimeError):
    pass


class BodyBuildError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Pinhole projection
# ---------------------------------------------------------------------------

def project(point_m, camera: CameraParams) -> tuple[float, float]:
    """Project a world point through the pinhole camera, origin top-left."""
    p = camera.rotation @ np.asarray(point_m, dtype=np.float64) + camera.translation
    if p[2] <= 0:
        raise ValueError(f"point {point_m} is behind the camera (z={p[2]})")
    return (
        float(camera.fx * p[0] / p[2] + camera.cx),
        float(camera.fy * p[1] / p[2] + camera.cy),
    )


def _project_many(points: np.ndarray, camera: CameraParams) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized projection; returns (pixels (n,2), depths (n,))."""
    p = points @ camera.rotation.T + camera.translation
    z = p[:, 2]
    if (z <= 0).any():
        raise ValueError("point behind the camera")
    px = np.stack([camera.fx * p[:, 0] / z + camera.cx, camera.fy * p[:, 1] / z + camera.cy], axis=1)
    return px, z


def look_at_camera(eye, target, fx: float, fy: float, cx: float, cy: float) -> CameraParams:
    """World-to-camera pose for a camera at `eye` looking at `target`,
    x right, y down, z forward."""
    eye = np.asarray(eye, dtype=np.float64)
    forward = np.asarray(target, dtype=np.float64) - eye
    forward = forward / np.linalg.norm(forward)
    up = np.array([0.0, 0.0, 1.0])
    if abs(float(forward @ up)) > 0.999:
        up = np.array([0.0, 1.0, 0.0])
    right = np.cross(forward, up)
    right = right / np.linalg.norm(right)
    down = np.cross(forward, right)
    rotation = np.stack([right, down, forward], axis=0)
    return CameraParams(fx=fx, fy=fy, cx=cx, cy=cy, rotation=rotation, translation=-(rotation @ eye))


# ---------------------------------------------------------------------------
# Humanoid body proxy
# ---------------------------------------------------------------------------

# Stack order (bottom to top) and per-part height fractions; fractions sum to 1.
_STACK = (
    (8, 0.26),   # calves
    (6, 0.11),   # left_thigh
    (7, 0.11),   # right_thigh
    (1, 0.30),   # torso
    (2, 0.035),  # left_arm
    (4, 0.035),  # left_forearm
    (3, 0.035),  # right_arm
    (5, 0.035),  # right_forearm
    (0, 0.08),   # head
)

# Base radii as fractions of body height, before the volume-target solve.
_BASE_RADII = {8: 0.048, 6: 0.062, 7: 0.062, 1: 0.105, 2: 0.055, 4: 0.047, 3: 0.055, 5: 0.047, 0: 0.058}

_RING_SIDES = 24
# Ring radii are inflated so the polygon area equals the circle area, making
# prism volumes match the circular closed forms exactly.
_AREA_FIX = math.sqrt((2.0 * math.pi / _RING_SIDES) / math.sin(2.0 * math.pi / _RING_SIDES))
_BOUNDARY_BAND = 1e-3  # meters between a boundary ring and the next part's first ring

# Keypoint anchors as (x, z) fractions of body height in the body frame
# (x lateral, y forward, z up, feet at the origin).
_ANCHORS = {
    0: (0.0, 0.99),     # head_top
    1: (0.0, 0.89),     # chin
    2: (0.0, 0.855),    # neck
    3: (0.0, 0.78),     # spine_top
    4: (0.0, 0.70),     # spine_mid
    5: (0.0, 0.62),     # spine_low
    6: (0.0, 0.53),     # pelvis
    7: (-0.11, 0.82),   # l_shoulder
    8: (-0.14, 0.63),   # l_elbow
    9: (0.11, 0.82),    # r_shoulder
    10: (0.14, 0.63),   # r_elbow
    11: (-0.15, 0.44),  # l_wrist
    12: (0.15, 0.44),   # r_wrist
    13: (-0.06, 0.50),  # l_hip
    14: (0.06, 0.50),   # r_hip
    15: (-0.055, 0.27), # l_knee
    16: (0.055, 0.27),  # r_knee
}
_HEAD_CENTER_FRAC = 0.95

_KEYPOINT_PART = {kp: pid for pid, kps in {
    0: (0, 1), 1: (2, 3, 4, 5, 6), 2: (7, 8), 3: (9, 10),
    4: (11,), 5: (12,), 6: (13,), 7: (14,), 8: (15, 16),
}.items() for kp in kps}


def _frustum_volume(r0: float, r1: float, h: float) -> float:
    return math.pi * h * (r0 * r0 + r0 * r1 + r1 * r1) / 3.0


@dataclass(frozen=True)
class Humanoid:
    """Body proxy: labeled watertight mesh, closed-form part volumes (dm^3),
    keypoint anchors in the body frame, and a personal-space disc radius.

    `solids` holds each part's frusta as (z0, z1, r0, r1) tuples in meters;
    their closed forms are what part_volumes_dm3 is computed from."""

    mesh: TriMesh
    solids: dict[int, tuple[tuple[float, float, float, float], ...]]
    part_volumes_dm3: dict[int, float]
    total_volume_dm3: float
    anchors: dict[int, np.ndarray]
    head_anchor: np.ndarray
    disc_radius_m: float
    height_m: float


def build_humanoid(sample: PersonSample, seed: int) -> Humanoid:
    """Solve the stack's radii to hit the sample's volume and mesh it.

    The per-part radii get a seeded jitter so bodies of equal mass still
    differ; a common factor then scales all radii so the closed-form total
    equals the target volume.
    """
    stream = SplitMix64(seed)
    height = sample.height_m
    target_m3 = sample.volume_dm3 / 1000.0

    radii = {}
    for pid, _ in _STACK:
        jitter = 1.0 + 0.10 * (stream.uniform() - 0.5)
        radii[pid] = _BASE_RADII[pid] * height * jitter

    bounds = []
    z_acc = 0.0
    for _, frac in _STACK:
        z_acc += frac * height
        bounds.append(z_acc)

    # Labeled ring profile. Each part contributes two rings; the ring sitting
    # exactly on a part boundary belongs to the smaller part id of the pair,
    # matching the one-sided frontier that split_parts fits its plane to. The
    # short transition band between parts then falls on the split plane's
    # other side, exactly as the per-interval closed forms assume.
    def profile_for(scale: float) -> list[tuple[float, float, int]]:
        rings: list[tuple[float, float, int]] = []
        for idx, (pid, _) in enumerate(_STACK):
            r = radii[pid] * scale
            z0 = bounds[idx - 1] if idx else 0.0
            z1 = bounds[idx]
            if idx == 0 or min(pid, _STACK[idx - 1][0]) == pid:
                rings.append((z0, r, pid))
            else:
                rings.append((z0 + _BOUNDARY_BAND, r, pid))
            if idx == len(_STACK) - 1 or min(pid, _STACK[idx + 1][0]) == pid:
                rings.append((z1, r, pid))
            else:
                rings.append((z1 - _BOUNDARY_BAND, r, pid))
        return rings

    def part_solids(scale: float) -> dict[int, tuple[tuple[float, float, float, float], ...]]:
        rings = profile_for(scale)
        out: dict[int, list[tuple[float, float, float, float]]] = {pid: [] for pid, _ in _STACK}
        part_idx = 0
        for (z0, r0, _), (z1, r1, _) in zip(rings[:-1], rings[1:]):
            while z1 > bounds[part_idx] + 1e-12:
                part_idx += 1
            out[_STACK[part_idx][0]].append((z0, z1, r0, r1))
        return {pid: tuple(solids) for pid, solids in out.items()}

    def analytic_parts(scale: float) -> dict[int, float]:
        return {
            pid: math.fsum(_frustum_volume(r0, r1, z1 - z0) for z0, z1, r0, r1 in solids)
            for pid, solids in part_solids(scale).items()
        }

    base_total = math.fsum(analytic_parts(1.0).values())
    scale_sq = target_m3 / base_total
    if not 0.16 <= scale_sq <= 6.25:
        raise BodyBuildError(
            f"target volume {sample.volume_dm3:.1f} dm3 unreachable for height {height:.2f} m"
        )
    scale = math.sqrt(scale_sq)
    parts_m3 = analytic_parts(scale)

    # Round the total to float32 so a sigma=0 density map stores it losslessly,
    # then close the parts onto the rounded total.
    raw_total_dm3 = math.fsum(v * 1000.0 for v in parts_m3.values())
    total_dm3 = float(np.float32(raw_total_dm3))
    fix = total_dm3 / raw_total_dm3
    part_volumes = {pid: v * 1000.0 * fix for pid, v in parts_m3.items()}

    mesh = _mesh_from_profile(profile_for(scale))
    anchors = {}
    for kp_id, (fx, fz) in _ANCHORS.items():
        jx = 0.01 * height * (stream.uniform() - 0.5)
        jy = 0.01 * height * (stream.uniform() - 0.5)
        anchors[kp_id] = np.array([fx * height + jx, jy, fz * height])
    disc = max(radii.values()) * scale * _AREA_FIX + 0.06
    return Humanoid(
        mesh=mesh,
        solids=part_solids(scale),
        part_volumes_dm3=part_volumes,
        total_volume_dm3=total_dm3,
        anchors=anchors,
        head_anchor=np.array([0.0, 0.0, _HEAD_CENTER_FRAC * height]),
        disc_radius_m=disc,
        height_m=height,
    )


def _mesh_from_profile(profile: list[tuple[float, float, int]]) -> TriMesh:
    """Closed surface of revolution over the labeled (z, radius, part) rings."""
    n = _RING_SIDES
    angles = 2.0 * math.pi * np.arange(n) / n
    cos_a, sin_a = np.cos(angles), np.sin(angles)

    vertices: list[np.ndarray] = []
    labels: list[int] = []
    ring_start: list[int] = []
    for z, r, pid in profile:
        ring_start.append(len(vertices))
        rr = r * _AREA_FIX
        for j in range(n):
            vertices.append(np.array([rr * cos_a[j], rr * sin_a[j], z]))
            labels.append(pid)

    faces: list[tuple[int, int, int]] = []
    for (a0, b0) in zip(ring_start[:-1], ring_start[1:]):
        for j in range(n):
            k = (j + 1) % n
            faces.append((a0 + j, a0 + k, b0 + k))
            faces.append((a0 + j, b0 + k, b0 + j))

    bottom_center = len(vertices)
    vertices.append(np.array([0.0, 0.0, profile[0][0]]))
    labels.append(profile[0][2])
    top_center = len(vertices)
    vertices.append(np.array([0.0, 0.0, profile[-1][0]]))
    labels.append(profile[-1][2])
    first, last = ring_start[0], ring_start[-1]
    for j in range(n):
        k = (j + 1) % n
        faces.append((bottom_center, first + k, first + j))
        faces.append((top_center, last + j, last + k))

    return TriMesh(
        vertices=np.asarray(vertices),
        faces=np.asarray(faces, dtype=np.int64),
        vertex_labels=np.asarray(labels, dtype=np.int64),
    )


# ---------------------------------------------------------------------------
# Scene configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SceneConfig:
    image_w: int = 640
    image_h: int = 480
    focal_range: tuple[float, float] = (520.0, 760.0)
    persons_range: tuple[int, int] = (1, 8)
    area_w: float = 4.0  # ground rectangle width, meters (x axis)
    area_d: float = 8.0  # ground rectangle depth, meters (y axis)
    area_y0: float = 5.0  # near edge of the rectangle in front of the camera
    tag_probs: tuple[tuple[str, float], ...] = (
        ("birds_eye", 0.2),
        ("night", 0.2),
        ("rain", 0.15),
        ("heavy_occlusion", 0.1),
    )
    frames_per_split: tuple[tuple[str, int], ...] = (("train", 30), ("val", 10), ("test", 10))
    pool_sizes: tuple[tuple[str, int], ...] = (("train", 50), ("val", 8), ("test", 16))
    sigma_px: float = 4.0
    truncation_radius: float = 4.0
    model: AnthropometricModel | None = None  # None selects the shipped default

    def __post_init__(self):
        if self.model is None:
            object.__setattr__(self, "model", default_model())
        n_min, n_max = self.persons_range
        if n_min < 0 or n_min > n_max:
            raise ValueError(f"bad persons_range {self.persons_range}")
        if not (self.area_w > 0 and self.area_d > 0):
            raise ValueError("placement area must be positive")

    def frames_for(self, split: str) -> int:
        return dict(self.frames_per_split)[split]

    def pool_for(self, split: str) -> int:
        return dict(self.pool_sizes)[split]


def scene_config_to_pairs(cfg: SceneConfig) -> dict[str, str]:
    pairs = {
        "image_w": str(cfg.image_w),
        "image_h": str(cfg.image_h),
        "focal.lo": repr(cfg.focal_range[0]),
        "focal.hi": repr(cfg.focal_range[1]),
        "persons.min": str(cfg.persons_range[0]),
        "persons.max": str(cfg.persons_range[1]),
        "area.w": repr(cfg.area_w),
        "area.d": repr(cfg.area_d),
        "area.y0": repr(cfg.area_y0),
        "sigma_px": repr(cfg.sigma_px),
        "truncation_radius": repr(cfg.truncation_radius),
    }
    for tag, p in cfg.tag_probs:
        pairs[f"tag.{tag}"] = repr(p)
    for split, count in cfg.frames_per_split:
        pairs[f"frames.{split}"] = str(count)
    for split, count in cfg.pool_sizes:
        pairs[f"pool.{split}"] = str(count)
    pairs.update(model_to_config(cfg.model))
    return pairs


def scene_config_from_pairs(pairs: dict[str, str]) -> SceneConfig:
    base = SceneConfig()
    tag_probs = tuple(
        (tag, float(pairs.get(f"tag.{tag}", repr(p)))) for tag, p in base.tag_probs
    )
    frames = tuple(
        (split, int(pairs.get(f"frames.{split}", str(c)))) for split, c in base.frames_per_split
    )
    pools = tuple(
        (split, int(pairs.get(f"pool.{split}", str(c)))) for split, c in base.pool_sizes
    )
    model = model_from_config(pairs) if "male.mass.mu" in pairs else default_model()
    return SceneConfig(
        image_w=int(pairs.get("image_w", base.image_w)),
        image_h=int(pairs.get("image_h", base.image_h)),
        focal_range=(
            float(pairs.get("focal.lo", base.focal_range[0])),
            float(pairs.get("focal.hi", base.focal_range[1])),
        ),
        persons_range=(
            int(pairs.get("persons.min", base.persons_range[0])),
            int(pairs.get("persons.max", base.persons_range[1])),
        ),
        area_w=float(pairs.get("area.w", base.area_w)),
        area_d=float(pairs.get("area.d", base.area_d)),
        area_y0=float(pairs.get("area.y0", base.area_y0)),
        tag_probs=tag_probs,
        frames_per_split=frames,
        pool_sizes=pools,
        sigma_px=float(pairs.get("sigma_px", base.sigma_px)),
        truncation_radius=float(pairs.get("truncation_radius", base.truncation_radius)),
        model=model,
    )


# ---------------------------------------------------------------------------
# Identity pools
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Character:
    character_id: str
    sample: PersonSample
    body: Humanoid


@dataclass(frozen=True)
class IdentityPool:
    split: str
    split_index: int
    characters: tuple[Character, ...]


def build_identity_pools(cfg: SceneConfig, seed: int) -> dict[str, IdentityPool]:
    """Disjoint character sets per split, anthropometrics drawn once."""
    from .anthro import sample_population

    sizes = [cfg.pool_for(s) for s in SPLIT_NAMES]
    samples = sample_population(cfg.model, sum(sizes), mix_seed(seed, 0xA0))
    pools: dict[str, IdentityPool] = {}
    offset = 0
    for split_index, (split, size) in enumerate(zip(SPLIT_NAMES, sizes)):
        characters = []
        for i in range(size):
            idx = offset + i
            char_id = f"c{idx:04d}"
            body = build_humanoid(samples[idx], mix_seed(seed, 0xB0, idx))
            characters.append(Character(character_id=char_id, sample=samples[idx], body=body))
        pools[split] = IdentityPool(split=split, split_index=split_index, characters=tuple(characters))
        offset += size
    return pools


# ---------------------------------------------------------------------------
# Frame generation
# ---------------------------------------------------------------------------

def _draw_tags(cfg: SceneConfig, rng: SplitMix64) -> frozenset[str]:
    probs = dict(cfg.tag_probs)
    tags: set[str] = set()
    if rng.uniform() < probs.get("birds_eye", 0.0):
        tags.add("birds_eye")
    else:
        for tag in ("night", "rain", "heavy_occlusion"):
            if rng.uniform() < probs.get(tag, 0.0):
                tags.add(tag)
    return frozenset(tags)


def _draw_camera(cfg: SceneConfig, rng: SplitMix64, birds_eye: bool) -> CameraParams:
    fx = cfg.focal_range[0] + (cfg.focal_range[1] - cfg.focal_range[0]) * rng.uniform()
    cx = cfg.image_w / 2.0 + 8.0 * (rng.uniform() - 0.5)
    cy = cfg.image_h / 2.0 + 8.0 * (rng.uniform() - 0.5)
    mid_y = cfg.area_y0 + cfg.area_d / 2.0
    if birds_eye:
        eye = (
            0.6 * (rng.uniform() - 0.5),
            mid_y + 0.6 * (rng.uniform() - 0.5),
            13.0 + 3.0 * rng.uniform(),
        )
        target = (eye[0], eye[1], 0.0)
    else:
        eye = (
            0.8 * (rng.uniform() - 0.5),
            -1.5 + 0.6 * (rng.uniform() - 0.5),
            1.6 + 1.0 * rng.uniform(),
        )
        target = (0.4 * (rng.uniform() - 0.5), mid_y, 0.9)
    return look_at_camera(eye, target, fx=fx, fy=fx, cx=cx, cy=cy)


def _yaw_matrix(yaw: float) -> np.ndarray:
    c, s = math.cos(yaw), math.sin(yaw)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


_MAX_PLACE_ATTEMPTS = 200


def generate_frame(cfg: SceneConfig, pool: IdentityPool, seed: int, frame_idx: int) -> FrameAnnotation:
    """One annotated frame, a pure function of (cfg, pool, seed, frame_idx)."""
    if not pool.characters:
        raise ValueError(f"identity pool for split {pool.split!r} is empty")
    rng = SplitMix64(mix_seed(seed, 0xF0 + pool.split_index, frame_idx))
    frame_id = f"{pool.split}_{frame_idx:05d}"
    tags = _draw_tags(cfg, rng)
    camera = _draw_camera(cfg, rng, "birds_eye" in tags)
    n = rng.randint(cfg.persons_range[0], cfg.persons_range[1])

    placed: list[tuple[Character, np.ndarray, float]] = []  # (char, position, yaw)
    head_pixels: set[tuple[int, int]] = set()
    heads_px: list[tuple[float, float]] = []
    for _ in range(n):
        char = pool.characters[rng.randint(0, len(pool.characters) - 1)]
        for attempt in range(_MAX_PLACE_ATTEMPTS):
            pos = np.array([
                (rng.uniform() - 0.5) * cfg.area_w,
                cfg.area_y0 + rng.uniform() * cfg.area_d,
                0.0,
            ])
            yaw = 2.0 * math.pi * rng.uniform()
            if any(
                float(np.hypot(pos[0] - q[0], pos[1] - q[1])) < char.body.disc_radius_m + c2.body.disc_radius_m
                for c2, q, _ in placed
            ):
                continue
            try:
                head = project(_yaw_matrix(yaw) @ char.body.head_anchor + pos, camera)
            except ValueError:
                continue
            if not (0 <= head[0] < cfg.image_w and 0 <= head[1] < cfg.image_h):
                continue
            pixel = (nearest_pixel(head[0], cfg.image_w), nearest_pixel(head[1], cfg.image_h))
            if pixel in head_pixels:
                continue
            head_pixels.add(pixel)
            heads_px.append(head)
            placed.append((char, pos, yaw))
            break
        else:
            raise PlacementError(
                f"frame {frame_id}: could not place {n} persons after "
                f"{_MAX_PLACE_ATTEMPTS} attempts; reduce persons_range or enlarge the area"
            )

    # Project meshes and anchors; bbox from mesh extrema, clipped to the image.
    bboxes: list[tuple[float, float, float, float]] = []
    depths: list[float] = []
    kp_world: list[dict[int, np.ndarray]] = []
    for char, pos, yaw in placed:
        rot = _yaw_matrix(yaw)
        world_vertices = char.body.mesh.vertices @ rot.T + pos
        try:
            px, _ = _project_many(world_vertices, camera)
        except ValueError as exc:
            raise PlacementError(
                f"frame {frame_id}: a body extends behind the camera; "
                f"move the placement area away from the camera ({exc})"
            ) from exc
        x0 = max(0.0, float(px[:, 0].min()))
        y0 = max(0.0, float(px[:, 1].min()))
        x1 = min(float(cfg.image_w), float(px[:, 0].max()))
        y1 = min(float(cfg.image_h), float(px[:, 1].max()))
        bboxes.append((x0, y0, x1, y1))
        center = rot @ np.array([0.0, 0.0, 0.5 * char.body.height_m]) + pos
        depths.append(float((camera.rotation @ center + camera.translation)[2]))
        kp_world.append({kp: rot @ anchor + pos for kp, anchor in char.body.anchors.items()})

    persons = []
    for i, (char, pos, yaw) in enumerate(placed):
        keypoints = []
        for kp_id in sorted(kp_world[i]):
            world = kp_world[i][kp_id]
            cam_pt = camera.rotation @ world + camera.translation
            if cam_pt[2] <= 0:
                keypoints.append(Keypoint(x=-1.0, y=-1.0, part_id=_KEYPOINT_PART[kp_id], visible=False))
                continue
            x = float(camera.fx * cam_pt[0] / cam_pt[2] + camera.cx)
            y = float(camera.fy * cam_pt[1] / cam_pt[2] + camera.cy)
            visible = 0 <= x < cfg.image_w and 0 <= y < cfg.image_h
            if visible:
                depth = float(cam_pt[2])
                for j, (bx0, by0, bx1, by1) in enumerate(bboxes):
                    if j != i and depths[j] < depth and bx0 <= x <= bx1 and by0 <= y <= by1:
                        visible = False
                        break
            keypoints.append(Keypoint(x=x, y=y, part_id=_KEYPOINT_PART[kp_id], visible=visible))
        persons.append(
            PersonAnnotation(
                person_id=f"{frame_id}_p{i:03d}",
                character_id=char.character_id,
                head_px=heads_px[i],
                bbox_px=bboxes[i],
                volume_dm3=char.body.total_volume_dm3,
                part_volumes_dm3=dict(char.body.part_volumes_dm3),
                keypoints=tuple(keypoints),
            )
        )
    return FrameAnnotation(
        frame_id=frame_id,
        image_w=cfg.image_w,
        image_h=cfg.image_h,
        persons=tuple(persons),
        scene_tags=tags,
        camera=camera,
    )


def generate_split(cfg: SceneConfig, pool: IdentityPool, seed: int, workers: int = 1) -> list[FrameAnnotation]:
    return parallel_map(generate_frame, (cfg, pool, seed), range(cfg.frames_for(pool.split)), workers)


def generate_dataset(cfg: SceneConfig, seed: int, workers: int = 1) -> dict[str, list[FrameAnnotation]]:
    """Generate all splits with pairwise-disjoint character identities."""
    pools = build_identity_pools(cfg, seed)
    return {split: generate_split(cfg, pools[split], seed, workers) for split in SPLIT_NAMES}
