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
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .anthro import AnthropometricModel, PersonSample, build_model, default_model, model_to_config
from .datamodel import (
    CameraParams,
    FrameAnnotation,
    Keypoint,
    PersonAnnotation,
    TriMesh,
    ValidationError,
    config_getter,
    default_taxonomy,
)
from .densitymap import nearest_pixel
from .parallel import parallel_map
from .rng import SplitMix64, mix_seed

SPLIT_NAMES = ("train", "val", "test")


class PlacementError(RuntimeError):
    exit_code = 3  # of the crowdvol command line


class BodyBuildError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Pinhole projection
# ---------------------------------------------------------------------------

def _rigid(rotation: np.ndarray, points: np.ndarray, translation: np.ndarray) -> np.ndarray:
    """`rotation @ p + translation` for each row p of `points` (n, 3).

    numpy's stacked matmul computes every row with the same BLAS
    matrix-vector call as a single `rotation @ p`, so each row is bit-equal
    to transforming that point alone; `points @ rotation.T` and einsum round
    differently."""
    return np.matmul(rotation[None], points[:, :, None])[:, :, 0] + translation


def _pinhole(cam: np.ndarray, camera: CameraParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pixel x, pixel y and depth of camera-frame points (n, 3), origin
    top-left; points at depth <= 0 get pixel (-1, -1)."""
    z = cam[:, 2]
    front = z > 0
    z_front = np.where(front, z, 1.0)
    x = camera.fx * cam[:, 0] / z_front + camera.cx
    y = camera.fy * cam[:, 1] / z_front + camera.cy
    if not front.all():
        x[~front] = -1.0
        y[~front] = -1.0
    return x, y, z


def _body_pose(camera: CameraParams, x: float, y: float, yaw: float) -> tuple[np.ndarray, np.ndarray]:
    """Rotation and translation taking the body frame of a person standing
    at ground point (x, y), turned by `yaw` about the vertical, into the
    camera frame."""
    c, s = math.cos(yaw), math.sin(yaw)
    yaw_rotation = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return camera.rotation @ yaw_rotation, camera.rotation @ np.array([x, y, 0.0]) + camera.translation


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
# (x lateral, y forward, z up, feet at the origin), in keypoint id order.
_ANCHORS = (
    (0.0, 0.99),     # 0 head_top
    (0.0, 0.89),     # 1 chin
    (0.0, 0.855),    # 2 neck
    (0.0, 0.78),     # 3 spine_top
    (0.0, 0.70),     # 4 spine_mid
    (0.0, 0.62),     # 5 spine_low
    (0.0, 0.53),     # 6 pelvis
    (-0.11, 0.82),   # 7 l_shoulder
    (-0.14, 0.63),   # 8 l_elbow
    (0.11, 0.82),    # 9 r_shoulder
    (0.14, 0.63),    # 10 r_elbow
    (-0.15, 0.44),   # 11 l_wrist
    (0.15, 0.44),    # 12 r_wrist
    (-0.06, 0.50),   # 13 l_hip
    (0.06, 0.50),    # 14 r_hip
    (-0.055, 0.27),  # 15 l_knee
    (0.055, 0.27),   # 16 r_knee
)
_HEAD_CENTER_FRAC = 0.95

def _frustum_volume(r0: float, r1: float, h: float) -> float:
    return math.pi * h * (r0 * r0 + r0 * r1 + r1 * r1) / 3.0


@dataclass(frozen=True)
class Humanoid:
    """Body proxy: labeled watertight mesh, closed-form part volumes (dm^3),
    keypoint anchors in the body frame, and a personal-space disc radius.

    `solids` holds each part's frusta as (z0, z1, r0, r1) tuples in meters;
    their closed forms are what part_volumes_dm3 is computed from. `anchors`
    is a (17, 3) array, row k the anchor of keypoint k."""

    mesh: TriMesh
    solids: dict[int, tuple[tuple[float, float, float, float], ...]]
    part_volumes_dm3: dict[int, float]
    total_volume_dm3: float
    anchors: np.ndarray
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

    radii = {pid: _BASE_RADII[pid] * height * (1.0 + 0.10 * (stream.uniform() - 0.5)) for pid, _ in _STACK}
    bounds = list(accumulate(frac * height for _, frac in _STACK))

    # Labeled ring profile at the unscaled radii. Each part contributes two
    # rings; the ring sitting exactly on a part boundary belongs to the
    # smaller part id of the pair, matching the one-sided frontier that
    # split_parts fits its plane to. The short transition band between parts
    # then falls on the split plane's other side: the frustum between two
    # rings belongs to the larger part id of the pair, exactly as the
    # per-interval closed forms assume.
    rings: list[tuple[float, float, int]] = []
    for idx, (pid, _) in enumerate(_STACK):
        z0, z1 = bounds[idx - 1] if idx else 0.0, bounds[idx]
        lo = z0 if idx == 0 or pid < _STACK[idx - 1][0] else z0 + _BOUNDARY_BAND
        hi = z1 if idx == len(_STACK) - 1 or pid < _STACK[idx + 1][0] else z1 - _BOUNDARY_BAND
        rings += [(lo, radii[pid], pid), (hi, radii[pid], pid)]
    unit_solids: dict[int, list[tuple[float, float, float, float]]] = {pid: [] for pid, _ in _STACK}
    for (z0, r0, p0), (z1, r1, p1) in zip(rings[:-1], rings[1:]):
        unit_solids[max(p0, p1)].append((z0, z1, r0, r1))
    unit_m3 = {
        pid: math.fsum(_frustum_volume(r0, r1, z1 - z0) for z0, z1, r0, r1 in solids)
        for pid, solids in unit_solids.items()
    }

    scale_sq = target_m3 / math.fsum(unit_m3.values())
    if not 0.16 <= scale_sq <= 6.25:
        raise BodyBuildError(
            f"target volume {sample.volume_dm3:.1f} dm3 unreachable for height {height:.2f} m"
        )
    scale = math.sqrt(scale_sq)

    # A frustum's volume goes with the square of its radii. Round the total
    # to float32 so a sigma=0 density map stores it losslessly, then close
    # the parts onto the rounded total.
    parts_dm3 = {pid: v * scale_sq * 1000.0 for pid, v in unit_m3.items()}
    raw_total_dm3 = math.fsum(parts_dm3.values())
    total_dm3 = float(np.float32(raw_total_dm3))
    fix = total_dm3 / raw_total_dm3

    anchors = []
    for fx, fz in _ANCHORS:
        jx = 0.01 * height * (stream.uniform() - 0.5)
        jy = 0.01 * height * (stream.uniform() - 0.5)
        anchors.append((fx * height + jx, jy, fz * height))
    return Humanoid(
        mesh=_mesh_from_profile([(z, r * scale, pid) for z, r, pid in rings]),
        solids={
            pid: tuple((z0, z1, r0 * scale, r1 * scale) for z0, z1, r0, r1 in solids)
            for pid, solids in unit_solids.items()
        },
        part_volumes_dm3={pid: v * fix for pid, v in parts_dm3.items()},
        total_volume_dm3=total_dm3,
        anchors=np.array(anchors),
        head_anchor=np.array([0.0, 0.0, _HEAD_CENTER_FRAC * height]),
        disc_radius_m=max(radii.values()) * scale * _AREA_FIX + 0.06,
        height_m=height,
    )


def _mesh_from_profile(profile: list[tuple[float, float, int]]) -> TriMesh:
    """Closed surface of revolution over the labeled (z, radius, part) rings."""
    n = _RING_SIDES
    angles = 2.0 * math.pi * np.arange(n) / n
    z, r, pid = (np.array(column) for column in zip(*profile))
    rr = (r * _AREA_FIX)[:, None]
    rings = np.stack([rr * np.cos(angles), rr * np.sin(angles), np.repeat(z[:, None], n, axis=1)], axis=2)
    vertices = np.concatenate([rings.reshape(-1, 3), [[0.0, 0.0, z[0]], [0.0, 0.0, z[-1]]]])
    labels = np.concatenate([np.repeat(pid, n), pid[[0, -1]]])

    # Two triangles per ring pair and side, then a fan on each end cap.
    j, k = np.arange(n), (np.arange(n) + 1) % n
    a = n * np.arange(len(profile) - 1)[:, None]
    b, last, bottom = a + n, n * (len(profile) - 1), n * len(profile)
    sides = np.stack([a + j, a + k, b + k, a + j, b + k, b + j], axis=2).reshape(-1, 3)
    caps = np.stack([np.full(n, bottom), k, j, np.full(n, bottom + 1), last + j, last + k], axis=1).reshape(-1, 3)
    return TriMesh(vertices=vertices, faces=np.concatenate([sides, caps]), vertex_labels=labels)


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
    model: AnthropometricModel = field(default_factory=default_model)

    def __post_init__(self):
        if not (self.image_w > 0 and self.image_h > 0):
            raise ValidationError(f"image size must be positive, got {self.image_w}x{self.image_h}")
        lo, hi = self.focal_range
        if not 0 < lo <= hi < math.inf:
            raise ValidationError(f"focal range must satisfy 0 < lo <= hi, got {self.focal_range}")
        n_min, n_max = self.persons_range
        if n_min < 0 or n_min > n_max:
            raise ValidationError(f"bad persons_range {self.persons_range}")
        if not (0 < self.area_w < math.inf and 0 < self.area_d < math.inf):
            raise ValidationError("placement area must be positive and finite")
        if not math.isfinite(self.area_y0):
            raise ValidationError(f"area.y0 must be finite, got {self.area_y0}")
        for tag, p in self.tag_probs:
            if not 0.0 <= p <= 1.0:
                raise ValidationError(f"tag.{tag} must be a probability in [0, 1], got {p}")
        for prefix, counts in (("frames", self.frames_per_split), ("pool", self.pool_sizes)):
            for split, count in counts:
                if count < 0:
                    raise ValidationError(f"{prefix}.{split} must be >= 0, got {count}")

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
    }
    for tag, p in cfg.tag_probs:
        pairs[f"tag.{tag}"] = repr(p)
    for split, count in cfg.frames_per_split:
        pairs[f"frames.{split}"] = str(count)
    for split, count in cfg.pool_sizes:
        pairs[f"pool.{split}"] = str(count)
    pairs.update(model_to_config(cfg.model))
    return pairs


def scene_config_from_pairs(pairs: dict[str, str], source: str = "<config>") -> SceneConfig:
    """Scene config from key=value pairs; an absent key keeps its default.

    The keys are those of `scene_config_to_pairs`, model.cfg's among them;
    any other key, a value that does not parse or one out of range raises
    ValueError naming `source`."""
    base = SceneConfig()
    get = config_getter(pairs, scene_config_to_pairs(base), "scene", source)
    try:
        return SceneConfig(
            image_w=get("image_w", int),
            image_h=get("image_h", int),
            focal_range=(get("focal.lo", float), get("focal.hi", float)),
            persons_range=(get("persons.min", int), get("persons.max", int)),
            area_w=get("area.w", float),
            area_d=get("area.d", float),
            area_y0=get("area.y0", float),
            tag_probs=tuple((tag, get(f"tag.{tag}", float)) for tag, _ in base.tag_probs),
            frames_per_split=tuple((split, get(f"frames.{split}", int)) for split in SPLIT_NAMES),
            pool_sizes=tuple((split, get(f"pool.{split}", int)) for split in SPLIT_NAMES),
            model=build_model(get),
        )
    except ValidationError as exc:
        raise ValidationError(f"{source}: {exc}") from None


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


def build_identity_pools(cfg: SceneConfig, seed: int, all_bodies: bool = False) -> dict[str, IdentityPool]:
    """Disjoint character sets per split, anthropometrics drawn once.

    A split without frames gets an empty pool, so its bodies are never
    built, unless `all_bodies` is set; the other pools do not change."""
    from .anthro import sample_population

    sizes = [cfg.pool_for(s) for s in SPLIT_NAMES]
    samples = sample_population(cfg.model, sum(sizes), mix_seed(seed, 0xA0))
    pools: dict[str, IdentityPool] = {}
    offset = 0
    for split_index, (split, size) in enumerate(zip(SPLIT_NAMES, sizes)):
        characters = []
        for i in range(size if all_bodies or cfg.frames_for(split) else 0):
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


_MAX_PLACE_ATTEMPTS = 200


class _DiscGrid:
    """Placed ground discs hashed into square cells keyed by
    floor(coordinate / cell).

    A cell is a hair wider than the largest conflict distance r_i + r_j, so
    rounding in the distance or the division cannot put a conflicting pair
    two cells apart: a new disc need only be tested against the discs in its
    3x3 block of cells."""

    def __init__(self, max_radius_m: float):
        self.cell = 2.000001 * max_radius_m
        self.cells: dict[tuple[int, int], list[tuple[float, float, float]]] = {}

    def _key(self, x: float, y: float) -> tuple[int, int]:
        return math.floor(x / self.cell), math.floor(y / self.cell)

    def overlaps(self, x: float, y: float, r: float) -> bool:
        """Whether the disc at (x, y) with radius r cuts a placed disc."""
        gx, gy = self._key(x, y)
        for kx in (gx - 1, gx, gx + 1):
            for ky in (gy - 1, gy, gy + 1):
                for qx, qy, qr in self.cells.get((kx, ky), ()):
                    if float(np.hypot(x - qx, y - qy)) < r + qr:
                        return True
        return False

    def add(self, x: float, y: float, r: float) -> None:
        self.cells.setdefault(self._key(x, y), []).append((x, y, r))


def generate_frame(cfg: SceneConfig, pool: IdentityPool, seed: int, frame_idx: int) -> FrameAnnotation:
    """One annotated frame, a pure function of (cfg, pool, seed, frame_idx)."""
    if not pool.characters:
        raise ValueError(f"identity pool for split {pool.split!r} is empty")
    rng = SplitMix64(mix_seed(seed, 0xF0 + pool.split_index, frame_idx))
    frame_id = f"{pool.split}_{frame_idx:05d}"
    tags = _draw_tags(cfg, rng)
    camera = _draw_camera(cfg, rng, "birds_eye" in tags)
    n = rng.randint(cfg.persons_range[0], cfg.persons_range[1])

    placed: list[tuple[Character, np.ndarray, np.ndarray]] = []  # (char, body-to-camera rotation, translation)
    discs = _DiscGrid(max(c.body.disc_radius_m for c in pool.characters))
    head_pixels: set[tuple[int, int]] = set()
    heads_px: list[tuple[float, float]] = []
    for _ in range(n):
        char = pool.characters[rng.randint(0, len(pool.characters) - 1)]
        r = char.body.disc_radius_m
        for attempt in range(_MAX_PLACE_ATTEMPTS):
            x = (rng.uniform() - 0.5) * cfg.area_w
            y = cfg.area_y0 + rng.uniform() * cfg.area_d
            yaw = 2.0 * math.pi * rng.uniform()
            if discs.overlaps(x, y, r):
                continue
            rot, shift = _body_pose(camera, x, y, yaw)
            # A head behind the camera gets pixel (-1, -1), outside the image.
            hx, hy, _ = _pinhole(_rigid(rot, char.body.head_anchor[None], shift), camera)
            head = (float(hx[0]), float(hy[0]))
            if not (0 <= head[0] < cfg.image_w and 0 <= head[1] < cfg.image_h):
                continue
            pixel = (nearest_pixel(head[0], cfg.image_w), nearest_pixel(head[1], cfg.image_h))
            if pixel in head_pixels:
                continue
            head_pixels.add(pixel)
            heads_px.append(head)
            discs.add(x, y, r)
            placed.append((char, rot, shift))
            break
        else:
            raise PlacementError(
                f"frame {frame_id}: could not place {n} persons after "
                f"{_MAX_PLACE_ATTEMPTS} attempts; reduce persons_range or enlarge the area"
            )

    # One rigid transform and one pinhole per person take the mesh vertices
    # (the bbox is their extrema, clipped to the image), the keypoint anchors
    # and the body centre (the person's depth) into the image.
    bboxes: list[tuple[float, float, float, float]] = []
    depths: list[float] = []
    kp_pixels: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    for char, rot, shift in placed:
        body = char.body
        nv = len(body.mesh.vertices)
        points = np.concatenate([body.mesh.vertices, body.anchors, [[0.0, 0.0, 0.5 * body.height_m]]])
        x, y, z = _pinhole(_rigid(rot, points, shift), camera)
        if z[:nv].min() <= 0:
            raise PlacementError(
                f"frame {frame_id}: a body extends behind the camera; move the placement area away from the camera"
            )
        bboxes.append((
            max(0.0, float(x[:nv].min())),
            max(0.0, float(y[:nv].min())),
            min(float(cfg.image_w), float(x[:nv].max())),
            min(float(cfg.image_h), float(y[:nv].max())),
        ))
        depths.append(float(z[-1]))
        kp_pixels.append((x[nv:-1], y[nv:-1], z[nv:-1]))

    # A keypoint is hidden when it leaves the image or falls inside the bbox
    # of another person nearer to the camera.
    kp_part = {kp: pid for pid, kps in default_taxonomy().keypoint_map.items() for kp in kps}
    kp_parts = [kp_part[kp] for kp in range(len(_ANCHORS))]
    boxes = np.array(bboxes).reshape(-1, 4)
    box_depths = np.array(depths)
    persons = []
    for i, (char, _, _) in enumerate(placed):
        x, y, z = kp_pixels[i]
        visible = (0 <= x) & (x < cfg.image_w) & (0 <= y) & (y < cfg.image_h)
        xc, yc = x[:, None], y[:, None]
        covered = (
            (box_depths < z[:, None])
            & (boxes[:, 0] <= xc) & (xc <= boxes[:, 2])
            & (boxes[:, 1] <= yc) & (yc <= boxes[:, 3])
        )
        covered[:, i] = False
        visible &= ~covered.any(axis=1)
        keypoints = tuple(map(Keypoint._make, zip(x.tolist(), y.tolist(), kp_parts, visible.tolist())))
        persons.append(
            PersonAnnotation(
                person_id=f"{frame_id}_p{i:03d}",
                character_id=char.character_id,
                head_px=heads_px[i],
                bbox_px=bboxes[i],
                volume_dm3=char.body.total_volume_dm3,
                part_volumes_dm3=dict(char.body.part_volumes_dm3),
                keypoints=keypoints,
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
