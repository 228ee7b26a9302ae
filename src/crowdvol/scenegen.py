"""Deterministic synthesis of desk-scale annotated crowd scenes.

Bodies are stylized humanoids built from a vertical stack of solids of
revolution, one per body part. The stack gives every part a closed-form
volume, a strictly planar boundary ring toward each neighbor, and a
path-shaped part adjacency, so mesh-derived part volumes can be checked
against the closed forms exactly. The same stack places the keypoints: each
lies on the body axis inside its own part's height band, so it projects
inside its person's bbox.

Everything is a pure function of (config, seed): frames may be generated in
parallel without changing a single output byte.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, repeat

import numpy as np

from .anthro import AnthropometricModel, PersonSample, build_model
from .datamodel import (
    CameraParams,
    FrameAnnotation,
    Keypoint,
    PersonAnnotation,
    TriMesh,
    ValidationError,
    config_getter,
    default_config,
    default_taxonomy,
)
from .densitymap import BoxGrid, nearest_pixel
from .parallel import parallel_map
from .rng import SplitMix64, mix_seed

SPLIT_NAMES = ("train", "val", "test")


class PlacementError(ValueError):
    exit_code = 3  # of the crowdvol command line


# ---------------------------------------------------------------------------
# Pinhole projection
# ---------------------------------------------------------------------------

_ORIGIN = (0.0, 0.0, 0.0)


def _rigid(rotation, point, translation) -> list:
    """`rotation @ point + translation`, each coordinate summed in one fixed
    order: ((p0*r0 + p1*r1) + p2*r2) + t, for the rotation row (r0, r1, r2).

    An entry may be a float or a numpy array, and arrays broadcast. Python
    floats and numpy ufuncs round this arithmetic alike, so a point's bits do
    not depend on how many points share the call, nor on the BLAS kernel or
    its thread count, as a matrix product's do."""
    p0, p1, p2 = point
    return [((p0 * r0 + p1 * r1) + p2 * r2) + t for (r0, r1, r2), t in zip(rotation, translation)]


def _pinhole(camera: CameraParams, x, y, z) -> tuple:
    """Pixel x and y, origin top-left, of camera-frame coordinates at depth
    z > 0; floats or numpy arrays, rounded alike."""
    return camera.fx * x / z + camera.cx, camera.fy * y / z + camera.cy


def _body_pose(camera: CameraParams, x: float, y: float, yaw: float) -> tuple[tuple, list]:
    """Rotation rows and translation taking the body frame of a person
    standing at ground point (x, y), turned by `yaw` about the vertical, into
    the camera frame: the camera rotation times the yaw rotation, and the
    camera pose applied to the ground point."""
    c, s = math.cos(yaw), math.sin(yaw)
    rotation = tuple((r0 * c + r1 * s, r1 * c - r0 * s, r2) for r0, r1, r2 in camera.rotation)
    return rotation, _rigid(camera.rotation, (x, y, 0.0), camera.translation)


def _unit(v) -> tuple[float, float, float]:
    norm = math.sqrt(math.fsum(c * c for c in v))
    return tuple(c / norm for c in v)


def _cross(a, b) -> tuple[float, float, float]:
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def look_at_camera(eye, target, fx: float, fy: float, cx: float, cy: float) -> CameraParams:
    """World-to-camera pose for a camera at `eye` looking at `target`,
    x right, y down, z forward."""
    eye = tuple(float(v) for v in eye)
    forward = _unit([float(t) - e for t, e in zip(target, eye)])
    up = (0.0, 1.0, 0.0) if abs(forward[2]) > 0.999 else (0.0, 0.0, 1.0)  # forward[2]: forward · (0, 0, 1)
    right = _unit(_cross(forward, up))
    rotation = (right, _cross(forward, right), forward)
    return CameraParams(
        fx=fx, fy=fy, cx=cx, cy=cy,
        rotation=rotation, translation=[-v for v in _rigid(rotation, eye, _ORIGIN)],
    )


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

_HEAD_CENTER_FRAC = 0.95

def _frustum_volume(r0: float, r1: float, h: float) -> float:
    return math.pi * h * (r0 * r0 + r0 * r1 + r1 * r1) / 3.0


@dataclass(frozen=True)
class Humanoid:
    """Body proxy: labeled watertight mesh, closed-form part volumes (dm^3),
    keypoint anchors in the body frame, and a personal-space disc radius.

    `solids` holds each part's frusta as (z0, z1, r0, r1) tuples in meters;
    their closed forms are what part_volumes_dm3 is computed from. `anchors`
    is a (keypoints, 3) array, row k the anchor of keypoint k."""

    mesh: TriMesh
    solids: dict[int, tuple[tuple[float, float, float, float], ...]]
    part_volumes_dm3: dict[int, float]
    total_volume_dm3: float
    anchors: np.ndarray
    head_anchor: tuple[float, float, float]
    disc_radius_m: float
    height_m: float


def build_humanoid(sample: PersonSample, seed: int) -> Humanoid:
    """Solve the stack's radii to hit the sample's volume and mesh it.

    The per-part radii get a seeded jitter so bodies of equal mass still
    differ; a common factor then scales all radii so the closed-form total
    equals the target volume. The keypoints of each part of the taxonomy
    sit on the body axis, spread evenly over the part's height band from the
    top down in id order.
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
    keypoint_map = default_taxonomy().keypoint_map
    anchors = np.zeros((sum(map(len, keypoint_map.values())), 3))
    for idx, (pid, _) in enumerate(_STACK):
        z0, z1 = bounds[idx - 1] if idx else 0.0, bounds[idx]
        lo = z0 if idx == 0 or pid < _STACK[idx - 1][0] else z0 + _BOUNDARY_BAND
        hi = z1 if idx == len(_STACK) - 1 or pid < _STACK[idx + 1][0] else z1 - _BOUNDARY_BAND
        rings += [(lo, radii[pid], pid), (hi, radii[pid], pid)]
        kps = sorted(keypoint_map.get(pid, ()))
        for i, kp in enumerate(kps):
            anchors[kp, 2] = z1 - (i + 1) / (len(kps) + 1) * (z1 - z0)
    unit_solids: dict[int, list[tuple[float, float, float, float]]] = {pid: [] for pid, _ in _STACK}
    for (z0, r0, p0), (z1, r1, p1) in zip(rings[:-1], rings[1:]):
        unit_solids[max(p0, p1)].append((z0, z1, r0, r1))
    unit_m3 = {
        pid: math.fsum(_frustum_volume(r0, r1, z1 - z0) for z0, z1, r0, r1 in solids)
        for pid, solids in unit_solids.items()
    }

    scale_sq = target_m3 / math.fsum(unit_m3.values())
    if not 0.16 <= scale_sq <= 6.25:
        raise ValidationError(
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

    return Humanoid(
        mesh=_mesh_from_profile([(z, r * scale, pid) for z, r, pid in rings]),
        solids={
            pid: tuple((z0, z1, r0 * scale, r1 * scale) for z0, z1, r0, r1 in solids)
            for pid, solids in unit_solids.items()
        },
        part_volumes_dm3={pid: v * fix for pid, v in parts_dm3.items()},
        total_volume_dm3=total_dm3,
        anchors=anchors,
        head_anchor=(0.0, 0.0, _HEAD_CENTER_FRAC * height),
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
    """A scene; `scene_config_from_pairs({})` is the shipped one."""

    image_w: int
    image_h: int
    focal_range: tuple[float, float]
    persons_range: tuple[int, int]
    area_w: float  # ground rectangle width, meters (x axis)
    area_d: float  # ground rectangle depth, meters (y axis)
    area_y0: float  # near edge of the rectangle in front of the camera
    birds_eye_prob: float  # chance that a frame is tagged birds_eye and gets a top-down camera
    frames_per_split: dict[str, int]  # by split name, as are the pool sizes
    pool_sizes: dict[str, int]
    model: AnthropometricModel

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
        if not 0.0 <= self.birds_eye_prob <= 1.0:
            raise ValidationError(f"tag.birds_eye must be a probability in [0, 1], got {self.birds_eye_prob}")
        for prefix, counts in (("frames", self.frames_per_split), ("pool", self.pool_sizes)):
            for split, count in counts.items():
                if count < 0:
                    raise ValidationError(f"{prefix}.{split} must be >= 0, got {count}")


def scene_config_from_pairs(pairs: dict[str, str], source: str = "<config>",
                            read: dict[str, str] | None = None) -> SceneConfig:
    """The shipped scene.cfg and model.cfg with `pairs` overriding any of
    their keys. Any other key, a value that does not parse or one out of
    range raises ValueError naming `source`. A `read` dict receives every
    key's parsed value, as `config_getter` records it."""
    defaults = {**default_config("scene"), **default_config("model")}
    get = config_getter(pairs, defaults, "scene", source, read)
    try:
        return SceneConfig(
            image_w=get("image_w", int),
            image_h=get("image_h", int),
            focal_range=(get("focal.lo", float), get("focal.hi", float)),
            persons_range=(get("persons.min", int), get("persons.max", int)),
            area_w=get("area.w", float),
            area_d=get("area.d", float),
            area_y0=get("area.y0", float),
            birds_eye_prob=get("tag.birds_eye", float),
            frames_per_split={split: get(f"frames.{split}", int) for split in SPLIT_NAMES},
            pool_sizes={split: get(f"pool.{split}", int) for split in SPLIT_NAMES},
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
    characters: tuple[Character, ...]


def build_identity_pools(cfg: SceneConfig, seed: int, all_bodies: bool = False) -> dict[str, IdentityPool]:
    """Disjoint character sets per split, anthropometrics drawn once.

    A split without frames gets an empty pool, so its bodies are never
    built, unless `all_bodies` is set; the other pools do not change."""
    from .anthro import sample_population

    samples = sample_population(cfg.model, sum(cfg.pool_sizes.values()), mix_seed(seed, 0xA0))
    pools: dict[str, IdentityPool] = {}
    offset = 0
    for split in SPLIT_NAMES:
        characters = []
        for i in range(cfg.pool_sizes[split] if all_bodies or cfg.frames_per_split[split] else 0):
            idx = offset + i
            char_id = f"c{idx:04d}"
            body = build_humanoid(samples[idx], mix_seed(seed, 0xB0, idx))
            characters.append(Character(character_id=char_id, sample=samples[idx], body=body))
        pools[split] = IdentityPool(split=split, characters=tuple(characters))
        offset += cfg.pool_sizes[split]
    return pools


# ---------------------------------------------------------------------------
# Frame generation
# ---------------------------------------------------------------------------

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

# A frame is tagged heavy_occlusion when at least this share of its in-image
# keypoints is hidden. On the default scene at seeds 1-10 (data 0.6.0) it
# tags 60 of 500 frames (0.3 would tag 31); no bird's-eye frame there hides
# over 0.01. A dense crowd hides more: perfbench's dense scene tags every frame.
HEAVY_OCCLUSION_SHARE = 0.25


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
    rng = SplitMix64(mix_seed(seed, 0xF0 + SPLIT_NAMES.index(pool.split), frame_idx))
    frame_id = f"{pool.split}_{frame_idx:05d}"
    birds_eye = rng.uniform() < cfg.birds_eye_prob
    camera = _draw_camera(cfg, rng, birds_eye)
    n = rng.randint(cfg.persons_range[0], cfg.persons_range[1])

    placed: list[tuple[int, tuple, tuple]] = []  # (character index, body-to-camera rotation, translation)
    discs = _DiscGrid(max(c.body.disc_radius_m for c in pool.characters))
    head_pixels: set[tuple[int, int]] = set()
    heads_px: list[tuple[float, float]] = []
    for _ in range(n):
        index = rng.randint(0, len(pool.characters) - 1)
        body = pool.characters[index].body
        r = body.disc_radius_m
        for attempt in range(_MAX_PLACE_ATTEMPTS):
            x = (rng.uniform() - 0.5) * cfg.area_w
            y = cfg.area_y0 + rng.uniform() * cfg.area_d
            yaw = 2.0 * math.pi * rng.uniform()
            if discs.overlaps(x, y, r):
                continue
            rot, shift = _body_pose(camera, x, y, yaw)
            hx, hy, hz = _rigid(rot, body.head_anchor, shift)
            if hz <= 0:  # behind the camera
                continue
            head = _pinhole(camera, hx, hy, hz)
            if not (0 <= head[0] < cfg.image_w and 0 <= head[1] < cfg.image_h):
                continue
            pixel = (nearest_pixel(head[0], cfg.image_w), nearest_pixel(head[1], cfg.image_h))
            if pixel in head_pixels:
                continue
            head_pixels.add(pixel)
            heads_px.append(head)
            discs.add(x, y, r)
            placed.append((index, rot, shift))
            break
        else:
            raise PlacementError(
                f"frame {frame_id}: could not place {n} persons after "
                f"{_MAX_PLACE_ATTEMPTS} attempts; reduce persons_range or enlarge the area"
            )

    boxes, depths, kx, ky, kz = _project_bodies(cfg, pool, camera, placed, frame_id)
    kp_part = {kp: pid for pid, kps in default_taxonomy().keypoint_map.items() for kp in kps}
    kp_parts = [kp_part[kp] for kp in range(len(kp_part))]

    # A keypoint is hidden when it leaves the image or falls inside the bbox
    # of another person nearer to the camera.
    visible = (0 <= kx) & (kx < cfg.image_w) & (0 <= ky) & (ky < cfg.image_h)
    inside = np.flatnonzero(visible)
    hidden = _occluded(boxes, depths, kx.reshape(-1)[inside], ky.reshape(-1)[inside], kz.reshape(-1)[inside],
                       inside // len(kp_parts))
    visible.reshape(-1)[inside[hidden]] = False
    tags = {"birds_eye"} if birds_eye else set()
    if len(inside) and np.count_nonzero(hidden) / len(inside) >= HEAVY_OCCLUSION_SHARE:
        tags.add("heavy_occlusion")

    persons = []
    rows = zip(placed, boxes.tolist(), kx.tolist(), ky.tolist(), visible.tolist())
    for i, ((index, _, _), bbox, xs, ys, flags) in enumerate(rows):
        char = pool.characters[index]
        persons.append(
            PersonAnnotation(
                person_id=f"{frame_id}_p{i:03d}",
                character_id=char.character_id,
                head_px=heads_px[i],
                bbox_px=tuple(bbox),
                volume_dm3=char.body.total_volume_dm3,
                part_volumes_dm3=dict(char.body.part_volumes_dm3),
                keypoints=tuple(map(tuple.__new__, repeat(Keypoint), zip(xs, ys, kp_parts, flags))),
            )
        )
    return FrameAnnotation(
        frame_id=frame_id,
        image_w=cfg.image_w,
        image_h=cfg.image_h,
        persons=tuple(persons),
        scene_tags=frozenset(tags),
        camera=camera,
    )


def _project_bodies(cfg: SceneConfig, pool: IdentityPool, camera: CameraParams, placed, frame_id: str):
    """Bboxes (n, 4), depths (n,) and keypoint pixel x, y and depth
    (n, keypoints) of the placed persons.

    Each character's persons go through `_rigid` and `_pinhole` together, as
    (persons, points) arrays, so temporaries grow with one body and not with
    the frame. The points are the mesh vertices (the bbox is their extrema,
    clipped to the image), the keypoint anchors and the body centre (the
    person's depth). The anchors and the centre lie on the body axis between
    the two cap centres, and `_rigid`'s depth is monotone along that axis,
    so none of them is behind the camera when no mesh vertex is."""
    n, n_kp = len(placed), len(pool.characters[0].body.anchors)
    boxes, depths = np.empty((n, 4)), np.empty(n)
    kx, ky, kz = np.empty((n, n_kp)), np.empty((n, n_kp)), np.empty((n, n_kp))
    members: dict[int, list[int]] = {}
    for i, (index, _, _) in enumerate(placed):
        members.setdefault(index, []).append(i)
    for index, rows in members.items():
        body = pool.characters[index].body
        nv = body.mesh.n_vertices
        pose = np.array([[*rot[0], *rot[1], *rot[2], *shift] for _, rot, shift in map(placed.__getitem__, rows)])
        pose = pose.T[:, :, None]  # 12 columns of (persons, 1)
        points = np.concatenate([body.mesh.vertices, body.anchors, [[0.0, 0.0, 0.5 * body.height_m]]]).T
        x, y, z = _rigid((pose[0:3], pose[3:6], pose[6:9]), points, pose[9:12])
        if z[:, :nv].min() <= 0:
            raise PlacementError(
                f"frame {frame_id}: a body extends behind the camera; move the placement area away from the camera"
            )
        x, y = _pinhole(camera, x, y, z)
        boxes[rows] = np.column_stack([
            np.maximum(0.0, x[:, :nv].min(axis=1)),
            np.maximum(0.0, y[:, :nv].min(axis=1)),
            np.minimum(float(cfg.image_w), x[:, :nv].max(axis=1)),
            np.minimum(float(cfg.image_h), y[:, :nv].max(axis=1)),
        ])
        depths[rows] = z[:, -1]
        kx[rows], ky[rows], kz[rows] = x[:, nv:-1], y[:, nv:-1], z[:, nv:-1]
    return boxes, depths, kx, ky, kz


def _occluded(boxes: np.ndarray, depths: np.ndarray, kx, ky, kz, owner) -> np.ndarray:
    """Flags of the keypoints, given as flat arrays of in-image pixels with
    their depth and their person's index `owner`, that fall inside the bbox
    of another person nearer to the camera: `depths[j] < z`, four `<=`, and
    j not the owner. Only a `BoxGrid`'s candidate pairs are compared; they
    hold each keypoint with every box that holds it."""
    hidden = np.zeros(len(kx), dtype=bool)
    x0, y0, x1, y1 = boxes.T
    for kp, j in BoxGrid(boxes).point_pairs(kx, ky):
        x, y = kx[kp], ky[kp]
        hit = (depths[j] < kz[kp]) & (x0[j] <= x) & (x <= x1[j]) & (y0[j] <= y) & (y <= y1[j]) & (j != owner[kp])
        hidden[kp[hit]] = True
    return hidden


def generate_split(cfg: SceneConfig, pool: IdentityPool, seed: int, workers: int = 1) -> list[FrameAnnotation]:
    return parallel_map(generate_frame, (cfg, pool, seed), range(cfg.frames_per_split[pool.split]), workers)
