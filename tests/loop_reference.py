"""Loop implementations kept as oracles for the array code.

These are the per-pair, per-stamp and per-record versions that
`scenegen.generate_frame`, `densitymap._stamp_all` / `render_vdm` /
`render_ppvdm`, `evalharness.decoupling_eval`, `datamodel.read_obj` /
`read_vertex_labels` / `_person_from_dict`, `scenegen._mesh_from_profile`
and `meshvol.signed_volume` replaced:

- placement tests a new ground disc against every placed person;
- each mesh vertex, keypoint anchor and body centre goes through the
  person's body-to-camera pose and the pinhole alone, in Python floats, and
  each keypoint is tested against every other bbox;
- every stamp rebuilds its Gaussian kernel;
- every pair of boxes in a frame goes through `bbox_iou`;
- OBJ and labels files are parsed one record at a time;
- each stored keypoint becomes its own object;
- the humanoid mesh is built one vertex and one face at a time;
- each face's tetrahedron term is one triple product in Python floats.

The array versions must reproduce their outputs bit for bit, and the
readers their error messages. The keypoint part mapping is the hand-written
copy of `configs/taxonomy.cfg` that the generator used to carry.
"""
from __future__ import annotations

import math

import numpy as np

from crowdvol.datamodel import (
    DensityMap,
    FrameAnnotation,
    Keypoint,
    ParseError,
    PersonAnnotation,
    TriMesh,
    ValidationError,
    open_text,
)
from crowdvol.densitymap import SmoothingConfig, integrate, nearest_pixel
from crowdvol.evalharness import DecouplingReport, _frame_map
from crowdvol.rng import SplitMix64, mix_seed
from crowdvol.scenegen import (
    _AREA_FIX,
    _MAX_PLACE_ATTEMPTS,
    _RING_SIDES,
    HEAVY_OCCLUSION_SHARE,
    SPLIT_NAMES,
    PlacementError,
    _draw_camera,
)

KEYPOINT_PART = {kp: pid for pid, kps in {
    0: (0, 1), 1: (2, 3, 4, 5, 6), 2: (7, 8), 3: (9, 10),
    4: (11,), 5: (12,), 6: (13,), 7: (14,), 8: (15, 16),
}.items() for kp in kps}


def rigid(rotation, point, translation) -> list[float]:
    """`rotation @ point + translation` in Python floats, each coordinate
    ((r0*p0 + r1*p1) + r2*p2) + t."""
    return [((r[0] * point[0] + r[1] * point[1]) + r[2] * point[2]) + t for r, t in zip(rotation, translation)]


def body_pose(camera, x: float, y: float, yaw: float) -> tuple[list, list[float]]:
    """Body-to-camera rotation and translation: the camera rotation times
    the yaw about the vertical, and the camera pose applied to the ground
    point, as float matrix products."""
    c, s = math.cos(yaw), math.sin(yaw)
    cam = camera.rotation
    yaw_rotation = [[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]
    rotation = [
        [(cam[i][0] * yaw_rotation[0][j] + cam[i][1] * yaw_rotation[1][j]) + cam[i][2] * yaw_rotation[2][j]
         for j in range(3)]
        for i in range(3)
    ]
    return rotation, rigid(cam, [x, y, 0.0], camera.translation)


def pixel(cam_pt, camera) -> tuple[float, float]:
    """The pinhole pixel of one camera-frame point in front of the camera."""
    return (
        camera.fx * cam_pt[0] / cam_pt[2] + camera.cx,
        camera.fy * cam_pt[1] / cam_pt[2] + camera.cy,
    )


def disc_conflict(x: float, y: float, r: float, placed: list[tuple[float, float, float]]) -> bool:
    """The placement rule against every placed disc (x, y, r)."""
    return any(float(np.hypot(x - qx, y - qy)) < r + qr for qx, qy, qr in placed)


def generate_frame(cfg, pool, seed: int, frame_idx: int) -> FrameAnnotation:
    if not pool.characters:
        raise ValueError(f"identity pool for split {pool.split!r} is empty")
    rng = SplitMix64(mix_seed(seed, 0xF0 + SPLIT_NAMES.index(pool.split), frame_idx))
    frame_id = f"{pool.split}_{frame_idx:05d}"
    birds_eye = rng.uniform() < cfg.birds_eye_prob
    camera = _draw_camera(cfg, rng, birds_eye)
    n = rng.randint(cfg.persons_range[0], cfg.persons_range[1])

    placed = []  # (char, ground x, ground y, body-to-camera rotation, translation)
    head_pixels: set[tuple[int, int]] = set()
    heads_px: list[tuple[float, float]] = []
    for _ in range(n):
        char = pool.characters[rng.randint(0, len(pool.characters) - 1)]
        for attempt in range(_MAX_PLACE_ATTEMPTS):
            x = (rng.uniform() - 0.5) * cfg.area_w
            y = cfg.area_y0 + rng.uniform() * cfg.area_d
            yaw = 2.0 * math.pi * rng.uniform()
            if any(
                float(np.hypot(x - qx, y - qy)) < char.body.disc_radius_m + c2.body.disc_radius_m
                for c2, qx, qy, _, _ in placed
            ):
                continue
            rot, shift = body_pose(camera, x, y, yaw)
            head_cam = rigid(rot, char.body.head_anchor, shift)
            if head_cam[2] <= 0:
                continue
            head = pixel(head_cam, camera)
            if not (0 <= head[0] < cfg.image_w and 0 <= head[1] < cfg.image_h):
                continue
            px = (nearest_pixel(head[0], cfg.image_w), nearest_pixel(head[1], cfg.image_h))
            if px in head_pixels:
                continue
            head_pixels.add(px)
            heads_px.append(head)
            placed.append((char, x, y, rot, shift))
            break
        else:
            raise PlacementError(
                f"frame {frame_id}: could not place {n} persons after "
                f"{_MAX_PLACE_ATTEMPTS} attempts; reduce persons_range or enlarge the area"
            )

    bboxes: list[tuple[float, float, float, float]] = []
    depths: list[float] = []
    kp_cam: list[list[list[float]]] = []
    for char, _, _, rot, shift in placed:
        xs, ys = [], []
        for vertex in char.body.mesh.vertices.tolist():
            cam_pt = rigid(rot, vertex, shift)
            if cam_pt[2] <= 0:
                raise PlacementError(f"frame {frame_id}: a body extends behind the camera")
            vx, vy = pixel(cam_pt, camera)
            xs.append(vx)
            ys.append(vy)
        bboxes.append((max(0.0, min(xs)), max(0.0, min(ys)), min(float(cfg.image_w), max(xs)),
                       min(float(cfg.image_h), max(ys))))
        depths.append(rigid(rot, [0.0, 0.0, 0.5 * char.body.height_m], shift)[2])
        kp_cam.append([rigid(rot, anchor, shift) for anchor in char.body.anchors.tolist()])

    persons = []
    in_image = hidden = 0
    for i, (char, _, _, _, _) in enumerate(placed):
        keypoints = []
        for kp_id, cam_pt in enumerate(kp_cam[i]):
            x, y = pixel(cam_pt, camera)
            visible = 0 <= x < cfg.image_w and 0 <= y < cfg.image_h
            if visible:
                in_image += 1
                depth = cam_pt[2]
                for j, (bx0, by0, bx1, by1) in enumerate(bboxes):
                    if j != i and depths[j] < depth and bx0 <= x <= bx1 and by0 <= y <= by1:
                        visible = False
                        hidden += 1
                        break
            keypoints.append(Keypoint(x=x, y=y, part_id=KEYPOINT_PART[kp_id], visible=visible))
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
    tags = {"birds_eye"} if birds_eye else set()
    if in_image and hidden / in_image >= HEAVY_OCCLUSION_SHARE:
        tags.add("heavy_occlusion")
    return FrameAnnotation(
        frame_id=frame_id,
        image_w=cfg.image_w,
        image_h=cfg.image_h,
        persons=tuple(persons),
        scene_tags=frozenset(tags),
        camera=camera,
    )


def stamp(acc: np.ndarray, x: float, y: float, mass: float, cfg: SmoothingConfig) -> None:
    h, w = acc.shape
    ix = nearest_pixel(x, w)
    iy = nearest_pixel(y, h)
    if cfg.sigma_px == 0:
        acc[iy, ix] += mass
        return
    radius = int(math.ceil(cfg.truncation_radius * cfg.sigma_px))
    x0, x1 = max(0, ix - radius), min(w - 1, ix + radius)
    y0, y1 = max(0, iy - radius), min(h - 1, iy + radius)
    inv = 1.0 / (2.0 * cfg.sigma_px * cfg.sigma_px)
    ys = [math.exp(-(y - iy) * (y - iy) * inv) for y in range(y0, y1 + 1)]
    xs = [math.exp(-(x - ix) * (x - ix) * inv) for x in range(x0, x1 + 1)]
    kernel = np.outer(ys, xs)
    kernel /= kernel.sum()
    acc[y0 : y1 + 1, x0 : x1 + 1] += mass * kernel


def render_vdm(frame: FrameAnnotation, cfg: SmoothingConfig) -> DensityMap:
    acc = np.zeros((frame.image_h, frame.image_w), dtype=np.float64)
    for person in frame.persons:
        hx, hy = person.head_px
        stamp(acc, hx, hy, person.volume_dm3, cfg)
    return DensityMap(acc)


def render_ppvdm(frame: FrameAnnotation, taxonomy, cfg: SmoothingConfig) -> DensityMap:
    acc = np.zeros((frame.image_h, frame.image_w), dtype=np.float64)
    for person in frame.persons:
        hx, hy = person.head_px
        head_ok = 0 <= hx < frame.image_w and 0 <= hy < frame.image_h
        for part_id in taxonomy.part_ids:
            v_part = person.part_volumes_dm3.get(part_id, 0.0)
            if v_part == 0.0:
                continue
            anchors = [
                kp
                for kp in person.keypoints
                if kp.part_id == part_id
                and kp.visible
                and 0 <= kp.x < frame.image_w
                and 0 <= kp.y < frame.image_h
            ]
            if anchors:
                share = v_part / len(anchors)
                for kp in anchors:
                    stamp(acc, kp.x, kp.y, share, cfg)
            elif head_ok:
                stamp(acc, hx, hy, v_part, cfg)
            else:
                raise ValidationError(f"person {person.person_id!r}: part {part_id} has no anchor")
    return DensityMap(acc)


def bbox_iou(a, b) -> float:
    ix = max(0.0, min(a[2], b[2]) - max(a[0], b[0]))
    iy = max(0.0, min(a[3], b[3]) - max(a[1], b[1]))
    inter = ix * iy
    if inter <= 0:
        return 0.0
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    return inter / (area_a + area_b - inter)


def decoupling_eval(frames, pred_maps, min_volume_dm3: float = 10.0, iou_threshold: float = 0.0) -> DecouplingReport:
    errors: list[float] = []
    misses = 0
    dropped = 0
    total = 0
    for frame in frames:
        dmap = _frame_map(pred_maps, frame)
        boxes = [p.bbox_px for p in frame.persons]
        for i, person in enumerate(frame.persons):
            total += 1
            if any(bbox_iou(boxes[i], boxes[j]) > iou_threshold for j in range(len(boxes)) if j != i):
                dropped += 1
                continue
            v_hat = integrate(dmap, person.bbox_px)
            if v_hat < min_volume_dm3:
                misses += 1
            else:
                errors.append(abs(v_hat - person.volume_dm3))
    return DecouplingReport(
        ppmae=math.fsum(errors) / len(errors) if errors else math.nan,
        misses=misses,
        dropped_overlap=dropped,
        total_persons=total,
    )


def read_obj(path) -> TriMesh:
    vertices: list[tuple[float, float, float]] = []
    faces: list[tuple[int, int, int]] = []
    with open_text(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            if tokens[0] == "v":
                if len(tokens) != 4:
                    raise ParseError(f"{path}: bad vertex record at line {lineno}")
                try:
                    vertices.append((float(tokens[1]), float(tokens[2]), float(tokens[3])))
                except ValueError as exc:
                    raise ParseError(f"{path}: bad vertex record at line {lineno}") from exc
            elif tokens[0] == "f":
                if len(tokens) != 4:
                    raise ParseError(f"{path}: non-triangular face at line {lineno}")
                idx = []
                for tok in tokens[1:]:
                    head = tok.split("/")[0]
                    try:
                        i = int(head)
                    except ValueError as exc:
                        raise ParseError(f"{path}: bad face index at line {lineno}") from exc
                    if i < 1 or i > len(vertices):
                        raise ParseError(f"{path}: face index out of range at line {lineno}")
                    idx.append(i - 1)
                faces.append(tuple(idx))
            else:
                raise ParseError(f"{path}: unsupported record {tokens[0]!r} at line {lineno}")
    try:
        return TriMesh(
            vertices=np.array(vertices, dtype=np.float64).reshape(-1, 3),
            faces=np.array(faces, dtype=np.int64).reshape(-1, 3),
        )
    except ValidationError as exc:  # a degenerate face
        raise ValidationError(f"{path}: {exc}") from None


def read_vertex_labels(path, n_vertices: int) -> np.ndarray:
    """The record-by-record reader; a vertex listed twice keeps its last label."""
    labels = np.full(n_vertices, -1, dtype=np.int64)
    with open_text(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            if len(tokens) != 2:
                raise ParseError(f"{path}: expected 'vertex_index part_id' at line {lineno}")
            try:
                vi, pid = int(tokens[0]), int(tokens[1])
            except ValueError as exc:
                raise ParseError(f"{path}: bad integer at line {lineno}") from exc
            if vi < 0 or vi >= n_vertices:
                raise ParseError(f"{path}: vertex index {vi} out of range at line {lineno}")
            labels[vi] = pid
    if (labels < 0).any():
        missing = int(np.nonzero(labels < 0)[0][0])
        raise ValidationError(f"{path}: vertex {missing} has no part label")
    return labels


def person_from_dict(d: dict) -> PersonAnnotation:
    """The per-keypoint reader, which also took records of any length and any
    truthy visibility."""
    hx, hy = d["head_px"]
    x0, y0, x1, y1 = d["bbox_px"]
    return PersonAnnotation(
        person_id=str(d["person_id"]),
        character_id=str(d["character_id"]),
        head_px=(float(hx), float(hy)),
        bbox_px=(float(x0), float(y0), float(x1), float(y1)),
        volume_dm3=float(d["volume_dm3"]),
        part_volumes_dm3={int(k): float(v) for k, v in d["part_volumes_dm3"].items()},
        keypoints=tuple(
            Keypoint(x=float(k[0]), y=float(k[1]), part_id=int(k[2]), visible=bool(k[3]))
            for k in d.get("keypoints", [])
        ),
    )


def mesh_from_profile(profile: list[tuple[float, float, int]]) -> TriMesh:
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


def signed_volume(mesh: TriMesh) -> float:
    """Sum over faces of a . (b x c) / 6 about the vertex mean, in Python
    floats: each cross component is one difference of two products, as
    np.cross rounds it, and the triple product is (p0 + p2) + p1 with
    p_k = a_k * (b x c)_k, the order of numpy's einsum("ij,ij->i")."""
    v = (mesh.vertices - mesh.vertices.mean(axis=0)).tolist()
    terms = []
    for i, j, k in mesh.faces.tolist():
        (ax, ay, az), (bx, by, bz), (cx, cy, cz) = v[i], v[j], v[k]
        p0 = ax * (by * cz - bz * cy)
        p1 = ay * (bz * cx - bx * cz)
        p2 = az * (bx * cy - by * cx)
        terms.append(((p0 + p2) + p1) / 6.0)
    return math.fsum(terms)
