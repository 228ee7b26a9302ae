"""Domain types and file I/O for crowd-volume ground truth.

Conventions fixed across the toolkit: 3D coordinates in meters, volumes in
dm^3 (1 m^3 = 1000 dm^3), image coordinates in pixels with the origin at the
top-left corner and y pointing down. All types are treated as immutable after
construction; arrays are marked read-only.
"""
from __future__ import annotations

import csv
import json
import math
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property, lru_cache
from importlib import resources
from pathlib import Path

import numpy as np

# Relative tolerance for the per-person part-volume closure invariant.
PART_CLOSURE_REL_TOL = 1e-6

VDM_MAGIC = b"VDM1"


class ValidationError(ValueError):
    """An annotation, mesh, or map violates a structural invariant."""


class ParseError(ValueError):
    """A file's content could not be parsed."""


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Keypoint:
    """A 2D keypoint: pixel position, owning body part, visibility flag."""

    x: float
    y: float
    part_id: int
    visible: bool


@dataclass(frozen=True)
class PersonAnnotation:
    person_id: str
    character_id: str
    head_px: tuple[float, float]
    bbox_px: tuple[float, float, float, float]
    volume_dm3: float
    part_volumes_dm3: dict[int, float]
    keypoints: tuple[Keypoint, ...] = ()


@dataclass(frozen=True)
class CameraParams:
    """Pinhole intrinsics plus a rigid world-to-camera transform (meters)."""

    fx: float
    fy: float
    cx: float
    cy: float
    rotation: np.ndarray  # 3x3, row-major, world -> camera
    translation: np.ndarray  # 3,

    def __post_init__(self):
        rot = np.asarray(self.rotation, dtype=np.float64).reshape(3, 3)
        tr = np.asarray(self.translation, dtype=np.float64).reshape(3)
        rot.flags.writeable = False
        tr.flags.writeable = False
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "translation", tr)
        if not (self.fx > 0 and self.fy > 0):
            raise ValidationError(f"focal lengths must be positive, got fx={self.fx}, fy={self.fy}")


def identity_camera(fx: float = 1000.0, fy: float = 1000.0, cx: float = 0.0, cy: float = 0.0) -> CameraParams:
    """Camera at the world origin looking down +z, handy for tests."""
    return CameraParams(fx=fx, fy=fy, cx=cx, cy=cy, rotation=np.eye(3), translation=np.zeros(3))


@dataclass(frozen=True)
class FrameAnnotation:
    frame_id: str
    image_w: int
    image_h: int
    persons: tuple[PersonAnnotation, ...]
    scene_tags: frozenset[str]
    camera: CameraParams

    @property
    def n_persons(self) -> int:
        return len(self.persons)

    @property
    def total_volume_dm3(self) -> float:
        """Frame total volume, always derived from the persons, never stored."""
        return math.fsum(p.volume_dm3 for p in self.persons)


@dataclass(frozen=True)
class PartTaxonomy:
    """Ordered body parts and the keypoints each part owns."""

    parts: tuple[tuple[int, str], ...]
    keypoint_map: dict[int, tuple[int, ...]]

    def __post_init__(self):
        ids = [pid for pid, _ in self.parts]
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate part ids in taxonomy")
        if set(self.keypoint_map) - set(ids):
            raise ValidationError("keypoint_map references unknown part ids")
        seen: set[int] = set()
        for pid in ids:
            for kp in self.keypoint_map.get(pid, ()):
                if kp in seen:
                    raise ValidationError(f"keypoint id {kp} assigned to more than one part")
                seen.add(kp)

    @cached_property
    def part_ids(self) -> tuple[int, ...]:
        return tuple(pid for pid, _ in self.parts)

    @cached_property
    def part_id_set(self) -> frozenset[int]:
        return frozenset(self.part_ids)

    def name_of(self, part_id: int) -> str:
        for pid, name in self.parts:
            if pid == part_id:
                return name
        raise KeyError(part_id)

    def id_of(self, name: str) -> int:
        for pid, pname in self.parts:
            if pname == name:
                return pid
        raise KeyError(name)


# Keypoint ids of the default 17-joint skeleton shipped in configs/taxonomy.cfg.
KEYPOINT_NAMES = (
    "head_top", "chin",
    "neck", "spine_top", "spine_mid", "spine_low", "pelvis",
    "l_shoulder", "l_elbow", "r_shoulder", "r_elbow",
    "l_wrist", "r_wrist",
    "l_hip", "r_hip",
    "l_knee", "r_knee",
)


def default_config_text(name: str) -> str:
    """Raw text of a shipped default config (taxonomy, model, scaling, scene)."""
    return (resources.files("crowdvol") / "configs" / f"{name}.cfg").read_text(encoding="utf-8")


@lru_cache(maxsize=1)
def default_taxonomy() -> PartTaxonomy:
    """The shipped nine-part taxonomy; the torso owns exactly five keypoints.

    The taxonomy is data-driven: this parses configs/taxonomy.cfg, so an
    edited copy of that file behaves identically through load_taxonomy.
    """
    return taxonomy_from_config(parse_keyvalues(default_config_text("taxonomy"), "taxonomy.cfg"))


@dataclass(frozen=True)
class DensityMap:
    """Single-channel raster in dm^3 per pixel, row-major from the top-left."""

    width: int
    height: int
    values: np.ndarray  # shape (height, width), float64

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != (self.height, self.width):
            raise ValidationError(
                f"density map shape {vals.shape} does not match {self.height}x{self.width}"
            )
        if vals.size and (not np.isfinite(vals).all() or (vals < 0).any()):
            raise ValidationError("density map values must be finite and non-negative")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def total(self) -> float:
        return float(self.values.sum())


@dataclass(frozen=True)
class TriMesh:
    """Triangle mesh in meters, faces counter-clockwise seen from outside."""

    vertices: np.ndarray  # (n, 3) float64
    faces: np.ndarray  # (m, 3) int64
    vertex_labels: np.ndarray | None = None  # (n,) int64 part ids

    def __post_init__(self):
        verts = np.asarray(self.vertices, dtype=np.float64).reshape(-1, 3)
        faces = np.asarray(self.faces, dtype=np.int64).reshape(-1, 3)
        if faces.size:
            if faces.min() < 0 or faces.max() >= len(verts):
                raise ValidationError("face index out of range")
            degen = (
                (faces[:, 0] == faces[:, 1])
                | (faces[:, 1] == faces[:, 2])
                | (faces[:, 0] == faces[:, 2])
            )
            if degen.any():
                raise ValidationError(f"degenerate face at index {int(np.nonzero(degen)[0][0])}")
        verts.flags.writeable = False
        faces.flags.writeable = False
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "faces", faces)
        if self.vertex_labels is not None:
            labels = np.asarray(self.vertex_labels, dtype=np.int64).reshape(-1)
            if len(labels) != len(verts):
                raise ValidationError("vertex_labels length does not match vertex count")
            labels.flags.writeable = False
            object.__setattr__(self, "vertex_labels", labels)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_faces(self) -> int:
        return len(self.faces)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def validate_person(person: PersonAnnotation, taxonomy: PartTaxonomy, frame_id: str = "?") -> None:
    ctx = f"frame {frame_id!r}, person {person.person_id!r}"
    if not _finite(person.volume_dm3) or person.volume_dm3 <= 0:
        raise ValidationError(f"{ctx}: volume_dm3 must be a positive finite number")
    for pid, v in person.part_volumes_dm3.items():
        if pid not in taxonomy.part_id_set:
            raise ValidationError(f"{ctx}: part_volumes_dm3 has unknown part id {pid}")
        if not _finite(v) or v < 0:
            raise ValidationError(f"{ctx}: part_volumes_dm3[{pid}] must be >= 0 and finite")
    total = math.fsum(person.part_volumes_dm3.values())
    if abs(total - person.volume_dm3) > PART_CLOSURE_REL_TOL * person.volume_dm3:
        raise ValidationError(
            f"{ctx}: part_volumes_dm3 sum {total!r} does not close to volume_dm3 "
            f"{person.volume_dm3!r} within {PART_CLOSURE_REL_TOL:g} relative"
        )
    x0, y0, x1, y1 = person.bbox_px
    if not (x0 < x1 and y0 < y1):
        raise ValidationError(f"{ctx}: bbox_px must satisfy x_min < x_max and y_min < y_max")
    for kp in person.keypoints:
        if kp.part_id not in taxonomy.part_id_set:
            raise ValidationError(f"{ctx}: keypoint references unknown part id {kp.part_id}")


def validate_frame(frame: FrameAnnotation, taxonomy: PartTaxonomy | None = None) -> None:
    """Check every invariant; raise ValidationError naming frame and field."""
    tax = taxonomy if taxonomy is not None else default_taxonomy()
    if frame.image_w <= 0 or frame.image_h <= 0:
        raise ValidationError(f"frame {frame.frame_id!r}: image_w and image_h must be positive")
    for person in frame.persons:
        validate_person(person, tax, frame.frame_id)
        hx, hy = person.head_px
        if not (0 <= hx < frame.image_w and 0 <= hy < frame.image_h):
            raise ValidationError(
                f"frame {frame.frame_id!r}, person {person.person_id!r}: "
                f"head_px {person.head_px} outside [0,{frame.image_w})x[0,{frame.image_h})"
            )


# ---------------------------------------------------------------------------
# Text input
# ---------------------------------------------------------------------------

@contextmanager
def open_text(path, newline: str | None = None):
    """Open a UTF-8 text file for reading. Bytes that do not decode, and a
    CSV reader's structural errors, raise ParseError naming the path."""
    with open(path, "r", encoding="utf-8", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
        except csv.Error as exc:
            raise ParseError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# Annotation JSON Lines I/O
# ---------------------------------------------------------------------------

def _person_to_dict(p: PersonAnnotation) -> dict:
    return {
        "person_id": p.person_id,
        "character_id": p.character_id,
        "head_px": [float(p.head_px[0]), float(p.head_px[1])],
        "bbox_px": [float(v) for v in p.bbox_px],
        "volume_dm3": float(p.volume_dm3),
        "part_volumes_dm3": {str(pid): float(v) for pid, v in p.part_volumes_dm3.items()},
        "keypoints": [[float(k.x), float(k.y), int(k.part_id), 1 if k.visible else 0] for k in p.keypoints],
    }


def _person_from_dict(d: dict) -> PersonAnnotation:
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


def frame_to_dict(frame: FrameAnnotation) -> dict:
    return {
        "frame_id": frame.frame_id,
        "image_w": int(frame.image_w),
        "image_h": int(frame.image_h),
        "scene_tags": sorted(frame.scene_tags),
        "camera": {
            "fx": float(frame.camera.fx),
            "fy": float(frame.camera.fy),
            "cx": float(frame.camera.cx),
            "cy": float(frame.camera.cy),
            "rotation": [float(v) for v in frame.camera.rotation.reshape(-1)],
            "translation": [float(v) for v in frame.camera.translation],
        },
        "persons": [_person_to_dict(p) for p in frame.persons],
    }


def frame_from_dict(d: dict) -> FrameAnnotation:
    cam = d["camera"]
    return FrameAnnotation(
        frame_id=str(d["frame_id"]),
        image_w=int(d["image_w"]),
        image_h=int(d["image_h"]),
        persons=tuple(_person_from_dict(p) for p in d["persons"]),
        scene_tags=frozenset(str(t) for t in d.get("scene_tags", [])),
        camera=CameraParams(
            fx=float(cam["fx"]),
            fy=float(cam["fy"]),
            cx=float(cam["cx"]),
            cy=float(cam["cy"]),
            rotation=np.array(cam["rotation"], dtype=np.float64).reshape(3, 3),
            translation=np.array(cam["translation"], dtype=np.float64),
        ),
    )


def frame_to_json_line(frame: FrameAnnotation) -> str:
    """Canonical serialization: sorted keys, shortest-roundtrip floats."""
    return json.dumps(frame_to_dict(frame), sort_keys=True, separators=(",", ":"), allow_nan=False)


def write_annotations(frames, path, taxonomy: PartTaxonomy | None = None) -> None:
    frames = list(frames)
    for frame in frames:
        validate_frame(frame, taxonomy)
    lines = [frame_to_json_line(f) for f in frames]
    data = ("\n".join(lines) + "\n") if lines else ""
    Path(path).write_bytes(data.encode("utf-8"))


def read_annotations(path, taxonomy: PartTaxonomy | None = None) -> list[FrameAnnotation]:
    frames: list[FrameAnnotation] = []
    with open_text(path) as fh:
        text = fh.read()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            frame = frame_from_dict(json.loads(line))
        except (KeyError, TypeError, IndexError, AttributeError, OverflowError, ValueError) as exc:
            raise ParseError(f"{path}: malformed annotation on line {lineno}: {exc}") from exc
        try:
            validate_frame(frame, taxonomy)
        except ValidationError as exc:
            raise ValidationError(f"{path}: line {lineno}: {exc}") from None
        frames.append(frame)
    return frames


# ---------------------------------------------------------------------------
# OBJ mesh I/O (subset: `v` and triangular `f` records)
# ---------------------------------------------------------------------------

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


def write_obj(mesh: TriMesh, path) -> None:
    lines = []
    for x, y, z in mesh.vertices:
        lines.append(f"v {float(x)!r} {float(y)!r} {float(z)!r}")
    for a, b, c in mesh.faces:
        lines.append(f"f {a + 1} {b + 1} {c + 1}")
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def read_vertex_labels(path, n_vertices: int) -> np.ndarray:
    """Sidecar labels: one `vertex_index part_id` pair per line."""
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


def write_vertex_labels(labels: np.ndarray, path) -> None:
    lines = [f"{i} {int(pid)}" for i, pid in enumerate(labels)]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


# ---------------------------------------------------------------------------
# VDM1 binary density-map I/O
# ---------------------------------------------------------------------------

def write_vdm(dmap: DensityMap, path) -> None:
    with open(path, "wb") as fh:
        fh.write(VDM_MAGIC + struct.pack("<II", dmap.width, dmap.height))
        fh.write(np.ascontiguousarray(dmap.values, dtype="<f4").data)


def read_vdm(path) -> DensityMap:
    data = Path(path).read_bytes()
    if len(data) < 12 or data[:4] != VDM_MAGIC:
        raise ParseError(f"{path}: unsupported magic {data[:4]!r}")
    width, height = struct.unpack("<II", data[4:12])
    expected = 12 + 4 * width * height
    if len(data) < expected:
        raise ParseError(f"{path}: truncated payload, expected {expected} bytes, got {len(data)}")
    if len(data) > expected:
        raise ParseError(f"{path}: trailing data after payload")
    values = np.frombuffer(data, dtype="<f4", offset=12).astype(np.float64).reshape(height, width)
    try:
        return DensityMap(width=width, height=height, values=values)
    except ValidationError as exc:  # a NaN, infinite or negative value
        raise ParseError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Flat key=value config files
# ---------------------------------------------------------------------------

def parse_keyvalues(text: str, source: str = "<config>") -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"{source}: expected key=value at line {lineno}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def read_keyvalues(path) -> dict[str, str]:
    with open_text(path) as fh:
        return parse_keyvalues(fh.read(), str(path))


def write_keyvalues(pairs: dict[str, str], path) -> None:
    lines = [f"{k}={v}" for k, v in pairs.items()]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def taxonomy_to_config(tax: PartTaxonomy) -> dict[str, str]:
    pairs: dict[str, str] = {}
    for pid, name in tax.parts:
        pairs[f"part.{pid}.name"] = name
        pairs[f"part.{pid}.keypoints"] = ",".join(str(k) for k in tax.keypoint_map.get(pid, ()))
    return pairs


def taxonomy_from_config(pairs: dict[str, str]) -> PartTaxonomy:
    ids = sorted(
        {int(k.split(".")[1]) for k in pairs if k.startswith("part.") and k.endswith(".name")}
    )
    parts = []
    keypoint_map: dict[int, tuple[int, ...]] = {}
    for pid in ids:
        parts.append((pid, pairs[f"part.{pid}.name"]))
        raw = pairs.get(f"part.{pid}.keypoints", "")
        keypoint_map[pid] = tuple(int(tok) for tok in raw.split(",") if tok.strip() != "")
    if not parts:
        raise ParseError("taxonomy config defines no parts")
    return PartTaxonomy(parts=tuple(parts), keypoint_map=keypoint_map)


def load_taxonomy(path) -> PartTaxonomy:
    return taxonomy_from_config(read_keyvalues(path))


def save_taxonomy(tax: PartTaxonomy, path) -> None:
    write_keyvalues(taxonomy_to_config(tax), path)
