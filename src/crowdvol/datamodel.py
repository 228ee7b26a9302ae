"""Domain types and file I/O for crowd-volume ground truth.

Conventions fixed across the toolkit: 3D coordinates in meters, volumes in
dm^3 (1 m^3 = 1000 dm^3), image coordinates in pixels with the origin at the
top-left corner and y pointing down. All types are treated as immutable after
construction; arrays are marked read-only. Every type checks its invariants
when built, and raises ValidationError: a person and its keypoints are
checked by the frame that holds them, which alone knows the image size.
"""
from __future__ import annotations

import csv
import difflib
import json
import math
import re
import struct
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property, lru_cache
from importlib import resources
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

# Relative tolerance for the per-person part-volume closure invariant.
PART_CLOSURE_REL_TOL = 1e-6

VDM_MAGIC = b"VDM1"
FLOAT32_MAX = float(np.finfo(np.float32).max)  # the largest value a VDM1 file holds


class ValidationError(ValueError):
    """An annotation, mesh, or map violates a structural invariant."""


class ParseError(ValueError):
    """A file's content could not be parsed."""


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

class Keypoint(NamedTuple):
    """A 2D keypoint: pixel position, owning body part, visibility flag; one plain tuple."""

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
    """Pinhole intrinsics plus a rigid world-to-camera transform (meters),
    stored as float tuples whatever sequences or arrays it is given."""

    fx: float
    fy: float
    cx: float
    cy: float
    rotation: tuple[tuple[float, float, float], ...]  # 3 rows, world -> camera
    translation: tuple[float, float, float]

    def __post_init__(self):
        object.__setattr__(self, "rotation", tuple(tuple(map(float, row)) for row in self.rotation))
        object.__setattr__(self, "translation", tuple(map(float, self.translation)))
        if list(map(len, self.rotation)) != [3, 3, 3] or len(self.translation) != 3:
            raise ValidationError("camera rotation must be 3 rows of 3 numbers and its translation 3 numbers")
        if not (self.fx > 0 and self.fy > 0):
            raise ValidationError(f"focal lengths must be positive, got fx={self.fx}, fy={self.fy}")


_NOT_IN_FILE_NAMES = frozenset("/\\\0")  # `maps` writes <frame_id>.vdm inside its --out directory


@dataclass(frozen=True)
class FrameAnnotation:
    """A frame of persons, checked when built against its image and the
    shipped taxonomy: a ValidationError names the frame and the person.
    Its frame_id is a plain file name."""

    frame_id: str
    image_w: int
    image_h: int
    persons: tuple[PersonAnnotation, ...]
    scene_tags: frozenset[str]
    camera: CameraParams

    def __post_init__(self):
        if self.frame_id in ("", ".", "..") or not _NOT_IN_FILE_NAMES.isdisjoint(self.frame_id):
            raise ValidationError(f"frame_id {self.frame_id!r} is not a plain file name: it must not be "
                                  "empty, '.' or '..', nor hold '/', '\\' or NUL")
        try:
            size = len(self.frame_id.encode("utf-8")) + len(".vdm")
        except UnicodeEncodeError:
            raise ValidationError(f"frame_id {self.frame_id!r} is not a file name: it holds a lone surrogate") from None
        if size > 255:  # bytes in a file name on common file systems (NAME_MAX on Linux)
            raise ValidationError(f"frame_id {self.frame_id[:16]!r}... is too long: "
                                  f"<frame_id>.vdm would be a {size}-byte file name, over 255")
        w, h = self.image_w, self.image_h
        if w <= 0 or h <= 0:
            raise ValidationError(f"frame {self.frame_id!r}: image_w and image_h must be positive")
        part_ids = default_taxonomy().part_id_set
        for person in self.persons:
            ctx = f"frame {self.frame_id!r}, person {person.person_id!r}"
            if not 0 < person.volume_dm3 < math.inf:
                raise ValidationError(f"{ctx}: volume_dm3 must be a positive finite number")
            for pid, v in person.part_volumes_dm3.items():
                if pid not in part_ids:
                    raise ValidationError(f"{ctx}: part_volumes_dm3 has unknown part id {pid}")
                if not 0 <= v < math.inf:
                    raise ValidationError(f"{ctx}: part_volumes_dm3[{pid}] must be >= 0 and finite")
            try:
                total = math.fsum(person.part_volumes_dm3.values())
            except OverflowError:
                raise ValidationError(f"{ctx}: part_volumes_dm3 sum overflows") from None
            if abs(total - person.volume_dm3) > PART_CLOSURE_REL_TOL * person.volume_dm3:
                raise ValidationError(
                    f"{ctx}: part_volumes_dm3 sum {total!r} does not close to volume_dm3 "
                    f"{person.volume_dm3!r} within {PART_CLOSURE_REL_TOL:g} relative"
                )
            x0, y0, x1, y1 = person.bbox_px
            if not (x0 < x1 and y0 < y1):
                raise ValidationError(f"{ctx}: bbox_px must satisfy x_min < x_max and y_min < y_max")
            if unknown := {kp.part_id for kp in person.keypoints} - part_ids:
                first = next(kp.part_id for kp in person.keypoints if kp.part_id in unknown)
                raise ValidationError(f"{ctx}: keypoint references unknown part id {first}")
            hx, hy = person.head_px
            if not (0 <= hx < w and 0 <= hy < h):
                raise ValidationError(f"{ctx}: head_px {person.head_px} outside [0,{w})x[0,{h})")
            if not (0 <= x0 and x1 <= w and 0 <= y0 and y1 <= h):
                raise ValidationError(f"{ctx}: bbox_px {person.bbox_px} outside [0,{w}]x[0,{h}]")
        try:
            self.total_volume_dm3
        except OverflowError:  # name the person whose volume takes the running total past the float range
            for k, person in enumerate(self.persons):
                try:
                    math.fsum(p.volume_dm3 for p in self.persons[: k + 1])
                except OverflowError:
                    raise ValidationError(f"frame {self.frame_id!r}, person {person.person_id!r}: "
                                          "the frame's total volume_dm3 overflows here") from None

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
        return dict(self.parts)[part_id]


def default_config(name: str) -> dict[str, str]:
    """Pairs of a shipped default config (taxonomy, model, scaling, scene)."""
    text = (resources.files("crowdvol") / "configs" / f"{name}.cfg").read_text(encoding="utf-8")
    return parse_keyvalues(text, f"{name}.cfg")


@lru_cache(maxsize=1)
def default_taxonomy() -> PartTaxonomy:
    """The shipped nine-part taxonomy; the torso owns exactly five keypoints.

    The taxonomy is data-driven: this parses configs/taxonomy.cfg, so an
    edited copy of that file behaves identically through load_taxonomy.
    """
    return taxonomy_from_config(default_config("taxonomy"), "taxonomy.cfg")


@dataclass(frozen=True)
class DensityMap:
    """Single-channel raster in dm^3 per pixel, row-major from the top-left;
    each value lies in [0, FLOAT32_MAX], so a VDM1 file can hold it. The
    array's shape is the map's size."""

    values: np.ndarray  # shape (height, width), float64

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 2:
            raise ValidationError(f"density map values must be a 2-D array, got shape {vals.shape}")
        if vals.size and not (vals.min() >= 0 and vals.max() <= FLOAT32_MAX):
            raise ValidationError(f"density map values must be finite and non-negative, "
                                  f"at most float32's largest {FLOAT32_MAX!r}")
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
            degen = (faces[:, 0] == faces[:, 1]) | (faces[:, 1] == faces[:, 2]) | (faces[:, 0] == faces[:, 2])
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
# Text input and CSV
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


def read_csv(path, columns: tuple[str, ...]):
    """Yield ("FILE: line N", {column: field}) for each non-blank row of a
    CSV file whose header names every one of `columns`. A header that names
    a column twice, a missing column, or a row with more or fewer fields than
    the header, raises ParseError."""
    with open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if twice := next((col for i, col in enumerate(header) if col in header[:i]), None):
            raise ParseError(f"{path}: header names column {twice} twice")
        if missing := [col for col in columns if col not in header]:
            raise ParseError(f"{path}: missing column {', '.join(missing)}")
        for row in filter(None, reader):
            where = f"{path}: line {reader.line_num}"
            if len(row) != len(header):
                raise ParseError(f"{where}: {len(row)} fields where the header has {len(header)}")
            yield where, dict(zip(header, row))


def csv_text(rows) -> str:
    """Rows of str, int and float as CSV text with LF line ends: a float is
    its repr, and a field is quoted (RFC 4180) only if it holds a comma, a
    quote, a CR or an LF. Python 3.11's writer quotes only the line breaks in
    its terminator, so it writes CRLF, and each row's CRLF becomes LF."""
    lines: list[str] = []
    csv.writer(SimpleNamespace(write=lines.append), lineterminator="\r\n").writerows(rows)
    return "".join(line[:-2] + "\n" for line in lines)


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
        "keypoints": [[float(x), float(y), int(pid), 1 if vis else 0] for x, y, pid, vis in p.keypoints],
    }


# Exact types of a JSON number as json.loads returns it; a bool is not one.
_NUMBER_TYPES = frozenset((int, float))


def _keypoints_from_lists(records: list) -> tuple[Keypoint, ...]:
    """Stored keypoints: each exactly [x, y, part_id, visible], x and y finite
    numbers, part_id an integer and visible 0 or 1."""
    numbers, inf, new = _NUMBER_TYPES, math.inf, tuple.__new__  # new: Keypoint._make without its Python call
    keypoints = []
    for k in records:
        if type(k) is list and len(k) == 4:
            x, y, pid, vis = k
            if (type(x) in numbers and type(y) in numbers and -inf < x < inf and -inf < y < inf
                    and type(pid) is int and type(vis) is int and (vis == 0 or vis == 1)):
                keypoints.append(new(Keypoint, (float(x), float(y), pid, vis == 1)))
                continue
        raise ValueError(f"keypoint must be [x, y, integer part_id, visible 0 or 1], got {k!r}")
    return tuple(keypoints)


def _finite_numbers(values: tuple, what: str) -> tuple:
    """`values`, each a finite JSON number, or ValueError naming the first
    that is not."""
    if not (_NUMBER_TYPES.issuperset(map(type, values)) and all(map(math.isfinite, values))):
        bad = next(v for v in values if type(v) not in _NUMBER_TYPES or not math.isfinite(v))
        raise ValueError(f"{what} must be finite numbers, got {bad!r}")
    return values


def _json_string(value, field: str) -> str:
    if type(value) is not str:
        raise ValueError(f"{field} must be a string, got {value!r}")
    return value


def _json_integer(value, field: str) -> int:
    if type(value) is not int:
        raise ValueError(f"{field} must be an integer, got {value!r}")
    return value


def _person_from_dict(d: dict) -> PersonAnnotation:
    hx, hy = d["head_px"]
    x0, y0, x1, y1 = d["bbox_px"]
    volume, parts = d["volume_dm3"], d["part_volumes_dm3"]
    _finite_numbers((hx, hy, x0, y0, x1, y1, volume, *parts.values()), "head_px, bbox_px and volumes")
    return PersonAnnotation(
        person_id=_json_string(d["person_id"], "person_id"),
        character_id=_json_string(d["character_id"], "character_id"),
        head_px=(float(hx), float(hy)),
        bbox_px=(float(x0), float(y0), float(x1), float(y1)),
        volume_dm3=float(volume),
        part_volumes_dm3={int(k): float(v) for k, v in parts.items()},
        keypoints=_keypoints_from_lists(d.get("keypoints", [])),
    )


_INTRINSICS = ("fx", "fy", "cx", "cy")


def frame_to_dict(frame: FrameAnnotation) -> dict:
    return {
        "frame_id": frame.frame_id,
        "image_w": int(frame.image_w),
        "image_h": int(frame.image_h),
        "scene_tags": sorted(frame.scene_tags),
        "camera": {
            **{key: float(getattr(frame.camera, key)) for key in _INTRINSICS},
            "rotation": [v for row in frame.camera.rotation for v in row],
            "translation": list(frame.camera.translation),
        },
        "persons": [_person_to_dict(p) for p in frame.persons],
    }


def _frame_fields(d: dict) -> dict:
    """The FrameAnnotation fields of a decoded line, each of its JSON type;
    building the frame then checks its invariants."""
    cam = d["camera"]
    intrinsics = _finite_numbers(tuple(cam[key] for key in _INTRINSICS), "camera intrinsics")
    rotation = _finite_numbers(tuple(cam["rotation"]), "camera rotation entries")
    translation = _finite_numbers(tuple(cam["translation"]), "camera translation entries")
    if len(rotation) != 9 or len(translation) != 3:
        raise ValueError(f"camera rotation and translation need 9 and 3 entries, "
                         f"got {len(rotation)} and {len(translation)}")
    tags = d.get("scene_tags", [])
    if type(tags) is not list or not all(type(t) is str for t in tags):
        raise ValueError(f"scene_tags must be a list of strings, got {tags!r}")
    return dict(
        frame_id=_json_string(d["frame_id"], "frame_id"),
        image_w=_json_integer(d["image_w"], "image_w"),
        image_h=_json_integer(d["image_h"], "image_h"),
        persons=tuple(_person_from_dict(p) for p in d["persons"]),
        scene_tags=frozenset(tags),
        camera=CameraParams(
            **{key: float(v) for key, v in zip(_INTRINSICS, intrinsics)},
            rotation=(rotation[0:3], rotation[3:6], rotation[6:9]),
            translation=translation,
        ),
    )


def frame_to_json_line(frame: FrameAnnotation) -> str:
    """Canonical serialization: sorted keys, shortest-roundtrip floats."""
    return _ENCODER.encode(frame_to_dict(frame))


def write_annotations(frames, path) -> None:
    Path(path).write_bytes("".join(frame_to_json_line(f) + "\n" for f in frames).encode("utf-8"))


def _not_a_number(name: str) -> float:
    raise ValueError(f"{name} is not a finite JSON number")


# Python's json reads NaN, Infinity and -Infinity unless told otherwise.
_DECODER = json.JSONDecoder(parse_constant=_not_a_number)
# The canonical writer; frame_to_dict builds a fresh tree, which holds no cycle to check for.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False, check_circular=False)


def read_annotations(path) -> list[FrameAnnotation]:
    """The frames of a JSONL file, one per line; no two lines share a frame_id."""
    frames: list[FrameAnnotation] = []
    line_of: dict[str, int] = {}  # frame id -> the line that holds it
    with open_text(path) as fh:
        text = fh.read()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            fields = _frame_fields(_DECODER.decode(line))
        except (KeyError, TypeError, IndexError, AttributeError, OverflowError, ValueError) as exc:
            raise ParseError(f"{path}: malformed annotation on line {lineno}: {exc}") from exc
        try:
            frame = FrameAnnotation(**fields)
        except ValidationError as exc:
            raise ValidationError(f"{path}: line {lineno}: {exc}") from None
        if (first := line_of.setdefault(frame.frame_id, lineno)) != lineno:
            raise ValidationError(f"{path}: line {lineno}: frame_id {frame.frame_id!r} repeats line {first}")
        frames.append(frame)
    return frames


# ---------------------------------------------------------------------------
# OBJ mesh I/O (subset: `v` and triangular `f` records)
# ---------------------------------------------------------------------------

_CHUNK_CHARS = 1 << 20  # text per bulk parse: bounds the readers' memory
_UNLABELED = -(1 << 63)  # a labels entry not yet read


def _loadtxt(rows: list[str], dtype, columns: int) -> np.ndarray | None:
    """The rows as a (len(rows), columns) array; None if numpy refuses or
    skips a row. numpy parses a subset of what float() and int() accept (no
    `_` separators, no non-ASCII digits or blanks), to the same values."""
    with warnings.catch_warnings():  # numpy 1.x truncates an int written "1.5", with a warning
        warnings.simplefilter("error")
        try:
            out = np.loadtxt(rows, dtype=dtype, comments=None, ndmin=2) if rows else np.zeros((0, columns), dtype)
        except (ValueError, Warning):
            return None
    return out if out.shape == (len(rows), columns) else None


def _obj_chunk(text: str, n_vertices: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Vertices and 0-based faces of a chunk of OBJ lines, parsed by numpy;
    None unless every line is `v x y z` or `f i j k`, with one space after
    the letter, and no vertex follows a face."""
    text = "\n" + text.rstrip("\n")  # every line starts after a newline
    split = text.find("\nf ") if "\nf " in text else len(text)
    v_text, f_text = text[:split].replace("\nv ", "\n"), text[split:].replace("\nf ", "\n")
    v_rows, f_rows = v_text.split("\n")[1:], f_text.split("\n")[1:]
    if len(text) - len(v_text) - len(f_text) != 2 * (len(v_rows) + len(f_rows)):
        return None  # a line lost no prefix: not every line was a record
    verts, idx = _loadtxt(v_rows, np.float64, 3), _loadtxt(f_rows, np.int64, 3)
    if verts is None or idx is None or idx.size and not 1 <= idx.min() <= idx.max() <= n_vertices + len(verts):
        return None
    return verts, idx - 1


def _obj_records(path, lines: list[str], lineno: int, n_vertices: int) -> tuple[np.ndarray, np.ndarray]:
    """_obj_chunk record by record, for what numpy refuses; names the first bad line."""
    vertices, faces = [], []
    for lineno, raw in enumerate(lines, start=lineno):
        tokens = raw.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if tokens[0] == "v":
            try:
                x, y, z = map(float, tokens[1:])
            except ValueError:
                raise ParseError(f"{path}: bad vertex record at line {lineno}") from None
            vertices.append((x, y, z))
        elif tokens[0] == "f":
            if len(tokens) != 4:
                raise ParseError(f"{path}: non-triangular face at line {lineno}")
            faces.append([])
            for tok in tokens[1:]:
                try:
                    i = int(tok.split("/")[0])
                except ValueError:
                    raise ParseError(f"{path}: bad face index at line {lineno}") from None
                if not 1 <= i <= n_vertices + len(vertices):
                    raise ParseError(f"{path}: face index out of range at line {lineno}")
                faces[-1].append(i - 1)
        else:
            raise ParseError(f"{path}: unsupported record {tokens[0]!r} at line {lineno}")
    return np.array(vertices, dtype=np.float64).reshape(-1, 3), np.array(faces, dtype=np.int64).reshape(-1, 3)


def read_obj(path) -> TriMesh:
    """Mesh of `v x y z` and triangular `f i j k` records (`f i/t/n ...`
    keeps the vertex index i), blank lines and `#` comment lines."""
    chunks = [(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))]
    lineno = 1
    with open_text(path) as fh:
        while lines := fh.readlines(_CHUNK_CHARS):
            n_vertices = sum(len(verts) for verts, _ in chunks)
            chunks.append(_obj_chunk("".join(lines), n_vertices) or _obj_records(path, lines, lineno, n_vertices))
            lineno += len(lines)
    vertices, faces = (np.concatenate(arrays) for arrays in zip(*chunks))
    try:
        return TriMesh(vertices=vertices, faces=faces)
    except ValidationError as exc:  # a degenerate face
        raise ValidationError(f"{path}: {exc}") from None


def write_obj(mesh: TriMesh, path) -> None:
    lines = [f"v {x!r} {y!r} {z!r}\n" for x, y, z in mesh.vertices.tolist()]
    lines += [f"f {a} {b} {c}\n" for a, b, c in (mesh.faces + 1).tolist()]
    Path(path).write_text("".join(lines), encoding="utf-8")


def _label_records(path, lines: list[str], lineno: int, labels: np.ndarray) -> None:
    """Label a chunk's vertices record by record, for what numpy refuses; names the first bad line."""
    for lineno, raw in enumerate(lines, start=lineno):
        tokens = raw.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if len(tokens) != 2:
            raise ParseError(f"{path}: expected 'vertex_index part_id' at line {lineno}")
        try:
            vi, pid = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise ParseError(f"{path}: bad integer at line {lineno}") from None
        if vi < 0 or vi >= len(labels):
            raise ParseError(f"{path}: vertex index {vi} out of range at line {lineno}")
        if labels[vi] != _UNLABELED:
            raise ParseError(f"{path}: vertex {vi} labeled again at line {lineno}")
        if not -(1 << 63) <= pid < 1 << 63:
            raise ParseError(f"{path}: part id {pid} out of range at line {lineno}")
        labels[vi] = pid


def read_vertex_labels(path, n_vertices: int) -> np.ndarray:
    """Sidecar labels: one `vertex_index part_id` line per vertex."""
    labels = np.full(n_vertices, _UNLABELED, dtype=np.int64)
    lineno = 1
    with open_text(path) as fh:
        while lines := fh.readlines(_CHUNK_CHARS):
            rows = _loadtxt(lines, np.int64, 2)  # None on comments and blank lines
            vi, pid = (None, None) if rows is None else rows.T
            if vi is not None and (not vi.size or 0 <= vi.min() and vi.max() < n_vertices
                                   and np.bincount(vi).max() == 1 and (labels[vi] == _UNLABELED).all()):
                labels[vi] = pid
            else:
                _label_records(path, lines, lineno, labels)
            lineno += len(lines)
    if (labels < 0).any():
        raise ValidationError(f"{path}: vertex {int(np.argmax(labels < 0))} has no part label")
    return labels


def write_vertex_labels(labels: np.ndarray, path) -> None:
    lines = [f"{i} {pid}\n" for i, pid in enumerate(np.asarray(labels).astype(np.int64).tolist())]
    Path(path).write_text("".join(lines), encoding="utf-8")


# ---------------------------------------------------------------------------
# VDM1 binary density-map I/O
# ---------------------------------------------------------------------------

def write_vdm(dmap: DensityMap, path) -> None:
    height, width = dmap.values.shape
    with open(path, "wb") as fh:
        fh.write(VDM_MAGIC + struct.pack("<II", width, height))
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
        return DensityMap(values)
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
        key, value = (part.strip() for part in line.split("=", 1))
        if key in out:
            raise ParseError(f"{source}: key {key!r} repeated at line {lineno}")
        out[key] = value
    return out


def read_keyvalues(path) -> dict[str, str]:
    with open_text(path) as fh:
        return parse_keyvalues(fh.read(), str(path))


def write_keyvalues(pairs: dict[str, str], path) -> None:
    lines = [f"{k}={v}" for k, v in pairs.items()]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def config_getter(pairs: dict[str, str], defaults: dict[str, str], kind: str, source: str = "<config>",
                  read: dict[str, str] | None = None):
    """Typed lookup over {**defaults, **pairs}, the one reader of every config
    kind: `get(key, int)` parses a value. A key that `defaults` lacks, or a
    value its type does not parse, raises ParseError naming the source; an
    unknown key's hint is the closest key with the same text before the
    first ".", or the closest undotted key if it has none.
    Given a `read` dict, `get` records in it the `repr` of each value it
    returns, so `0640` and `5e1` are recorded as `640` and `50.0`."""
    for key in pairs:
        if key not in defaults:
            family = key[: key.find(".") + 1]  # the text up to the first ".", empty for an undotted key
            close = difflib.get_close_matches(key, [k for k in defaults if k[: k.find(".") + 1] == family], n=1)
            hint = f"; did you mean {close[0]!r}?" if close else ""
            raise ParseError(f"{source}: unknown {kind} config key {key!r}{hint}")
    merged = {**defaults, **pairs}

    def get(key: str, type_):
        try:
            value = type_(merged[key])
        except ValueError:
            name = type_.__name__.replace("_", " ")  # int_list reads "int list"
            raise ParseError(f"{source}: {key}={merged[key]!r} is not a valid {name}") from None
        if read is not None:
            read[key] = repr(value)
        return value

    return get


def int_list(text: str) -> tuple[int, ...]:
    """Comma-separated integers; empty items are skipped."""
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


def taxonomy_from_config(pairs: dict[str, str], source: str = "<config>") -> PartTaxonomy:
    """A complete taxonomy: one part per `part.N.name` key, owning the
    keypoints of its optional `part.N.keypoints` list."""
    ids = sorted(int(m[1]) for key in pairs if (m := re.fullmatch(r"part\.(0|[1-9][0-9]*)\.name", key)))
    get = config_getter(pairs, {f"part.{pid}.{field}": "" for pid in ids for field in ("name", "keypoints")},
                        "taxonomy", source)
    if not ids:
        raise ParseError(f"{source}: taxonomy config defines no parts")
    return PartTaxonomy(parts=tuple((pid, get(f"part.{pid}.name", str)) for pid in ids),
                        keypoint_map={pid: get(f"part.{pid}.keypoints", int_list) for pid in ids})


def load_taxonomy(path) -> PartTaxonomy:
    return taxonomy_from_config(read_keyvalues(path), str(path))
