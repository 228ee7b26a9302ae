import csv
import io
import json
import math
import re
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from crowdvol import datamodel as dm
from crowdvol import scenegen
from conftest import generate_dataset, make_box, make_frame, make_person, part_id


# ---------------------------------------------------------------------------
# Annotation JSONL
# ---------------------------------------------------------------------------

def test_generated_frames_equal_themselves_read_back(tmp_path):
    """Every field, the camera's float tuples among them, reads back equal."""
    cfg = replace(scenegen.scene_config_from_pairs({}), frames_per_split={"train": 0, "val": 0, "test": 4})
    frames = generate_dataset(cfg, seed=3)["test"]
    path = tmp_path / "test.jsonl"
    dm.write_annotations(frames, path)
    assert dm.read_annotations(path) == frames
    assert type(frames[0].camera.rotation[0][0]) is float


def test_read_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert dm.read_annotations(path) == []


def test_annotation_roundtrip_field_for_field(tmp_path):
    kp = dm.Keypoint(x=12.5, y=20.25, part_id=1, visible=True)
    person = make_person(parts={0: 30.0, 1: 40.0}, keypoints=(kp,))
    frame = make_frame([person], tags={"night", "rain"})
    path = tmp_path / "a.jsonl"
    dm.write_annotations([frame], path)
    frames = dm.read_annotations(path)
    assert len(frames) == 1
    got = frames[0]
    assert got.frame_id == frame.frame_id
    assert got.image_w == frame.image_w and got.image_h == frame.image_h
    assert got.scene_tags == frame.scene_tags
    assert got.camera == frame.camera
    p0, p1 = got.persons[0], frame.persons[0]
    assert p0.person_id == p1.person_id
    assert p0.character_id == p1.character_id
    assert p0.head_px == p1.head_px
    assert p0.bbox_px == p1.bbox_px
    assert p0.volume_dm3 == p1.volume_dm3
    assert p0.part_volumes_dm3 == p1.part_volumes_dm3
    assert p0.keypoints == p1.keypoints


def test_part_sum_mismatch_rejected():
    person = make_person(volume=70.0, parts={0: 30.0, 1: 38.9})  # sums to 68.9
    with pytest.raises(dm.ValidationError, match="close"):
        make_frame([person])


def test_write_is_byte_deterministic(tmp_path):
    frames = [make_frame([make_person()], frame_id=f"f{i}") for i in range(3)]
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    dm.write_annotations(frames, p1)
    dm.write_annotations(frames, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_write_read_write_identical_bytes(tmp_path):
    frames = [make_frame([make_person(head=(1.25, 2.5), volume=71.125)])]
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    dm.write_annotations(frames, p1)
    dm.write_annotations(dm.read_annotations(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_nan_volume_rejected():
    person = make_person(volume=math.nan, parts={0: math.nan})
    with pytest.raises(dm.ValidationError):
        make_frame([person])


def test_zero_person_frame_single_line(tmp_path):
    path = tmp_path / "z.jsonl"
    dm.write_annotations([make_frame([])], path)
    lines = path.read_text().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["persons"] == []


def test_malformed_line_reports_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    good = dm.frame_to_json_line(make_frame([]))
    path.write_text(good + "\n{not json\n")
    with pytest.raises(dm.ParseError, match="line 2"):
        dm.read_annotations(path)


def test_validation_error_names_frame_and_field(tmp_path):
    person = make_person(bbox=(50.0, 10.0, 20.0, 60.0))  # x_min > x_max
    with pytest.raises(dm.ValidationError, match=r"f0.*bbox"):
        make_frame([person])


def test_head_outside_image_rejected():
    person = make_person(head=(64.0, 10.0))  # w = 64, valid range [0, 64)
    with pytest.raises(dm.ValidationError, match="head_px"):
        make_frame([person])


def test_unknown_keypoint_part_rejected():
    kp = dm.Keypoint(x=1.0, y=1.0, part_id=77, visible=True)
    person = make_person(keypoints=(kp,))
    with pytest.raises(dm.ValidationError, match="part id 77"):
        make_frame([person])


def test_part_closure_accepts_1e6_relative():
    person = make_person(volume=70.0, parts={0: 70.0 * (1 + 9e-7)})
    make_frame([person])  # within tolerance
    person = make_person(volume=70.0, parts={0: 70.0 * (1 + 2e-6)})
    with pytest.raises(dm.ValidationError):
        make_frame([person])


# One case per invariant that a frame checks when built, in the order it
# checks them: (make_person arguments, image size, message after "frame 'f0'").
INVALID_FRAMES = {
    "image-size": ({}, (0, 64), ": image_w and image_h must be positive"),
    "volume": ({"volume": 0.0, "parts": {0: 0.0}}, (64, 64),
               ", person 'p0': volume_dm3 must be a positive finite number"),
    "part-unknown": ({"parts": {0: 60.0, 77: 10.0}}, (64, 64),
                     ", person 'p0': part_volumes_dm3 has unknown part id 77"),
    "part-negative": ({"parts": {0: 80.0, 1: -10.0}}, (64, 64),
                      ", person 'p0': part_volumes_dm3[1] must be >= 0 and finite"),
    "part-closure": ({"parts": {0: 30.0, 1: 38.5}}, (64, 64),
                     ", person 'p0': part_volumes_dm3 sum 68.5 does not close to volume_dm3 70.0 within 1e-06 relative"),
    "bbox-order": ({"bbox": (50.0, 10.0, 20.0, 60.0)}, (64, 64),
                   ", person 'p0': bbox_px must satisfy x_min < x_max and y_min < y_max"),
    "keypoint-part": ({"keypoints": (dm.Keypoint(1.0, 1.0, 77, True),)}, (64, 64),
                      ", person 'p0': keypoint references unknown part id 77"),
    "head-past-width": ({"head": (64.0, 10.0)}, (64, 64), ", person 'p0': head_px (64.0, 10.0) outside [0,64)x[0,64)"),
    "head-negative": ({"head": (-5.0, -5.0)}, (64, 64), ", person 'p0': head_px (-5.0, -5.0) outside [0,64)x[0,64)"),
    "bbox-outside": ({}, (64, 48), ", person 'p0': bbox_px (10.0, 10.0, 54.0, 60.0) outside [0,64]x[0,48]"),
}


@pytest.mark.parametrize("case", list(INVALID_FRAMES))
def test_frame_checks_itself_when_built_and_the_reader_names_its_line(tmp_path, case):
    kwargs, (w, h), message = INVALID_FRAMES[case]
    person = make_person(**kwargs)
    with pytest.raises(dm.ValidationError) as built:
        make_frame([person], w=w, h=h)
    assert str(built.value) == f"frame 'f0'{message}"
    line = {**dm.frame_to_dict(make_frame([])), "image_w": w, "image_h": h, "persons": [dm._person_to_dict(person)]}
    path = tmp_path / "frames.jsonl"
    path.write_text(dm.frame_to_json_line(make_frame([], frame_id="ok")) + "\n" + json.dumps(line) + "\n")
    with pytest.raises(dm.ValidationError) as read:
        dm.read_annotations(path)
    assert str(read.value) == f"{path}: line 2: frame 'f0'{message}"


# Ids that do not name a file inside a directory: `maps` writes <frame_id>.vdm.
NOT_FILE_NAMES = ["", ".", "..", "../escaped", "a/b", "/abs", "a\\b", "a\0b"]


@pytest.mark.parametrize("frame_id", NOT_FILE_NAMES)
def test_frame_id_is_a_plain_file_name_and_the_reader_names_its_line(tmp_path, frame_id):
    message = (f"frame_id {frame_id!r} is not a plain file name: it must not be "
               "empty, '.' or '..', nor hold '/', '\\' or NUL")
    with pytest.raises(dm.ValidationError) as built:
        make_frame([], frame_id=frame_id)
    assert str(built.value) == message
    line = {**dm.frame_to_dict(make_frame([])), "frame_id": frame_id}
    path = tmp_path / "frames.jsonl"
    path.write_text(dm.frame_to_json_line(make_frame([], frame_id="ok")) + "\n" + json.dumps(line) + "\n")
    with pytest.raises(dm.ValidationError) as read:
        dm.read_annotations(path)
    assert str(read.value) == f"{path}: line 2: {message}"


@pytest.mark.parametrize("frame_id", ["test_00000", "..a", "a.b", "a..b", " ", "\u00e9"])
def test_frame_ids_that_name_a_file_are_kept(frame_id):
    assert make_frame([], frame_id=frame_id).frame_id == frame_id


@pytest.mark.parametrize("frame_id", ["x" * 251, "\u00e9" * 125 + "x"])  # 251 UTF-8 bytes, 255 with '.vdm'
def test_frame_id_that_fills_a_file_name_is_kept(frame_id):
    assert make_frame([], frame_id=frame_id).frame_id == frame_id


TOO_LONG = "... is too long: <frame_id>.vdm would be a 256-byte file name, over 255"


@pytest.mark.parametrize("frame_id, message", [
    pytest.param("x" * 252, "frame_id 'xxxxxxxxxxxxxxxx'" + TOO_LONG, id="252-ascii"),
    pytest.param("\u00e9" * 126, "frame_id " + repr("\u00e9" * 16) + TOO_LONG, id="252-utf8"),
    pytest.param("a\ud800b", "frame_id 'a\\ud800b' is not a file name: it holds a lone surrogate", id="lone-surrogate"),
])
def test_frame_id_that_no_file_name_can_hold_is_rejected_on_its_line(tmp_path, frame_id, message):
    with pytest.raises(dm.ValidationError) as built:
        make_frame([], frame_id=frame_id)
    assert str(built.value) == message
    line = {**dm.frame_to_dict(make_frame([])), "frame_id": frame_id}
    path = tmp_path / "frames.jsonl"
    path.write_text(dm.frame_to_json_line(make_frame([], frame_id="ok")) + "\n" + json.dumps(line) + "\n")
    with pytest.raises(dm.ValidationError) as read:
        dm.read_annotations(path)
    assert str(read.value) == f"{path}: line 2: {message}"


def test_reader_rejects_a_frame_id_that_repeats_an_earlier_line(tmp_path):
    lines = [dm.frame_to_json_line(make_frame([], frame_id=i)) for i in ("a", "b", "c", "b")]
    path = tmp_path / "frames.jsonl"
    path.write_text("\n".join(lines[:3]) + "\n\n" + lines[3] + "\n")  # the blank line 4 is skipped
    with pytest.raises(dm.ValidationError) as read:
        dm.read_annotations(path)
    assert str(read.value) == f"{path}: line 5: frame_id 'b' repeats line 2"
    path.write_text("\n".join(lines[:3]) + "\n")
    assert [f.frame_id for f in dm.read_annotations(path)] == ["a", "b", "c"]


# ---------------------------------------------------------------------------
# OBJ
# ---------------------------------------------------------------------------

def test_obj_unit_cube_roundtrip(tmp_path):
    cube = make_box()
    path = tmp_path / "cube.obj"
    dm.write_obj(cube, path)
    mesh = dm.read_obj(path)
    assert mesh.n_vertices == 8
    assert mesh.n_faces == 12
    assert np.array_equal(mesh.vertices, cube.vertices)
    assert np.array_equal(mesh.faces, cube.faces)


def test_obj_attribute_suffixes_ignored(tmp_path):
    path = tmp_path / "attr.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1/1/1 2/2/2 3/3/3\n")
    mesh = dm.read_obj(path)
    assert mesh.faces.tolist() == [[0, 1, 2]]


def test_obj_quad_face_rejected(tmp_path):
    path = tmp_path / "quad.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
    with pytest.raises(dm.ParseError, match="non-triangular face at line 5"):
        dm.read_obj(path)


def test_obj_index_out_of_range(tmp_path):
    path = tmp_path / "oob.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 9\n")
    with pytest.raises(dm.ParseError, match="out of range"):
        dm.read_obj(path)


def test_obj_degenerate_face_names_the_file(tmp_path):
    path = tmp_path / "degenerate.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 2\n")
    with pytest.raises(dm.ValidationError, match=f"^{re.escape(str(path))}: degenerate face at index 0$"):
        dm.read_obj(path)


def test_obj_float_text_shortest_roundtrip(tmp_path):
    v = np.array([[0.1, 0.2, 0.30000000000000004], [1, 0, 0], [0, 1, 0]])
    mesh = dm.TriMesh(vertices=v, faces=np.array([[0, 1, 2], [0, 2, 1]]))
    path = tmp_path / "f.obj"
    dm.write_obj(mesh, path)
    assert np.array_equal(dm.read_obj(path).vertices, v)
    path2 = tmp_path / "g.obj"
    dm.write_obj(dm.read_obj(path), path2)
    assert path.read_bytes() == path2.read_bytes()


# ---------------------------------------------------------------------------
# VDM1
# ---------------------------------------------------------------------------

def test_vdm_2x2_roundtrip_28_bytes(tmp_path):
    values = np.array([[0.0, 1.5], [2.25, 0.0]])
    dmap = dm.DensityMap(values)
    path = tmp_path / "m.vdm"
    dm.write_vdm(dmap, path)
    raw = path.read_bytes()
    assert len(raw) == 28
    assert raw[:4] == b"VDM1"
    assert struct.unpack("<II", raw[4:12]) == (2, 2)
    back = dm.read_vdm(path)
    assert np.array_equal(back.values, values)  # 1.5 and 2.25 are float32-exact


def test_vdm_bad_magic(tmp_path):
    path = tmp_path / "bad.vdm"
    path.write_bytes(b"VDM2" + struct.pack("<II", 1, 1) + struct.pack("<f", 1.0))
    with pytest.raises(dm.ParseError, match="unsupported magic"):
        dm.read_vdm(path)


def test_vdm_truncated(tmp_path):
    path = tmp_path / "trunc.vdm"
    path.write_bytes(b"VDM1" + struct.pack("<II", 4, 4) + struct.pack("<12f", *range(12)))
    with pytest.raises(dm.ParseError, match="truncated"):
        dm.read_vdm(path)


def test_vdm_negative_value_rejected(tmp_path):
    path = tmp_path / "neg.vdm"
    path.write_bytes(b"VDM1" + struct.pack("<II", 1, 1) + struct.pack("<f", -1.0))
    with pytest.raises(dm.ParseError, match="negative"):
        dm.read_vdm(path)


def test_vdm_write_read_write_identical(tmp_path):
    rng = np.random.default_rng(7)
    dmap = dm.DensityMap(rng.random((3, 5)))
    p1, p2 = tmp_path / "a.vdm", tmp_path / "b.vdm"
    dm.write_vdm(dmap, p1)
    dm.write_vdm(dm.read_vdm(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_vdm_write_holds_one_float32_copy(tmp_path):
    rng = np.random.default_rng(8)
    dmap = dm.DensityMap(rng.random((480, 640)))
    path = tmp_path / "big.vdm"
    payload = 4 * 640 * 480
    tracemalloc.start()
    try:
        dm.write_vdm(dmap, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * payload
    expected = b"VDM1" + struct.pack("<II", 640, 480) + dmap.values.astype("<f4").tobytes()
    assert path.read_bytes() == expected


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------

CSV_FIELDS = ("a,b", 'say "hi"', "lone\rCR", "line\nbreak", "CR\r\nLF", "", "plain")


def test_csv_text_quotes_only_where_needed_and_ends_lines_in_lf():
    text = dm.csv_text([("key", "value"), ("n", 3), ("x", 0.1 + 0.2), ("inf", math.inf)])
    assert text == "key,value\nn,3\nx,0.30000000000000004\ninf,inf\n"


def test_csv_text_reads_back_field_for_field(tmp_path):
    path = tmp_path / "fields.csv"
    header = [f"c{i}" for i in range(len(CSV_FIELDS))]
    path.write_bytes(dm.csv_text([header, CSV_FIELDS]).encode("utf-8"))
    assert list(csv.reader(io.StringIO(path.read_bytes().decode("utf-8"), newline=""))) == [header, list(CSV_FIELDS)]
    assert list(dm.read_csv(path, ("c0", "c6"))) == [
        (f"{path}: line 5", {f"c{i}": field for i, field in enumerate(CSV_FIELDS)})]


def test_read_csv_skips_blank_lines_and_names_the_line_of_a_bad_row(tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text("a,b\r\n1,2\r\n\r\n3\r\n", encoding="utf-8", newline="")
    rows = dm.read_csv(path, ("a",))
    assert next(rows) == (f"{path}: line 2", {"a": "1", "b": "2"})
    with pytest.raises(dm.ParseError, match=re.escape(f"{path}: line 4: 1 fields where the header has 2")):
        next(rows)
    with pytest.raises(dm.ParseError, match=re.escape(f"{path}: missing column c")):
        list(dm.read_csv(path, ("a", "c")))


# ---------------------------------------------------------------------------
# Taxonomy and configs
# ---------------------------------------------------------------------------

def test_default_taxonomy_shape():
    tax = dm.default_taxonomy()
    assert len(tax.parts) == 9
    torso = part_id(tax, "torso")
    assert len(tax.keypoint_map[torso]) == 5
    assert sorted(pid for pid, _ in tax.parts) == list(range(9))


def test_default_taxonomy_comes_from_shipped_config():
    # the shipped config file is the source of truth, editable by users
    parsed = dm.taxonomy_from_config(dm.default_config("taxonomy"))
    assert parsed == dm.default_taxonomy()
    kp_ids = [k for kps in parsed.keypoint_map.values() for k in kps]
    assert sorted(kp_ids) == list(range(17))  # the 17-joint skeleton


def test_taxonomy_keypoints_unique_across_parts():
    with pytest.raises(dm.ValidationError, match="more than one part"):
        dm.PartTaxonomy(parts=((0, "a"), (1, "b")), keypoint_map={0: (1, 2), 1: (2,)})


def test_taxonomy_config_roundtrip(tmp_path):
    tax = dm.default_taxonomy()
    path = tmp_path / "tax.cfg"
    dm.write_keyvalues(dm.default_config("taxonomy"), path)
    back = dm.load_taxonomy(path)
    assert back.parts == tax.parts
    assert back.keypoint_map == tax.keypoint_map


def test_keyvalue_parsing(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("# comment\nfoo=1\nbar = two \n\n")
    assert dm.read_keyvalues(path) == {"foo": "1", "bar": "two"}
    path.write_text("nonsense\n")
    with pytest.raises(dm.ParseError, match="line 1"):
        dm.read_keyvalues(path)


def test_repeated_key_names_file_and_line(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("image_w=640\n# comment\nimage_w = 800\n")
    with pytest.raises(dm.ParseError, match=re.escape(f"{path}: key 'image_w' repeated at line 3")):
        dm.read_keyvalues(path)


def test_taxonomy_file_is_complete():
    tax = dm.taxonomy_from_config({"part.3.name": "body", "part.0.name": "head", "part.0.keypoints": "0, 1,"})
    assert tax.parts == ((0, "head"), (3, "body"))
    assert tax.keypoint_map == {0: (0, 1), 3: ()}


@pytest.mark.parametrize("pairs, message", [
    ({"part.0.nmae": "head"}, "t.cfg: unknown taxonomy config key 'part.0.nmae'"),
    ({"part.0.name": "head", "part.x.name": "body"}, "t.cfg: unknown taxonomy config key 'part.x.name'"),
    ({"part.0.name": "head", "part.01.name": "body"}, "t.cfg: unknown taxonomy config key 'part.01.name'"),
    ({"part.0.name": "head", "part.1.keypoints": "2"}, "t.cfg: unknown taxonomy config key 'part.1.keypoints'"),
    ({"part.0.name": "head", "part.0.keypoints": "2,x3"}, "t.cfg: part.0.keypoints='2,x3' is not a valid int list"),
    ({}, "t.cfg: taxonomy config defines no parts"),
])
def test_taxonomy_config_errors_name_file_and_key(pairs, message):
    with pytest.raises(dm.ParseError, match=re.escape(message)):
        dm.taxonomy_from_config(pairs, "t.cfg")


def test_trimesh_rejects_bad_faces():
    with pytest.raises(dm.ValidationError, match="out of range"):
        dm.TriMesh(vertices=np.zeros((3, 3)), faces=np.array([[0, 1, 5]]))
    with pytest.raises(dm.ValidationError, match="degenerate"):
        dm.TriMesh(vertices=np.eye(3), faces=np.array([[0, 1, 1]]))


def test_density_map_rejects_negative():
    with pytest.raises(dm.ValidationError):
        dm.DensityMap(np.array([[1.0, -0.5]]))


@pytest.mark.parametrize(
    "bad", [math.nan, math.inf, -math.inf, -1e-300, -0.0, 0.0, None],
    ids=["nan", "inf", "-inf", "-1e-300", "-0.0", "zeros", "empty"],
)
def test_density_map_check_matches_full_array_oracle(bad):
    values = np.zeros((0, 3)) if bad is None else np.zeros((4, 3))
    if bad is not None:
        values[2, 1] = bad
    # the check as it was, with full-size isfinite and comparison temporaries
    rejected = bool(values.size) and (not np.isfinite(values).all() or (values < 0).any())
    if rejected:
        with pytest.raises(dm.ValidationError, match="must be finite and non-negative"):
            dm.DensityMap(values)
    else:
        dmap = dm.DensityMap(values)
        assert np.array_equal(dmap.values, values)
    assert rejected == (bad in (math.inf, -math.inf, -1e-300) or bad != bad)


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (4, 3), (1, 1), (480, 640)])
def test_density_map_size_follows_its_array(tmp_path, shape):
    """The (height, width) of a map is its array's shape: the VDM header
    holds (width, height), and the map reads back at that shape."""
    dm.write_vdm(dm.DensityMap(np.zeros(shape)), tmp_path / "m.vdm")
    assert struct.unpack("<II", (tmp_path / "m.vdm").read_bytes()[4:12]) == shape[::-1]
    assert dm.read_vdm(tmp_path / "m.vdm").values.shape == shape


@pytest.mark.parametrize("shape", [(), (3,), (2, 2, 2), (1, 4, 1)])
def test_density_map_values_that_are_not_2d_are_rejected(shape):
    with pytest.raises(dm.ValidationError, match=re.escape(f"must be a 2-D array, got shape {shape}")):
        dm.DensityMap(np.zeros(shape))


def test_density_map_values_are_bounded_by_what_a_vdm_file_holds(tmp_path):
    top = float(np.finfo(np.float32).max)
    dm.write_vdm(dm.DensityMap(np.array([[top]])), tmp_path / "top.vdm")
    assert dm.read_vdm(tmp_path / "top.vdm").values[0, 0] == top
    with pytest.raises(dm.ValidationError, match="at most float32's largest"):
        dm.DensityMap(np.array([[math.nextafter(top, math.inf)]]))


def test_frame_total_volume_is_derived():
    frame = make_frame([make_person(volume=70.0), make_person(person_id="p1", head=(5, 5), volume=60.0)])
    assert frame.total_volume_dm3 == 130.0
