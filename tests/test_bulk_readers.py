"""The bulk OBJ, labels and keypoint readers and the array-built humanoid mesh
against the per-record versions they replaced (`loop_reference`).

Arrays must be equal bit for bit and frames equal; a malformed file must
raise the same exception with the same message, line number included.
Each file is read with the default chunk size and with chunks of a few
lines, so records, errors and fallbacks also land in later chunks.
"""
import json
import tracemalloc

import numpy as np
import pytest

import loop_reference as ref
from crowdvol import anthro, scenegen
from crowdvol import datamodel as dm

CHUNKS = (dm._CHUNK_CHARS, 40)


@pytest.fixture(params=CHUNKS, ids=["one-chunk", "40-char-chunks"])
def chunk(request, monkeypatch):
    monkeypatch.setattr(dm, "_CHUNK_CHARS", request.param)
    return request.param


def _refuse(*args):
    raise AssertionError("the record-by-record reader ran")


def assert_same_mesh(new: dm.TriMesh, old: dm.TriMesh) -> None:
    assert new.vertices.dtype == old.vertices.dtype and new.faces.dtype == old.faces.dtype
    assert new.vertices.tobytes() == old.vertices.tobytes()
    assert new.faces.tobytes() == old.faces.tobytes()


def assert_same_outcome(read_new, read_old, *args) -> None:
    """Both readers return equal arrays, or raise the same exception type
    with the same message."""
    try:
        want = read_old(*args)
    except (dm.ParseError, dm.ValidationError) as exc:
        with pytest.raises(type(exc)) as got:
            read_new(*args)
        assert type(got.value) is type(exc) and str(got.value) == str(exc)
        return
    got = read_new(*args)
    if isinstance(want, dm.TriMesh):
        assert_same_mesh(got, want)
    else:
        assert got.dtype == want.dtype and np.array_equal(got, want)


# ---------------------------------------------------------------------------
# OBJ and labels: a large body
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def body(tmp_path_factory):
    """A 55,296-face stack of 1,152 jittered frusta rings, written by write_obj."""
    rng = np.random.default_rng(7)
    z = np.cumsum(rng.uniform(1e-4, 2e-3, size=1152))
    radii = rng.uniform(0.02, 0.2, size=1152)
    parts = np.repeat(np.arange(9), 128)
    mesh = scenegen._mesh_from_profile(list(zip(z.tolist(), radii.tolist(), parts.tolist())))
    root = tmp_path_factory.mktemp("body")
    dm.write_obj(mesh, root / "body.obj")
    dm.write_vertex_labels(mesh.vertex_labels, root / "body.labels")
    return mesh, root / "body.obj", root / "body.labels"


def test_large_body_matches_record_readers(body, monkeypatch):
    mesh, obj, labels = body
    assert mesh.n_faces == 55_296 and mesh.n_vertices == 27_650
    monkeypatch.setattr(dm, "_obj_records", _refuse)
    monkeypatch.setattr(dm, "_label_records", _refuse)
    got = dm.read_obj(obj)
    assert_same_mesh(got, ref.read_obj(obj))
    assert_same_mesh(got, mesh)
    assert "e-" in obj.read_text()  # exponent floats near the axes
    want_labels = ref.read_vertex_labels(labels, mesh.n_vertices)
    assert np.array_equal(dm.read_vertex_labels(labels, mesh.n_vertices), want_labels)
    assert np.array_equal(want_labels, mesh.vertex_labels)


def test_bulk_parse_spans_many_chunks(body, monkeypatch, tmp_path):
    mesh = scenegen.build_humanoid(anthro.sample_population(anthro.default_model(), 1, 3)[0], 3).mesh
    dm.write_obj(mesh, tmp_path / "h.obj")
    dm.write_vertex_labels(mesh.vertex_labels, tmp_path / "h.labels")
    monkeypatch.setattr(dm, "_CHUNK_CHARS", 300)
    monkeypatch.setattr(dm, "_obj_records", _refuse)
    monkeypatch.setattr(dm, "_label_records", _refuse)
    assert_same_mesh(dm.read_obj(tmp_path / "h.obj"), mesh)
    assert np.array_equal(dm.read_vertex_labels(tmp_path / "h.labels", mesh.n_vertices), mesh.vertex_labels)


def test_read_obj_peak_memory_is_at_most_the_record_readers(body):
    _, obj, _ = body

    def peak(read) -> int:
        tracemalloc.start()
        try:
            read(obj)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    dm.read_obj(obj)  # first-call set-up out of the measurement
    assert peak(dm.read_obj) <= peak(ref.read_obj)


# ---------------------------------------------------------------------------
# OBJ: edge layouts and the error table
# ---------------------------------------------------------------------------

TETRA = "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\nf 1 3 2\nf 1 2 4\nf 2 3 4\nf 1 4 3\n"

OBJ_FILES = {
    "plain": TETRA,
    "comments": "# tetrahedron\n" + TETRA.replace("f 1 3 2", "#face\nf 1 3 2") + "# end\n",
    "blank-lines": "\n" + TETRA.replace("v 0 0 1\n", "v 0 0 1\n\n   \n") + "\n\n",
    "leading-whitespace": TETRA.replace("v 1", "   v 1").replace("f 2", "\tf 2"),
    "tabs": TETRA.replace("v 0 1 0", "v\t0\t1\t0").replace("f 1 2 4", "f\t1 2\t4"),
    "crlf": TETRA.replace("\n", "\r\n"),
    "face-slashes": TETRA.replace("f 1 3 2", "f 1/1/1 3/2/2 2/3/3").replace("f 2 3 4", "f 2//1 3//1 4//1"),
    "exponent-floats": TETRA.replace("v 1 0 0", "v 1e0 -0.0E+0 2.5e-308").replace("v 0 0 1", "v 0 0 1.0E+3"),
    "underscore-digits": TETRA.replace("v 1 0 0", "v 1_0 0 0"),
    "face-before-later-vertices": "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 3 2\nv 0 0 1\nf 1 2 4\nf 2 3 4\nf 1 4 3\n",
    "no-final-newline": TETRA.rstrip("\n"),
    "empty": "",
    "vertices-only": "v 0 0 0\nv 1 2 3\n",
}

BAD_OBJ = {
    "quad-face": TETRA + "f 1 2 3 4\n",
    "bad-float": TETRA.replace("v 0 1 0", "v 0 1.0.0 0"),
    "nan-word-float": TETRA.replace("v 0 1 0", "v 0 one 0"),
    "short-vertex": TETRA.replace("v 0 1 0", "v 0 1"),
    "bare-v": TETRA.replace("v 0 1 0", "v"),
    "long-vertex": TETRA.replace("v 0 1 0", "v 0 1 0 1"),
    "index-zero": TETRA + "f 0 1 2\n",
    "index-negative": TETRA + "f -1 1 2\n",
    "index-past-read-vertices": "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 4\nv 0 0 1\n",
    "index-past-all-vertices": TETRA + "f 1 2 5\n",
    "bad-face-index": TETRA + "f 1 x 2\n",
    "range-before-bad-token": TETRA + "f 9 x 1\n",
    "slash-without-index": TETRA + "f /1 2 3\n",
    "unsupported-record": TETRA.replace("f 2 3 4", "vt 0.5 0.5"),
    "vertex-without-space": TETRA.replace("v 0 1 0", "v0 1 0"),
    "vertex-without-letter": TETRA.replace("v 0 1 0", "0 1 0"),
    "face-without-letter": TETRA.replace("f 2 3 4", "2 3 4"),
    "trailing-comment-on-vertex": TETRA.replace("v 0 0 1", "v 0 0 1 # apex"),
    "degenerate-face": TETRA + "f 1 1 2\n",
}


@pytest.mark.parametrize("name", list(OBJ_FILES))
def test_obj_edge_layouts_match_record_reader(name, chunk, tmp_path):
    path = tmp_path / f"{name}.obj"
    path.write_bytes(OBJ_FILES[name].encode("utf-8"))
    assert_same_outcome(dm.read_obj, ref.read_obj, path)


@pytest.mark.parametrize("name", list(BAD_OBJ))
def test_malformed_obj_raises_the_record_readers_error(name, chunk, tmp_path):
    path = tmp_path / f"{name}.obj"
    path.write_text(BAD_OBJ[name], encoding="utf-8")
    with pytest.raises((dm.ParseError, dm.ValidationError)):
        ref.read_obj(path)
    assert_same_outcome(dm.read_obj, ref.read_obj, path)


def test_clean_layouts_skip_the_record_reader(monkeypatch, tmp_path):
    monkeypatch.setattr(dm, "_obj_records", _refuse)
    for name in ("plain", "exponent-floats", "no-final-newline", "vertices-only"):
        path = tmp_path / f"{name}.obj"
        path.write_text(OBJ_FILES[name], encoding="utf-8")
        assert_same_mesh(dm.read_obj(path), ref.read_obj(path))


# ---------------------------------------------------------------------------
# Labels
# ---------------------------------------------------------------------------

LABELS = "0 1\n1 2\n2 0\n3 8\n"

LABEL_FILES = {
    "plain": LABELS,
    "comments-and-blank-lines": "# parts\n\n" + LABELS.replace("2 0\n", "2 0\n   \n# apex\n"),
    "any-order": "3 8\n0 1\n2 0\n1 2\n",
    "leading-whitespace-and-tabs": "  0 1\n1\t2\n\t2 0\n3 8\n",
    "crlf": LABELS.replace("\n", "\r\n"),
    "plus-sign-and-zeros": "+0 01\n1 2\n2 0\n3 +8\n",
    "underscore-digits": "0 1_0\n1 2\n2 0\n3 8\n",
    "bad-field-count": LABELS + "0 1 2\n",
    "bad-integer": LABELS.replace("2 0", "2 zero"),
    "float-integer": LABELS.replace("2 0", "2 0.0"),
    "vertex-out-of-range": LABELS + "4 1\n",
    "negative-vertex": LABELS.replace("3 8", "-1 8"),
    "missing-vertex": LABELS.replace("2 0\n", ""),
    "negative-part": LABELS.replace("2 0", "2 -1"),
    "trailing-comment": LABELS.replace("2 0", "2 0 # apex"),
}


@pytest.mark.parametrize("name", list(LABEL_FILES))
def test_labels_match_record_reader(name, chunk, tmp_path):
    path = tmp_path / f"{name}.labels"
    path.write_bytes(LABEL_FILES[name].encode("utf-8"))
    assert_same_outcome(dm.read_vertex_labels, ref.read_vertex_labels, path, 4)


@pytest.mark.parametrize("text, line", [
    ("0 1\n0 3\n1 2\n2 0\n3 8\n", 2),
    ("0 1\n1 2\n2 0\n3 8\n\n# again\n3 8\n", 7),
    ("0 1\n1 2\n2 0\n3 8\n" + "".join("# filler line\n" for _ in range(10)) + "1 2\n", 15),
])
def test_labels_file_naming_a_vertex_twice_is_a_parse_error(chunk, tmp_path, text, line):
    path = tmp_path / "twice.labels"
    path.write_text(text, encoding="utf-8")
    vertex = text.splitlines()[line - 1].split()[0]
    with pytest.raises(dm.ParseError, match=rf"^{path}: vertex {vertex} labeled again at line {line}$"):
        dm.read_vertex_labels(path, 4)


def test_labels_part_id_beyond_int64_is_a_parse_error(tmp_path):
    path = tmp_path / "huge.labels"
    path.write_text("0 1\n1 99999999999999999999\n", encoding="utf-8")
    with pytest.raises(dm.ParseError, match=r"part id 99999999999999999999 out of range at line 2$"):
        dm.read_vertex_labels(path, 2)


# ---------------------------------------------------------------------------
# Humanoid meshes
# ---------------------------------------------------------------------------

def test_humanoid_meshes_match_per_vertex_builder(monkeypatch):
    profiles = []
    build = scenegen._mesh_from_profile
    monkeypatch.setattr(scenegen, "_mesh_from_profile", lambda profile: profiles.append(profile) or build(profile))
    for seed in range(10):
        sample = anthro.sample_population(anthro.default_model(), 1, seed)[0]
        mesh = scenegen.build_humanoid(sample, seed).mesh
        want = ref.mesh_from_profile(profiles[-1])
        assert_same_mesh(mesh, want)
        assert np.array_equal(mesh.vertex_labels, want.vertex_labels)
    assert len(profiles) == 10


# ---------------------------------------------------------------------------
# Keypoints
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def frame_dicts():
    cfg = scenegen.SceneConfig()
    pool = scenegen.build_identity_pools(cfg, 2)["test"]
    return [json.loads(dm.frame_to_json_line(scenegen.generate_frame(cfg, pool, 2, i))) for i in range(10)]


def test_persons_match_per_keypoint_reader(frame_dicts):
    persons = [p for frame in frame_dicts for p in frame["persons"]]
    assert sum(len(p["keypoints"]) for p in persons) > 400
    assert {k[3] for p in persons for k in p["keypoints"]} == {0, 1}
    for d in persons:
        got = dm._person_from_dict(d)
        assert got == ref.person_from_dict(d)
        assert all(type(kp) is dm.Keypoint and type(kp.visible) is bool for kp in got.keypoints)
        assert dm._person_to_dict(got) == d


@pytest.mark.parametrize("record", [
    [20.0, 30.0, 0, 7, "junk"],
    [20.0, 30.0, 0, 7],
    [20.0, 30.0, 0],
    [20.0, 30.0, 0.0, 1],
    [20.0, 30.0, "0", 1],
    [20.0, 30.0, True, 1],
    [20.0, 30.0, 0, True],
    [20.0, 30.0, 0, 1.0],
    {"x": 20.0, "y": 30.0, "part_id": 0, "visible": 1},
])
def test_keypoint_record_must_be_four_fields_with_integer_part_and_0_or_1(frame_dicts, tmp_path, record):
    frame = json.loads(json.dumps(frame_dicts[0]))
    frame["persons"][0]["keypoints"][3] = record
    path = tmp_path / "frames.jsonl"
    path.write_text(json.dumps(frame_dicts[1]) + "\n" + json.dumps(frame) + "\n", encoding="utf-8")
    with pytest.raises(dm.ParseError) as exc:
        dm.read_annotations(path)
    assert str(exc.value) == (
        f"{path}: malformed annotation on line 2: "
        f"keypoint must be [x, y, integer part_id, visible 0 or 1], got {record!r}"
    )


def test_unknown_keypoint_part_names_the_first_in_order():
    kps = tuple(dm.Keypoint(1.0, 1.0, pid, True) for pid in (0, 91, 1, 77, 91))
    person = dm.PersonAnnotation("p", "c", (1.0, 1.0), (0.0, 0.0, 2.0, 2.0), 10.0, {0: 10.0}, kps)
    with pytest.raises(dm.ValidationError, match="unknown part id 91$"):
        dm.validate_person(person, dm.default_taxonomy())
