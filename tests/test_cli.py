import csv
import gc
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from crowdvol import anthro, evalharness, scenegen
from crowdvol.cli import PROTOCOLS, build_parser, main
from crowdvol.datamodel import (
    default_config,
    read_annotations,
    read_vdm,
    write_keyvalues,
    write_obj,
    write_vertex_labels,
)
from conftest import PLANE_CROSSES_PART, make_box, make_frusta_body, make_pinched_octahedra, make_voxel_body


SMALL_CFG = {
    "frames.train": "4",
    "frames.val": "2",
    "frames.test": "3",
    "pool.train": "6",
    "pool.val": "3",
    "pool.test": "4",
    "persons.min": "1",
    "persons.max": "5",
}


def write_cfg(tmp_path, extra=None) -> str:
    pairs = dict(SMALL_CFG)
    if extra:
        pairs.update(extra)
    path = tmp_path / "scene.cfg"
    write_keyvalues(pairs, path)
    return str(path)


def run(*argv) -> int:
    return main(list(argv))


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def test_gen_is_deterministic(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out1, out2 = tmp_path / "d1", tmp_path / "d2"
    assert run("gen", "--config", cfg, "--seed", "0", "--out", str(out1)) == 0
    assert run("gen", "--config", cfg, "--seed", "0", "--out", str(out2)) == 0
    assert tree_bytes(out1) == tree_bytes(out2)
    assert (out1 / "manifest.txt").exists()
    manifest = (out1 / "manifest.txt").read_text()
    assert "config_hash=" in manifest and "seed=0" in manifest


def test_gen_workers_do_not_change_bytes(tmp_path):
    cfg = write_cfg(tmp_path)
    out1, out2 = tmp_path / "w1", tmp_path / "w2"
    assert run("gen", "--config", cfg, "--seed", "3", "--out", str(out1), "--workers", "1") == 0
    assert run("gen", "--config", cfg, "--seed", "3", "--out", str(out2), "--workers", "4") == 0
    assert tree_bytes(out1) == tree_bytes(out2)


def test_gen_empty_crowds_allowed(tmp_path):
    cfg = write_cfg(tmp_path, {"persons.min": "0", "persons.max": "0"})
    out = tmp_path / "empty"
    assert run("gen", "--config", cfg, "--seed", "0", "--out", str(out)) == 0
    frames = read_annotations(out / "train.jsonl")
    assert all(f.n_persons == 0 for f in frames)


def test_gen_placement_failure_exit_code(tmp_path):
    cfg = write_cfg(tmp_path, {"persons.min": "40", "persons.max": "40", "area.w": "0.5", "area.d": "0.5"})
    assert run("gen", "--config", cfg, "--seed", "0", "--out", str(tmp_path / "x")) == 3


def test_gen_bad_config_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("persons.min=9\npersons.max=2\n")
    assert run("gen", "--config", str(bad), "--out", str(tmp_path / "x")) == 2


@pytest.mark.parametrize(
    "pairs, message",
    [
        ({"tag.birds_eye": "1.5"}, "tag.birds_eye must be a probability in [0, 1]"),
        ({"frames.test": "-3"}, "frames.test must be >= 0"),
        ({"persons.mx": "3"}, "unknown scene config key 'persons.mx'; did you mean 'persons.max'?"),
        ({"image_w": "0"}, "image size must be positive"),
        ({"focal.lo": "800.0", "focal.hi": "700.0"}, "focal range must satisfy 0 < lo <= hi"),
        ({"pool.val": "-1"}, "pool.val must be >= 0"),
        ({"persons.min": "1.5"}, "persons.min='1.5' is not a valid int"),
    ],
    ids=["probability", "frames", "typo", "image-size", "focal", "pool", "not-an-int"],
)
def test_gen_rejects_bad_scene_config_in_one_line(tmp_path, capsys, pairs, message):
    cfg = write_cfg(tmp_path, pairs)
    out = tmp_path / "x"
    assert run("gen", "--config", cfg, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err
    assert not out.exists()


def test_gen_dump_meshes(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path, {"pool.train": "2", "pool.val": "2", "pool.test": "2"})
    out = tmp_path / "dump"
    builds = []
    build = scenegen.build_identity_pools
    monkeypatch.setattr(scenegen, "build_identity_pools", lambda *args: builds.append(args) or build(*args))
    assert run("gen", "--config", cfg, "--out", str(out), "--dump-meshes") == 0
    assert len(builds) == 1
    objs = sorted((out / "meshes").glob("*.obj"))
    assert len(objs) == 6
    for pool in build(*builds[0]).values():
        for char in pool.characters:
            write_obj(char.body.mesh, tmp_path / "want.obj")
            write_vertex_labels(char.body.mesh.vertex_labels, tmp_path / "want.labels")
            for suffix in ("obj", "labels"):
                got = (out / "meshes" / f"{char.character_id}.{suffix}").read_bytes()
                assert got == (tmp_path / f"want.{suffix}").read_bytes()


def test_gen_builds_only_the_bodies_its_frames_use(tmp_path, monkeypatch, capsys):
    pairs = {"frames.train": "0", "frames.val": "0", "frames.test": "5"}
    cfg = tmp_path / "scene.cfg"
    write_keyvalues(pairs, cfg)
    calls = []
    build = scenegen.build_humanoid
    monkeypatch.setattr(scenegen, "build_humanoid", lambda *args: calls.append(args) or build(*args))
    outputs = {}
    for flags in ((), ("--dump-meshes",)):
        calls.clear()
        out = tmp_path / f"out{len(flags)}"
        assert run("gen", "--config", str(cfg), "--seed", "5", "--out", str(out), *flags) == 0
        outputs[flags] = (len(calls), capsys.readouterr().out, tree_bytes(out))
    (used, stdout, files), (built, all_stdout, all_files) = outputs.values()
    assert (used, built) == (16, 50 + 8 + 16)  # pool.test, against every pool of the default scene
    assert stdout == all_stdout
    assert files == {name: data for name, data in all_files.items() if not name.startswith("meshes")}


# sha256 of `gen --seed 3`'s manifest.txt, recorded anew at data version
# 0.4.0: the version line moved, and config_hash no longer covers the
# dropped tag.night, tag.rain and tag.heavy_occlusion keys. Recorded anew at
# 0.5.0, when the keypoints moved onto the body axis: only the version line
# moved. Recorded anew at 0.6.0, when log BMI came to be drawn independently
# of log height: again only the version line moved. config_hash is
# taken over the values as the config reader parsed them. "noncanonical"
# spells the shipped values otherwise, so its manifest is the default one.
MANIFEST_CONFIGS = {
    "none": None,
    "shipped": str(Path(scenegen.__file__).parent / "configs" / "scene.cfg"),
    "partial-model": "frames.train=1\nframes.val=0\nframes.test=1\ngender_mix=0.25\nbmi.hi=45.0\nbody_density=985.0\n",
    "noncanonical": "focal.lo=520\narea.w=4\npersons.max=08\nbmi.hi=5e1\nfemale.mass.sigma=.17\nimage_w=0640\n",
    "noncanonical-changed": "focal.hi=7.7e2\npersons.max=09\ntag.birds_eye=.25\nmale.height.sigma=0.0380\n"
                            "frames.train=0\nframes.val=0\nframes.test=1\n",
}
MANIFEST_DIGESTS = {
    "none": "5ea060e19936fcd08a02c2fe54acb78643d22a9dd0d4f13079097ce42fa5f188",
    "shipped": "5ea060e19936fcd08a02c2fe54acb78643d22a9dd0d4f13079097ce42fa5f188",
    "partial-model": "49c4ee2460cc76993db75c6d6dd35df2eadbf686c8008d55a4a5f7ab9d8a9cae",
    "noncanonical": "5ea060e19936fcd08a02c2fe54acb78643d22a9dd0d4f13079097ce42fa5f188",
    "noncanonical-changed": "7a6e2eec2bd0cdf7a0a931cbceedf26892b0d42f3a4e5ac56befd9923b90c49f",
}


@pytest.mark.parametrize("case", list(MANIFEST_CONFIGS))
def test_gen_manifest_digests(tmp_path, capsys, case):
    import hashlib

    config = MANIFEST_CONFIGS[case]
    if config is not None and "=" in config:
        (tmp_path / "scene.cfg").write_text(config, encoding="utf-8")
        config = str(tmp_path / "scene.cfg")
    flags = ("--config", config) if config else ()
    assert run("gen", *flags, "--seed", "3", "--out", str(tmp_path / "g")) == 0
    assert hashlib.sha256((tmp_path / "g" / "manifest.txt").read_bytes()).hexdigest() == MANIFEST_DIGESTS[case]


def config_hash(pairs: dict[str, str]) -> str:
    from crowdvol.cli import _config_hash

    read: dict[str, str] = {}
    scenegen.scene_config_from_pairs(pairs, read=read)
    return _config_hash(read, 3)


def test_config_hash_covers_every_scene_and_model_key_as_shipped():
    read: dict[str, str] = {}
    scenegen.scene_config_from_pairs({}, read=read)
    assert read == {**default_config("scene"), **default_config("model")}  # the shipped values are canonical


@pytest.mark.parametrize("key", [*default_config("scene"), *default_config("model")])
def test_config_hash_changes_with_each_key(key):
    value = {**default_config("scene"), **default_config("model")}[key]
    changed = str(int(value) + 1) if value.isdecimal() else repr(float(value) * 1.01)
    assert config_hash({key: changed}) != config_hash({})
    assert config_hash({key: value}) == config_hash({})


# ---------------------------------------------------------------------------
# label
# ---------------------------------------------------------------------------

def test_label_unit_cube_total(tmp_path, capsys):
    cube = make_box()
    write_obj(cube, tmp_path / "cube.obj")
    write_vertex_labels(np.zeros(8, dtype=np.int64), tmp_path / "cube.labels")
    assert run("label", str(tmp_path / "cube.obj"), str(tmp_path / "cube.labels")) == 0
    out = capsys.readouterr().out
    assert "part_id,name,volume_dm3" in out
    assert "0,head,1000.0" in out
    assert "total,,1000.0" in out


def test_label_humanoid_matches_analytic(tmp_path, capsys):
    sample = anthro.sample_population(anthro.model_from_config({}), 1, seed=1)[0]
    body = scenegen.build_humanoid(sample, seed=1)
    write_obj(body.mesh, tmp_path / "h.obj")
    write_vertex_labels(body.mesh.vertex_labels, tmp_path / "h.labels")
    assert run("label", str(tmp_path / "h.obj"), str(tmp_path / "h.labels")) == 0
    out = capsys.readouterr().out
    got = {}
    for line in out.strip().splitlines()[1:]:
        pid, _, vol = line.split(",")
        if pid != "total":
            got[int(pid)] = float(vol)
    for pid, analytic in body.part_volumes_dm3.items():
        assert abs(got[pid] - analytic) <= 5e-3 * analytic


def test_label_pinched_cross_section(tmp_path, capsys):
    # The boundary plane z = 0 cuts through the shared vertex of the two
    # octahedra, so the cross-section pinches there.
    mesh = make_pinched_octahedra()
    write_obj(mesh, tmp_path / "pinch.obj")
    write_vertex_labels(np.where(mesh.vertices[:, 2] < 0, 8, 0), tmp_path / "pinch.labels")
    assert run("label", str(tmp_path / "pinch.obj"), str(tmp_path / "pinch.labels")) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.strip().splitlines()[1:]]
    volumes = {pid: float(vol) for pid, _, vol in rows}
    assert volumes["0"] == pytest.approx(4000.0 / 3.0, rel=1e-12)
    assert volumes["8"] == pytest.approx(4000.0 / 3.0, rel=1e-12)


def test_label_open_mesh_exit_4(tmp_path, capsys):
    cube = make_box()
    open_mesh = type(cube)(vertices=cube.vertices, faces=cube.faces[:-1])
    write_obj(open_mesh, tmp_path / "open.obj")
    write_vertex_labels(np.zeros(8, dtype=np.int64), tmp_path / "open.labels")
    assert run("label", str(tmp_path / "open.obj"), str(tmp_path / "open.labels")) == 4
    assert "edges" in capsys.readouterr().err


def test_label_exit_2_when_a_boundary_plane_cuts_another_part(tmp_path, capsys):
    mesh = make_voxel_body(PLANE_CROSSES_PART)
    write_obj(mesh, tmp_path / "body.obj")
    write_vertex_labels(mesh.vertex_labels, tmp_path / "body.labels")
    assert run("label", str(tmp_path / "body.obj"), str(tmp_path / "body.labels")) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: boundary plane between parts 0 and 1 cuts part 2: one of its vertices "
                            "lies 2.0 m on part 0's side, beyond tol 0.005\n")


# sha256 of `label` stdout, recorded from the meshvol code that took a
# binary search per edge, a Python loop per mixed-label edge and the RMS of
# every candidate plane. A rewrite that promises the same bits keeps them; a
# data-version bump records them anew and says so in CHANGES.md. The two
# humanoids were recorded anew at 0.6.0: their sampled height and mass moved
# when log BMI came to be drawn independently of log height, so their meshes
# did; the frusta bodies kept their bits.
LABEL_DIGESTS = {
    "frusta-12x3": "929753bfe5e988be15273e9940dbd4f44cb28dfc6ab2ee5c62aa00e21aec3f00",
    "frusta-48x5": "a7e0fac875966c512c8d6e336d7129cc47e128e1357dfdfdcd3b2f85929770b9",
    "humanoid-0": "62e945f337c9ed35b3d1e908c8ee879bbf06d3443f1babb9043f13afd7728561",
    "humanoid-1": "0b9ebd99c936655a225816582e70639baa14774c589c4840136768244cf57587",
}


def label_digests(root: Path, capsys) -> dict[str, str]:
    import hashlib

    for sides, rings in ((12, 3), (48, 5)):
        body = make_frusta_body(sides, rings)
        write_obj(body, root / f"frusta-{sides}x{rings}.obj")
        write_vertex_labels(body.vertex_labels, root / f"frusta-{sides}x{rings}.labels")
    pools = {"pool.train": "0", "pool.val": "0", "pool.test": "2"}
    cfg = write_cfg(root, {**pools, "frames.train": "0", "frames.val": "0", "frames.test": "1"})
    assert run("gen", "--config", cfg, "--seed", "3", "--out", str(root / "g"), "--dump-meshes") == 0
    for i, obj in enumerate(sorted((root / "g" / "meshes").glob("*.obj"))):
        for suffix in ("obj", "labels"):
            (root / f"humanoid-{i}.{suffix}").write_bytes(obj.with_suffix(f".{suffix}").read_bytes())
    digests = {}
    for name in LABEL_DIGESTS:
        capsys.readouterr()
        assert run("label", str(root / f"{name}.obj"), str(root / f"{name}.labels")) == 0
        digests[name] = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    return digests


def test_label_stdout_digests(tmp_path, capsys):
    assert label_digests(tmp_path, capsys) == LABEL_DIGESTS


# sha256 of `stats` stdout on 400 samples (seed 4) with the shipped model.cfg
# as target: samples of the shipped model, and samples of a gender_mix=0.25
# model with the first file as --before. STATS_KL_DIGESTS covers the first
# 15 lines, up to the last KL row. STATS_DIGESTS covers the whole stdout:
# the KL rows, then eight KS rows and four sample counts, then five rows
# comparing the samples with the target's gender_mix, bmi.lo/bmi.hi and
# body_density. Both were recorded anew when the 50-bin histogram KL gave
# way to the closed-form KL of the log-normal fitted by maximum likelihood
# (female height KL of the shipped samples 0.143 -> 0.0071), and the KS and
# count rows came in. Every value comes from libm's `log`, `erfc` and
# `sqrt` and from `math.fsum`, with no numpy, so neither BLAS nor SIMD can
# move a byte.
STATS_KL_DIGESTS = {
    "shipped": "e64978dd17fea231c648ed523f296e2fae4550e249aa0e0aa5df8debad4b8674",
    "gender-mix-0.25": "4434398a0b1b752472b64b6681a15f41583c2efc978c5398b167fa07513882d2",
}
STATS_DIGESTS = {
    "shipped": "35ea5fb9520707a00c421a78928be514b5f8b2b88ea76b37a23d33ba8a6b6a81",
    "gender-mix-0.25": "0582f52908f99691513d506417a5a82412d50e4168fc5aa7dc82d299b012e7cc",
}


def stats_digests(root: Path, capsys, lines: int | None = None) -> dict[str, str]:
    """The digests of each case's stdout, or of its first `lines` lines."""
    import hashlib

    model = str(Path(anthro.__file__).parent / "configs" / "model.cfg")
    shipped, mixed = root / "shipped.csv", root / "mixed.csv"
    anthro.write_samples_csv(anthro.sample_population(anthro.model_from_config({}), 400, seed=4), shipped)
    mixed_model = anthro.model_from_config({"gender_mix": "0.25"})
    anthro.write_samples_csv(anthro.sample_population(mixed_model, 400, seed=4), mixed)
    digests = {}
    for name, argv in (
        ("shipped", [str(shipped), "--target-config", model]),
        ("gender-mix-0.25", [str(mixed), "--target-config", model, "--before", str(shipped)]),
    ):
        capsys.readouterr()
        assert run("stats", *argv) == 0
        out = "".join(capsys.readouterr().out.splitlines(keepends=True)[:lines])
        digests[name] = hashlib.sha256(out.encode("utf-8")).hexdigest()
    return digests


def test_stats_stdout_digests(tmp_path, capsys):
    assert stats_digests(tmp_path, capsys) == STATS_DIGESTS
    assert stats_digests(tmp_path, capsys, lines=15) == STATS_KL_DIGESTS


# sha256 of the outputs of a small gen -> maps -> eval chain at data version
# 0.4.0: the annotations, the manifest, all per-part maps in name order, and
# the stdout of maps and of two eval protocols. A change that keeps the data
# version keeps them; a data-version bump records them anew and says so in
# CHANGES.md. `maps.stdout` was recorded anew at 0.3.0, without a bump: it
# prints each map's mass, which summed kernels from numpy's `exp` and so
# moved with numpy's AVX-512 loops; the kernels now come from libm's `exp`,
# and the digest is the one the old code printed without AVX-512. No data
# byte moved. `eval-full.stdout` and `eval-decoupling.stdout` were recorded
# anew when every CSV report came to end its lines in LF rather than CRLF;
# each is the old stdout with every CRLF replaced by LF. All six were
# recorded anew at 0.4.0: a frame that is not bird's-eye no longer draws the
# night, rain and heavy_occlusion coin flips, so its camera, persons and
# maps moved, heavy_occlusion is measured from the hidden keypoints, and the
# manifest's version and config_hash changed. All six were recorded anew at
# 0.5.0: the keypoint anchors moved onto the body axis inside their own
# part's height band, so the keypoints, the heavy_occlusion tags, the
# per-part maps and what is printed from them moved, and the manifest's
# version line changed (decoupling PP-MAE 5.8038 -> 2.6283 dm3 at sigma 4).
# All six were recorded anew at 0.6.0: log BMI is drawn independently of log
# height, so every body's mass, volume and mesh moved, and with them the
# bboxes, keypoints, maps and the manifest's version line (decoupling PP-MAE
# 2.8583 -> 2.8620 dm3 at sigma 4, 27 of 102 persons kept on both).
CHAIN_DIGESTS = {
    "test.jsonl": "9ca045b8018a6e2621fee20260da862180df068a01254873c66ec67fdb447958",
    "manifest.txt": "537ff9538981b7ade811387b3ca4e59d1af398acf11cceedcfff9e0b09225d90",
    "maps/*.vdm": "d5b601c89a5a0d7b1c5e5288043df3c337422fe0dc601064e0f1b7b5716c6a10",
    "maps.stdout": "0360405532b2492bbb7885cde48509f20e73d4c8991e434a38a5fd4ddba837b9",
    "eval-full.stdout": "e89aecac9d224e43da6de4a98226e54793aef3b50576c99e92118767f862fc0a",
    "eval-decoupling.stdout": "f3a90c299d422e542608d0bbafd6ce86b32050c4490d47c9f28064e88357839c",
}


CHAIN_PAIRS = {"frames.train": "0", "frames.val": "0", "frames.test": "6", "persons.min": "10", "persons.max": "20"}


def chain_digests(root: Path, capsys) -> dict[str, str]:
    import hashlib

    cfg = write_cfg(root, CHAIN_PAIRS)
    outputs = {}
    for name, argv in (
        ("gen", ["gen", "--config", cfg, "--seed", "3", "--out", str(root / "g")]),
        ("maps", ["maps", str(root / "g" / "test.jsonl"), "--out", str(root / "maps"), "--per-part"]),
        ("eval-full", ["eval", "--gt", str(root / "g" / "test.jsonl"), "--preds", str(root / "maps"),
                       "--out", str(root / "e")]),
        ("eval-decoupling", ["eval", "--gt", str(root / "g" / "test.jsonl"), "--preds", str(root / "maps"),
                             "--protocol", "decoupling", "--out", str(root / "e")]),
    ):
        capsys.readouterr()
        assert run(*argv) == 0
        outputs[f"{name}.stdout"] = capsys.readouterr().out.encode("utf-8")
    outputs["test.jsonl"] = (root / "g" / "test.jsonl").read_bytes()
    outputs["manifest.txt"] = (root / "g" / "manifest.txt").read_bytes()
    outputs["maps/*.vdm"] = b"".join(p.read_bytes() for p in sorted((root / "maps").glob("*.vdm")))
    return {name: hashlib.sha256(outputs[name]).hexdigest() for name in CHAIN_DIGESTS}


def test_chain_output_digests(tmp_path, capsys):
    assert chain_digests(tmp_path, capsys) == CHAIN_DIGESTS


# sha256 of the chain's outputs that no keypoint reaches: its JSONL with each
# person's keypoints and the heavy_occlusion tag dropped, plain maps at sigma
# 0 and 4, and the dumped meshes. Recorded at data version 0.4.0; they held
# at 0.5.0, when the keypoint anchors moved onto the body axis. All four were
# recorded anew at 0.6.0, when log BMI came to be drawn independently of log
# height: every body's mass and mesh moved.
BODY_DIGESTS = {
    "test.jsonl without keypoints": "feaf577496f9a6d64f082e786aa2ebecee27ba31597a0e1a99df26d94996e285",
    "maps-sigma0/*.vdm": "f5aa208a4fce0d2fe1ad55ad180ec2c9c98f2e9f08af3467fd6e3053263d3280",
    "maps-sigma4/*.vdm": "4d7323bc23e0c8b5c04e7ce3a0176981f33cb71f9d90de2d0f4496a172fe0d1d",
    "g/meshes/*": "b85bba1e8c7e83bb793f4e8e8cd0e6bc59dd3a51e470ed28f4329e6a253e7d0f",
}


def test_keypoints_move_no_body_camera_or_plain_map_byte(tmp_path):
    import hashlib

    cfg = write_cfg(tmp_path, CHAIN_PAIRS)
    assert run("gen", "--config", cfg, "--seed", "3", "--out", str(tmp_path / "g"), "--dump-meshes") == 0
    for sigma in ("0", "4"):
        assert run("maps", str(tmp_path / "g" / "test.jsonl"), "--out", str(tmp_path / f"maps-sigma{sigma}"),
                   "--sigma", sigma) == 0
    frames = [json.loads(line) for line in (tmp_path / "g" / "test.jsonl").read_text().splitlines()]
    for frame in frames:
        frame["scene_tags"] = [tag for tag in frame["scene_tags"] if tag != "heavy_occlusion"]
        for person in frame["persons"]:
            del person["keypoints"]
    outputs = {"test.jsonl without keypoints": json.dumps(frames, sort_keys=True).encode("utf-8")}
    for pattern in list(BODY_DIGESTS)[1:]:
        outputs[pattern] = b"".join(p.read_bytes() for p in sorted(tmp_path.glob(pattern)))
    assert {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()} == BODY_DIGESTS


def test_label_missing_file_exit_2(tmp_path):
    assert run("label", str(tmp_path / "nope.obj"), str(tmp_path / "nope.labels")) == 2


def test_label_missing_taxonomy_exit_2(tmp_path, capsys):
    write_obj(make_box(), tmp_path / "cube.obj")
    write_vertex_labels(np.zeros(8, dtype=np.int64), tmp_path / "cube.labels")
    missing = tmp_path / "missing.cfg"
    code = run("label", str(tmp_path / "cube.obj"), str(tmp_path / "cube.labels"), "--taxonomy", str(missing))
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "missing.cfg" in err


def test_label_quotes_part_names(tmp_path, capsys):
    names = {0: "head, neck", 8: 'the "calves"'}
    taxonomy = default_config("taxonomy")
    taxonomy.update({f"part.{pid}.name": name for pid, name in names.items()})
    write_keyvalues(taxonomy, tmp_path / "taxonomy.cfg")
    mesh = make_pinched_octahedra()
    write_obj(mesh, tmp_path / "pinch.obj")
    write_vertex_labels(np.where(mesh.vertices[:, 2] < 0, 8, 0), tmp_path / "pinch.labels")
    argv = [str(tmp_path / "pinch.obj"), str(tmp_path / "pinch.labels"), "--taxonomy", str(tmp_path / "taxonomy.cfg")]
    assert run("label", *argv) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out, newline="")))
    assert [len(row) for row in rows] == [3, 3, 3, 3]
    assert [row[1] for row in rows] == ["name", names[0], names[8], ""]


# ---------------------------------------------------------------------------
# maps
# ---------------------------------------------------------------------------

@pytest.fixture
def dataset(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "data"
    assert run("gen", "--config", cfg, "--seed", "1", "--out", str(out)) == 0
    return out


def test_maps_sigma0_exact(dataset, tmp_path, capsys):
    out = tmp_path / "maps0"
    assert run("maps", str(dataset / "test.jsonl"), "--out", str(out), "--sigma", "0") == 0
    frames = read_annotations(dataset / "test.jsonl")
    for frame in frames:
        dmap = read_vdm(out / f"{frame.frame_id}.vdm")
        # sigma-0 impulses carry float32-exact person totals: lossless files
        assert dmap.total() == frame.total_volume_dm3
    assert "ok" in capsys.readouterr().out


def test_maps_per_part_totals_match(dataset, tmp_path):
    out_v = tmp_path / "vdm"
    out_pp = tmp_path / "ppvdm"
    assert run("maps", str(dataset / "test.jsonl"), "--out", str(out_v), "--sigma", "2") == 0
    assert run("maps", str(dataset / "test.jsonl"), "--out", str(out_pp), "--sigma", "2", "--per-part") == 0
    for frame in read_annotations(dataset / "test.jsonl"):
        v = read_vdm(out_v / f"{frame.frame_id}.vdm").total()
        pp = read_vdm(out_pp / f"{frame.frame_id}.vdm").total()
        if v > 0:
            assert abs(pp - v) <= 1e-6 * v  # holds through float32 storage too


def test_maps_holds_one_map_at_a_time(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"frames.train": "0", "frames.val": "0", "frames.test": "40"})
    data = tmp_path / "data"
    assert run("gen", "--config", cfg, "--seed", "2", "--out", str(data)) == 0
    assert {(f.image_w, f.image_h) for f in read_annotations(data / "test.jsonl")} == {(640, 480)}
    tracemalloc.start()
    try:
        assert run("maps", str(data / "test.jsonl"), "--out", str(tmp_path / "maps"), "--workers", "1") == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(list((tmp_path / "maps").glob("*.vdm"))) == 40
    assert peak < 4 * 640 * 480 * 8  # four float64 maps


def test_maps_missing_annotations_exit_2(tmp_path):
    assert run("maps", str(tmp_path / "none.jsonl"), "--out", str(tmp_path / "m")) == 2


def test_maps_workers_do_not_change_bytes(dataset, tmp_path):
    out1, out2 = tmp_path / "mw1", tmp_path / "mw2"
    assert run("maps", str(dataset / "train.jsonl"), "--out", str(out1), "--workers", "1") == 0
    assert run("maps", str(dataset / "train.jsonl"), "--out", str(out2), "--workers", "3") == 0
    assert tree_bytes(out1) == tree_bytes(out2)


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def test_eval_full_gt_maps_all_zero(dataset, tmp_path, capsys):
    maps_dir = tmp_path / "gtmaps"
    assert run("maps", str(dataset / "test.jsonl"), "--out", str(maps_dir), "--sigma", "0") == 0
    out = tmp_path / "eval"
    assert run(
        "eval", "--gt", str(dataset / "test.jsonl"), "--preds", str(maps_dir),
        "--protocol", "full", "--out", str(out),
    ) == 0
    report = (out / "report.csv").read_text()
    assert "overall,mae,0.0" in report
    assert "overall,rmse,0.0" in report


def test_readme_library_use_runs(dataset, tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    code = readme.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)  # the block reads data/test.jsonl, which `dataset` wrote
    exec(code, {})
    mae, _, rmse = (float(v) for v in capsys.readouterr().out.split())
    assert 0.0 <= mae <= 1e-6 and 0.0 <= rmse <= 1e-6  # rendered maps keep each frame's volume


def test_eval_scatter_svg_point_count(dataset, tmp_path):
    frames = read_annotations(dataset / "test.jsonl")
    preds_csv = tmp_path / "preds.csv"
    preds_csv.write_text(
        "frame_id,V_pred_dm3\n"
        + "\n".join(f"{f.frame_id},{f.total_volume_dm3 + 5.0}" for f in frames)
        + "\n"
    )
    out = tmp_path / "sc"
    assert run(
        "eval", "--gt", str(dataset / "test.jsonl"), "--preds", str(preds_csv),
        "--protocol", "scatter", "--out", str(out),
    ) == 0
    svg = (out / "scatter.svg").read_text()
    crowd = sum(1 for f in frames if f.n_persons >= 1)
    assert svg.count("<circle") == crowd
    assert (out / "scatter.csv").read_text().count("\n") == crowd + 1


def test_eval_decoupling_protocol(dataset, tmp_path):
    maps_dir = tmp_path / "gtmaps2"
    assert run("maps", str(dataset / "test.jsonl"), "--out", str(maps_dir), "--sigma", "0") == 0
    out = tmp_path / "dec"
    assert run(
        "eval", "--gt", str(dataset / "test.jsonl"), "--preds", str(maps_dir),
        "--protocol", "decoupling", "--out", str(out),
    ) == 0
    text = (out / "report.csv").read_text()
    assert "ppmae,0.0" in text
    assert "misses,0" in text


def test_eval_decoupling_scores_sigma0_part_maps_as_their_own_ground_truth(tmp_path, capsys):
    # Each keypoint lies in its own person's bbox, so the per-part map puts
    # every kept person's volume inside their bbox; only float32 storage is left.
    assert run("gen", "--seed", "3", "--out", str(tmp_path / "g")) == 0
    assert run("maps", str(tmp_path / "g" / "test.jsonl"), "--out", str(tmp_path / "maps"),
               "--sigma", "0", "--per-part") == 0
    capsys.readouterr()
    assert run("eval", "--gt", str(tmp_path / "g" / "test.jsonl"), "--preds", str(tmp_path / "maps"),
               "--protocol", "decoupling", "--out", str(tmp_path / "e")) == 0
    report = dict(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert int(report["kept"]) > 0
    assert float(report["ppmae"]) <= 1e-5


def test_eval_bins_outputs(dataset, tmp_path):
    frames = read_annotations(dataset / "train.jsonl")
    preds_csv = tmp_path / "p.csv"
    preds_csv.write_text(
        "frame_id,V_pred_dm3\n" + "\n".join(f"{f.frame_id},{f.total_volume_dm3}" for f in frames) + "\n"
    )
    out = tmp_path / "bins"
    assert run(
        "eval", "--gt", str(dataset / "train.jsonl"), "--preds", str(preds_csv),
        "--protocol", "bins", "--bin-edges", "1,3,6,inf", "--out", str(out),
    ) == 0
    assert (out / "bins.csv").exists()
    assert (out / "bins.svg").exists()


def test_eval_missing_predictions_exit_2(dataset, tmp_path):
    preds_csv = tmp_path / "short.csv"
    preds_csv.write_text("frame_id,V_pred_dm3\n")
    assert run(
        "eval", "--gt", str(dataset / "test.jsonl"), "--preds", str(preds_csv),
        "--out", str(tmp_path / "e"),
    ) == 2


@pytest.mark.parametrize(
    "csv_text, message",
    [
        ("frame_id,volume\nf0,1.0\n", "missing column V_pred_dm3"),
        ("id,V_pred_dm3\nf0,1.0\n", "missing column frame_id"),
        ("frame_id,V_pred_dm3\n{0},1.0\n{1},-2.5\n", "line 3: V_pred_dm3 must be finite and >= 0"),
        ("frame_id,V_pred_dm3\n{0},nan\n", "line 2: V_pred_dm3 must be finite and >= 0"),
        ("frame_id,V_pred_dm3\n{0},12 dm3\n", "line 2: V_pred_dm3 '12 dm3' is not a number"),
        ("frame_id,V_pred_dm3\n{0},1.0\n{1},2.0\n{0},3.0\n", "line 4: duplicate frame_id"),
    ],
    ids=["no-value-column", "no-id-column", "negative", "nan", "not-a-number", "duplicate"],
)
def test_eval_bad_predictions_csv_exit_2(dataset, tmp_path, capsys, csv_text, message):
    ids = [f.frame_id for f in read_annotations(dataset / "test.jsonl")]
    preds_csv = tmp_path / "bad.csv"
    preds_csv.write_text(csv_text.format(*ids))
    assert run(
        "eval", "--gt", str(dataset / "test.jsonl"), "--preds", str(preds_csv),
        "--out", str(tmp_path / "e"),
    ) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"{preds_csv}: " in err and message in err


def _corrupt_vdm(path: Path, kind: str) -> None:
    data = bytearray(path.read_bytes())
    if kind == "truncated":
        del data[-4:]
    elif kind == "magic":
        data[:4] = b"XXXX"
    else:
        value = {"nan": np.nan, "negative": -1.0}[kind]
        data[12:16] = np.array([value], dtype="<f4").tobytes()
    path.write_bytes(bytes(data))


@pytest.mark.parametrize("protocol", ["full", "decoupling", "bins", "scatter"])
@pytest.mark.parametrize("kind", ["truncated", "magic", "nan", "negative"])
def test_eval_corrupt_map_exit_2(dataset, tmp_path, capsys, protocol, kind):
    maps_dir = tmp_path / "maps"
    assert run("maps", str(dataset / "test.jsonl"), "--out", str(maps_dir), "--sigma", "0") == 0
    bad = maps_dir / f"{read_annotations(dataset / 'test.jsonl')[-1].frame_id}.vdm"
    _corrupt_vdm(bad, kind)
    capsys.readouterr()
    assert run(
        "eval", "--gt", str(dataset / "test.jsonl"), "--preds", str(maps_dir),
        "--protocol", protocol, "--out", str(tmp_path / "e"),
    ) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(bad) in err


@pytest.mark.parametrize("protocol", ["full", "decoupling", "bins", "scatter"])
def test_eval_reads_each_map_once(dataset, tmp_path, monkeypatch, protocol):
    maps_dir = tmp_path / "maps"
    assert run("maps", str(dataset / "train.jsonl"), "--out", str(maps_dir), "--sigma", "0") == 0
    reads = []
    real_read_vdm = evalharness.read_vdm

    def counting_read_vdm(path):
        reads.append(Path(path).name)
        return real_read_vdm(path)

    monkeypatch.setattr(evalharness, "read_vdm", counting_read_vdm)
    assert run(
        "eval", "--gt", str(dataset / "train.jsonl"), "--preds", str(maps_dir),
        "--protocol", protocol, "--out", str(tmp_path / "e"),
    ) == 0
    assert sorted(reads) == sorted(p.name for p in maps_dir.glob("*.vdm"))


def test_eval_subset_s2(dataset, tmp_path):
    frames = read_annotations(dataset / "train.jsonl")
    preds_csv = tmp_path / "p2.csv"
    preds_csv.write_text(
        "frame_id,V_pred_dm3\n" + "\n".join(f"{f.frame_id},{f.total_volume_dm3}" for f in frames) + "\n"
    )
    out = tmp_path / "s2"
    code = run(
        "eval", "--gt", str(dataset / "train.jsonl"), "--preds", str(preds_csv),
        "--subset", "S2", "--out", str(out),
    )
    n_birds = sum(1 for f in frames if "birds_eye" in f.scene_tags)
    if n_birds:
        assert code == 0
        assert f",{n_birds}" in (out / "report.csv").read_text().splitlines()[1]
    else:
        assert code == 2  # empty subset cannot be scored


def test_eval_scatter_prints_its_csv_whatever_the_out_path(dataset, tmp_path, capsys):
    maps_dir = tmp_path / "maps"
    assert run("maps", str(dataset / "test.jsonl"), "--out", str(maps_dir), "--sigma", "0") == 0
    printed = []
    for out in (tmp_path / "a", tmp_path / "b" / "c"):
        capsys.readouterr()
        assert run("eval", "--gt", str(dataset / "test.jsonl"), "--preds", str(maps_dir),
                   "--protocol", "scatter", "--out", str(out)) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1]
    assert printed[0].startswith("frame_id,ae_dm3,ppae_dm3,n_persons\n")


# Each eval protocol and each stats input: argv before --out, and the file it saves there.
REPORTS = {
    "eval-full": ("eval --gt {gt} --preds {maps} --protocol full", "report.csv"),
    "eval-decoupling": ("eval --gt {gt} --preds {maps} --protocol decoupling", "report.csv"),
    "eval-bins": ("eval --gt {gt} --preds {maps} --protocol bins", "bins.csv"),
    "eval-scatter": ("eval --gt {gt} --preds {maps} --protocol scatter", "scatter.csv"),
    "stats-annotations": ("stats {gt}", "stats.csv"),
    "stats-samples": ("stats {samples}", "stats.csv"),
    "stats-samples-target": ("stats {samples} --target-config {model}", "stats.csv"),
    "stats-samples-before": ("stats {samples} --target-config {model} --before {samples}", "stats.csv"),
}


@pytest.mark.parametrize("case", list(REPORTS))
def test_stdout_is_the_saved_report(dataset, tmp_path, capsys, case):
    paths = {"gt": dataset / "train.jsonl", "maps": tmp_path / "maps", "samples": tmp_path / "samples.csv",
             "model": Path(anthro.__file__).parent / "configs" / "model.cfg"}
    assert run("maps", str(paths["gt"]), "--out", str(paths["maps"]), "--sigma", "0") == 0
    anthro.write_samples_csv(anthro.sample_population(anthro.model_from_config({}), 40, seed=4), paths["samples"])
    argv, saved = REPORTS[case]
    out = tmp_path / "out"
    capsys.readouterr()
    assert run(*argv.format(**paths).split(), "--out", str(out)) == 0
    printed = capsys.readouterr().out.encode("utf-8")
    assert printed == (out / saved).read_bytes()
    assert printed.count(b"\n") >= 2 and b"\r" not in printed


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------

def test_stats_annotations(dataset, capsys):
    assert run("stats", str(dataset / "train.jsonl")) == 0
    out = capsys.readouterr().out
    mean = float([l for l in out.splitlines() if l.startswith("mean_person_volume_dm3")][0].split(",")[1])
    assert 40.0 <= mean <= 110.0  # sanity band implied by the BMI/height defaults


def test_stats_empty_exit_2(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert run("stats", str(empty)) == 2


def test_stats_csv_missing_column_exit_2(tmp_path, capsys):
    path = tmp_path / "samples.csv"
    path.write_text("height_m,mass_kg,bmi,volume_dm3\n1.7,70.0,24.2,70.0\n")
    assert run("stats", str(path)) == 2
    err = capsys.readouterr().err.strip()
    assert err == f"error: {path}: missing column gender"


def test_stats_csv_bad_value_exit_2(tmp_path, capsys):
    path = tmp_path / "samples.csv"
    path.write_text("gender,height_m,mass_kg,bmi,volume_dm3\nf,1.7,heavy,24.2,70.0\nm,1.8\n")
    assert run("stats", str(path)) == 2
    assert capsys.readouterr().err.strip() == f"error: {path}: line 2: bad or missing value"


def test_stats_partial_model_overrides_the_shipped_one(tmp_path, capsys):
    samples = tmp_path / "samples.csv"
    anthro.write_samples_csv(anthro.sample_population(anthro.model_from_config({}), 400, seed=4), samples)
    partial, full = tmp_path / "partial.cfg", tmp_path / "full.cfg"
    partial.write_text("gender_mix=0.25\n")
    shipped = (Path(anthro.__file__).parent / "configs" / "model.cfg").read_text(encoding="utf-8")
    assert shipped.count("\ngender_mix=0.5\n") == 1
    full.write_text(shipped.replace("\ngender_mix=0.5\n", "\ngender_mix=0.25\n"))
    outputs = []
    for cfg in (partial, full):
        assert run("stats", str(samples), "--target-config", str(cfg)) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) == 32


def test_stats_reads_the_target_gender_mix(tmp_path, capsys):
    samples = tmp_path / "samples.csv"
    anthro.write_samples_csv(anthro.sample_population(anthro.model_from_config({}), 400, seed=4), samples)
    outputs = []
    for mix in ("0.5", "0.25"):
        (tmp_path / "model.cfg").write_text(f"gender_mix={mix}\n")
        assert run("stats", str(samples), "--target-config", str(tmp_path / "model.cfg")) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] != outputs[1]
    assert outputs[0].replace("female_share_target,0.5\n", "female_share_target,0.25\n") == outputs[1]


def test_stats_out_creates_its_directory(tmp_path, capsys):
    samples = tmp_path / "samples.csv"
    anthro.write_samples_csv(anthro.sample_population(anthro.model_from_config({}), 40, seed=4), samples)
    model = str(Path(anthro.__file__).parent / "configs" / "model.cfg")
    assert run("stats", str(samples), "--target-config", model) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "new" / "dir"
    assert run("stats", str(samples), "--target-config", model, "--out", str(out)) == 0
    assert capsys.readouterr().out == printed
    assert (out / "stats.csv").read_text(encoding="utf-8") == printed


def test_stats_alignment_direction(tmp_path, capsys):
    model = anthro.model_from_config({})
    target_cfg = tmp_path / "target.cfg"
    write_keyvalues(default_config("model"), target_cfg)

    narrow_female = anthro.GenderParams(
        mass=anthro.LogNormalParams(model.female.mass.mu, model.female.mass.sigma / 5.0),
        height=anthro.LogNormalParams(model.female.height.mu, model.female.height.sigma / 5.0),
    )
    narrow_male = anthro.GenderParams(
        mass=anthro.LogNormalParams(model.male.mass.mu, model.male.mass.sigma / 5.0),
        height=anthro.LogNormalParams(model.male.height.mu, model.male.height.sigma / 5.0),
    )
    narrow = replace(model, female=narrow_female, male=narrow_male)
    before = anthro.sample_population(narrow, 8000, seed=5)
    tn_h = anthro.TruncatedNormal(mean=1.0, std=0.04, lower=0.86, upper=1.16)
    scaled = anthro.scale_samples(before, anthro.ScalingConfig(x=tn_h, y=tn_h, z=tn_h), seed=6)
    before_csv, after_csv = tmp_path / "before.csv", tmp_path / "after.csv"
    anthro.write_samples_csv(before, before_csv)
    anthro.write_samples_csv(scaled, after_csv)

    assert run("stats", str(after_csv), "--target-config", str(target_cfg), "--before", str(before_csv)) == 0
    out = capsys.readouterr().out
    befores = {l.split(",")[0]: float(l.split(",")[1]) for l in out.splitlines()
               if "_before" in l and not l.startswith("n_")}  # KL and KS; the counts do not change
    afters = {l.split(",")[0]: float(l.split(",")[1]) for l in out.splitlines() if "_after" in l}
    for key, kl_b in befores.items():
        kl_a = afters[key.replace("_before", "_after")]
        assert kl_a < kl_b


def test_stats_with_a_tiny_target_sigma_prints_inf(tmp_path, capsys):
    # r = sigma_hat / 1e-300 squares past the float range: KL is inf and its
    # change inf / inf is nan, printed with exit 0 and no traceback (a power
    # or a division by sigma^2, which underflows to 0, would raise instead)
    samples, target = tmp_path / "samples.csv", tmp_path / "tiny.cfg"
    anthro.write_samples_csv(anthro.sample_population(anthro.model_from_config({}), 40, seed=4), samples)
    target.write_text("female.height.sigma=1e-300\n", encoding="utf-8")
    capsys.readouterr()
    assert run("stats", str(samples), "--target-config", str(target)) == 0
    out, err = capsys.readouterr()
    rows = dict(line.split(",") for line in out.splitlines())
    assert (rows["kl_height_female_before"], rows["kl_height_female_pct_change"]) == ("inf", "nan")
    assert 0.0 <= float(rows["ks_height_female_before"]) <= 1.0
    assert err == ""


# ---------------------------------------------------------------------------
# argparse behavior
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("sub", ["gen", "label", "maps", "eval", "stats"])
def test_help_exits_zero(sub):
    with pytest.raises(SystemExit) as exc:
        run(sub, "--help")
    assert exc.value.code == 0


def test_unknown_flag_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run("gen", "--out", str(tmp_path / "x"), "--frobnicate")
    assert exc.value.code == 2


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        run("--version")
    assert exc.value.code == 0


# Runs the CLI module as `python -m crowdvol.cli` does, after registering an
# exit handler that reports the gc freeze count at shutdown.
SHUTDOWN_PROBE = """
import atexit, gc, runpy, sys
atexit.register(lambda: sys.stderr.write(f"freeze_count={gc.get_freeze_count()}\\n"))
sys.argv = ["crowdvol", *sys.argv[1:]]
runpy.run_module("crowdvol.cli", run_name="__main__")
"""


def test_process_exit_freezes_objects_and_keeps_exit_handlers_and_output(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"frames.train": "30", "frames.val": "30", "frames.test": "30"})
    assert run("gen", "--config", cfg, "--seed", "2", "--out", str(tmp_path / "in_process")) == 0
    want = capsys.readouterr().out
    src = str(Path(__file__).resolve().parents[1] / "src")
    with open(tmp_path / "stdout.txt", "w") as stdout:
        proc = subprocess.run(
            [sys.executable, "-c", SHUTDOWN_PROBE, "gen", "--config", cfg, "--seed", "2", "--out", str(tmp_path / "g")],
            stdout=stdout, stderr=subprocess.PIPE, text=True, env=dict(os.environ, PYTHONPATH=src),
        )
    assert proc.returncode == 0, proc.stderr
    reports = [line for line in proc.stderr.splitlines() if line.startswith("freeze_count=")]
    assert len(reports) == 1 and int(reports[0].split("=")[1]) > 0
    assert (tmp_path / "stdout.txt").read_text() == want
    assert tree_bytes(tmp_path / "g") == tree_bytes(tmp_path / "in_process")


def test_run_turns_the_collector_off_and_main_leaves_it_on(tmp_path):
    write_obj(make_box(), tmp_path / "box.obj")
    write_vertex_labels(np.zeros(8, dtype=np.int64), tmp_path / "box.labels")
    argv = ["crowdvol", "label", str(tmp_path / "box.obj"), str(tmp_path / "box.labels")]
    probe = ("import gc, sys; from crowdvol import cli; assert gc.isenabled(); "
             f"sys.argv = {argv!r}; cli.run(); print(gc.isenabled(), gc.get_freeze_count() > 0)")
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False True"
    assert run(*argv[1:]) == 0
    assert gc.isenabled()


# ---------------------------------------------------------------------------
# The exit-code boundary: every error is one `error:` line, never a traceback
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def bad_inputs(tmp_path_factory):
    """A small dataset with no birds_eye frames, its sigma-0 maps, and broken
    copies of each input file kind; {name} placeholders in ERROR_CASES."""
    root = tmp_path_factory.mktemp("bad_inputs")
    data, maps = root / "data", root / "maps"
    cfg = write_cfg(root, {"tag.birds_eye": "0.0"})
    assert run("gen", "--config", cfg, "--seed", "1", "--out", str(data)) == 0
    assert run("maps", str(data / "test.jsonl"), "--out", str(maps), "--sigma", "0") == 0
    cube, labels = root / "cube.obj", root / "cube.labels"
    box = make_box()
    write_obj(box, cube)
    write_vertex_labels(np.zeros(8, dtype=np.int64), labels)
    write_obj(type(box)(vertices=box.vertices, faces=box.faces[:-1]), root / "open.obj")
    frame = json.loads((data / "test.jsonl").read_text().splitlines()[0])
    for name, volumes in OVERFLOW_VOLUMES.items():
        bad = json.loads(json.dumps(frame))
        person = bad["persons"][0]
        bad["persons"] = [dict(person, person_id=f"p{k}", volume_dm3=volume,
                               part_volumes_dm3=parts or {part: volume for part in person["part_volumes_dm3"]})
                          for k, (volume, parts) in enumerate(volumes)]
        (root / f"{name}.jsonl").write_text(json.dumps(bad) + "\n")
    # two frames of one 1e308 dm^3 person each: every frame passes the reader, their sum overflows
    heavy = [json.loads(json.dumps(frame)) for _ in range(2)]
    for k, bad in enumerate(heavy):
        bad["frame_id"] = f"test_{k:05d}"
        bad["persons"] = [dict(bad["persons"][0], volume_dm3=1e308, part_volumes_dm3={"0": 1e308})]
    (root / "persons-sum-overflow.jsonl").write_text("".join(json.dumps(bad) + "\n" for bad in heavy))
    # the same from the first two frames, each keeping its own first person: both fall on their maps' mass
    heavy = [json.loads(line) for line in (data / "test.jsonl").read_text().splitlines()[:2]]
    for bad in heavy:
        bad["persons"] = [dict(bad["persons"][0], volume_dm3=1e308, part_volumes_dm3={"0": 1e308})]
    (root / "decoupling-sum-overflow.jsonl").write_text("".join(json.dumps(bad) + "\n" for bad in heavy))
    for name, record in KEYPOINT_RECORDS.items():
        bad = json.loads(json.dumps(frame))
        bad["persons"][0]["keypoints"][0] = record
        (root / f"{name}.jsonl").write_text(json.dumps(frame) + "\n" + json_text(bad) + "\n")
    for name, (where, key, retype, _) in STRICT_FIELDS.items():
        bad = json.loads(json.dumps(frame))
        record = {"frame": bad, "person": bad["persons"][0], "camera": bad["camera"]}[where]
        record[key] = retype(record[key])
        (root / f"{name}.jsonl").write_text(json_text(bad) + "\n")
    for name, bbox in BBOX_PAST_IMAGE.items():
        frame["persons"][0]["bbox_px"] = bbox
        (root / f"{name}.jsonl").write_text(json.dumps(frame) + "\n")
    frame["persons"][0]["bbox_px"] = [1.0, 2.0, 3.0]
    (root / "bbox3.jsonl").write_text(json.dumps(frame) + "\n")
    (root / "twice.labels").write_text("0 0\n1 0\n2 0\n1 3\n")
    pinch = make_pinched_octahedra()
    write_obj(pinch, root / "pinch.obj")
    write_vertex_labels(np.where(pinch.vertices[:, 2] < 0, 8, 0), root / "pinch.labels")
    write_obj(make_box(flip=True), root / "flipped.obj")
    slab = {(0, 0, 0): 0, (1, 0, 0): 1, (0, 1, 0): 2, (1, 1, 0): 2}  # parts 0, 1 and 2 pairwise adjacent
    for name, voxels in {"cycle": slab, "disconnected": {**slab, (4, 0, 0): 3}}.items():
        body = make_voxel_body(voxels)
        write_obj(body, root / f"{name}.obj")
        write_vertex_labels(body.vertex_labels, root / f"{name}.labels")
    bar = make_voxel_body({(0, 0, 0): 1, (1, 0, 0): 1})
    write_obj(bar, root / "bar.obj")
    on_line = (bar.vertices[:, 1] == 0) & (bar.vertices[:, 2] == 0)  # x = 0, 1 and 2 on the line y = z = 0
    write_vertex_labels(np.where(on_line, 0, 1), root / "collinear.labels")
    write_vertex_labels(np.where(on_line & (bar.vertices[:, 0] < 2), 0, 1), root / "two-points.labels")
    (root / "twice.cfg").write_text("image_w=640\nimage_w=800\n")
    # frame 1 renamed as frame 0, and frame 0 with an id that leaves the --out directory
    first, second = (json.loads(line) for line in (data / "test.jsonl").read_text().splitlines()[:2])
    repeated = (first, dict(second, frame_id="test_00000"))
    (root / "repeated-id.jsonl").write_text("".join(json.dumps(f) + "\n" for f in repeated))
    (root / "escape-id.jsonl").write_text(json.dumps(dict(first, frame_id="../escaped")) + "\n")
    long_id = (first, dict(second, frame_id="x" * 300))
    (root / "long-id.jsonl").write_text("".join(json.dumps(f) + "\n" for f in long_id))
    (root / "one_map").mkdir()
    (root / "one_map" / "test_00001.vdm").write_bytes((maps / "test_00001.vdm").read_bytes())
    (root / "all.jsonl").write_text("".join((data / f"{split}.jsonl").read_text() for split in ("train", "val", "test")))
    (root / "no_maps").mkdir()
    anthro.write_samples_csv(anthro.sample_population(anthro.model_from_config({}), 40, seed=3), root / "samples.csv")
    rows = (root / "samples.csv").read_text().splitlines()
    for name, (column, text, _) in SAMPLE_FIELDS.items():
        bad = rows[2].split(",")
        bad[rows[0].split(",").index(column)] = text
        (root / f"{name}.csv").write_text("\n".join([*rows[:2], ",".join(bad), *rows[3:]]) + "\n")
    model, taxonomy = default_config("model"), default_config("taxonomy")
    for name, pairs in {
        "model": model,
        "model-typo": {"female.mass.sigmaa" if k == "female.mass.sigma" else k: v for k, v in model.items()},
        "model-bogus": {**model, "bogus": "1"},
        "model-mu-nan": {**model, "female.height.mu": "nan"},
        "taxonomy-typo": {"part.0.nmae" if k == "part.0.name" else k: v for k, v in taxonomy.items()},
        "taxonomy-keypoints": {**taxonomy, "part.1.keypoints": "2,x3"},
    }.items():
        write_keyvalues(pairs, root / f"{name}.cfg")
    (root / "empty_samples.csv").write_text("gender,height_m,mass_kg,bmi,volume_dm3\n")
    # three samples of 1e308 dm^3 each: every row passes the reader, their sum overflows
    (root / "samples-sum-overflow.csv").write_text(
        "\n".join([rows[0], *(row.rsplit(",", 1)[0] + ",1e308" for row in rows[1:4])]) + "\n")
    # one column holding one value: the log-normal fitted to it has no spread
    for name, column, value in (("same-height", "height_m", "1.7"), ("same-mass", "mass_kg", "70.0")):
        fields = [row.split(",") for row in rows[1:]]
        for f in fields:
            f[rows[0].split(",").index(column)] = value
        (root / f"{name}.csv").write_text("\n".join([rows[0], *map(",".join, fields)]) + "\n")
    # a subnormal volume: the body density it divides into is inf, without an overflow
    (root / "subnormal-volume.csv").write_text(
        "\n".join([rows[0], rows[1].rsplit(",", 1)[0] + ",1e-310", *rows[2:4]]) + "\n")
    for name, source in [
        ("nonutf8.jsonl", data / "test.jsonl"),
        ("nonutf8.obj", cube),
        ("nonutf8.labels", labels),
        ("nonutf8.cfg", Path(cfg)),
    ]:
        (root / name).write_bytes(b"\xff" + source.read_bytes())
    (root / "nonutf8_preds.csv").write_bytes(b"frame_id,V_pred_dm3\nf\xff,1.0\n")
    (root / "nonutf8_samples.csv").write_bytes(b"gender,height_m,mass_kg,bmi,volume_dm3\n\xff\n")
    ids = [json.loads(line)["frame_id"] for line in (data / "test.jsonl").read_text().splitlines()]
    (root / "extra_preds.csv").write_text("frame_id,V_pred_dm3\n" + "".join(f"{i},100.0,999\n" for i in ids))
    (root / "short_preds.csv").write_text(f"frame_id,V_pred_dm3\n{ids[0]},100.0\n{ids[1]}\n")
    (root / "extra_samples.csv").write_text("\n".join([rows[0], *(row + ",extra" for row in rows[1:])]) + "\n")
    (root / "overflow_preds.csv").write_text("frame_id,V_pred_dm3\n" + "".join(f"{i},1e308\n" for i in ids))
    (root / "preds.csv").write_text("frame_id,V_pred_dm3\n" + "".join(f"{i},100.0\n" for i in ids))
    (root / "one.jsonl").write_text((data / "test.jsonl").read_text().splitlines()[0] + "\n")
    (root / "square_overflow_preds.csv").write_text(f"frame_id,V_pred_dm3\n{ids[0]},1e300\n")
    (root / "twice_preds.csv").write_text("frame_id,V_pred_dm3,V_pred_dm3\n" + "".join(f"{i},1.0,1000.0\n" for i in ids))
    (root / "twice_samples.csv").write_text(
        "\n".join([rows[0] + ",volume_dm3", *(row + ",1000.0" for row in rows[1:])]) + "\n")
    return {"root": str(root), "gt": str(data / "test.jsonl"), "maps": str(maps),
            "cube": str(cube), "labels": str(labels)}


def json_text(value) -> str:
    """JSON text of `value`, with each string "1e999" written as that number,
    which reads as inf."""
    return json.dumps(value).replace('"1e999"', "1e999")


def keypoint_message(record) -> str:
    """The reader's message for a bad keypoint record: a JSON constant that
    is not a number is named, any other record shown as read."""
    text = json_text(record)
    constant = next((c for c in ("NaN", "Infinity") if c in text), None)
    if constant:
        return f"{constant} is not a finite JSON number"
    return f"keypoint must be [x, y, integer part_id, visible 0 or 1], got {json.loads(text)!r}"


# Keypoint records that are not exactly [finite x, finite y, integer part_id,
# visible 0 or 1].
KEYPOINT_RECORDS = {
    "kp-extra-field": [20.0, 30.0, 0, 7, "junk"],
    "kp-visible-7": [20.0, 30.0, 0, 7],
    "kp-three-fields": [20.0, 30.0, 0],
    "kp-float-part": [20.0, 30.0, 0.5, 1],
    "kp-x-string": ["12.5", 30.0, 0, 1],
    "kp-x-nan": [math.nan, 30.0, 0, 1],
    "kp-y-infinity": [20.0, math.inf, 0, 1],
    "kp-y-1e999": [20.0, "1e999", 0, 1],
}
KEYPOINT_CASES = {
    name: (f"maps {{root}}/{name}.jsonl --out {{root}}/m", None, 2,
           f"{{root}}/{name}.jsonl: malformed annotation on line 2: {keypoint_message(record)}")
    for name, record in KEYPOINT_RECORDS.items()
}

# Annotation fields given a JSON type other than their own, or a number that
# is not finite, each in a copy of a valid frame: (the frame, its first person
# or its camera, key, new value from the old one, message fragment). Each used
# to be coerced or read without an error, but for the short rotation, which
# numpy's reshape rejected.
NUMBERS_MESSAGE = "head_px, bbox_px and volumes must be finite numbers, got "
STRICT_FIELDS = {
    "image-w-float": ("frame", "image_w", lambda w: w + 0.9, "image_w must be an integer, got 640.9"),
    "head-px-strings": ("person", "head_px", lambda xy: [str(v) for v in xy], NUMBERS_MESSAGE + "'"),
    "volume-string": ("person", "volume_dm3", str, NUMBERS_MESSAGE + "'"),
    "bbox-bool": ("person", "bbox_px", lambda box: [True, *box[1:]], NUMBERS_MESSAGE + "True"),
    "bbox-x1-1e999": ("person", "bbox_px", lambda box: [*box[:2], "1e999", box[3]], NUMBERS_MESSAGE + "inf"),
    "person-id-int": ("person", "person_id", lambda _: 7, "person_id must be a string, got 7"),
    "camera-fx-string": ("camera", "fx", lambda _: "700", "camera intrinsics must be finite numbers, got '700'"),
    "rotation-string": ("camera", "rotation", lambda rot: ["0.5", *rot[1:]],
                        "camera rotation entries must be finite numbers, got '0.5'"),
    "rotation-8-entries": ("camera", "rotation", lambda rot: rot[:8],
                           "camera rotation and translation need 9 and 3 entries, got 8 and 3"),
    "translation-nan": ("camera", "translation", lambda t: [math.nan, *t[1:]], "NaN is not a finite JSON number"),
    "tags-integers": ("frame", "scene_tags", lambda _: [1, 2], "scene_tags must be a list of strings, got [1, 2]"),
}
STRICT_CASES = {
    name: (f"stats {{root}}/{name}.jsonl", None, 2, f"{{root}}/{name}.jsonl: malformed annotation on line 1: {msg}")
    for name, (_, _, _, msg) in STRICT_FIELDS.items()
}

# Sample-file fields that read_samples_csv rejects, each on line 3 of a copy
# of a valid file: (column, text, further stats flags). Each used to be read
# and then counted, averaged or binned.
SAMPLE_FIELDS = {
    "samples-volume-nan": ("volume_dm3", "nan", ""),
    "samples-gender-alien": ("gender", "alien", ""),
    "samples-height-inf": ("height_m", "inf", " --target-config {root}/model.cfg"),
    "samples-height-nan": ("height_m", "nan", " --target-config {root}/model.cfg"),
    "samples-mass-zero": ("mass_kg", "0", ""),
    "samples-bmi-negative": ("bmi", "-24.5", ""),
}
SAMPLE_CASES = {
    name: (f"stats {{root}}/{name}.csv{flags}", None, 2, f"{{root}}/{name}.csv: line 3: " + (
        f"gender must be female or male, got {text!r}" if column == "gender"
        else f"{column} must be a finite number > 0, got {text!r}"))
    for name, (column, text, flags) in SAMPLE_FIELDS.items()
}

GEN = "gen --out {root}/g --config {cfg}"
EVAL = "eval --gt {gt} --preds {maps} --out {root}/e"

# Persons of a copy of a valid frame, each (volume_dm3, part_volumes_dm3 or
# None for that volume in every part of the original), whose volumes pass
# each check alone: a map past float32, a part sum and a frame total past
# float64. Each used to end in a traceback, or in a map `eval` rejects.
OVERFLOW_VOLUMES = {
    "map-past-float32": [(1e39, {"0": 1e39})],
    "part-sum-overflow": [(1e308, None)],
    "frame-total-overflow": [(1e308, {"0": 1e308}), (1e308, {"0": 1e308})],
}
OVERFLOW_CASES = {
    "map-past-float32": ("maps {root}/map-past-float32.jsonl --out {root}/m --sigma 0", None, 2,
                         "error: frame 'test_00000': density map values must be finite and non-negative, "
                         "at most float32's largest 3.4028234663852886e+38\n"),
    "part-sum-overflow": ("stats {root}/part-sum-overflow.jsonl", None, 2,
                          "{root}/part-sum-overflow.jsonl: line 1: frame 'test_00000', person 'p0': "
                          "part_volumes_dm3 sum overflows\n"),
    "frame-total-overflow": ("maps {root}/frame-total-overflow.jsonl --out {root}/m", None, 2,
                             "{root}/frame-total-overflow.jsonl: line 1: frame 'test_00000', person 'p1': "
                             "the frame's total volume_dm3 overflows here\n"),
    "preds-sum-overflow": ("eval --gt {gt} --preds {root}/overflow_preds.csv --out {root}/e", None, 2,
                           "error: {root}/overflow_preds.csv: mae overflows the float range\n"),
    "preds-square-overflow": ("eval --gt {root}/one.jsonl --preds {root}/square_overflow_preds.csv --out {root}/e",
                              None, 2, "error: {root}/square_overflow_preds.csv: rmse overflows the float range\n"),
    "persons-sum-overflow": ("stats {root}/persons-sum-overflow.jsonl", None, 2,
                             "error: {root}/persons-sum-overflow.jsonl: "
                             "mean_person_volume_dm3 overflows the float range\n"),
    "decoupling-sum-overflow": (EVAL.replace("{gt}", "{root}/decoupling-sum-overflow.jsonl") + " --protocol decoupling",
                                None, 2, "error: {maps}: ppmae overflows the float range\n"),
    "samples-sum-overflow": ("stats {root}/samples-sum-overflow.csv", None, 2,
                             "error: {root}/samples-sum-overflow.csv: mean_volume_dm3 overflows the float range\n"),
    "samples-density-inf": ("stats {root}/subnormal-volume.csv --target-config {root}/model.cfg", None, 2,
                            "error: {root}/subnormal-volume.csv: mean_body_density_kg_m3 overflows the float range\n"),
}

# Frame ids that cannot each name one map. Each used to exit 0: `maps` wrote
# the repeated id's second map over its first, or a map outside --out, and
# `eval` scored one frame against the other frame's map.
REPEATED_ID = "error: {root}/repeated-id.jsonl: line 2: frame_id 'test_00000' repeats line 1\n"
FRAME_ID_CASES = {
    "maps-repeated-id": ("maps {root}/repeated-id.jsonl --out {root}/m --sigma 0", None, 2, REPEATED_ID),
    "eval-repeated-id": ("eval --gt {root}/repeated-id.jsonl --preds {maps} --out {root}/e", None, 2, REPEATED_ID),
    "maps-id-not-a-file-name": ("maps {root}/escape-id.jsonl --out {root}/trav/maps", None, 2,
                                "error: {root}/escape-id.jsonl: line 1: frame_id '../escaped' is not a plain file name"),
    # a file name holds 255 bytes, so the reader rejects the id before any map is written
    "maps-id-too-long": ("maps {root}/long-id.jsonl --out {root}/m --sigma 0", None, 2,
                         "error: {root}/long-id.jsonl: line 2: frame_id 'xxxxxxxxxxxxxxxx'... is too long: "
                         "<frame_id>.vdm would be a 304-byte file name, over 255\n"),
}

# First bboxes past the 640x480 image. The reader rejects each with its file
# and line, whether or not decoupling's overlap filter would keep the person.
BBOX_PAST_IMAGE = {"bbox-700": [0, 0, 700, 480], "bbox-1e300": [0, 0, 1e300, 1e300]}
BBOX_CASES = {
    name: (EVAL.replace("{gt}", f"{{root}}/{name}.jsonl") + " --protocol decoupling", None, 2,
           f"{{root}}/{name}.jsonl: line 1: frame 'test_00000', person 'test_00000_p000': "
           f"bbox_px {tuple(map(float, bbox))} outside [0,640]x[0,480]")
    for name, bbox in BBOX_PAST_IMAGE.items()
}
BODY_BUILD = {"male.mass.mu": "6.5", "female.mass.mu": "6.5", "bmi.hi": "500"}
STATS = "stats {root}/samples.csv --target-config {root}/"
LABEL_PINCH = "label {root}/pinch.obj {root}/pinch.labels"
LABEL_TAXONOMY = "label {cube} {labels} --taxonomy {root}/"

# (argv, scene-config pairs written to {cfg}, exit code, message fragment)
ERROR_CASES = {
    "bin-edges-token": (EVAL + " --protocol bins --bin-edges 1,x", None, 2,
                        "argument --bin-edges: expected comma-separated numbers, got '1,x'"),
    "bin-edges-empty": (EVAL + " --protocol bins --bin-edges ,", None, 2,
                        "argument --bin-edges: expected comma-separated numbers, got ','"),
    "bin-edges-nan": (EVAL + " --protocol bins --bin-edges 1,nan,5", None, 2,
                      "bin edges must be strictly increasing"),
    "sigma-negative": ("maps {gt} --out {root}/m --sigma -1", None, 2, "sigma_px must be >= 0 and finite, got -1.0"),
    "sigma-nan": ("maps {gt} --out {root}/m --sigma nan", None, 2, "sigma_px must be >= 0 and finite, got nan"),
    "sigma-inf": ("maps {gt} --out {root}/m --sigma inf", None, 2, "sigma_px must be >= 0 and finite, got inf"),
    "sigma-tiny": ("maps {gt} --out {root}/m --sigma 1e-300", None, 2,
                   "sigma_px must be 0 or make 1/(2 sigma^2) finite, got 1e-300"),
    "sigma-subnormal-variance": ("maps {gt} --out {root}/m --sigma 1e-160", None, 2,
                                 "sigma_px must be 0 or make 1/(2 sigma^2) finite, got 1e-160"),
    "truncation-zero": ("maps {gt} --out {root}/m --truncation 0", None, 2,
                        "truncation_radius must be positive and finite, got 0.0"),
    "truncation-inf": ("maps {gt} --out {root}/m --truncation inf", None, 2,
                       "truncation_radius must be positive and finite, got inf"),
    "gen-out": ("gen --out /dev/null/x --config {cfg}", {}, 2, "Not a directory: '/dev/null/x'"),
    "maps-out": ("maps {gt} --out /dev/null/x", None, 2, "Not a directory: '/dev/null/x'"),
    "eval-out": ("eval --gt {gt} --preds {maps} --out /dev/null/x", None, 2, "Not a directory: '/dev/null/x'"),
    # over 70 sds of log BMI above its mean: the window's probability rounds to 0
    "infeasible-bmi": (GEN, {"bmi.lo": "1e6", "bmi.hi": "2e6"}, 2,
                       "BMI range [1000000.0, 2000000.0]: log BMI ~ N("),
    "scene-bmi-sigma": (GEN, {"female.mass.sigma": "0.05", "female.height.sigma": "0.04"}, 2,
                        "{cfg}: female: mass.sigma=0.05 must exceed 2 * height.sigma=0.04, so that log BMI = "
                        "log mass - 2 log height has a positive variance\n"),
    "scene-key-of-0.1.0": (GEN, {"sigma_px": "4.0"}, 2, "unknown scene config key 'sigma_px'"),
    "body-build": (GEN, BODY_BUILD, 2, "unreachable for height"),
    "body-build-2-workers": (GEN + " --workers 2", BODY_BUILD, 2, "unreachable for height"),
    "iou-above-1": (EVAL + " --protocol decoupling --iou-threshold 2", None, 2,
                    "iou_threshold must lie in [0, 1], got 2.0"),
    "iou-nan": (EVAL + " --protocol decoupling --iou-threshold nan", None, 2, "iou_threshold must lie in [0, 1]"),
    "min-volume-nan": (EVAL + " --protocol decoupling --min-volume nan", None, 2,
                       "min_volume_dm3 must be finite and >= 0, got nan"),
    "min-volume-negative": (EVAL + " --protocol decoupling --min-volume -1", None, 2,
                            "min_volume_dm3 must be finite and >= 0, got -1.0"),
    "gen-workers-0": (GEN + " --workers 0", {}, 2, "argument --workers: expected an integer >= 1, got '0'"),
    "gen-workers-word": (GEN + " --workers two", {}, 2, "argument --workers: expected an integer >= 1, got 'two'"),
    "maps-workers-neg": ("maps {gt} --out {root}/m --workers -3", None, 2,
                         "argument --workers: expected an integer >= 1, got '-3'"),
    "env-workers-0": ("CVE_WORKERS=0 " + GEN, {}, 2, "argument --workers: expected an integer >= 1, got '0'"),
    "env-workers-word": ("CVE_WORKERS=abc maps {gt} --out {root}/m", None, 2,
                         "argument --workers: expected an integer >= 1, got 'abc'"),
    "jsonl-not-utf8": ("maps {root}/nonutf8.jsonl --out {root}/m", None, 2, "{root}/nonutf8.jsonl: not UTF-8 text"),
    "obj-not-utf8": ("label {root}/nonutf8.obj {labels}", None, 2, "{root}/nonutf8.obj: not UTF-8 text"),
    "labels-not-utf8": ("label {cube} {root}/nonutf8.labels", None, 2, "{root}/nonutf8.labels: not UTF-8 text"),
    "config-not-utf8": ("gen --out {root}/g --config {root}/nonutf8.cfg", None, 2, "{root}/nonutf8.cfg: not UTF-8 text"),
    "taxonomy-not-utf8": ("label {cube} {labels} --taxonomy {root}/nonutf8.cfg", None, 2,
                          "{root}/nonutf8.cfg: not UTF-8 text"),
    "preds-not-utf8": ("eval --gt {gt} --preds {root}/nonutf8_preds.csv --out {root}/e", None, 2,
                       "{root}/nonutf8_preds.csv: not UTF-8 text"),
    "samples-not-utf8": ("stats {root}/nonutf8_samples.csv", None, 2, "{root}/nonutf8_samples.csv: not UTF-8 text"),
    "preds-extra-field": ("eval --gt {gt} --preds {root}/extra_preds.csv --out {root}/e", None, 2,
                          "{root}/extra_preds.csv: line 2: 3 fields where the header has 2"),
    "preds-short-row": ("eval --gt {gt} --preds {root}/short_preds.csv --out {root}/e", None, 2,
                        "{root}/short_preds.csv: line 3: 1 fields where the header has 2"),
    "samples-extra-field": ("stats {root}/extra_samples.csv", None, 2,
                            "{root}/extra_samples.csv: line 2: 6 fields where the header has 5"),
    "preds-column-twice": ("eval --gt {gt} --preds {root}/twice_preds.csv --out {root}/e", None, 2,
                           "{root}/twice_preds.csv: header names column V_pred_dm3 twice"),
    "samples-column-twice": ("stats {root}/twice_samples.csv", None, 2,
                             "{root}/twice_samples.csv: header names column volume_dm3 twice"),
    "bbox-3": ("maps {root}/bbox3.jsonl --out {root}/m", None, 2,
               "{root}/bbox3.jsonl: malformed annotation on line 1: not enough values to unpack"),
    "empty-samples": ("stats {root}/empty_samples.csv", None, 2, "{root}/empty_samples.csv: empty sample file"),
    "empty-subset": (EVAL + " --subset S2", None, 2, "subset 'S2' selects no frames"),
    "decoupling-on-totals": ("eval --gt {gt} --preds {root}/preds.csv --out {root}/e --protocol decoupling", None, 2,
                             "error: frame 'test_00000': the prediction is a total volume, not a density map; "
                             "decoupling needs a directory of .vdm maps\n"),
    "placement": (GEN, {"persons.min": "40", "persons.max": "40", "area.w": "0.5", "area.d": "0.5"}, 3,
                  "could not place"),
    "not-watertight": ("label {root}/open.obj {labels}", None, 4, "mesh is not watertight"),
    "inverted-orientation": ("label {root}/flipped.obj {labels}", None, 2,
                             "mesh encloses negative volume -1.0; orientation is inverted\n"),
    "part-cycle": ("label {root}/cycle.obj {root}/cycle.labels", None, 2,
                   "part adjacency is not a tree: 3 parts, 3 boundaries\n"),
    "parts-disconnected": ("label {root}/disconnected.obj {root}/disconnected.labels", None, 2,
                           "part adjacency graph is disconnected\n"),
    "frontier-collinear": ("label {root}/bar.obj {root}/collinear.labels", None, 2,
                           "plane fit failed between parts 0 and 1: all points are collinear\n"),
    "frontier-two-points": ("label {root}/bar.obj {root}/two-points.labels", None, 2,
                            "plane fit failed between parts 0 and 1: need at least 3 points, got 2\n"),
    "labels-vertex-twice": ("label {cube} {root}/twice.labels", None, 2,
                            "{root}/twice.labels: vertex 1 labeled again at line 4"),
    "config-key-twice": ("gen --out {root}/g --config {root}/twice.cfg", None, 2,
                         "{root}/twice.cfg: key 'image_w' repeated at line 2"),
    "scene-model-not-a-float": (GEN, {"female.mass.mu": "abc"}, 2, "{cfg}: female.mass.mu='abc' is not a valid float"),
    "scene-model-mu-nan": (GEN, {"female.mass.mu": "nan"}, 2, "need a finite mu and 0 < sigma < inf, got mu=nan"),
    "model-typo": (STATS + "model-typo.cfg", None, 2, "{root}/model-typo.cfg: unknown model config key "
                   "'female.mass.sigmaa'; did you mean 'female.mass.sigma'?"),
    "model-bogus": (STATS + "model-bogus.cfg", None, 2, "{root}/model-bogus.cfg: unknown model config key 'bogus'"),
    "model-mu-nan": (STATS + "model-mu-nan.cfg", None, 2, "need a finite mu and 0 < sigma < inf, got mu=nan"),
    "stats-before-missing": (STATS + "model.cfg --before {root}/missing.csv", None, 2,
                             "No such file or directory: '{root}/missing.csv'"),
    "stats-annotations-target-config": ("stats {gt} --target-config {root}/model-typo.cfg --before {root}/missing.csv",
                                        None, 2, "stats: --target-config is not used with annotations"),
    "stats-annotations-before": ("stats {gt} --before {root}/samples.csv", None, 2,
                                 "stats: --before is not used with annotations"),
    # a column without spread names its file, gender and column; --before's file is read first
    "samples-no-spread": (STATS.replace("samples.csv", "same-height.csv") + "model.cfg", None, 2,
                          "error: {root}/same-height.csv: height_m of the female samples has no spread\n"),
    "before-no-spread": (STATS + "model.cfg --before {root}/same-mass.csv", None, 2,
                         "error: {root}/same-mass.csv: mass_kg of the female samples has no spread\n"),
    "stats-samples-before": ("stats {root}/samples.csv --before {root}/samples.csv", None, 2,
                             "stats: --before is not used with a samples .csv without --target-config"),
    "scene-tag-range": (GEN, {"tag.birds_eye": "1.5"}, 2, "{cfg}: tag.birds_eye must be a probability in [0, 1]"),
    "scene-tag-of-0.3.0": (GEN, {"tag.night": "0.2"}, 2, "{cfg}: unknown scene config key 'tag.night'"),
    # a hint names a key of the same family: the text before the first ".", or none for an undotted key
    "scene-tag-rain": (GEN, {"tag.rain": "0.2"}, 2, "{cfg}: unknown scene config key 'tag.rain'\n"),
    "scene-key-typo": (GEN, {"imag_w": "640"}, 2, "{cfg}: unknown scene config key 'imag_w'; did you mean 'image_w'?"),
    "seed-2**64": (GEN + " --seed 18446744073709551616", {}, 2,
                   "argument --seed: expected an integer in [0, 2**64), got '18446744073709551616'"),
    "seed-negative": (GEN + " --seed -1", {}, 2, "argument --seed: expected an integer in [0, 2**64), got '-1'"),
    "preds-missing": ("eval --gt {root}/all.jsonl --preds {root}/no_maps --out {root}/e", None, 2,
                      "missing predictions for frames: train_00000, train_00001, train_00002, train_00003, "
                      "val_00000, val_00001, test_00000, test_00001 (+1 more)"),
    # decoupling lists them as full does; it used to name only the first
    "decoupling-preds-missing": (EVAL.replace("{maps}", "{root}/one_map") + " --protocol decoupling", None, 2,
                                 "error: missing predictions for frames: test_00000, test_00002\n"),
    "scene-lognormal-range": (GEN, {"female.mass.mu": "nan"}, 2,
                              "{cfg}: female.mass: need a finite mu and 0 < sigma < inf, got mu=nan"),
    "taxonomy-typo": (LABEL_TAXONOMY + "taxonomy-typo.cfg", None, 2,
                      "{root}/taxonomy-typo.cfg: unknown taxonomy config key 'part.0.nmae'"),
    "taxonomy-keypoints": (LABEL_TAXONOMY + "taxonomy-keypoints.cfg", None, 2,
                           "{root}/taxonomy-keypoints.cfg: part.1.keypoints='2,x3' is not a valid int list"),
    "tol-negative": (LABEL_PINCH + " --tol -1", None, 2, "plane tolerance must be positive and finite, got -1.0"),
    "tol-nan": (LABEL_PINCH + " --tol nan", None, 2, "plane tolerance must be positive and finite, got nan"),
    "tol-inf": (LABEL_PINCH + " --tol inf", None, 2, "plane tolerance must be positive and finite, got inf"),
    **KEYPOINT_CASES,
    **STRICT_CASES,
    **SAMPLE_CASES,
    **BBOX_CASES,
    **OVERFLOW_CASES,
    **FRAME_ID_CASES,
}


@pytest.mark.parametrize("case", list(ERROR_CASES))
def test_error_is_one_line_with_its_exit_code(bad_inputs, tmp_path, capsys, monkeypatch, case):
    argv, pairs, code, fragment = ERROR_CASES[case]
    paths = dict(bad_inputs, cfg=write_cfg(tmp_path, pairs) if pairs is not None else "")
    tokens = argv.split()
    while "=" in tokens[0]:  # leading NAME=value tokens set the environment, as in a shell
        monkeypatch.setenv(*tokens.pop(0).split("=", 1))
    capsys.readouterr()
    try:
        got = main([tok.format(**paths) for tok in tokens])
    except SystemExit as exc:  # argparse rejected a flag
        got = exc.code
    out, err = capsys.readouterr()
    assert got == code
    if tokens[0] == "stats":  # stats checks every input before its first line
        assert out == ""
    assert "Traceback" not in err
    error_lines = [line for line in err.splitlines() if "error:" in line]
    assert len(error_lines) == 1 and fragment.format(**paths) in error_lines[0] + "\n"  # a final "\n" ends the line
    if not fragment.startswith("argument "):
        assert err == error_lines[0] + "\n"


@pytest.mark.parametrize("frame_id", ["../escaped", "../../escaped", pytest.param("x" * 300, id="long_id")])
def test_maps_writes_no_map_outside_out_for_an_id_that_is_not_a_file_name(bad_inputs, tmp_path, frame_id):
    # the bad id on the second line: not even the first frame's map is written
    first, second = map(json.loads, Path(bad_inputs["gt"]).read_text().splitlines()[:2])
    (tmp_path / "bad.jsonl").write_text(json.dumps(first) + "\n" + json.dumps(dict(second, frame_id=frame_id)) + "\n")
    out = tmp_path / "trav" / "maps"
    (tmp_path / "trav").mkdir()
    assert run("maps", str(tmp_path / "bad.jsonl"), "--out", str(out), "--sigma", "0") == 2
    assert list(tmp_path.rglob("*.vdm")) == []


def test_map_that_cannot_be_allocated_is_one_line(bad_inputs, tmp_path, capsys, monkeypatch):
    # The allocation is refused rather than tried: a machine that overcommits
    # memory could grant the 1.16 TiB.
    frame = json.loads(Path(bad_inputs["gt"]).read_text().splitlines()[0])
    frame.update(image_w=400000, image_h=400000)
    (tmp_path / "huge.jsonl").write_text(json.dumps(frame) + "\n")
    zeros = np.zeros

    def refusing(shape, *args, **kwargs):
        if shape == (400000, 400000):
            raise MemoryError("Unable to allocate 1.16 TiB")
        return zeros(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", refusing)
    capsys.readouterr()
    assert main(["maps", str(tmp_path / "huge.jsonl"), "--out", str(tmp_path / "m"), "--workers", "1"]) == 2
    assert capsys.readouterr().err == f"error: frame {frame['frame_id']!r}: no memory for a 400000x400000 density map\n"


def test_warning_is_one_line(bad_inputs, monkeypatch, capsys):
    """A library UserWarning reaches a CLI user as one `warning:` line."""
    def warning_preset(frames, name):
        warnings.warn("a library warning", stacklevel=2)
        return []

    monkeypatch.setattr(evalharness, "apply_subset_preset", warning_preset)
    capsys.readouterr()
    assert main(EVAL.format(**bad_inputs).split() + ["--subset", "S2"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "warning: a library warning",
        "error: subset 'S2' selects no frames",
    ]


def test_subset_choices_are_the_presets():
    commands = next(a for a in build_parser()._actions if a.dest == "command")
    subset = next(a for a in commands.choices["eval"]._actions if a.dest == "subset")
    assert list(subset.choices) == list(evalharness.SUBSETS)


def test_protocol_choices_are_the_table():
    commands = next(a for a in build_parser()._actions if a.dest == "command")
    protocol = next(a for a in commands.choices["eval"]._actions if a.dest == "protocol")
    assert list(protocol.choices) == list(PROTOCOLS)


def test_s1_on_frames_without_heavy_occlusion_prints_nothing_on_stderr(bad_inputs, capsys):
    """S1 excludes heavy_occlusion, so a set with no such frame is S1 whole."""
    assert not any("heavy_occlusion" in f.scene_tags for f in read_annotations(bad_inputs["gt"]))
    capsys.readouterr()
    assert main(EVAL.format(**bad_inputs).split() + ["--subset", "S1"]) == 0
    out, err = capsys.readouterr()
    assert out and err == ""
