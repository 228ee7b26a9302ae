import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from crowdvol import anthro, evalharness, scenegen
from crowdvol.cli import main
from crowdvol.datamodel import (
    default_config,
    read_annotations,
    read_vdm,
    write_keyvalues,
    write_obj,
    write_vertex_labels,
)
from conftest import make_box, make_frusta_body, make_pinched_octahedra


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
    sample = anthro.sample_population(anthro.default_model(), 1, seed=1)[0]
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


# sha256 of `label` stdout, recorded from the meshvol code that took a
# binary search per edge, a Python loop per mixed-label edge and the RMS of
# every candidate plane. A rewrite that promises the same bits keeps them; a
# data-version bump records them anew and says so in CHANGES.md.
LABEL_DIGESTS = {
    "frusta-12x3": "929753bfe5e988be15273e9940dbd4f44cb28dfc6ab2ee5c62aa00e21aec3f00",
    "frusta-48x5": "a7e0fac875966c512c8d6e336d7129cc47e128e1357dfdfdcd3b2f85929770b9",
    "humanoid-0": "89b8aaf9fbbc3133f7a250080e413aaaaef9d6238198035660dbbb5a67eac750",
    "humanoid-1": "00f0b2de17c8b928c8bd5b9fbdb6f1a6b20b7079a98c5c3373be9dd57ba7c83d",
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
    anthro.write_samples_csv(anthro.sample_population(anthro.default_model(), 400, seed=4), samples)
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
    assert len(outputs[0].splitlines()) == 15


def test_stats_out_creates_its_directory(tmp_path, capsys):
    samples = tmp_path / "samples.csv"
    anthro.write_samples_csv(anthro.sample_population(anthro.default_model(), 40, seed=4), samples)
    model = str(Path(anthro.__file__).parent / "configs" / "model.cfg")
    assert run("stats", str(samples), "--target-config", model) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "new" / "dir"
    assert run("stats", str(samples), "--target-config", model, "--out", str(out)) == 0
    assert capsys.readouterr().out == printed
    assert (out / "alignment.csv").read_text().startswith("metric,before,after,pct_change\n")


def test_stats_alignment_direction(tmp_path, capsys):
    model = anthro.default_model()
    target_cfg = tmp_path / "target.cfg"
    write_keyvalues(anthro.model_to_config(model), target_cfg)

    narrow_female = anthro.GenderParams(
        mass=anthro.LogNormalParams(model.female.mass.mu, model.female.mass.sigma / 5.0),
        height=anthro.LogNormalParams(model.female.height.mu, model.female.height.sigma / 5.0),
    )
    narrow_male = anthro.GenderParams(
        mass=anthro.LogNormalParams(model.male.mass.mu, model.male.mass.sigma / 5.0),
        height=anthro.LogNormalParams(model.male.height.mu, model.male.height.sigma / 5.0),
    )
    narrow = anthro.AnthropometricModel(female=narrow_female, male=narrow_male)
    before = anthro.sample_population(narrow, 8000, seed=5)
    tn_h = anthro.TruncatedNormal(mean=1.0, std=0.04, lower=0.86, upper=1.16)
    scaled = anthro.scale_samples(before, anthro.ScalingConfig(x=tn_h, y=tn_h, z=tn_h), seed=6)
    before_csv, after_csv = tmp_path / "before.csv", tmp_path / "after.csv"
    anthro.write_samples_csv(before, before_csv)
    anthro.write_samples_csv(scaled, after_csv)

    assert run("stats", str(after_csv), "--target-config", str(target_cfg), "--before", str(before_csv)) == 0
    out = capsys.readouterr().out
    befores = {l.split(",")[0]: float(l.split(",")[1]) for l in out.splitlines() if "_before" in l}
    afters = {l.split(",")[0]: float(l.split(",")[1]) for l in out.splitlines() if "_after" in l}
    for key, kl_b in befores.items():
        kl_a = afters[key.replace("_before", "_after")]
        assert kl_a < kl_b


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
    for name, record in KEYPOINT_RECORDS.items():
        bad = json.loads(json.dumps(frame))
        bad["persons"][0]["keypoints"][0] = record
        (root / f"{name}.jsonl").write_text(json.dumps(frame) + "\n" + json.dumps(bad) + "\n")
    for name, (where, key, retype, _) in STRICT_FIELDS.items():
        bad = json.loads(json.dumps(frame))
        record = bad if where == "frame" else bad["persons"][0]
        record[key] = retype(record[key])
        (root / f"{name}.jsonl").write_text(json.dumps(bad) + "\n")
    frame["persons"][0]["bbox_px"] = [1.0, 2.0, 3.0]
    (root / "bbox3.jsonl").write_text(json.dumps(frame) + "\n")
    (root / "twice.labels").write_text("0 0\n1 0\n2 0\n1 3\n")
    pinch = make_pinched_octahedra()
    write_obj(pinch, root / "pinch.obj")
    write_vertex_labels(np.where(pinch.vertices[:, 2] < 0, 8, 0), root / "pinch.labels")
    (root / "twice.cfg").write_text("image_w=640\nimage_w=800\n")
    anthro.write_samples_csv(anthro.sample_population(anthro.default_model(), 40, seed=3), root / "samples.csv")
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
    for name, source in [
        ("nonutf8.jsonl", data / "test.jsonl"),
        ("nonutf8.obj", cube),
        ("nonutf8.labels", labels),
        ("nonutf8.cfg", Path(cfg)),
    ]:
        (root / name).write_bytes(b"\xff" + source.read_bytes())
    (root / "nonutf8_preds.csv").write_bytes(b"frame_id,V_pred_dm3\nf\xff,1.0\n")
    (root / "nonutf8_samples.csv").write_bytes(b"gender,height_m,mass_kg,bmi,volume_dm3\n\xff\n")
    return {"root": str(root), "gt": str(data / "test.jsonl"), "maps": str(maps),
            "cube": str(cube), "labels": str(labels)}


# Keypoint records that are not exactly [x, y, integer part_id, visible 0 or 1].
KEYPOINT_RECORDS = {
    "kp-extra-field": [20.0, 30.0, 0, 7, "junk"],
    "kp-visible-7": [20.0, 30.0, 0, 7],
    "kp-three-fields": [20.0, 30.0, 0],
    "kp-float-part": [20.0, 30.0, 0.5, 1],
}
KEYPOINT_CASES = {
    name: (f"maps {{root}}/{name}.jsonl --out {{root}}/m", None, 2,
           f"{{root}}/{name}.jsonl: malformed annotation on line 2: "
           f"keypoint must be [x, y, integer part_id, visible 0 or 1], got {record!r}")
    for name, record in KEYPOINT_RECORDS.items()
}

# Annotation fields given a JSON type other than their own, each in a copy of
# a valid frame: (frame or its first person, key, new value from the old
# one, message fragment). Each used to be coerced and read without an error.
NUMBERS_MESSAGE = "head_px, bbox_px and volumes must be numbers, got "
STRICT_FIELDS = {
    "image-w-float": ("frame", "image_w", lambda w: w + 0.9, "image_w must be an integer, got 640.9"),
    "head-px-strings": ("person", "head_px", lambda xy: [str(v) for v in xy], NUMBERS_MESSAGE + "'"),
    "volume-string": ("person", "volume_dm3", str, NUMBERS_MESSAGE + "'"),
    "bbox-bool": ("person", "bbox_px", lambda box: [True, *box[1:]], NUMBERS_MESSAGE + "True"),
    "person-id-int": ("person", "person_id", lambda _: 7, "person_id must be a string, got 7"),
}
STRICT_CASES = {
    name: (f"stats {{root}}/{name}.jsonl", None, 2, f"{{root}}/{name}.jsonl: malformed annotation on line 1: {msg}")
    for name, (_, _, _, msg) in STRICT_FIELDS.items()
}

GEN = "gen --out {root}/g --config {cfg}"
EVAL = "eval --gt {gt} --preds {maps} --out {root}/e"
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
    "truncation-zero": ("maps {gt} --out {root}/m --truncation 0", None, 2,
                        "truncation_radius must be positive and finite, got 0.0"),
    "truncation-inf": ("maps {gt} --out {root}/m --truncation inf", None, 2,
                       "truncation_radius must be positive and finite, got inf"),
    "gen-out": ("gen --out /dev/null/x --config {cfg}", {}, 2, "Not a directory: '/dev/null/x'"),
    "maps-out": ("maps {gt} --out /dev/null/x", None, 2, "Not a directory: '/dev/null/x'"),
    "eval-out": ("eval --gt {gt} --preds {maps} --out /dev/null/x", None, 2, "Not a directory: '/dev/null/x'"),
    "infeasible-bmi": (GEN, {"bmi.lo": "45", "bmi.hi": "50"}, 2, "BMI rejection rate exceeded 99%"),
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
    "bbox-3": ("maps {root}/bbox3.jsonl --out {root}/m", None, 2,
               "{root}/bbox3.jsonl: malformed annotation on line 1: not enough values to unpack"),
    "empty-samples": ("stats {root}/empty_samples.csv", None, 2, "{root}/empty_samples.csv: empty sample file"),
    "empty-subset": (EVAL + " --subset S2", None, 2, "subset 'S2' selects no frames"),
    "placement": (GEN, {"persons.min": "40", "persons.max": "40", "area.w": "0.5", "area.d": "0.5"}, 3,
                  "could not place"),
    "not-watertight": ("label {root}/open.obj {labels}", None, 4, "mesh is not watertight"),
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
    "stats-samples-out": ("stats {root}/samples.csv --out {root}/s", None, 2,
                          "stats: --out is not used with a samples .csv without --target-config"),
    "stats-samples-before": ("stats {root}/samples.csv --before {root}/samples.csv", None, 2,
                             "stats: --before is not used with a samples .csv without --target-config"),
    "scene-tag-range": (GEN, {"tag.birds_eye": "1.5"}, 2, "{cfg}: tag.birds_eye must be a probability in [0, 1]"),
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
}


@pytest.mark.filterwarnings("ignore:tag 'birds_eye' does not occur")
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
    assert len(error_lines) == 1 and fragment.format(**paths) in error_lines[0]
    if not fragment.startswith("argument "):
        assert err == error_lines[0] + "\n"


def test_warning_is_one_line(bad_inputs):
    """A library UserWarning reaches a CLI user as one `warning:` line."""
    argv = EVAL.format(**bad_inputs).split() + ["--subset", "S2"]
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "crowdvol.cli", *argv], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        "warning: tag 'birds_eye' does not occur in the dataset",
        "error: subset 'S2' selects no frames",
    ]
