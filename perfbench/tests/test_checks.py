"""Each output check passes on the program's real output at toy size and
fails once that output is corrupted.

    python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import inputs  # noqa: E402

TOY_FRAMES = 4


def crowdvol(*argv, workers: int = 1) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), CVE_WORKERS=str(workers))
    proc = subprocess.run([sys.executable, "-m", "crowdvol.cli", *map(str, argv)],
                          capture_output=True, text=True, env=env, check=True)
    return proc.stdout


@pytest.fixture(scope="module")
def toy(tmp_path_factory):
    """A four-frame desk scene: annotations, maps, predictions and reports."""
    work = tmp_path_factory.mktemp("toy")
    cfg = work / "scene.cfg"
    inputs.write_scene_config(dict(inputs.DESK_SCENE, **{"frames.test": str(TOY_FRAMES)}), cfg)
    crowdvol("gen", "--config", cfg, "--seed", 7, "--out", work / "data")
    gt = work / "data" / "test.jsonl"
    crowdvol("maps", gt, "--out", work / "maps", "--sigma", 4)
    frames = checks.read_jsonl(gt)
    preds = inputs.write_predictions(frames, 7, work / "preds.csv")
    crowdvol("eval", "--gt", gt, "--preds", work / "maps", "--protocol", "decoupling", "--out", work / "dec")
    crowdvol("eval", "--gt", gt, "--preds", work / "preds.csv", "--protocol", "full", "--out", work / "full")
    crowdvol("eval", "--gt", gt, "--preds", work / "preds.csv", "--protocol", "bins", "--out", work / "bins")
    return {"work": work, "frames": frames, "preds": preds}


def copy(toy, name: str, tmp_path: Path) -> Path:
    return Path(shutil.copytree(toy["work"] / name, tmp_path / name))


def test_map_with_one_value_changed_fails(toy, tmp_path):
    checks.check_maps(toy["frames"], toy["work"] / "maps")
    maps = copy(toy, "maps", tmp_path)
    path = maps / f"{toy['frames'][0]['frame_id']}.vdm"
    data = bytearray(path.read_bytes())
    values = np.frombuffer(data, dtype="<f4", offset=12).copy()
    values[values.argmax()] *= 1.001
    data[12:] = values.astype("<f4").tobytes()
    path.write_bytes(bytes(data))
    with pytest.raises(checks.CheckError, match="map mass"):
        checks.check_maps(toy["frames"], maps)


def test_part_volume_off_fails(tmp_path):
    body = inputs.frusta_body(3, 12, 2)
    body.write(tmp_path / "b.obj", tmp_path / "b.labels")
    volumes = body.part_volumes_dm3()
    out = crowdvol("label", tmp_path / "b.obj", tmp_path / "b.labels")
    checks.check_label(out, volumes)
    lines = out.splitlines()
    pid, name, value = lines[1].split(",")
    lines[1] = f"{pid},{name},{float(value) * (1 + 1e-5)!r}"
    with pytest.raises(checks.CheckError, match=f"part {pid} volume"):
        checks.check_label("\n".join(lines), volumes)


def test_closed_form_is_independent_of_ring_count():
    """Rings split frusta without changing a part's volume when the radius
    profile is linear: a check on the closed form itself."""
    body = inputs.frusta_body(5, 16, 2)
    fine = inputs.Body([], body.sides)
    for (z0, r0, p0), (z1, r1, p1) in zip(body.rings[:-1], body.rings[1:]):
        fine.rings.append((z0, r0, p0))
        if p0 == p1:
            fine.rings.append(((z0 + z1) / 2, (r0 + r1) / 2, p0))
    fine.rings.append(body.rings[-1])
    coarse, split = body.part_volumes_dm3(), fine.part_volumes_dm3()
    for pid in coarse:
        assert split[pid] == pytest.approx(coarse[pid], rel=1e-12)


def rewrite_cell(path: Path, row: int, col: int, scale: float) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = lines[row].split(",")
    cells[col] = repr(float(cells[col]) * scale)
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_full_report_value_off_fails(toy, tmp_path):
    checks.check_full_report(toy["work"] / "full" / "report.csv", toy["frames"], toy["preds"])
    full = copy(toy, "full", tmp_path)
    rewrite_cell(full / "report.csv", 1, 2, 1 + 1e-6)  # overall MAE
    with pytest.raises(checks.CheckError, match="full overall mae"):
        checks.check_full_report(full / "report.csv", toy["frames"], toy["preds"])


def test_bins_report_value_off_fails(toy, tmp_path):
    checks.check_bins(toy["work"] / "bins" / "bins.csv", toy["frames"], toy["preds"], inputs.BIN_EDGES)
    bins = copy(toy, "bins", tmp_path)
    row = next(i for i, line in enumerate((bins / "bins.csv").read_text().splitlines()[1:], 1)
               if not line.split(",")[2] == "0")
    rewrite_cell(bins / "bins.csv", row, 5, 1 + 1e-6)  # RMSE of the first non-empty bin
    with pytest.raises(checks.CheckError, match="rmse"):
        checks.check_bins(bins / "bins.csv", toy["frames"], toy["preds"], inputs.BIN_EDGES)


def test_decoupling_report_value_off_fails(toy, tmp_path):
    sums = checks.check_maps(toy["frames"], toy["work"] / "maps")
    checks.check_decoupling(toy["work"] / "dec" / "report.csv", toy["frames"], sums)
    dec = copy(toy, "dec", tmp_path)
    report = dec / "report.csv"
    report.write_text(report.read_text().replace("\nkept,", "\nkept,1"), encoding="utf-8")
    with pytest.raises(checks.CheckError, match="kept"):
        checks.check_decoupling(report, toy["frames"], sums)


def test_parallel_output_with_one_byte_changed_fails(toy, tmp_path):
    crowdvol("maps", toy["work"] / "data" / "test.jsonl", "--out", tmp_path / "maps2", "--sigma", 4, workers=2)
    assert checks.check_identical(tmp_path / "maps2", toy["work"] / "maps") == TOY_FRAMES
    path = sorted((tmp_path / "maps2").iterdir())[1]
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))
    with pytest.raises(checks.CheckError, match="differs from the one-worker output"):
        checks.check_identical(tmp_path / "maps2", toy["work"] / "maps")


def test_benchmark_json_lists_every_printed_metric():
    import json

    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
