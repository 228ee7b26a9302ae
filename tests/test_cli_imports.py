"""The CLI loads only the modules of the subcommand it runs: each case runs
`crowdvol.cli.main` in a fresh interpreter and lists the numpy and crowdvol
modules loaded when it returns."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from crowdvol.cli import main
from crowdvol.datamodel import write_keyvalues, write_obj, write_vertex_labels
from conftest import make_box

SRC = Path(__file__).resolve().parents[1] / "src"
PROBE = """
import json, sys
from crowdvol.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "crowdvol"))))
sys.exit(code)
"""


def loaded(*argv, code=0) -> set[str]:
    proc = subprocess.run([sys.executable, "-c", PROBE, *map(str, argv)], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == code, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def library(*names: str) -> set[str]:
    return {f"crowdvol.{name}" for name in names}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_imports")
    cfg = root / "scene.cfg"
    write_keyvalues({"frames.train": "0", "frames.val": "0", "frames.test": "2",
                     "pool.train": "1", "pool.val": "1", "pool.test": "2"}, cfg)
    assert main(["gen", "--config", str(cfg), "--seed", "1", "--out", str(root / "data")]) == 0
    assert main(["maps", str(root / "data" / "test.jsonl"), "--out", str(root / "maps")]) == 0
    write_obj(make_box(), root / "cube.obj")
    write_vertex_labels(np.zeros(8, dtype=np.int64), root / "cube.labels")
    return root


@pytest.mark.parametrize("argv, code", [(["--version"], 0), (["--help"], 0), (["gen", "--seed", "1"], 2)],
                         ids=["version", "help", "usage-error"])
def test_no_library_module_before_a_subcommand_runs(argv, code):
    assert loaded(*argv, code=code) == {"crowdvol", "crowdvol.cli"}


def test_label_loads_no_scene_map_or_eval_module(inputs):
    mods = loaded("label", inputs / "cube.obj", inputs / "cube.labels")
    assert library("datamodel", "meshvol") <= mods
    assert not mods & library("scenegen", "anthro", "densitymap", "evalharness", "plots")


def test_maps_loads_no_scene_mesh_or_eval_module(inputs):
    mods = loaded("maps", inputs / "data" / "test.jsonl", "--out", inputs / "maps2")
    assert library("datamodel", "densitymap", "parallel") <= mods
    assert not mods & library("scenegen", "anthro", "meshvol", "evalharness")


def test_eval_full_loads_no_scene_or_mesh_module(inputs):
    mods = loaded("eval", "--gt", inputs / "data" / "test.jsonl", "--preds", inputs / "maps",
                  "--protocol", "full", "--out", inputs / "eval")
    assert library("datamodel", "evalharness") <= mods
    assert not mods & library("scenegen", "anthro", "meshvol", "plots")


@pytest.mark.parametrize("preset, want", [(None, "1"), ("3", "3")], ids=["unset", "preset"])
def test_cli_import_sets_one_blas_thread_unless_preset(preset, want):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    probe = "import os, crowdvol.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(env, PYTHONPATH=str(SRC)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == want
