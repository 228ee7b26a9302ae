"""The CLI needs no scipy: every command of the pipeline runs in a fresh
interpreter in which `import scipy` raises ImportError."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

from crowdvol import anthro
from crowdvol.datamodel import write_keyvalues

SRC = Path(__file__).resolve().parents[1] / "src"
MODEL_CFG = SRC / "crowdvol" / "configs" / "model.cfg"
BLOCKED = (
    "import sys; sys.modules['scipy'] = None; "
    "from crowdvol.cli import main; sys.exit(main(sys.argv[1:]))"
)


def python(*argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env)


def crowdvol(*argv):
    proc = python("-c", BLOCKED, *map(str, argv))
    assert proc.returncode == 0, proc.stderr
    return proc


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("no_scipy")
    cfg = root / "scene.cfg"
    write_keyvalues({"frames.train": "0", "frames.val": "0", "frames.test": "5",
                     "pool.train": "2", "pool.val": "2", "pool.test": "4"}, cfg)
    crowdvol("gen", "--config", cfg, "--seed", "3", "--out", root / "d1", "--workers", "1", "--dump-meshes")
    crowdvol("gen", "--config", cfg, "--seed", "3", "--out", root / "d2", "--workers", "2")
    crowdvol("maps", root / "d1" / "test.jsonl", "--out", root / "maps", "--per-part")
    return root


def test_import_loads_no_scipy():
    """Every crowdvol module, since `crowdvol.cli` alone imports none of them."""
    proc = python("-c", "import importlib, pkgutil, sys, crowdvol; "
                  "names = [m.name for m in pkgutil.iter_modules(crowdvol.__path__)]; "
                  "[importlib.import_module(f'crowdvol.{name}') for name in names]; "
                  "print(len(names), sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert proc.returncode == 0, proc.stderr
    count, scipy = proc.stdout.split(" ", 1)
    assert int(count) >= 12 and scipy.strip() == "[]"


def test_gen_workers_agree(pipeline):
    for name in ("test.jsonl", "manifest.txt"):
        assert (pipeline / "d1" / name).read_bytes() == (pipeline / "d2" / name).read_bytes()


@pytest.mark.parametrize("protocol", ["full", "decoupling", "bins", "scatter"])
def test_eval(pipeline, protocol):
    crowdvol("eval", "--gt", pipeline / "d1" / "test.jsonl", "--preds", pipeline / "maps",
             "--protocol", protocol, "--out", pipeline / f"eval_{protocol}")


def test_label(pipeline):
    mesh = sorted((pipeline / "d1" / "meshes").glob("*.obj"))[0]
    out = crowdvol("label", mesh, mesh.with_suffix(".labels")).stdout
    assert out.splitlines()[-1].startswith("total,,")


def test_stats_target_config(pipeline):
    samples = pipeline / "samples.csv"
    anthro.write_samples_csv(anthro.sample_population(anthro.default_model(), 400, seed=4), samples)
    out = crowdvol("stats", samples, "--target-config", MODEL_CFG).stdout
    assert "kl_height_female_after," in out
