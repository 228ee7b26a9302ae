"""No command leaves a garbage cycle, which is why `cli.run` may run every
command with the cyclic collector off: reference counting alone frees all
that a command drops.

Each case runs `cli.main` with the collector off, after every module a
command may import is loaded, and then counts what `gc.collect()` finds
unreachable. That must equal what `cli.build_parser()` alone leaves: the
parser that argparse builds holds reference cycles, and `main` drops one
parser per call.
"""
import gc
import importlib
import json
import pkgutil

import pytest

import crowdvol
from crowdvol import anthro, cli
from crowdvol.datamodel import default_config, write_keyvalues

SCENE = {"frames.train": "0", "frames.val": "0", "pool.train": "0", "pool.val": "0", "pool.test": "4",
         "persons.min": "3", "persons.max": "9"}


def unreachable_after(call) -> int:
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    for module in pkgutil.iter_modules(crowdvol.__path__, "crowdvol."):
        importlib.import_module(module.name)
    root = tmp_path_factory.mktemp("gc")
    for frames in (2, 4, 12):
        write_keyvalues({**SCENE, "frames.test": str(frames)}, root / f"scene-{frames}.cfg")
    gen = ["gen", "--config", str(root / "scene-4.cfg"), "--seed", "2", "--out", str(root / "g"), "--dump-meshes"]
    assert cli.main(gen) == 0
    assert cli.main(["maps", str(root / "g" / "test.jsonl"), "--out", str(root / "maps")]) == 0
    ids = [json.loads(line)["frame_id"] for line in (root / "g" / "test.jsonl").read_text().splitlines()]
    (root / "preds.csv").write_text("frame_id,V_pred_dm3\n" + "".join(f"{i},150.0\n" for i in ids))
    body = sorted((root / "g" / "meshes").glob("*.obj"))[0]
    for suffix in ("obj", "labels"):
        (root / f"body.{suffix}").write_bytes(body.with_suffix(f".{suffix}").read_bytes())
    model = anthro.model_from_config({})
    anthro.write_samples_csv(anthro.sample_population(model, 200, seed=4), root / "samples.csv")
    write_keyvalues(default_config("model"), root / "model.cfg")
    return root


EVAL = "eval --gt {root}/g/test.jsonl --out {out} --preds {root}/"
CASES = {
    **{f"gen-{frames}-frames-{workers}-workers":
       f"gen --config {{root}}/scene-{frames}.cfg --seed 5 --out {{out}} --workers {workers}"
       for frames in (2, 12) for workers in (1, 2)},
    "maps": "maps {root}/g/test.jsonl --out {out}",
    "maps-per-part": "maps {root}/g/test.jsonl --out {out} --per-part",
    **{f"eval-{protocol}-maps": f"{EVAL}maps --protocol {protocol}"
       for protocol in ("full", "decoupling", "bins", "scatter")},
    **{f"eval-{protocol}-csv": f"{EVAL}preds.csv --protocol {protocol}" for protocol in ("full", "bins", "scatter")},
    "label": "label {root}/body.obj {root}/body.labels",
    "stats-annotations": "stats {root}/g/test.jsonl --out {out}",
    "stats-samples": "stats {root}/samples.csv --target-config {root}/model.cfg",
    "error-exit-2": f"{EVAL}preds.csv --protocol decoupling",
}


@pytest.mark.parametrize("case", list(CASES))
def test_command_leaves_no_garbage_cycle(root, tmp_path, case):
    argv = CASES[case].format(root=root, out=tmp_path / "out").split()
    parser_only = unreachable_after(cli.build_parser)
    assert parser_only > 0
    codes = []
    assert unreachable_after(lambda: codes.append(cli.main(argv))) == parser_only
    assert codes == [2 if case.startswith("error") else 0]
