"""Seeded byte mutations of valid input files: every reader either parses the
mutated file or raises ParseError/ValidationError naming it."""
import numpy as np
import pytest

from crowdvol import anthro
from crowdvol import datamodel as dm
from crowdvol.evalharness import load_predictions_csv
from crowdvol.rng import SplitMix64
from conftest import make_box, make_frame, make_person

N_MUTATIONS = 300


def _annotations(path):
    kps = (dm.Keypoint(x=20.5, y=30.0, part_id=0, visible=True), dm.Keypoint(x=21.0, y=40.0, part_id=1, visible=False))
    persons = [
        make_person("p0", head=(32.0, 20.0), parts={0: 30.0, 1: 40.0}, keypoints=kps),
        make_person("p1", head=(10.5, 50.25), volume=60.5, bbox=(2.0, 40.0, 20.0, 60.0), parts={0: 25.0, 2: 35.5}),
    ]
    dm.write_annotations([make_frame(persons, tags={"night"}), make_frame([], frame_id="f1")], path)


def _samples(path):
    anthro.write_samples_csv(anthro.sample_population(anthro.default_model(), 4, seed=2), path)


def _vdm(path):
    dm.write_vdm(dm.DensityMap(3, 2, np.array([[0.0, 1.5, 2.0], [0.25, 0.0, 4.0]])), path)


# name: (write a valid file, read it)
READERS = {
    "annotations": (_annotations, dm.read_annotations),
    "obj": (lambda path: dm.write_obj(make_box(), path), dm.read_obj),
    "labels": (lambda path: dm.write_vertex_labels(np.arange(8) % 3, path), lambda path: dm.read_vertex_labels(path, 8)),
    "keyvalues": (lambda path: dm.write_keyvalues(dm.default_config("taxonomy"), path), dm.read_keyvalues),
    "predictions": (lambda path: path.write_text("frame_id,V_pred_dm3\nf0,12.5\nf1,0.0\n"), load_predictions_csv),
    "samples": (_samples, anthro.read_samples_csv),
    "vdm": (_vdm, dm.read_vdm),
}


def _mutate(data: bytes, stream: SplitMix64) -> bytes:
    """Truncate, flip one to three bits, or insert a 0xff byte."""
    kind = stream.randint(0, 2)
    pos = stream.randint(0, len(data) - 1)
    if kind == 0:
        return data[:pos]
    if kind == 1:
        out = bytearray(data)
        for _ in range(stream.randint(1, 3)):
            out[stream.randint(0, len(out) - 1)] ^= 1 << stream.randint(0, 7)
        return bytes(out)
    return data[:pos] + b"\xff" + data[pos:]


@pytest.mark.parametrize("name", list(READERS))
def test_mutated_file_parses_or_names_itself(tmp_path, name):
    write, read = READERS[name]
    original = tmp_path / f"original.{name}"
    write(original)
    read(original)
    data = original.read_bytes()
    stream = SplitMix64(len(name))
    path = tmp_path / f"mutated.{name}"
    outcomes = {"parsed": 0, "rejected": 0}
    for i in range(N_MUTATIONS):
        path.write_bytes(_mutate(data, stream))
        try:
            read(path)
        except (dm.ParseError, dm.ValidationError) as exc:
            assert str(path) in str(exc), f"mutation {i}: {exc}"
            outcomes["rejected"] += 1
        else:
            outcomes["parsed"] += 1
    assert outcomes["rejected"] > 0
