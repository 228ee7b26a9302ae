"""Output bytes do not depend on the BLAS kernel that OpenBLAS picks for the
CPU, nor on the SIMD loops that numpy dispatches to.

The commands run in subprocesses and must write the same bytes and stdout:
`gen` on the shipped scene and on a two-frame dense scene, `maps --per-part`
on the dense frames, `eval --protocol decoupling` and `--protocol full` on
those maps, `maps` on the shipped scene, `stats` on a samples file with
`--target-config`, and `label` on a dumped body. They run under the
default environment, under OPENBLAS_CORETYPE=Prescott, which runs on any
x86-64 CPU, and with NPY_DISABLE_CPU_FEATURES naming every AVX-512 target of
numpy's dispatch that the CPU has. The kernel test is skipped when numpy's BLAS is not OpenBLAS, or
when a matrix product shows that the variable did not change the kernel; the
dispatch test when the CPU has no AVX-512 target to disable.
"""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from crowdvol import anthro
from crowdvol.datamodel import write_keyvalues
from conftest import DENSE_PAIRS

SRC = str(Path(__file__).resolve().parents[1] / "src")
KERNEL = "Prescott"
MODEL = Path(anthro.__file__).parent / "configs" / "model.cfg"

# sha256 of a 16x16 matrix product, whose bits differ between kernels.
PROBE = """
import hashlib
import numpy as np
rng = np.random.default_rng(0)
print(hashlib.sha256((rng.normal(size=(16, 16)) @ rng.normal(size=(16, 16))).tobytes()).hexdigest())
"""


def blas_name() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except TypeError:  # numpy < 1.25 has no mode, and lists its libraries in *_info dicts
        return " ".join(" ".join(info.get("libraries", [])) for name, info in vars(np.__config__).items()
                        if name.endswith("_info") and isinstance(info, dict))


def avx512_targets() -> list[str]:
    """numpy's dispatch targets at the AVX-512 level that this CPU has.
    Their names differ between numpy versions (X86_V4 and AVX512_ICL on 2.x,
    AVX512F and AVX512_SKX on 1.x), and naming a baseline feature in
    NPY_DISABLE_CPU_FEATURES stops numpy's import, so they are read here."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return [name for name in getattr(umath, "__cpu_dispatch__", ())
            if (name == "X86_V4" or name.startswith("AVX512")) and umath.__cpu_features__.get(name)
            and name not in umath.__cpu_baseline__]


def environment(**variables: str) -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("OPENBLAS_CORETYPE", None)
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    return dict(env, **variables)


def outputs(out: Path, env: dict[str, str]) -> dict[str, bytes]:
    """Every output file and stdout of the commands, by name."""
    out.mkdir()
    write_keyvalues(DENSE_PAIRS, out / "dense.cfg")
    anthro.write_samples_csv(anthro.sample_population(anthro.model_from_config({}), 400, seed=4), out / "samples.csv")

    def cli(name: str, *argv) -> None:
        proc = subprocess.run([sys.executable, "-m", "crowdvol.cli", *map(str, argv)],
                              env=env, capture_output=True, check=True)
        (out / f"{name}.stdout").write_bytes(proc.stdout)

    cli("gen", "gen", "--seed", "5", "--out", out / "scene", "--dump-meshes")
    cli("gen-dense", "gen", "--config", out / "dense.cfg", "--seed", "2", "--out", out / "dense")
    cli("maps", "maps", out / "dense" / "test.jsonl", "--out", out / "maps", "--per-part")
    for protocol in ("decoupling", "full"):
        cli(f"eval-{protocol}", "eval", "--gt", out / "dense" / "test.jsonl", "--preds", out / "maps",
            "--protocol", protocol, "--out", out / f"eval-{protocol}")
    cli("maps-scene", "maps", out / "scene" / "test.jsonl", "--out", out / "maps-scene")
    cli("stats", "stats", out / "samples.csv", "--target-config", MODEL)
    mesh = min((out / "scene" / "meshes").glob("*.obj"))
    cli("label", "label", mesh, mesh.with_suffix(".labels"))
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def default_outputs(tmp_path_factory):
    return outputs(tmp_path_factory.mktemp("outputs") / "default", environment())


def assert_same(default: dict[str, bytes], other: dict[str, bytes]) -> None:
    assert default.keys() == other.keys()
    assert {name.split("/")[0] for name in default if name.endswith(".vdm")} == {"maps", "maps-scene"}
    assert [name for name in default if default[name] != other[name]] == []


def test_outputs_do_not_depend_on_the_blas_kernel(default_outputs, tmp_path):
    if "openblas" not in blas_name().lower():
        pytest.skip(f"numpy's BLAS is {blas_name()!r}, not OpenBLAS")
    probes = {
        subprocess.run([sys.executable, "-c", PROBE], env=environment(**kernel), capture_output=True,
                       text=True, check=True).stdout
        for kernel in ({}, {"OPENBLAS_CORETYPE": KERNEL})
    }
    if len(probes) == 1:
        pytest.skip(f"OPENBLAS_CORETYPE={KERNEL} did not change the BLAS kernel")
    assert_same(default_outputs, outputs(tmp_path / KERNEL, environment(OPENBLAS_CORETYPE=KERNEL)))


def test_outputs_do_not_depend_on_numpys_cpu_dispatch(default_outputs, tmp_path):
    targets = avx512_targets()
    if not targets:
        pytest.skip("this CPU has none of numpy's AVX-512 dispatch targets")
    env = environment(NPY_DISABLE_CPU_FEATURES=" ".join(targets))
    assert_same(default_outputs, outputs(tmp_path / "no-avx512", env))
