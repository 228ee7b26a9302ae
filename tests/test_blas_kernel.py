"""Output bytes do not depend on the BLAS kernel that OpenBLAS picks for the
CPU.

The commands run in subprocesses under the default kernel and under
OPENBLAS_CORETYPE=Prescott, which runs on any x86-64 CPU, and must write the
same bytes: `gen` on the shipped scene and on a two-frame dense scene,
`maps --per-part` on the dense frames, and `label` on a dumped body. The test
is skipped when numpy's BLAS is not OpenBLAS, or when a matrix product shows
that the variable did not change the kernel.
"""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from crowdvol.datamodel import write_keyvalues
from conftest import DENSE_PAIRS

SRC = str(Path(__file__).resolve().parents[1] / "src")
KERNEL = "Prescott"

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


def environment(kernel: str | None) -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("OPENBLAS_CORETYPE", None)
    if kernel:
        env["OPENBLAS_CORETYPE"] = kernel
    return env


def outputs(root: Path, kernel: str | None) -> dict[str, bytes]:
    """Every output file and stdout of the commands, by name."""
    env = environment(kernel)
    out = root / (kernel or "default")
    out.mkdir()
    write_keyvalues(DENSE_PAIRS, out / "dense.cfg")

    def cli(name: str, *argv) -> None:
        proc = subprocess.run([sys.executable, "-m", "crowdvol.cli", *map(str, argv)],
                              env=env, capture_output=True, check=True)
        (out / f"{name}.stdout").write_bytes(proc.stdout)

    cli("gen", "gen", "--seed", "5", "--out", out / "scene", "--dump-meshes")
    cli("gen-dense", "gen", "--config", out / "dense.cfg", "--seed", "2", "--out", out / "dense")
    cli("maps", "maps", out / "dense" / "test.jsonl", "--out", out / "maps", "--per-part")
    mesh = min((out / "scene" / "meshes").glob("*.obj"))
    cli("label", "label", mesh, mesh.with_suffix(".labels"))
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


def test_outputs_do_not_depend_on_the_blas_kernel(tmp_path):
    if "openblas" not in blas_name().lower():
        pytest.skip(f"numpy's BLAS is {blas_name()!r}, not OpenBLAS")
    probes = {
        subprocess.run([sys.executable, "-c", PROBE], env=environment(kernel), capture_output=True,
                       text=True, check=True).stdout
        for kernel in (None, KERNEL)
    }
    if len(probes) == 1:
        pytest.skip(f"OPENBLAS_CORETYPE={KERNEL} did not change the BLAS kernel")
    default, other = outputs(tmp_path, None), outputs(tmp_path, KERNEL)
    assert default.keys() == other.keys()
    assert len([name for name in default if name.endswith(".vdm")]) == 2
    assert [name for name in default if default[name] != other[name]] == []
