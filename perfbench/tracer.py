"""Run one crowdvol CLI command in this process and record spans.

    python3 perfbench/tracer.py OUT.json -- <crowdvol arguments>

The public functions of each module are wrapped from outside, at the module
attribute where their caller looks the name up, so the program is unchanged.
Spans (name, start, end, parent) and counts are kept in memory and written to
OUT.json when the command ends, together with the import time of
``crowdvol.cli``, which is taken before anything is wrapped.

Work done inside pool worker processes is not recorded; their parent's span
covers it.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import pickle
import sys
import time
from pathlib import Path

# (layer, module, attribute): the attribute is where the caller looks it up.
TRACED = (
    ("anthro.sample_population", "anthro", "sample_population"),
    ("scenegen.build_identity_pools", "scenegen", "build_identity_pools"),
    ("scenegen.build_humanoid", "scenegen", "build_humanoid"),
    ("scenegen.generate_split", "scenegen", "generate_split"),
    ("scenegen.generate_frame", "scenegen", "generate_frame"),
    ("densitymap.render_vdm", "densitymap", "render_vdm"),
    ("densitymap.render_ppvdm", "densitymap", "render_ppvdm"),
    ("densitymap.integrate", "evalharness", "integrate"),
    ("datamodel.write_annotations", "datamodel", "write_annotations"),
    ("datamodel.read_annotations", "datamodel", "read_annotations"),
    ("datamodel.write_vdm", "datamodel", "write_vdm"),
    ("datamodel.read_vdm", "evalharness", "read_vdm"),
    ("datamodel.read_obj", "datamodel", "read_obj"),
    ("datamodel.read_vertex_labels", "datamodel", "read_vertex_labels"),
    ("meshvol.split_parts", "meshvol", "split_parts"),
    ("meshvol.split_by_plane", "meshvol", "split_by_plane"),
    ("meshvol.fit_boundary_plane", "meshvol", "fit_boundary_plane"),
    ("meshvol.is_watertight", "meshvol", "is_watertight"),
    ("meshvol.signed_volume", "meshvol", "signed_volume"),
    ("meshvol.part_adjacency", "meshvol", "part_adjacency"),
    ("evalharness.load_prediction_maps", "evalharness", "load_prediction_maps"),
    ("evalharness.evaluate_full", "evalharness", "evaluate_full"),
    ("evalharness.crowd_size_bins", "evalharness", "crowd_size_bins"),
    ("evalharness.decoupling_eval", "evalharness", "decoupling_eval"),
    ("metrics.compute_report", "evalharness", "compute_report"),
    ("plots.write_bins_svg", "plots", "write_bins_svg"),
)

# Counts made from each call's inputs and outputs, never from inside the program.
COUNTS = (
    "scenegen.persons", "scenegen.keypoints_hidden", "densitymap.stamps",
    "evalharness.box_pairs", "meshvol.faces",
)
BYTES = (
    "datamodel.write_annotations.bytes", "datamodel.read_annotations.bytes",
    "datamodel.write_vdm.bytes", "datamodel.read_vdm.bytes",
    "pool.task_bytes", "pool.result_bytes",
)


def _ppvdm_stamps(frame, taxonomy, cfg=None) -> int:
    """Stamps render_ppvdm makes: one per visible in-image keypoint of each
    part with volume, or one at the head when a part has none."""
    stamps = 0
    for person in frame.persons:
        for pid in taxonomy.part_ids:
            if person.part_volumes_dm3.get(pid, 0.0) == 0.0:
                continue
            anchors = sum(
                1 for kp in person.keypoints
                if kp.part_id == pid and kp.visible and 0 <= kp.x < frame.image_w and 0 <= kp.y < frame.image_h
            )
            stamps += max(anchors, 1)
    return stamps


class Tracer:
    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts = dict.fromkeys(COUNTS + BYTES, 0)

    def wrap(self, name: str, module, attr: str, after=None) -> None:
        fn = getattr(module, attr)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(result, *args, **kwargs)
            return result

        setattr(module, attr, traced)

    def add(self, key: str, value: int) -> None:
        self.counts[key] += int(value)

    def install(self) -> None:
        m = self.modules
        after = {
            "scenegen.generate_split": self._after_split,
            "densitymap.render_vdm": lambda r, frame, *a, **k: self.add("densitymap.stamps", len(frame.persons)),
            "densitymap.render_ppvdm": lambda r, *a, **k: self.add("densitymap.stamps", _ppvdm_stamps(*a, **k)),
            "evalharness.decoupling_eval": lambda r, frames, *a, **k: self.add(
                "evalharness.box_pairs", sum(f.n_persons * (f.n_persons - 1) for f in frames)),
            "meshvol.split_parts": lambda r, mesh, *a, **k: self.add("meshvol.faces", mesh.n_faces),
            "datamodel.write_annotations": lambda r, frames, path, *a, **k: self.add(
                "datamodel.write_annotations.bytes", os.path.getsize(path)),
            "datamodel.read_annotations": lambda r, path, *a, **k: self.add(
                "datamodel.read_annotations.bytes", os.path.getsize(path)),
            "datamodel.write_vdm": lambda r, dmap, path: self.add(
                "datamodel.write_vdm.bytes", os.path.getsize(path)),
            "datamodel.read_vdm": lambda r, path: self.add("datamodel.read_vdm.bytes", os.path.getsize(path)),
        }
        for name, module, attr in TRACED:
            self.wrap(name, m[module], attr, after.get(name))

    def _after_split(self, frames, cfg, pool, seed, workers=1) -> None:
        self.add("scenegen.persons", sum(f.n_persons for f in frames))
        self.add("scenegen.keypoints_hidden",
                 sum(1 for f in frames for p in f.persons for kp in p.keypoints if not kp.visible))
        if workers > 1 and len(frames) > 1:
            # One task as generate_split submits it to the pool.
            self.counts["pool.task_bytes"] = len(pickle.dumps((cfg, pool, seed, 0)))

    def record_map_result(self, argv: list[str]) -> None:
        """Size of one map as a maps pool worker pickles it back to the parent."""
        if argv[:1] != ["maps"]:
            return
        args = self.modules["cli"].build_parser().parse_args(argv)
        if args.workers < 2:
            return
        first = min(Path(args.out).glob("*.vdm"), default=None)
        if first is not None:
            dmap = self.modules["datamodel"].read_vdm(first)
            self.counts["pool.result_bytes"] = len(pickle.dumps(dmap))


def main() -> int:
    out_path = Path(sys.argv[1])
    argv = sys.argv[sys.argv.index("--") + 1:]

    start = time.perf_counter()
    cli = importlib.import_module("crowdvol.cli")
    import_s = time.perf_counter() - start
    modules = {name: importlib.import_module(f"crowdvol.{name}") for name in
               ("anthro", "scenegen", "densitymap", "datamodel", "meshvol", "evalharness", "metrics", "plots")}
    modules["cli"] = cli
    tracer = Tracer(modules)
    tracer.install()
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse's --version and usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    sys.stdout.flush()
    if code == 0:
        tracer.record_map_result(argv)
    record = {
        "import_s": import_s,
        "spans": tracer.spans,
        "counts": tracer.counts,
    }
    out_path.write_text(json.dumps(record), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
