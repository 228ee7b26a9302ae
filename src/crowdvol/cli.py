"""Command-line entry point.

Subcommands: gen (synthesize an annotated dataset), label (per-part volumes
of a labeled OBJ mesh), maps (render density maps), eval (run an evaluation
protocol), stats (dataset and alignment statistics).

Exit codes:
  0  success
  2  a bad flag, config, input file or output path: a missing or unreadable
     file, a file that does not parse or breaks an invariant, a value out
     of range, a scene whose bodies cannot be built or sampled
  3  persons could not be placed in a frame
  4  a mesh is not watertight
  5  a map's mass does not match its frame's annotated volume (`maps`)

Every error is one `error: ...` line on stderr and every warning one
`warning: ...` line; an argparse flag error prints its usage line first.
`--workers` defaults to the CVE_WORKERS environment variable, checked the
same way.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
import warnings
from pathlib import Path

from . import __version__

# OpenBLAS's thread pool costs every numpy process start-up time, and its
# spinning threads CPU time, for matrices too small to gain from threads.
# Output bytes do not depend on the thread count. A value already set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# Each cmd_* imports the library modules it runs, so `--version`, `--help`
# and a usage error load no numpy, and a subcommand loads only its own
# modules. Modules are imported whole and their functions called as
# attributes, so a wrapper or fake set on a module attribute takes effect.

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONSERVATION = 5


def _config_hash(pairs: dict[str, str], seed: int) -> str:
    import hashlib

    text = "\n".join(f"{k}={pairs[k]}" for k in sorted(pairs)) + f"\nseed={seed}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cmd_gen(args) -> int:
    from . import datamodel, scenegen

    cfg = (scenegen.scene_config_from_pairs(datamodel.read_keyvalues(args.config), args.config)
           if args.config else scenegen.SceneConfig())
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    pools = scenegen.build_identity_pools(cfg, args.seed, args.dump_meshes)
    dataset = {split: scenegen.generate_split(cfg, pool, args.seed, args.workers) for split, pool in pools.items()}
    for split, frames in dataset.items():
        datamodel.write_annotations(frames, out / f"{split}.jsonl")
        print(f"{split}: {len(frames)} frames, {sum(f.n_persons for f in frames)} persons")
    if args.dump_meshes:
        mesh_dir = out / "meshes"
        mesh_dir.mkdir(exist_ok=True)
        for pool in pools.values():
            for char in pool.characters:
                datamodel.write_obj(char.body.mesh, mesh_dir / f"{char.character_id}.obj")
                datamodel.write_vertex_labels(
                    char.body.mesh.vertex_labels, mesh_dir / f"{char.character_id}.labels"
                )
    manifest = {
        "tool": "crowdvol",
        "version": __version__,
        "seed": str(args.seed),
        "config_hash": _config_hash(scenegen.scene_config_to_pairs(cfg), args.seed),
        "splits": ",".join(f"{split}:{len(frames)}" for split, frames in dataset.items()),
    }
    datamodel.write_keyvalues(manifest, out / "manifest.txt")
    return EXIT_OK


def cmd_label(args) -> int:
    from . import datamodel, meshvol

    mesh = datamodel.read_obj(args.mesh)
    labels = datamodel.read_vertex_labels(args.labels, mesh.n_vertices)
    taxonomy = datamodel.load_taxonomy(args.taxonomy) if args.taxonomy else datamodel.default_taxonomy()
    mesh = datamodel.TriMesh(vertices=mesh.vertices, faces=mesh.faces, vertex_labels=labels)
    tol = meshvol.DEFAULT_PLANE_TOL if args.tol is None else args.tol
    parts = meshvol.split_parts(mesh, taxonomy, tol=tol)
    print("part_id,name,volume_dm3")
    for pid in sorted(parts.volumes):
        print(f"{pid},{taxonomy.name_of(pid)},{parts.volumes[pid]!r}")
    print(f"total,,{parts.total_dm3!r}")
    return EXIT_OK


def _write_map(per_part, taxonomy, cfg, out_dir: Path, frame) -> float:
    """Render one frame's map, write its .vdm file and return its mass."""
    from . import datamodel, densitymap

    if per_part:
        dmap = densitymap.render_ppvdm(frame, taxonomy, cfg)
    else:
        dmap = densitymap.render_vdm(frame, cfg)
    datamodel.write_vdm(dmap, out_dir / f"{frame.frame_id}.vdm")
    return dmap.total()


def cmd_maps(args) -> int:
    from . import datamodel, densitymap
    from .parallel import parallel_map

    taxonomy = datamodel.load_taxonomy(args.taxonomy) if args.taxonomy else datamodel.default_taxonomy()
    frames = datamodel.read_annotations(args.annotations, taxonomy)
    cfg = densitymap.SmoothingConfig(sigma_px=args.sigma, truncation_radius=args.truncation)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    masses = parallel_map(_write_map, (args.per_part, taxonomy, cfg, out), frames, args.workers)
    failed = False
    for frame, got in zip(frames, masses):
        expected = frame.total_volume_dm3
        ok = abs(got - expected) <= 1e-6 * expected if expected > 0 else got == 0.0
        print(f"{frame.frame_id}: mass={got!r} expected={expected!r} {'ok' if ok else 'FAIL'}")
        if not ok:
            failed = True
    return EXIT_CONSERVATION if failed else EXIT_OK


def cmd_eval(args) -> int:
    from . import datamodel, evalharness

    frames = datamodel.read_annotations(args.gt)
    preds_path = Path(args.preds)
    preds = (evalharness.load_prediction_maps(preds_path) if preds_path.is_dir()
             else evalharness.load_predictions_csv(preds_path))
    frames = evalharness.apply_subset_preset(frames, args.subset)
    if not frames:
        raise evalharness.EvalError(f"subset {args.subset!r} selects no frames")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.protocol == "full":
        text = evalharness.full_report_to_csv(evalharness.evaluate_full(frames, preds))
        (out / "report.csv").write_text(text, encoding="utf-8")
        print(text, end="")
    elif args.protocol == "decoupling":
        report = evalharness.decoupling_eval(
            frames, preds, min_volume_dm3=args.min_volume, iou_threshold=args.iou_threshold
        )
        text = evalharness.decoupling_to_csv(report)
        (out / "report.csv").write_text(text, encoding="utf-8")
        print(text, end="")
    elif args.protocol == "bins":
        from . import plots

        bins = evalharness.crowd_size_bins(frames, preds, args.bin_edges)
        text = evalharness.bins_to_csv(bins)
        (out / "bins.csv").write_text(text, encoding="utf-8")
        plots.write_bins_svg(bins, out / "bins.svg")
        print(text, end="")
    else:  # scatter
        from . import metrics, plots

        records = evalharness.build_records(frames, preds)
        points = metrics.mae_ppmae_scatter([r for r in records if r.n_persons >= 1])
        (out / "scatter.csv").write_text(metrics.scatter_to_csv(points), encoding="utf-8")
        plots.write_scatter_svg(points, out / "scatter.svg")
        print(f"scatter: {len(points)} points -> {out / 'scatter.svg'}")
    return EXIT_OK


def cmd_stats(args) -> int:
    path = Path(args.input)
    samples_input = path.suffix == ".csv"
    what = "a samples .csv without --target-config" if samples_input else "annotations"
    for flag, value, used in (
        ("--target-config", args.target_config, samples_input),
        ("--before", args.before, samples_input and args.target_config),
        ("--out", args.out, not samples_input or args.target_config),
    ):
        if value and not used:
            raise ValueError(f"stats: {flag} is not used with {what}")
    out = Path(args.out) if args.out else None
    if samples_input:
        from . import anthro, datamodel

        samples = anthro.read_samples_csv(path)
        if not samples:
            raise datamodel.ParseError(f"{path}: empty sample file")
        before = anthro.read_samples_csv(args.before) if args.before else samples
        reports = {}
        if args.target_config:
            model = anthro.model_from_config(datamodel.read_keyvalues(args.target_config), args.target_config)
            reports = _alignment_reports(samples, before, model)
        if out:
            out.mkdir(parents=True, exist_ok=True)
        print("key,value")
        print(f"n_samples,{len(samples)}")
        print(f"mean_volume_dm3,{math.fsum(s.volume_dm3 for s in samples) / len(samples)!r}")
        for name, rep in reports.items():
            print(f"kl_{name}_before,{rep.kl_before!r}")
            print(f"kl_{name}_after,{rep.kl_after!r}")
            print(f"kl_{name}_pct_change,{rep.pct_change!r}")
        if out:
            anthro.write_alignment_csv(reports, out / "alignment.csv")
    else:
        from . import datamodel, evalharness

        text = evalharness.stats_to_csv(evalharness.dataset_stats(datamodel.read_annotations(path)))
        if out:
            out.mkdir(parents=True, exist_ok=True)
        print(text, end="")
        if out:
            (out / "stats.csv").write_text(text, encoding="utf-8")
    return EXIT_OK


def _alignment_reports(samples, before, model):
    """KL per feature; a gender-mixed population is compared against the
    mixture's dominant component per gender, so features are reported
    per gender."""
    from . import anthro

    reports = {}
    for gender in ("female", "male"):
        params = model.params_for(gender)
        aft, bef = ([s for s in group if s.gender == gender] for group in (samples, before))
        if len(aft) < 2 or len(bef) < 2:
            continue
        reports[f"height_{gender}"] = anthro.alignment_report(
            [s.height_m for s in bef], [s.height_m for s in aft], params.height
        )
        reports[f"mass_{gender}"] = anthro.alignment_report(
            [s.mass_kg for s in bef], [s.mass_kg for s in aft], params.mass
        )
    return reports


def _workers(text: str) -> int:
    """argparse type of --workers: an integer >= 1."""
    n = int(text) if text.strip().isdecimal() else 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return n


def _bin_edges(text: str) -> list[float]:
    """argparse type of --bin-edges: comma-separated numbers."""
    try:
        return [float(tok) for tok in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crowdvol", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate an annotated synthetic dataset")
    p_gen.add_argument("--config", help="key=value scene config file")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--workers", type=_workers, default=os.environ.get("CVE_WORKERS", "1"))
    p_gen.add_argument("--dump-meshes", action="store_true", help="also write per-character OBJ meshes")
    p_gen.set_defaults(func=cmd_gen)

    p_label = sub.add_parser("label", help="per-part volumes of a labeled OBJ mesh")
    p_label.add_argument("mesh")
    p_label.add_argument("labels", help="sidecar file: one 'vertex_index part_id' per line")
    p_label.add_argument("--taxonomy", help="key=value taxonomy config")
    p_label.add_argument("--tol", type=float)
    p_label.set_defaults(func=cmd_label)

    p_maps = sub.add_parser("maps", help="render density maps from annotations")
    p_maps.add_argument("annotations")
    p_maps.add_argument("--out", required=True)
    p_maps.add_argument("--per-part", action="store_true")
    p_maps.add_argument("--sigma", type=float, default=4.0)
    p_maps.add_argument("--truncation", type=float, default=4.0)
    p_maps.add_argument("--taxonomy")
    p_maps.add_argument("--workers", type=_workers, default=os.environ.get("CVE_WORKERS", "1"))
    p_maps.set_defaults(func=cmd_maps)

    p_eval = sub.add_parser("eval", help="evaluate predictions against ground truth")
    p_eval.add_argument("--gt", required=True)
    p_eval.add_argument("--preds", required=True, help="CSV of frame_id,V_pred_dm3 or a directory of .vdm maps")
    p_eval.add_argument("--protocol", choices=("full", "decoupling", "bins", "scatter"), default="full")
    p_eval.add_argument("--subset", choices=("all", "S1", "S2"), default="all")
    p_eval.add_argument("--out", default=".")
    p_eval.add_argument("--min-volume", type=float, default=10.0)
    p_eval.add_argument("--iou-threshold", type=float, default=0.0)
    p_eval.add_argument("--bin-edges", type=_bin_edges, default="1,5,10,20,inf")
    p_eval.set_defaults(func=cmd_eval)

    p_stats = sub.add_parser("stats", help="dataset statistics or sample alignment")
    p_stats.add_argument("input", help="annotations .jsonl or samples .csv")
    p_stats.add_argument("--target-config", help="anthropometric model config for KL reports")
    p_stats.add_argument("--before", help="samples .csv of the pre-alignment population")
    p_stats.add_argument("--out")
    p_stats.set_defaults(func=cmd_stats)
    return parser


def _warn(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    """Run one subcommand. This is the one place where an error becomes an
    exit code: PlacementError, NonWatertightError and SamplingError carry
    theirs as `exit_code`, any other OSError or ValueError (ParseError,
    ValidationError, EvalError, MeshError, BodyBuildError) gives 2, and any
    other RuntimeError is a bug and propagates. A maps conservation failure
    is a result, returned as 5."""
    args = build_parser().parse_args(argv)
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _warn
            return args.func(args)
    except (OSError, ValueError, RuntimeError) as exc:
        code = getattr(exc, "exit_code", EXIT_CONFIG if isinstance(exc, (OSError, ValueError)) else None)
        if code is None:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
