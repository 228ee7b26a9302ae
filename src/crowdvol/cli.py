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

Every error is one `error: ...` line on stderr; an argparse flag error
prints its usage line first.
"""
from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys
from pathlib import Path

from . import __version__
from . import anthro, datamodel, densitymap, evalharness, metrics, meshvol, plots, scenegen
from .parallel import parallel_map

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PLACEMENT = 3
EXIT_NOT_WATERTIGHT = 4
EXIT_CONSERVATION = 5


def _default_workers() -> int:
    try:
        return max(1, int(os.environ.get("CVE_WORKERS", "1")))
    except ValueError:
        return 1


def _load_scene_config(path: str | None) -> scenegen.SceneConfig:
    if path is None:
        return scenegen.SceneConfig()
    return scenegen.scene_config_from_pairs(datamodel.read_keyvalues(path))


def _config_hash(cfg: scenegen.SceneConfig, seed: int) -> str:
    pairs = scenegen.scene_config_to_pairs(cfg)
    text = "\n".join(f"{k}={pairs[k]}" for k in sorted(pairs)) + f"\nseed={seed}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cmd_gen(args) -> int:
    cfg = _load_scene_config(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dataset = scenegen.generate_dataset(cfg, args.seed, workers=args.workers)
    for split, frames in dataset.items():
        datamodel.write_annotations(frames, out / f"{split}.jsonl")
        print(f"{split}: {len(frames)} frames, {sum(f.n_persons for f in frames)} persons")
    if args.dump_meshes:
        mesh_dir = out / "meshes"
        mesh_dir.mkdir(exist_ok=True)
        for pool in scenegen.build_identity_pools(cfg, args.seed).values():
            for char in pool.characters:
                datamodel.write_obj(char.body.mesh, mesh_dir / f"{char.character_id}.obj")
                datamodel.write_vertex_labels(
                    char.body.mesh.vertex_labels, mesh_dir / f"{char.character_id}.labels"
                )
    manifest = {
        "tool": "crowdvol",
        "version": __version__,
        "seed": str(args.seed),
        "config_hash": _config_hash(cfg, args.seed),
        "splits": ",".join(f"{split}:{len(frames)}" for split, frames in dataset.items()),
    }
    datamodel.write_keyvalues(manifest, out / "manifest.txt")
    return EXIT_OK


def cmd_label(args) -> int:
    mesh = datamodel.read_obj(args.mesh)
    labels = datamodel.read_vertex_labels(args.labels, mesh.n_vertices)
    taxonomy = datamodel.load_taxonomy(args.taxonomy) if args.taxonomy else datamodel.default_taxonomy()
    mesh = datamodel.TriMesh(vertices=mesh.vertices, faces=mesh.faces, vertex_labels=labels)
    parts = meshvol.split_parts(mesh, taxonomy, tol=args.tol)
    print("part_id,name,volume_dm3")
    for pid in sorted(parts.volumes):
        print(f"{pid},{taxonomy.name_of(pid)},{parts.volumes[pid]!r}")
    print(f"total,,{parts.total_dm3!r}")
    return EXIT_OK


def _write_map(per_part, taxonomy, cfg, out_dir: Path, frame) -> float:
    """Render one frame's map, write its .vdm file and return its mass."""
    if per_part:
        dmap = densitymap.render_ppvdm(frame, taxonomy, cfg)
    else:
        dmap = densitymap.render_vdm(frame, cfg)
    datamodel.write_vdm(dmap, out_dir / f"{frame.frame_id}.vdm")
    return dmap.total()


def cmd_maps(args) -> int:
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


def _load_predictions(path: str) -> evalharness.PredictionSet:
    p = Path(path)
    if p.is_dir():
        return evalharness.load_prediction_maps(p)
    return evalharness.load_predictions_csv(p)


def cmd_eval(args) -> int:
    frames = datamodel.read_annotations(args.gt)
    preds = _load_predictions(args.preds)
    frames = evalharness.apply_subset_preset(frames, args.subset)
    if not frames:
        raise evalharness.EvalError(f"subset {args.subset!r} selects no frames")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.protocol == "full":
        report = evalharness.evaluate_full(frames, preds)
        (out / "report.csv").write_text(evalharness.full_report_to_csv(report), encoding="utf-8")
        print(evalharness.full_report_to_csv(report), end="")
    elif args.protocol == "decoupling":
        report = evalharness.decoupling_eval(
            frames, preds, min_volume_dm3=args.min_volume, iou_threshold=args.iou_threshold
        )
        (out / "report.csv").write_text(evalharness.decoupling_to_csv(report), encoding="utf-8")
        print(evalharness.decoupling_to_csv(report), end="")
    elif args.protocol == "bins":
        bins = evalharness.crowd_size_bins(frames, preds, args.bin_edges)
        (out / "bins.csv").write_text(evalharness.bins_to_csv(bins), encoding="utf-8")
        plots.write_bins_svg(bins, out / "bins.svg")
        print(evalharness.bins_to_csv(bins), end="")
    else:  # scatter
        records = evalharness.build_records(frames, preds)
        points = metrics.mae_ppmae_scatter([r for r in records if r.n_persons >= 1])
        (out / "scatter.csv").write_text(metrics.scatter_to_csv(points), encoding="utf-8")
        plots.write_scatter_svg(points, out / "scatter.svg")
        print(f"scatter: {len(points)} points -> {out / 'scatter.svg'}")
    return EXIT_OK


def cmd_stats(args) -> int:
    path = Path(args.input)
    if path.suffix == ".csv":
        samples = anthro.read_samples_csv(path)
        if not samples:
            raise datamodel.ParseError(f"{path}: empty sample file")
        print("key,value")
        print(f"n_samples,{len(samples)}")
        print(f"mean_volume_dm3,{math.fsum(s.volume_dm3 for s in samples) / len(samples)!r}")
        if args.target_config:
            model = anthro.model_from_config(datamodel.read_keyvalues(args.target_config))
            reports = _alignment_reports(samples, args.before, model)
            for name, rep in reports.items():
                print(f"kl_{name}_before,{rep.kl_before!r}")
                print(f"kl_{name}_after,{rep.kl_after!r}")
                print(f"kl_{name}_pct_change,{rep.pct_change!r}")
            if args.out:
                anthro.write_alignment_csv(reports, Path(args.out) / "alignment.csv")
    else:
        frames = datamodel.read_annotations(path)
        stats = evalharness.dataset_stats(frames)
        print(evalharness.stats_to_csv(stats), end="")
        if args.out:
            Path(args.out).mkdir(parents=True, exist_ok=True)
            (Path(args.out) / "stats.csv").write_text(evalharness.stats_to_csv(stats), encoding="utf-8")
    return EXIT_OK


def _alignment_reports(samples, before_path, model):
    """KL per feature; a gender-mixed population is compared against the
    mixture's dominant component per gender, so features are reported
    per gender."""
    reports = {}
    after_by_gender = {
        g: [s for s in samples if s.gender == g] for g in ("female", "male")
    }
    before = anthro.read_samples_csv(before_path) if before_path else samples
    before_by_gender = {
        g: [s for s in before if s.gender == g] for g in ("female", "male")
    }
    for gender in ("female", "male"):
        params = model.params_for(gender)
        aft, bef = after_by_gender[gender], before_by_gender[gender]
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
    p_gen.add_argument("--workers", type=_workers, default=_default_workers())
    p_gen.add_argument("--dump-meshes", action="store_true", help="also write per-character OBJ meshes")
    p_gen.set_defaults(func=cmd_gen)

    p_label = sub.add_parser("label", help="per-part volumes of a labeled OBJ mesh")
    p_label.add_argument("mesh")
    p_label.add_argument("labels", help="sidecar file: one 'vertex_index part_id' per line")
    p_label.add_argument("--taxonomy", help="key=value taxonomy config")
    p_label.add_argument("--tol", type=float, default=meshvol.DEFAULT_PLANE_TOL)
    p_label.set_defaults(func=cmd_label)

    p_maps = sub.add_parser("maps", help="render density maps from annotations")
    p_maps.add_argument("annotations")
    p_maps.add_argument("--out", required=True)
    p_maps.add_argument("--per-part", action="store_true")
    p_maps.add_argument("--sigma", type=float, default=4.0)
    p_maps.add_argument("--truncation", type=float, default=4.0)
    p_maps.add_argument("--taxonomy")
    p_maps.add_argument("--workers", type=_workers, default=_default_workers())
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


def _fail(exc: Exception, code: int) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    """Run one subcommand. This is the one place where an error becomes an
    exit code; a maps conservation failure is a result, returned as 5."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except scenegen.PlacementError as exc:
        return _fail(exc, EXIT_PLACEMENT)
    except meshvol.NonWatertightError as exc:
        return _fail(exc, EXIT_NOT_WATERTIGHT)
    except (OSError, ValueError, anthro.SamplingError) as exc:
        # ValueError covers ParseError, ValidationError, EvalError, MeshError
        # and BodyBuildError.
        return _fail(exc, EXIT_CONFIG)


if __name__ == "__main__":
    sys.exit(main())
