"""Command-line entry point.

Subcommands: gen (synthesize an annotated dataset), label (per-part volumes
of a labeled OBJ mesh), maps (render density maps), eval (run an evaluation
protocol), stats (dataset and alignment statistics).

Exit codes:
  0  success
  2  a bad flag, config, input file or output path: a missing or unreadable
     file, a file that does not parse or breaks an invariant, a value out
     of range, a reported mean or sum of input values that overflows, a
     scene whose bodies cannot be built or sampled
  3  persons could not be placed in a frame
  4  a mesh is not watertight
  5  a map's mass does not match its frame's annotated volume (`maps`)

Every error is one `error: ...` line on stderr and every warning one
`warning: ...` line; an argparse flag error prints its usage line first.
An OSError, ValueError or OverflowError exits 2 unless its `exit_code`
says otherwise (3 and 4); any other exception, a RuntimeError included,
is a bug and shows its traceback.
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
# The library returns reports as values: every report's CSV rows (`label`,
# `eval`, `stats`) are laid out here, where the command saves and prints them.

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONSERVATION = 5


def _config_hash(pairs: dict[str, str], seed: int) -> str:
    """sha256 of the sorted `key=value` lines of `pairs`, then `seed=N`."""
    import hashlib

    text = "\n".join(f"{k}={pairs[k]}" for k in sorted(pairs)) + f"\nseed={seed}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cmd_gen(args) -> int:
    from . import datamodel, scenegen

    pairs = datamodel.read_keyvalues(args.config) if args.config else {}
    read: dict[str, str] = {}  # every scene and model key as parsed: what config_hash covers
    cfg = scenegen.scene_config_from_pairs(pairs, args.config or "scene.cfg", read)
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
        "config_hash": _config_hash(read, args.seed),
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
    rows = [("part_id", "name", "volume_dm3")]
    rows += [(pid, taxonomy.name_of(pid), parts.volumes[pid]) for pid in sorted(parts.volumes)]
    rows.append(("total", "", parts.total_dm3))
    print(datamodel.csv_text(rows), end="")
    return EXIT_OK


def _write_map(per_part, cfg, out_dir: Path, frame) -> float:
    """Render one frame's map, write its .vdm file and return its mass."""
    from . import datamodel, densitymap

    if per_part:
        dmap = densitymap.render_ppvdm(frame, datamodel.default_taxonomy(), cfg)
    else:
        dmap = densitymap.render_vdm(frame, cfg)
    datamodel.write_vdm(dmap, out_dir / f"{frame.frame_id}.vdm")
    return dmap.total()


def cmd_maps(args) -> int:
    from . import datamodel, densitymap
    from .parallel import parallel_map

    frames = datamodel.read_annotations(args.annotations)
    cfg = densitymap.SmoothingConfig(sigma_px=args.sigma, truncation_radius=args.truncation)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    masses = parallel_map(_write_map, (args.per_part, cfg, out), frames, args.workers)
    failed = False
    for frame, got in zip(frames, masses):
        expected = frame.total_volume_dm3
        ok = abs(got - expected) <= 1e-6 * expected if expected > 0 else got == 0.0
        print(f"{frame.frame_id}: mass={got!r} expected={expected!r} {'ok' if ok else 'FAIL'}")
        if not ok:
            failed = True
    return EXIT_CONSERVATION if failed else EXIT_OK


def _full_rows(frames, preds, args, out) -> tuple[str, list[tuple]]:
    from . import evalharness

    report = evalharness.evaluate_full(frames, preds)
    rows = [("subset", "metric", "value", "k")]
    for name, rep in [("overall", report.overall), *report.per_tag.items()]:
        rows += [(name, "mae", rep.mae, rep.k), (name, "ppmae", rep.ppmae, rep.ppmae_k),
                 (name, "rmse", rep.rmse, rep.k)]
    return "report.csv", rows


def _decoupling_rows(frames, preds, args, out) -> tuple[str, list[tuple]]:
    from . import evalharness

    r = evalharness.decoupling_eval(frames, preds, args.min_volume, args.iou_threshold)
    return "report.csv", [("metric", "value"), ("ppmae", r.ppmae), ("misses", r.misses), ("kept", r.kept),
                          ("dropped_overlap", r.dropped_overlap), ("total_persons", r.total_persons)]


def _bins_rows(frames, preds, args, out) -> tuple[str, list[tuple]]:
    from . import evalharness, plots

    bins = evalharness.crowd_size_bins(frames, preds, args.bin_edges)
    plots.write_bins_svg(bins, out / "bins.svg")
    rows = [("lo", "hi", "n_frames", "mae", "ppmae", "rmse")]
    for b in bins:
        values = ("", "", "") if b.report is None else (b.report.mae, b.report.ppmae, b.report.rmse)
        rows.append((b.lo, b.hi, b.n_frames, *values))
    return "bins.csv", rows


def _scatter_rows(frames, preds, args, out) -> tuple[str, list[tuple]]:
    from . import evalharness, metrics, plots

    records = evalharness.build_records(frames, preds)
    points = metrics.mae_ppmae_scatter([r for r in records if r.n_persons >= 1])
    plots.write_scatter_svg(points, out / "scatter.svg")
    rows = [("frame_id", "ae_dm3", "ppae_dm3", "n_persons")]
    return "scatter.csv", rows + [(p.frame_id, p.ae, p.ppae, p.n_persons) for p in points]


# `eval --protocol NAME`: each runs on (frames, preds, args, out), draws its
# figure into `out` if it has one, and returns its CSV's file name and rows.
PROTOCOLS = {"full": _full_rows, "decoupling": _decoupling_rows, "bins": _bins_rows, "scatter": _scatter_rows}


def cmd_eval(args) -> int:
    from . import datamodel, evalharness

    frames = datamodel.read_annotations(args.gt)
    preds_path = Path(args.preds)
    preds = (evalharness.load_prediction_maps(preds_path) if preds_path.is_dir()
             else evalharness.load_predictions_csv(preds_path))
    frames = evalharness.apply_subset_preset(frames, args.subset)
    if not frames:
        raise datamodel.ValidationError(f"subset {args.subset!r} selects no frames")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        name, rows = PROTOCOLS[args.protocol](frames, preds, args, out)
    except OverflowError as exc:
        raise OverflowError(f"{args.preds}: {exc}") from None
    text = datamodel.csv_text(rows)
    (out / name).write_text(text, encoding="utf-8")
    print(text, end="")
    return EXIT_OK


def cmd_stats(args) -> int:
    from . import datamodel, metrics

    path = Path(args.input)
    samples_input = path.suffix == ".csv"
    what = "a samples .csv without --target-config" if samples_input else "annotations"
    for flag, value, used in (
        ("--target-config", args.target_config, samples_input),
        ("--before", args.before, samples_input and args.target_config),
    ):
        if value and not used:
            raise ValueError(f"stats: {flag} is not used with {what}")
    try:  # an overflow is a mean over valid values; the readers name their own file and line
        if samples_input:
            from . import anthro

            samples = anthro.read_samples_csv(path)
            if not samples:
                raise datamodel.ParseError(f"{path}: empty sample file")
            before = anthro.read_samples_csv(args.before) if args.before else samples
            rows = [("key", "value"), ("n_samples", len(samples)),
                    ("mean_volume_dm3", metrics.mean("mean_volume_dm3", samples, lambda s: s.volume_dm3))]
            if args.target_config:
                model = anthro.model_from_config(datamodel.read_keyvalues(args.target_config), args.target_config)
                rows += _alignment_rows(samples, before, model, (args.before or path, path))
                rows += _target_rows(samples, model)
        else:
            from . import evalharness

            stats = evalharness.dataset_stats(datamodel.read_annotations(path))
            names = ("mean_person_volume_dm3", "n_frames", "n_persons")
            rows = [("key", "value")] + [(name, getattr(stats, name)) for name in names]
            rows += [(f"frames_with_{n}_persons", count) for n, count in stats.count_histogram.items()]
            rows += [(f"frames_tagged_{tag}", count) for tag, count in stats.tag_counts.items()]
    except OverflowError as exc:
        raise OverflowError(f"{path}: {exc}") from None
    text = datamodel.csv_text(rows)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "stats.csv").write_text(text, encoding="utf-8")
    print(text, end="")
    return EXIT_OK


def _alignment_rows(samples, before, model, paths) -> list[tuple]:
    """KL rows, then KS rows, then sample counts, each per gender, against its height and mass
    log-normals. `paths` are the files of `before` and `samples`, to name a set without spread."""
    from . import anthro

    kl, ks, counts = [], [], []
    for gender in ("female", "male"):
        params = model.params_for(gender)
        aft, bef = ([s for s in group if s.gender == gender] for group in (samples, before))
        if len(aft) < 2 or len(bef) < 2:
            continue
        for feature, attr, target in (("height", "height_m", params.height), ("mass", "mass_kg", params.mass)):
            names = [f"{path}: {attr} of the {gender} samples" for path in paths]
            rep = anthro.alignment_report([getattr(s, attr) for s in bef], [getattr(s, attr) for s in aft],
                                          target, names)
            name = f"{feature}_{gender}"
            kl += [(f"kl_{name}_before", rep.kl_before), (f"kl_{name}_after", rep.kl_after),
                   (f"kl_{name}_pct_change", rep.pct_change)]
            ks += [(f"ks_{name}_before", rep.ks_before), (f"ks_{name}_after", rep.ks_after)]
        counts += [(f"n_{gender}_before", len(bef)), (f"n_{gender}_after", len(aft))]
    return kl + ks + counts


def _target_rows(samples, model) -> list[tuple]:
    """The samples against the model keys that the alignment rows leave out:
    gender_mix, bmi.lo and bmi.hi, and body_density."""
    from . import metrics

    n = len(samples)
    lo, hi = model.bmi_range
    return [
        ("female_share", sum(s.gender == "female" for s in samples) / n),
        ("female_share_target", model.gender_mix),
        ("bmi_outside_target_range_share", sum(not lo <= s.bmi <= hi for s in samples) / n),
        ("mean_body_density_kg_m3",
         metrics.mean("mean_body_density_kg_m3", samples, lambda s: 1000.0 * s.mass_kg / s.volume_dm3)),
        ("body_density_target_kg_m3", model.body_density),
    ]


def _integer(lo: int, stop: float, expected: str):
    """argparse type of an integer flag in [lo, stop), `expected` naming that range."""
    def parse(text: str) -> int:
        n = int(text) if text.strip().isdecimal() else lo - 1
        if not lo <= n < stop:
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return n
    return parse


# --seed: the seeds that the random streams tell apart, which reduce integers modulo 2**64
_seed = _integer(0, 2**64, "an integer in [0, 2**64)")
_workers = _integer(1, math.inf, "an integer >= 1")


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
    p_gen.add_argument("--seed", type=_seed, default=0)
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
    p_maps.add_argument("--workers", type=_workers, default=os.environ.get("CVE_WORKERS", "1"))
    p_maps.set_defaults(func=cmd_maps)

    p_eval = sub.add_parser("eval", help="evaluate predictions against ground truth")
    p_eval.add_argument("--gt", required=True)
    p_eval.add_argument("--preds", required=True, help="CSV of frame_id,V_pred_dm3 or a directory of .vdm maps")
    p_eval.add_argument("--protocol", choices=PROTOCOLS, default="full")
    p_eval.add_argument("--subset", choices=("all", "S1", "S2"), default="all")
    p_eval.add_argument("--out", default=".")
    p_eval.add_argument("--min-volume", type=float, default=10.0)
    p_eval.add_argument("--iou-threshold", type=float, default=0.0)
    p_eval.add_argument("--bin-edges", type=_bin_edges, default="1,5,10,20,inf")
    p_eval.set_defaults(func=cmd_eval)

    p_stats = sub.add_parser("stats", help="dataset statistics or sample alignment")
    p_stats.add_argument("input", help="annotations .jsonl or samples .csv")
    p_stats.add_argument("--target-config", help="anthropometric model config for alignment reports")
    p_stats.add_argument("--before", help="samples .csv of the pre-alignment population")
    p_stats.add_argument("--out")
    p_stats.set_defaults(func=cmd_stats)
    return parser


def _warn(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    """Run one subcommand. This is the one place where an error becomes an
    exit code, by one rule: an OSError, a ValueError or an OverflowError (a
    sum of valid values past the float range) exits 2 unless its
    `exit_code` says otherwise, as PlacementError's 3 and
    NonWatertightError's 4 do. Every other exception, any RuntimeError
    included, is a bug and propagates. A maps conservation failure is a
    result, returned as 5."""
    args = build_parser().parse_args(argv)
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _warn
            return args.func(args)
    except (OSError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", EXIT_CONFIG)


def run() -> int:
    """The process entry point: `main` with the cyclic garbage collector
    off, then `gc.freeze()`.

    No command leaves a garbage cycle (tests/test_gc_cycles.py checks each
    one), so every collection pass during a run traverses live objects and
    frees nothing; reference counting frees memory exactly as before. The
    forked workers of `parallel_map` inherit the setting. The freeze is
    still needed: the interpreter's shutdown collects even with the
    collector off, and frozen objects skip that full traversal, whose only
    effect would be to free memory the OS reclaims anyway. Exit handlers
    still run and streams are still flushed. `main` does neither, since
    tests and the benchmark's tracer call it in process; a usage error,
    `--help` and `--version` leave through SystemExit before the freeze."""
    import gc

    gc.disable()
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
