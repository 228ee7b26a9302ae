"""Benchmark of the crowdvol command line.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout. Every CLI call is a fresh
``python -m crowdvol.cli`` process on ./src, one at a time, timed from
spawn to exit. A run repeats whole rounds of the workload's calls until
--seconds are used up, checks every output against values computed here,
prints each metric by name with its unit, and ends with one JSON line. With
--trace 1 the rounds alternate between plain calls and calls through
perfbench/tracer.py, and the run reports per-layer metrics. See
perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import inputs  # noqa: E402
import tracer  # noqa: E402

MIN_ROUNDS = 3
SETUP_CALLS_PER_ROUND = 2
HARD_STOP_S = 120.0  # no round starts after this, so a run ends within 180 s
# Calibration probe: a fixed pure-Python loop timed at the start and the end
# of a run, to show which CPU-speed level the run fell in.
PROBE_LOOP = 300_000
# Typical wall time of perfbench/reference.py on this machine (2-CPU Xeon VM,
# Python 3.11.7); end-to-end times are scaled to it.
REFERENCE_S = 0.55

STAGE_METRICS = {"gt": "gt_s", "eval": "eval_s", "label": "label_s"}
# Layers that run at least 40 times in one pass of some workload get a
# median and a tail percentile.
PERCENTILE_LAYERS = (
    "scenegen.build_humanoid", "scenegen.generate_frame", "densitymap.render_vdm",
    "densitymap.integrate", "datamodel.write_vdm", "datamodel.read_vdm",
)
CLI_COMMANDS = ("gen", "maps", "eval", "label")


def per_layer_units() -> dict[str, str]:
    units = {"cli.import_s": "s"}
    for cmd in CLI_COMMANDS:
        units[f"cli.{cmd}.wall_s"] = "s"
        units[f"cli.{cmd}.peak_rss_mb"] = "MB"
    for name, _, _ in tracer.TRACED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in PERCENTILE_LAYERS:
        units[f"{name}.p50_ms"] = "ms"
        units[f"{name}.tail_ms"] = "ms"
    units.update({name: "count" for name in tracer.COUNTS})
    units.update({name: "bytes" for name in tracer.BYTES})
    units["trace.overhead_s"] = "s"
    return units


END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


# ---------------------------------------------------------------------------
# Running CLI processes
# ---------------------------------------------------------------------------

@dataclass
class Call:
    argv: list[str]
    wall_s: float
    rss_mb: float
    harness_rss_mb: float  # this process's max-RSS when it spawned the call
    returncode: int
    stdout: str
    trace: dict | None


class Cli:
    """Spawns one CLI process at a time and waits for it with wait4. Its
    max-RSS covers the process and every pool worker it waited for. subprocess
    starts children with vfork, so exec also records this process's own
    max-RSS so far as the child's: that is a floor under every figure, and
    each call keeps it next to its own."""

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.logs = work / "logs"
        self.logs.mkdir(parents=True, exist_ok=True)
        self.traced = False  # True: through perfbench/tracer.py
        self.calls: list[Call] = []

    def __call__(self, argv: list, workers: int = 1) -> Call:
        argv = [str(a) for a in argv]
        n = len(self.calls)
        out, err, trace_path = (self.logs / f"{n}.{ext}" for ext in ("out", "err", "json"))
        if self.traced:
            cmd = [sys.executable, str(HERE / "tracer.py"), str(trace_path), "--", *argv]
        else:
            cmd = [sys.executable, "-m", "crowdvol.cli", *argv]
        harness_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"), CVE_WORKERS=str(workers))
        with open(out, "wb") as fo, open(err, "wb") as fe:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=fo, stderr=fe, env=env, cwd=self.root)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        trace = None
        if self.traced and proc.returncode == 0:
            trace = json.loads(trace_path.read_text(encoding="utf-8"))
        call = Call(argv, wall, usage.ru_maxrss / 1024.0, harness_rss, proc.returncode,
                    out.read_text(encoding="utf-8", errors="replace"), trace)
        self.calls.append(call)
        if proc.returncode != 0:
            tail = err.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-3:]
            print(f"FAILED (exit {proc.returncode}): crowdvol {' '.join(argv)}: {' | '.join(tail)}")
        return call

    def reference(self) -> float:
        """Wall seconds of one perfbench/reference.py process, spawned alike."""
        start = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "reference.py")], stdout=subprocess.DEVNULL,
                       env=dict(os.environ, PYTHONPATH=str(self.root / "src")), cwd=self.root, check=True)
        return time.perf_counter() - start


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclass
class Step:
    stage: str  # the end-to-end stage it counts toward: gt, eval or label
    argv: list
    check: Callable[[Call], None]
    workers: int = 1


@dataclass
class Workload:
    steps: list[Step]
    scratch: list[Path]  # output directories emptied before every round


def _gt_steps(work: Path, seed: int, scene: dict, per_part: bool, state: dict, workers: int = 1) -> list[Step]:
    """gen then maps at sigma 4, checking the frames and every map's mass."""
    n_frames = int(scene["frames.test"])
    persons = (int(scene["persons.min"]), int(scene["persons.max"]))
    cfg = work / "scene.cfg"
    inputs.write_scene_config(scene, cfg)
    data, maps = work / "data", work / "maps"

    def after_gen(call: Call) -> None:
        state["frames"] = checks.read_jsonl(data / "test.jsonl")
        checks.check_frames(state["frames"], n_frames, persons)

    def after_maps(call: Call) -> None:
        state["maps"] = checks.check_maps(state["frames"], maps)

    maps_argv = ["maps", data / "test.jsonl", "--out", maps, "--sigma", "4"]
    return [
        Step("gt", ["gen", "--config", cfg, "--seed", seed, "--out", data], after_gen, workers),
        Step("gt", maps_argv + (["--per-part"] if per_part else []), after_maps, workers),
    ]


def _eval_step(work: Path, preds, protocol: str, check: Callable[[Path], None]) -> Step:
    out = work / f"eval_{protocol}"
    argv = ["eval", "--gt", work / "data" / "test.jsonl", "--preds", preds, "--protocol", protocol, "--out", out]
    return Step("eval", argv, lambda call: check(out))


def desk(work: Path, seed: int, cli: Cli) -> Workload:
    state: dict = {}
    steps = _gt_steps(work, seed, inputs.DESK_SCENE, False, state)
    preds_csv = work / "preds.csv"
    gen_check = steps[0].check

    def after_gen(call: Call) -> None:
        gen_check(call)
        state["preds"] = inputs.write_predictions(state["frames"], seed, preds_csv)

    def bins(out: Path) -> None:
        checks.check_bins(out / "bins.csv", state["frames"], state["preds"], inputs.BIN_EDGES)
        if not (out / "bins.svg").read_text(encoding="utf-8").startswith("<svg"):
            raise checks.CheckError("bins.svg is not an SVG")

    steps[0].check = after_gen
    steps += [
        _eval_step(work, work / "maps", "decoupling", lambda out: checks.check_decoupling(
            out / "report.csv", state["frames"], state["maps"])),
        _eval_step(work, preds_csv, "full", lambda out: checks.check_full_report(
            out / "report.csv", state["frames"], state["preds"])),
        _eval_step(work, preds_csv, "bins", bins),
    ]
    return Workload(steps, [work / d for d in ("data", "maps", "eval_decoupling", "eval_full", "eval_bins")])


def dense(work: Path, seed: int, cli: Cli) -> Workload:
    state: dict = {}
    steps = _gt_steps(work, seed, inputs.DENSE_SCENE, True, state)

    def full(out: Path) -> None:
        preds = {fid: mass for fid, (mass, _) in state["maps"].items()}
        checks.check_full_report(out / "report.csv", state["frames"], preds)

    steps += [
        _eval_step(work, work / "maps", "decoupling", lambda out: checks.check_decoupling(
            out / "report.csv", state["frames"], state["maps"])),
        _eval_step(work, work / "maps", "full", full),
    ]
    return Workload(steps, [work / d for d in ("data", "maps", "eval_decoupling", "eval_full")])


def mesh(work: Path, seed: int, cli: Cli) -> Workload:
    steps = []
    for sides, rings in inputs.BODY_SIZES:
        body = inputs.frusta_body(seed, sides, rings)
        obj, labels = work / f"body{body.n_faces}.obj", work / f"body{body.n_faces}.labels"
        body.write(obj, labels)
        volumes = body.part_volumes_dm3()
        steps.append(Step("label", ["label", obj, labels],
                          lambda call, volumes=volumes: checks.check_label(call.stdout, volumes)))
    return Workload(steps, [])


def parallel(work: Path, seed: int, cli: Cli) -> Workload:
    """gen and maps of the desk scene at 75 frames with two workers, against
    a one-worker reference made in this run with the same seed."""
    ref_state: dict = {}
    ref = work / "reference"
    ref.mkdir()
    for step in _gt_steps(ref, seed, inputs.PARALLEL_SCENE, False, ref_state):
        call = cli(step.argv, workers=1)
        try:
            if call.returncode != 0:
                raise checks.CheckError(f"exit {call.returncode}")
            step.check(call)
        except checks.CheckError as exc:
            raise SystemExit(f"error: one-worker reference `crowdvol {' '.join(call.argv)}`: {exc}")
    steps = _gt_steps(work, seed, inputs.PARALLEL_SCENE, False, {}, workers=2)
    for step, name in zip(steps, ("data", "maps")):
        step.check = lambda call, name=name: checks.check_identical(work / name, ref / name)
    return Workload(steps, [work / "data", work / "maps"])


WORKLOADS = {"desk": desk, "dense": dense, "mesh": mesh, "parallel": parallel}


# ---------------------------------------------------------------------------
# Rounds
# ---------------------------------------------------------------------------

@dataclass
class Round:
    refs: tuple[float, float]  # reference.py wall times just before and just after
    setup: list[Call]
    steps: list[tuple[Step, Call]]
    complete: bool


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    check_errors: list[str] = field(default_factory=list)


def run_round(cli: Cli, workload: Workload, tally: Tally, ref_before: float) -> Round:
    """One round; ref_before is the reference time taken just before it."""
    for path in workload.scratch:
        shutil.rmtree(path, ignore_errors=True)
    setup = []
    for _ in range(SETUP_CALLS_PER_ROUND):
        call = cli(["--version"])
        tally.attempted += 1
        if call.returncode != 0 or not call.stdout.strip():
            tally.failed += 1
        setup.append(call)
    done: list[tuple[Step, Call]] = []
    checking = True
    for i, step in enumerate(workload.steps):
        call = cli(step.argv, step.workers)
        tally.attempted += 1
        if call.returncode != 0:
            # The rest of the round needs this call's output: count it as failed.
            tally.attempted += len(workload.steps) - i - 1
            tally.failed += len(workload.steps) - i
            return Round((ref_before, cli.reference()), setup, done, False)
        done.append((step, call))
        if checking:
            try:
                step.check(call)
            except (checks.CheckError, OSError, KeyError, IndexError, ValueError) as exc:
                tally.check_errors.append(f"crowdvol {' '.join(step.argv)}: {exc}")
                checking = False  # later checks build on this one's state
    return Round((ref_before, cli.reference()), setup, done, True)


def stage_times(rnd: Round) -> dict[str, float]:
    times: dict[str, float] = defaultdict(float)
    for step, call in rnd.steps:
        times[step.stage] += call.wall_s
    return dict(times)


def probe_ms() -> float:
    """Median of five timings of a fixed pure-Python loop, in milliseconds."""
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        acc = 0
        for i in range(PROBE_LOOP):
            acc += i * i
        samples.append((time.perf_counter() - start) * 1000.0)
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def end_to_end(rounds: list[Round], calls: list[Call]) -> tuple[dict[str, float], list[str]]:
    """Times in reference seconds: each round's times are scaled by
    REFERENCE_S over the mean of the reference times around that round.
    See README.md, "CPU speed and reference seconds"."""
    scales = [REFERENCE_S / statistics.mean(r.refs) for r in rounds]
    setup = [c.wall_s * k for r, k in zip(rounds, scales) for c in r.setup]
    walls = [sum(stage_times(r).values()) for r in rounds]
    peak = max(calls, key=lambda c: c.rss_mb)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(w * k for w, k in zip(walls, scales)),
        "peak_rss_mb": peak.rss_mb,
    }
    lines = [
        "reference    rounds scaled by " + " ".join(f"{k:.3f}" for k in scales)
        + f" ({REFERENCE_S} s over the mean reference.py time around each round)",
        f"setup_s      {metrics['setup_s']:.4f} s   median of {len(setup)} fresh `crowdvol --version` processes, "
        f"{statistics.median(c.wall_s for r in rounds for c in r.setup):.4f} s as measured",
        f"wall_s       {metrics['wall_s']:.4f} s   median over {len(walls)} rounds of the round's timed calls, "
        f"{statistics.median(walls):.4f} s as measured; rounds as measured: " + " ".join(f"{w:.3f}" for w in walls),
        f"peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB  largest max-RSS of {len(calls)} CLI processes, "
        f"in `crowdvol {' '.join(peak.argv[:1] + peak.argv[-2:])}`; this process's own max-RSS "
        f"before that call, a floor under it: {peak.harness_rss_mb:.1f} MB",
    ]
    for stage, name in STAGE_METRICS.items():
        values = [stage_times(r)[stage] * k for r, k in zip(rounds, scales) if stage in stage_times(r)]
        if values:
            lines.append(f"{name:<12} {statistics.median(values):.4f} s   part of wall_s, scaled alike")
    return metrics, lines


def pass_layers(rnd: Round) -> dict[str, float]:
    """Per-layer values of one traced pass: calls, self time, percentiles, counts."""
    durations: dict[str, list[float]] = defaultdict(list)
    self_s: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    for call in rnd.setup + [c for _, c in rnd.steps]:
        spans = call.trace["spans"]
        covered = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, start, end, _), child in zip(spans, covered):
            durations[name].append(end - start)
            self_s[name] += end - start - child
        for key, value in call.trace["counts"].items():
            counts[key] = max(counts[key], value) if key.startswith("pool.") else counts[key] + value
    out: dict[str, float] = {}
    for name, _, _ in tracer.TRACED:
        out[f"{name}.calls"] = len(durations[name])
        out[f"{name}.self_s"] = self_s[name]
    for name in PERCENTILE_LAYERS:
        values = sorted(durations[name])
        out[f"{name}.p50_ms"] = 1000.0 * statistics.median(values) if values else 0.0
        # The highest percentile with ten samples beyond it.
        out[f"{name}.tail_ms"] = 1000.0 * values[-11] if len(values) >= 40 else 0.0
    out.update({key: counts[key] for key in tracer.COUNTS + tracer.BYTES})
    return out


def per_layer(pairs: list[tuple[Round, Round]]) -> tuple[dict[str, float], list[str]]:
    untraced = [u for u, _ in pairs]
    metrics: dict[str, float] = {
        # tracer.py times the import before it wraps anything.
        "cli.import_s": statistics.median(c.trace["import_s"] for _, t in pairs for c in t.setup),
    }
    for cmd in CLI_COMMANDS:
        walls = [sum(c.wall_s for _, c in r.steps if c.argv[0] == cmd) for r in untraced]
        rss = [c.rss_mb for r in untraced for _, c in r.steps if c.argv[0] == cmd]
        metrics[f"cli.{cmd}.wall_s"] = float(statistics.median(walls))
        metrics[f"cli.{cmd}.peak_rss_mb"] = max(rss, default=0.0)
    layers = [pass_layers(t) for _, t in pairs]
    for key in layers[0]:
        metrics[key] = statistics.median(layer[key] for layer in layers)

    def pass_wall(r: Round) -> float:
        """In reference seconds, as the end-to-end times are."""
        wall = sum(c.wall_s for c in r.setup) + sum(c.wall_s for _, c in r.steps)
        return wall * REFERENCE_S / statistics.mean(r.refs)

    metrics["trace.overhead_s"] = statistics.median(pass_wall(t) - pass_wall(u) for u, t in pairs)
    lines = [f"per-layer values are medians over {len(pairs)} traced passes; "
             "0 means the layer does not run in this workload's parent processes"]
    for name in PERCENTILE_LAYERS:
        n = metrics[f"{name}.calls"]
        if n >= 40:
            lines.append(f"{name}.tail_ms is p{100.0 * (n - 10) / n:.1f} of {n:g} calls")
    return metrics, lines


def spans_file(pairs: list[tuple[Round, Round]]) -> list[dict]:
    return [{"argv": c.argv, "import_s": c.trace["import_s"], "spans": c.trace["spans"],
             "counts": c.trace["counts"]}
            for _, t in pairs for c in t.setup + [c for _, c in t.steps]]


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "crowdvol" / "cli.py").is_file():
        print(f"error: {root} has no src/crowdvol/cli.py; run from the root of a crowdvol checkout",
              file=sys.stderr)
        return 2
    work = root / ".perfbench_runs" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cli = Cli(root, work)
    tally = Tally()

    probe_start = probe_ms()
    warm = cli(["--version"])  # writes bytecode caches; not timed
    tally.attempted += 1
    if warm.returncode != 0:
        print("error: `crowdvol --version` failed; see " + str(work / "logs"), file=sys.stderr)
        return 1
    workload = WORKLOADS[args.workload](work, args.seed, cli)
    tally.attempted += len(cli.calls) - 1

    rounds: list[Round] = []
    pairs: list[tuple[Round, Round]] = []
    ref = cli.reference()
    started = time.perf_counter()
    durations: list[float] = []
    while True:
        t0 = time.perf_counter()
        if args.trace:
            cli.traced = False
            untraced = run_round(cli, workload, tally, ref)
            cli.traced = True
            traced = run_round(cli, workload, tally, untraced.refs[1])
            ref = traced.refs[1]
            if untraced.complete and traced.complete:
                pairs.append((untraced, traced))
        else:
            rnd = run_round(cli, workload, tally, ref)
            ref = rnd.refs[1]
            if rnd.complete:
                rounds.append(rnd)
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - started
        needed = 1 if args.trace else MIN_ROUNDS
        if elapsed > HARD_STOP_S or (len(durations) >= needed
                                     and elapsed + statistics.median(durations) > args.seconds):
            break
    probe_end = probe_ms()

    if not (pairs if args.trace else rounds):
        print("error: no round completed; see " + str(work / "logs"), file=sys.stderr)
        return 1
    print(f"workload {args.workload}, seed {args.seed}, {len(durations)} rounds in "
          f"{time.perf_counter() - started:.1f} s, {tally.attempted} CLI processes, {tally.failed} failed")
    print(f"calibration probe: {probe_start:.2f} ms at start, {probe_end:.2f} ms at end "
          f"(fixed loop of {PROBE_LOOP:,} multiply-adds, median of 5; not a metric)")
    if args.trace:
        metrics, lines = per_layer(pairs)
        units = per_layer_units()
        (work / "trace.json").write_text(json.dumps(spans_file(pairs)), encoding="utf-8")
    else:
        metrics, lines = end_to_end(rounds, cli.calls)
        units = END_TO_END_UNITS
    for line in lines:
        print(line)
    for name in units:
        print(f"{name} = {metrics[name]!r} {units[name]}")
    for error in tally.check_errors:
        print(f"CHECK FAILED: {error}")
    (work / "calls.json").write_text(json.dumps(
        [{"argv": c.argv, "wall_s": c.wall_s, "rss_mb": c.rss_mb, "harness_rss_mb": c.harness_rss_mb,
          "returncode": c.returncode}
         for c in cli.calls]
    ), encoding="utf-8")
    for path in workload.scratch:
        shutil.rmtree(path, ignore_errors=True)
    shutil.rmtree(work / "reference", ignore_errors=True)
    print(json.dumps({
        "correct": not tally.check_errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
