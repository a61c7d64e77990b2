"""Benchmark harness for weingarten-tubes.

Usage, from the repository root:

    python3 bench/run.py --workload {classify,membership,verify,cli-cold,all}
                         --seed N --seconds S --trace {0,1}

``--trace 0`` runs the workload in rounds for about S seconds with no
instrumentation and prints the end-to-end metrics, every time scaled to
a reference machine speed (see Speedometer).  ``--trace 1`` runs
round 0 alternately without and with spans around the library's public
functions (see spans.py) and prints the per-layer metrics.  Every
operation's output is checked; the last stdout line is one JSON object
with the keys correct, attempted, failed and metrics.  Metric
definitions, the layer-to-end-to-end map and the inputs left out are in
bench/README.md.  ``python3 bench/selftest.py`` checks the harness itself.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from spans import LAYERS, SPAN_NAMES, Tracer, pass_summary, write_spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 5
STARTUP_REPEATS = 5
CAL_REF_S = 3.7e-3  # one calibration chunk at the reference speed
CAL_EVERY_S = 0.05  # a chunk after the first operation this long after the last chunk

IMPORT_SNIPPET = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import weingarten_tubes.cli\n"
    "print(time.perf_counter() - t)\n"
)
NUMPY_SNIPPET = (
    "import contextlib, io, sys\n"
    "from weingarten_tubes import cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    cli.main(['sff', '3'])\n"
    "print(int('numpy' in sys.modules))\n"
)


class Library:
    """The package under test, imported from this checkout's src/."""

    def __init__(self):
        src = ROOT / "src"
        sys.path.insert(0, str(src))
        try:
            for name in ("polyalg", "radius", "classify", "geometry", "cli"):
                setattr(self, name, importlib.import_module(f"weingarten_tubes.{name}"))
        except ImportError as ex:
            raise SystemExit(f"error: cannot import weingarten_tubes from {src}: {ex}")
        if Path(self.cli.__file__).resolve().parent.parent != src.resolve():
            raise SystemExit(f"error: weingarten_tubes was imported from {self.cli.__file__}, not {src}")
        self.env = dict(os.environ, PYTHONPATH=str(src))

    def child(self, args: list[str]) -> str:
        proc = subprocess.run(
            [sys.executable, *args], cwd=ROOT, env=self.env, capture_output=True, timeout=120, check=True
        )
        return proc.stdout.decode()


def ratio(num: float, den: float) -> float:
    """num / den, or 0 when the base is empty."""
    return num / den if den else 0.0


def min_ops(percentile: int) -> int:
    """Fewest samples that leave ten beyond the given percentile."""
    return math.ceil(10 / (1 - percentile / 100) - 1e-9)


def tail(latencies: list[float], percentile: int) -> tuple[float, int]:
    """(value, samples beyond it) of the given percentile."""
    cut = statistics.quantiles(latencies, n=100, method="inclusive")[percentile - 1]
    return cut, sum(v > cut for v in latencies)


def calibration_chunk() -> float:
    """A fixed slice of pure-Python work of the library's two kinds:
    Fraction arithmetic on growing integers with a dict sort (the
    algebra), then math and small numpy vectors (the geometry).  On
    this host the mix tracks the speed of all four workloads better than
    either half alone."""
    acc = Fraction(0)
    table = {}
    for i in range(1, 150):
        acc += Fraction(i, i + 3) * Fraction(7, 2 * i + 1)
        table[i % 13, i % 7] = acc.numerator % 1000003
    total = float(sorted(table.items())[-1][1])
    v = np.array([0.3, 0.4, 1.2])
    for i in range(60):
        t = i * 0.1
        u = np.array([math.cos(t), math.sin(t), t])
        w = np.cross(u, v)
        total += float(np.dot(w, u)) + float(np.linalg.norm(w)) + math.sinh(t * 0.1)
        total += float(np.linalg.det(np.array([u, v, w])))
    return total


class Speedometer:
    """Tracks the speed of a shared host whose speed drifts by about a
    quarter within minutes.  A fixed calibration chunk runs between operations;
    each timing is scaled by CAL_REF_S / (median time of the chunks
    nearest to it), so it reads as at the reference speed.  The chunks
    are benchmark code, so a change to the library moves the scaled
    timings in full."""

    def __init__(self):
        self.samples: list[float] = []
        self.last = -math.inf

    def tick(self, force=False) -> None:
        start = time.perf_counter()
        if force or start - self.last >= CAL_EVERY_S:
            calibration_chunk()
            self.last = time.perf_counter()
            self.samples.append(self.last - start)

    def scale(self, index: int) -> float:
        """Scale for a timing taken just before chunk `index`: the
        median of the two chunks before it and up to three from it on."""
        return CAL_REF_S / statistics.median(self.samples[max(0, index - 2):index + 3])


def run_op(workload, op, rng, tracer=None, corrupt=False):
    """(outcome or None, seconds, problem or None) of one timed operation."""
    start = time.perf_counter()
    try:
        outcome = workload.run(op, tracer)
    except Exception as ex:  # a raising operation is a counted failure
        return None, time.perf_counter() - start, f"raised {type(ex).__name__}: {ex}"
    elapsed = time.perf_counter() - start
    if corrupt:
        outcome = workload.corrupt(outcome)
    try:
        problem = workload.check(op, outcome, rng)
    except Exception as ex:
        problem = f"check raised {type(ex).__name__}: {ex}"
    return outcome, elapsed, problem


class InputSummary:
    """Running input-property summary of a run.  It keeps no record per
    operation, so the harness's memory does not grow with the number of
    operations and peak_rss_mb stays the program's."""

    RANGES = {"degree": "degree", "bits": "coeff_bits", "points": "grid_points"}
    TOTALS = {"rational": "radii_rational", "irrational": "radii_irrational",
              "points": "grid_points_total", "csv_points": "csv_points_total"}

    def __init__(self):
        self.ops = 0
        self.ranges: dict[str, list] = {}
        self.totals: Counter = Counter()
        self.seen: set = set()
        self.reusing = 0
        self.commands: set = set()

    def add(self, note: dict) -> None:
        self.ops += 1
        for key in self.RANGES:
            if key in note:
                lo_hi = self.ranges.setdefault(key, [note[key], note[key]])
                lo_hi[:] = [min(lo_hi[0], note[key]), max(lo_hi[1], note[key])]
        self.totals.update({k: note[k] for k in self.TOTALS if k in note})
        radii = set(note.get("radii", ()))
        self.reusing += bool(radii & self.seen)
        self.seen |= radii
        if "command" in note:
            self.commands.add(note["command"])

    def as_dict(self) -> dict:
        out = {"ops": self.ops, **{self.RANGES[k]: v for k, v in self.ranges.items()}}
        out.update({self.TOTALS[k]: self.totals[k] for k in self.TOTALS if k in self.totals})
        out["distinct_radii"] = len(self.seen)
        out["radius_reuse_share"] = round(ratio(self.reusing, self.ops), 4)
        if self.commands:
            out["commands"] = sorted(self.commands)
        return out


class Tally:
    def __init__(self, keep_notes=False):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.summary = InputSummary()
        self.notes: list[dict] | None = [] if keep_notes else None

    def add(self, workload, op, outcome, problem) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(f"{op.get('argv', [''])[0] or workload.name}: {problem}")
        if outcome is not None:
            note = workload.note(op, outcome)
            self.summary.add(note)
            if self.notes is not None:
                self.notes.append(note)


def round_rng(workload, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload.name}:{seed}:{index}")


def measure_setup(lib, workload, seed: int, speed: Speedometer) -> float:
    """Median over repeats of a fresh interpreter's package import plus
    one in-process pass over the workload's warm-up operations, each
    repeat scaled by the calibration chunks around it."""
    ops = workload.warmup_ops(random.Random(f"warmup:{seed}"))
    samples = []
    for _ in range(SETUP_REPEATS):
        speed.tick(force=True)
        speed.tick(force=True)
        imported = float(lib.child(["-c", IMPORT_SNIPPET]).strip())
        start = time.perf_counter()
        for op in ops:
            workload.warm(op)
        elapsed = imported + time.perf_counter() - start
        speed.tick(force=True)
        samples.append(elapsed * speed.scale(len(speed.samples) - 1))
    return statistics.median(samples)


def timed_run(lib, workload, seed: int, seconds: float, tiny=False, corrupt=False):
    workload.setup_rng(seed)
    speed = Speedometer()
    setup_s = measure_setup(lib, workload, seed, speed)
    tally = Tally()
    check_rng = random.Random(f"check:{seed}")
    rounds: list[list[tuple[float, int]]] = []  # (latency, index of the next chunk)
    start = time.perf_counter()
    while True:
        latencies = []
        for op in workload.make_round(round_rng(workload, seed, len(rounds)), tiny):
            outcome, elapsed, problem = run_op(workload, op, check_rng, corrupt=corrupt)
            latencies.append((elapsed, len(speed.samples)))
            tally.add(workload, op, outcome, problem)
            speed.tick()
        rounds.append(latencies)
        spent = time.perf_counter() - start
        done = sum(map(len, rounds)) >= min_ops(workload.tail_percentile) or tiny
        if done and spent + spent / len(rounds) > seconds:
            break
    speed.tick(force=True)
    raw_rounds = [sum(v for v, _ in r) for r in rounds]
    rounds = [[v * speed.scale(index) for v, index in r] for r in rounds]
    who = resource.RUSAGE_CHILDREN if workload.child_processes else resource.RUSAGE_SELF
    all_latencies = [v for r in rounds for v in r]
    pct = workload.tail_percentile
    tail_value, beyond = tail(all_latencies, pct) if len(all_latencies) > 1 else (all_latencies[0], 0)
    metrics = {
        "ops_per_s": (statistics.median(len(r) / sum(r) for r in rounds), "1/s"),
        "latency_p50_ms": (statistics.median(all_latencies) * 1e3, "ms"),
        "latency_tail_ms": (tail_value * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
    }
    notes = {
        "rounds": len(rounds),
        "latency_tail": f"p{pct} of {len(all_latencies)} samples, {beyond} beyond it",
        "fail_ratio": ratio(tally.failed, tally.attempted),
        "unscaled_ops_per_s": statistics.median(len(r) / t for r, t in zip(rounds, raw_rounds)),
        "median_speed_scale": statistics.median(sum(r) / t for r, t in zip(rounds, raw_rounds)),
    }
    return tally, metrics, notes


def startup_metrics(lib) -> dict:
    interpreter = []
    for _ in range(STARTUP_REPEATS):
        start = time.perf_counter()
        lib.child(["-c", "pass"])
        interpreter.append(time.perf_counter() - start)
    imports = [float(lib.child(["-c", IMPORT_SNIPPET]).strip()) for _ in range(STARTUP_REPEATS)]
    return {
        "startup.interpreter_s": (statistics.median(interpreter), "s"),
        "startup.import_s": (statistics.median(imports), "s"),
        "startup.numpy_loaded": (int(lib.child(["-c", NUMPY_SNIPPET]).strip()), "flag"),
    }


def run_pass(workload, ops, rng, tally, tracer=None) -> float:
    total = 0.0
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        outcome, elapsed, problem = run_op(workload, op, rng, tracer)
        total += elapsed
        tally.add(workload, op, outcome, problem)
    return total


def traced_run(lib, workload, seed: int, seconds: float, tiny=False, spans_dir: Path | None = None):
    """Round 0 alternately untraced and traced until the time is up;
    counts come from the first traced pass and must repeat exactly in
    every later one, self times are medians over traced passes."""
    workload.setup_rng(seed)
    for op in workload.warmup_ops(random.Random(f"warmup:{seed}")):
        workload.warm(op)
    startup = startup_metrics(lib)
    ops = workload.make_round(round_rng(workload, seed, 0), tiny)
    check_rng = random.Random(f"check:{seed}")
    tally = Tally(keep_notes=True)
    tracer = Tracer()
    untraced, traced, self_passes = [], [], []
    first = None
    start = time.perf_counter()
    while True:
        untraced.append(run_pass(workload, ops, check_rng, tally))
        tracer.reset()
        notes_before = len(tally.notes)
        if not workload.child_processes:
            tracer.install()
        try:
            traced.append(run_pass(workload, ops, check_rng, tally, tracer))
        finally:
            tracer.uninstall()
        calls, self_ns, per_op = pass_summary(tracer.spans)
        self_passes.append(self_ns)
        if first is None:
            first = (calls, Counter(tracer.counts), per_op, tally.notes[notes_before:])
            if spans_dir is not None:
                spans_dir.mkdir(exist_ok=True)
                write_spans(spans_dir / f"spans-{workload.name}-seed{seed}.jsonl", tracer.spans)
        elif (calls, tracer.counts) != first[:2]:
            tally.attempted += 1
            tally.failed += 1
            tally.problems.append("traced call counts differ between passes of the same inputs")
        spent = time.perf_counter() - start
        if len(traced) >= 2 and spent + spent / len(traced) > seconds:
            break
    calls, counts, per_op, notes = first
    base = {k: sum(n.get(k, 0) for n in notes)
            for k in ("rendered_irrational", "csv_points", "frame_rows", "frame_rows_x_n_t")}
    csv_ops = {i for i, note in enumerate(notes) if note.get("csv_points")}
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = (calls[name], "count")
        metrics[f"{name}.self_s"] = (statistics.median(p[name] for p in self_passes) / 1e9, "s")
    for layer in LAYERS:
        per_pass = [sum(v for k, v in p.items() if k.startswith(layer + ".")) for p in self_passes]
        metrics[f"{layer}.self_s"] = (statistics.median(per_pass) / 1e9, "s")
    metrics.update({
        "polyalg.substitutions_per_star_radius": (ratio(counts["zero_images"], counts["rational_stars"]), "ratio"),
        "polyalg.quotient_yield": (ratio(counts["quotients"], calls["polyalg.divide_by_tube_factor"]), "ratio"),
        "radius.radii_rational": (counts["radii_rational"], "count"),
        "radius.radii_irrational": (counts["radii_irrational"], "count"),
        "radius.star_yield": (ratio(counts["stars"], counts["star_set_entries"]), "ratio"),
        "radius.refined_per_irrational_radius": (
            ratio(calls["radius.refined"], base["rendered_irrational"]), "ratio"),
        "geometry.curvatures_per_point": (
            ratio(sum(n for (op, name), n in per_op.items() if name == "geometry.curvatures" and op in csv_ops),
                  base["csv_points"]), "ratio"),
        "geometry.frames_per_s_row": (ratio(calls["geometry.frenet_frame"], base["frame_rows"]), "ratio"),
    })
    metrics.update(startup)
    metrics["trace.overhead_ratio"] = (statistics.median(untraced) / statistics.median(traced), "ratio")
    summary = {
        "passes": len(traced),
        "ops_per_pass": len(ops),
        "frames_per_s_row_if_one_frame_per_point": ratio(base["frame_rows_x_n_t"], base["frame_rows"]),
        "fail_ratio": ratio(tally.failed, tally.attempted),
    }
    return tally, metrics, summary


def report(workload, tally: Tally, metrics: dict, notes: dict) -> dict:
    print(f"workload {workload.name}: {tally.attempted} operations, {tally.failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:.6g} {unit}")
    print("  notes " + json.dumps(notes))
    print("  inputs " + json.dumps(tally.summary.as_dict()))
    for problem in tally.problems:
        print(f"  FAILED {problem}", file=sys.stderr)
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    lib = Library()
    tmp = ROOT / ".bench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True)
    try:
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {}
        for name in names:
            workload = WORKLOADS[name](lib, ROOT, tmp)
            if args.trace:
                outcome = traced_run(lib, workload, args.seed, args.seconds, spans_dir=ROOT / ".bench_out")
            else:
                outcome = timed_run(lib, workload, args.seed, args.seconds)
            results[name] = (outcome[0], report(workload, *outcome))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            tmp.parent.rmdir()
    attempted = sum(t.attempted for t, _ in results.values())
    failed = sum(t.failed for t, _ in results.values())
    if len(results) == 1:
        metrics = next(iter(results.values()))[1]
    else:
        metrics = {f"{w}.{k}": v for w, (_, m) in results.items() for k, v in m.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
