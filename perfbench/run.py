"""Benchmark of translab: three workloads, end-to-end metrics, and a traced per-layer run.

Run from the root of a checkout (translab is imported from its src/):

    python3 perfbench/run.py --workload sweep_adv --seed 1 --seconds 30 --trace 0

With --trace 0 the run sets up the workload several times, then repeats
passes for --seconds and reports the end-to-end metrics, with times
scaled to a reference machine speed measured during the run.  With
--trace 1 it alternates untraced passes and traced iterations (set-up
plus pass, with spans around the calls into each layer) for --seconds,
then replays the recorded points untraced and reports the per-layer
metrics.  Every pass goes through the correctness gate.  NOTES.md next
to this file defines each metric.

Metric names and units come from BENCHMARK.json.  The lines before the
last give each metric with its unit and a record of the run; the last
line is one JSON object with the keys correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 15
CALIBRATION_LOOPS = 1000
SAMPLE_INTERVAL_S = 0.2
SPEED_WINDOW_S = 2.0
CALIBRATION_REFERENCE_S = 0.0075

from spans import NO_TRACE, Tracer  # noqa: E402
from workloads import WORKLOADS, Tally, gate_self_test  # noqa: E402


def import_translab():
    """Import translab afresh from the checkout's src/, as a new process would."""
    for name in [n for n in sys.modules if n == "translab" or n.startswith("translab.")]:
        del sys.modules[name]
    tl = importlib.import_module("translab")
    if Path(tl.__file__).resolve().parent != ROOT / "src" / "translab":
        raise SystemExit(f"perfbench: imported translab from {tl.__file__}, not from this checkout")
    return tl


def calibration_loop() -> None:
    """Fixed work of the kinds translab's hot paths do, without calling translab.

    Exact rationals, float bit manipulation and tiny numpy arrays.  A
    plain integer loop slows less than translab does when the machine is
    contended (its pass time grew as the loop time to the power 1.7);
    this mix grew with a power near 1, so it can scale pass times.
    """
    x, acc, a = Fraction(0), 0.0, np.zeros(2)
    for i in range(CALIBRATION_LOOPS):
        x += Fraction(i, 1 << (i % 40 + 1))
        acc += math.ldexp(float((i * 2654435761) >> 7), -(i % 50))
        a = np.asarray([i * 0.5, 1.0]) + a


class SpeedSampler:
    """Measures the machine's speed during a run by timing ``calibration_loop`` on a timer signal.

    Every SAMPLE_INTERVAL_S of wall time the handler runs ``calibration_loop``
    and records when it started and how long it took.  ``spent`` is the
    handler's total time, which timed intervals subtract.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self.spent = 0.0

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        calibration_loop()
        dt = time.perf_counter() - t0
        self.samples.append((t0, dt))
        self.spent += dt

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def measure(self, fn):
        """Call ``fn``; return its result (or the exception it raised) and (start, end, time).

        The time is the wall time minus the handler's time in between.
        """
        spent0, t0 = self.spent, time.perf_counter()
        try:
            out = fn()
        except Exception as exc:  # a pass that raises is a failed pass, not the end of the run
            out = exc
        t1 = time.perf_counter()
        return out, (t0, t1, t1 - t0 - (self.spent - spent0))

    def scaled(self, interval: tuple[float, float, float]) -> float:
        """The interval's time at reference speed, using the samples taken during it.

        Intervals shorter than SPEED_WINDOW_S are widened symmetrically to
        that length so that several samples contribute.
        """
        t0, t1, dt = interval
        pad = max(0.0, (SPEED_WINDOW_S - (t1 - t0)) / 2)
        near = [d for t, d in self.samples if t0 - pad <= t <= t1 + pad]
        return dt * CALIBRATION_REFERENCE_S / statistics.fmean(near or [d for _, d in self.samples])


def time_passes(work, seconds: float, tally: Tally, clock: SpeedSampler) -> list[tuple[float, float, float]]:
    """Repeat passes for at least ``seconds`` (and at least once); return each pass's (start, end, time)."""
    intervals: list[tuple[float, float, float]] = []
    start = time.perf_counter()
    while not intervals or time.perf_counter() - start < seconds:
        out, interval = clock.measure(work.run)
        intervals.append(interval)
        tally.record([f"{type(out).__name__}: {out}"] if isinstance(out, Exception) else work.problems(out))
    return intervals


def tail_percentile(times: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least 10 passes beyond it, and its value."""
    n = len(times)
    if n < 11:
        return None
    p = math.floor(100 * (n - 10) / n)
    return p, sorted(times)[math.ceil(p * n / 100) - 1]


def end_to_end(tl, name: str, seed: int, seconds: float, tmp: Path, tally: Tally):
    setups = []
    with SpeedSampler() as clock:
        for _ in range(SETUP_REPEATS):
            work, interval = clock.measure(lambda: WORKLOADS[name](import_translab(), seed, NO_TRACE, tmp))
            if isinstance(work, Exception):
                raise work
            setups.append(interval)
        intervals = time_passes(work, seconds, tally, clock)
        time.sleep(SPEED_WINDOW_S / 2)  # samples after the last pass, for its speed window
    times = [clock.scaled(i) for i in intervals]
    raw = [dt for _, _, dt in intervals]
    metrics = {
        "wall_s": statistics.median(times),
        "setup_s": statistics.median(clock.scaled(i) for i in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": (tally.attempted - tally.failed) / tally.attempted,
    }
    tail = tail_percentile(times)
    notes = [
        f"passes {len(times)}; wall_s is their median; "
        + (f"p{tail[0]} {tail[1]:.6f} s" if tail else "too few passes for a tail percentile"),
        f"setup_s is the median of {SETUP_REPEATS} set-ups (import translab and build inputs)",
        f"fail_frac {tally.failed / tally.attempted} ({tally.failed} of {tally.attempted} passes failed)",
        f"raw_wall_s {statistics.median(raw)!r} raw_setup_s {statistics.median(dt for _, _, dt in setups)!r} "
        f"speed_samples {len(clock.samples)}",
    ]
    return work, metrics, notes


def _safe_ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tr: Tracer, traced_wall: float, untraced_wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced iteration, before the replays."""
    s, c = tr.span, tr.counts
    cubes = c["certifier.cubes"]
    verified = sum(cert.certified_count for cert in tr.certificates)
    total = sum(lc.total for cert in tr.certificates for lc in cert.per_level_counts)
    return {
        "extremal.points": len(tr.profile_points),
        "extremal.sample_s": s("extremal.sample").total,
        "funcrep.eval_points": len(tr.eval_calls),
        "funcrep.count_s": s("funcrep.count").total,
        "funcrep.count_knots": c["funcrep.count_knots"],
        "certifier.certify_s": s("certifier.certify").total,
        "certifier.self_s": tr.layer_self("certifier"),
        "certifier.cubes": cubes,
        "certifier.verified_ratio": _safe_ratio(verified, total),
        "certifier.evals": c["certifier.evals"],
        "certifier.evals_per_cube": _safe_ratio(c["certifier.evals"], cubes),
        # the untraced pass of a certify workload is one certify call
        "certifier.us_per_cube": _safe_ratio(1e6 * untraced_wall, cubes),
        "chart.pullback_points": s("chart.pullback").calls,
        "chart.pullback_self_s": s("chart.pullback").self_s,
        "chart.transport_s": s("chart.transport").self_s,
        "adversary.flatten_s": s("adversary.flatten").total,
        "adversary.refine_s": s("adversary.refine").total,
        "adversary.self_s": tr.layer_self("adversary"),
        "driver.sweep_s": s("driver.sweep").total,
        "driver.self_s": tr.layer_self("driver"),
        "driver.csv_s": s("driver.write_csv").total,
        "driver.rows": c["driver.rows"],
        "modulus.calls": c["modulus.calls"],
        "trace_overhead_s": traced_wall - untraced_wall,
    }


def replays(tl, tr: Tracer) -> dict[str, float]:
    """Replay the recorded points through the public functions, untraced."""
    profile, beta = tl.extremal.profile, tr.plain_beta
    t0 = time.perf_counter()
    for s in tr.profile_points:
        profile(beta, s)
    eval_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    for fn, x in tr.eval_calls:
        fn.evaluate_many(x[None, :])
    one_by_one = time.perf_counter() - t0
    batch = 0.0
    for fn in {id(fn): fn for fn, _ in tr.eval_calls}.values():
        points = [x for f, x in tr.eval_calls if f is fn]
        t0 = time.perf_counter()
        fn.evaluate_many(points)
        batch += time.perf_counter() - t0
    return {
        "extremal.eval_s": eval_s,
        "extremal.us_per_point": _safe_ratio(1e6 * eval_s, len(tr.profile_points)),
        "funcrep.eval_s": one_by_one,
        "funcrep.batch_eval_s": batch,
    }


def traced(tl, name: str, seed: int, seconds: float, tmp: Path, tally: Tally):
    """Alternate untraced passes and traced iterations for at least ``seconds`` (at least two pairs)."""
    work = WORKLOADS[name](tl, seed, NO_TRACE, tmp)
    untraced: list[float] = []
    iterations: list[dict] = []
    start = time.perf_counter()
    while len(iterations) < 2 or time.perf_counter() - start < seconds:
        with SpeedSampler() as clock:
            untraced += [dt for _, _, dt in time_passes(work, 0.0, tally, clock)]
        with Tracer(tl) as tr:
            traced_work = WORKLOADS[name](tl, seed, tr, tmp)
            t0 = time.perf_counter()
            out = traced_work.run()
            wall = time.perf_counter() - t0
        tally.record(traced_work.problems(out))
        metrics = layer_metrics(tr, wall, untraced[-1])
        if iterations:
            counts = iterations[0]
            tally.record([f"{k} {metrics[k]} != {v}" for k, v in counts.items() if isinstance(v, int) and metrics[k] != v])
        else:
            first = tr
        iterations.append(metrics)
    if hasattr(work, "rebuild_problems"):
        tally.record(work.rebuild_problems(out))
    metrics = {
        k: v if isinstance(v, int) else statistics.median(m[k] for m in iterations)
        for k, v in iterations[0].items()
    }
    metrics.update(replays(tl, first))
    notes = [
        f"{len(iterations)} traced iterations, each after an untraced pass "
        "(time metrics are medians over iterations; counts repeat exactly)",
        f"untraced pass median {statistics.median(untraced):.6f} s",
    ]
    return work, metrics, notes


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "translab" / "__init__.py").is_file():
        print("perfbench: no translab sources under src/ in this checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    gate_failures = gate_self_test()
    if gate_failures:
        print(f"perfbench: gate self-test failed: {gate_failures}", file=sys.stderr)
        return 3

    tally = Tally()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        tl = import_translab()
        measure = traced if args.trace else end_to_end
        work, metrics, notes = measure(tl, args.workload, args.seed, args.seconds, Path(tmp), tally)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        raise SystemExit(f"perfbench: measured {sorted(metrics)} but BENCHMARK.json declares {sorted(units)}")
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    for key in units:
        print(f"  {key:26s} {metrics[key]!r:>24} {units[key]}")
    for note in notes + tally.reasons:
        print(f"  {note}")
    baseline = json.loads((HERE / "baseline.json").read_text())
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "sizes": work.sizes,
        "baseline": {
            "commit": baseline["commit"],
            "measured_on": baseline["measured_on"],
            "metrics": baseline["workloads"][args.workload],
        },
    }
    print("record " + json.dumps(record, sort_keys=True))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
