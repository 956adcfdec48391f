"""Benchmark of wasserstein_calculus: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout: the library is imported from the
checkout's ``src`` directory, never from an installed copy, and the run exits
with an error when that directory is missing. Everything runs in this one
process on one thread.

``--trace 0`` reports the end-to-end metrics: set-up time, the median wall
time of the passes that fit in ``--seconds`` (at least one), and peak
resident memory. ``--trace 1`` runs exactly one untraced and one traced pass,
so its counts repeat for a seed, and reports per-layer calls, self time and
work counts (see ``tracer.py``). Every pass goes through the oracles of
``workloads.py``, all passes of a run must give identical results, and
deliberately wrong copies of a pass's results must each count as one failed
operation. The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
PACKAGE = "wasserstein_calculus"

SETUP_REPS = 5

ACCEPTANCE_CRITERIA = (
    "discretization_bound",
    "dawson_matches_exact_derivative",
    "derivative_integral_identity",
    "canonical_normalization",
    "antiderivative_soundness",
    "counterexample",
    "second_derivative_symmetry",
    "metric_properties",
)
DIGITS_LAYERS = (
    "measures.w1",
    "derivative.dawson_extrapolated",
    "derivative.verify_deriv2",
    "ftc.antiderivative_eval",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_library():
    if not os.path.isfile(os.path.join(SRC, PACKAGE, "__init__.py")):
        raise SystemExit(f"error: no {PACKAGE} sources in {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    module = __import__(PACKAGE)
    if not os.path.abspath(module.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported {PACKAGE} from {module.__file__}, not {SRC}")


def import_seconds(clock) -> float:
    """Median scaled time to import the library again.

    numpy stays loaded and the files are cached, so this measures the
    library's own module code. The last import is the one the run uses.
    """
    times = []
    for _ in range(SETUP_REPS):
        for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
            del sys.modules[name]
        _module, seconds, scale = clock.measure(importlib.import_module, PACKAGE)
        times.append(seconds * scale)
    return statistics.median(times)


def timed_passes(workload, inputs, tally, seconds, clock):
    """Passes until the next would overrun ``seconds``; returns scaled and
    busy pass times, the last results and whether every pass gave identical
    results."""
    scaled, busy, prints = [], [], set()
    started = time.perf_counter()
    results = None
    while True:
        results = None  # free the last pass's results before the next
        t0 = time.perf_counter()
        results, seconds_busy, scale = clock.measure(workload.run, inputs)
        scaled.append(seconds_busy * scale)
        busy.append(seconds_busy)
        workload.check(inputs, results, tally)
        prints.add(workload.fingerprint(results))
        cycle = time.perf_counter() - t0
        if time.perf_counter() - started + cycle > seconds:
            return scaled, busy, results, len(prints) == 1


def traced_pass(workload, inputs, tally, clock):
    """One untraced and one traced pass on the same inputs.

    Calibration samples land in whichever span is open, in proportion to
    its time, so span times are scaled by the traced pass's scale times
    the share of its wall time that was not calibration.
    """
    from tracer import install

    results, seconds, scale = clock.measure(workload.run, inputs)
    untraced = seconds * scale
    workload.check(inputs, results, tally)
    first = workload.fingerprint(results)
    results = None
    tracer = install(PACKAGE)
    try:
        results, seconds, scale = clock.measure(workload.run, inputs)
    finally:
        tracer.uninstall()
    workload.check(inputs, results, tally)
    identical = workload.fingerprint(results) == first
    span_scale = scale * (1.0 - clock.sampled_share)
    return tracer, span_scale, seconds * scale / untraced - 1.0, results, identical


def layer_metrics(tracer, scale, tally, overhead_frac):
    from tracer import COUNTERS, SPANS

    counters = tracer.counters
    cells = counters["partition.weight_matrix.cells"]
    metrics = {}
    for name in SPANS:
        metrics[f"{name}.calls"] = (tracer.calls(name), "count")
        metrics[f"{name}.self_s"] = (tracer.self_seconds(name) * scale, "s")
    for name in COUNTERS:
        metrics[name] = (counters[name], "count")
    nonzero = counters["partition.weight_matrix.nonzero"]
    metrics["partition.weight_matrix.nonzero_frac"] = (nonzero / cells if cells else 0.0, "fraction")
    for layer in DIGITS_LAYERS:
        metrics[f"{layer}.digits"] = (tally.layer_digits(layer), "digits")
    for name in ACCEPTANCE_CRITERIA:
        metrics[f"acceptance.{name}_s"] = (tracer.sweep_timings.get(name, 0.0) * scale, "s")
    metrics["trace.overhead_frac"] = (overhead_frac, "fraction")
    return metrics


def self_test(workload, inputs, results):
    """Labels of the deliberately wrong results not counted as exactly one
    failed operation."""
    from oracles import Tally

    missed = []
    for label, wrong in workload.corrupt(inputs, results):
        probe = Tally()
        workload.check(inputs, wrong, probe)
        if probe.failed != 1:
            missed.append(label)
    return missed


def main(argv=None) -> int:
    args = parse_args(argv)
    import_library()
    from speed import SpeedClock

    clock = SpeedClock()
    import_s = import_seconds(clock)  # before anything binds the library's names
    from oracles import Tally
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    build_times = []
    inputs = None
    for _ in range(SETUP_REPS):
        inputs = None
        inputs, seconds, scale = clock.measure(workload.build, args.seed)
        build_times.append(seconds * scale)
    setup_s = import_s + statistics.median(build_times)

    tally = Tally()
    if args.trace:
        tracer, scale, overhead_frac, results, identical = traced_pass(workload, inputs, tally, clock)
        passes = 2
        metrics = layer_metrics(tracer, scale, tally, overhead_frac)
    else:
        scaled, busy, results, identical = timed_passes(workload, inputs, tally, args.seconds, clock)
        passes = len(scaled)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (statistics.median(scaled), "s"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
        }
    missed = self_test(workload, inputs, results)

    failed_frac = tally.failed / tally.attempted
    print(f"workload {args.workload} seed {args.seed} passes {passes} "
          f"attempted {tally.attempted} failed {tally.failed}")
    print(f"  failed_frac {failed_frac:.6g} (operations failing their oracle)")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    if not args.trace:
        print(f"  unscaled pass seconds {[round(t, 4) for t in busy]}")
    if tally.failures:
        print(f"  failed checks: {sorted(set(tally.failures))}")
    if not identical:
        print("  passes of this run gave different results")
    if missed:
        print(f"  oracle self-test: wrong results not caught: {missed}")
    result = {
        "correct": tally.failed == 0 and identical and not missed,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
