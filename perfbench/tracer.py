"""Outside-in tracer: wraps library functions from outside the library.

Each traced name gets a span whose self time is its duration minus the part
of that interval covered by traced callees. Spans are aggregated online per
name (calls, self nanoseconds) instead of being stored one by one: a sweep
opens about a million of them. Counter hooks run outside the timed interval
of both the span and its parent, so they cost tracing overhead only.

The library binds many functions by name at import (``from .measures import
w1``), so a function is replaced in every module of the package that holds
it, and methods are replaced on their class. ``uninstall`` restores all of it.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self, package: str):
        self.package = package
        self.spans = {}  # name -> [calls, self_ns]
        self.counters = defaultdict(int)
        self.sweep_timings = {}
        self._stack = []  # covered child nanoseconds of each open span
        self._undo = []

    def wrap(self, name, fn, before=None, after=None):
        """Return ``fn`` timed as span ``name``.

        ``before(*args)`` returns a token handed to ``after(token, args,
        result)``; both feed counters and are excluded from every span.
        """
        stats = self.spans.setdefault(name, [0, 0])
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            entered = clock()
            token = before(*args) if before is not None else None
            stack.append(0)
            start = clock()
            done = False
            try:
                result = fn(*args, **kwargs)
                done = True
            finally:
                stats[1] += clock() - start - stack.pop()
                stats[0] += 1
                if done and after is not None:
                    after(token, args, result)
                if stack:
                    stack[-1] += clock() - entered
            return result

        return traced

    def replace_function(self, module_name, attr, replacement):
        """Rebind ``module.attr`` wherever the package holds that object."""
        original = getattr(sys.modules[module_name], attr)
        prefix = self.package + "."
        for mod_name, module in list(sys.modules.items()):
            if mod_name != self.package and not mod_name.startswith(prefix):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, replacement)
                    self._undo.append((module, key, original))
        return original

    def trace_function(self, name, module_name, attr, before=None, after=None):
        original = getattr(sys.modules[module_name], attr)
        self.replace_function(module_name, attr, self.wrap(name, original, before, after))

    def trace_method(self, name, cls, attr, before=None, after=None):
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(name, original, before, after))
        self._undo.append((cls, attr, original))

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def self_seconds(self, name) -> float:
        return self.spans.get(name, [0, 0])[1] * 1e-9

    def calls(self, name) -> int:
        return self.spans.get(name, [0, 0])[0]


SPANS = (
    "measures.construct",
    "measures.mix",
    "measures.integrate",
    "measures.signed_difference",
    "measures.w1",
    "util.compensated_cumsum",
    "partition.discretize",
    "partition.weight_matrix",
    "functions.moments",
    "functions.exact_delta",
    "functions.exact_delta2",
    "functions.scalar_call",
    "derivative.dawson_extrapolated",
    "derivative.verify_deriv2",
    "derivative.field_values",
    "ftc.antiderivative_eval",
    "ftc.symmetry_residual",
    "sampling.random_measure",
    "cli.emit",
)

COUNTERS = (
    "measures.construct.atoms_in",
    "measures.construct.atoms_out",
    "util.compensated_cumsum.elements",
    "partition.weight_matrix.cells",
)


def install(package: str = "wasserstein_calculus") -> Tracer:
    """Wrap every traced layer of the imported library and return the tracer."""
    import numpy as np

    wc = sys.modules[package]
    tracer = Tracer(package)
    counters = tracer.counters

    def atoms_in(self):
        return np.size(self.positions)

    def atoms_out(n_in, args, _result):
        counters["measures.construct.atoms_in"] += n_in
        counters["measures.construct.atoms_out"] += args[0].positions.size

    def cumsum_elements(_token, args, _result):
        counters["util.compensated_cumsum.elements"] += len(args[0])

    def weight_cells(_token, _args, result):
        counters["partition.weight_matrix.cells"] += result.size
        counters["partition.weight_matrix.nonzero"] += int(np.count_nonzero(result))

    m = f"{package}.measures"
    tracer.trace_method("measures.construct", wc.DiscreteMeasure, "__post_init__", atoms_in, atoms_out)
    for attr in ("mix", "integrate", "signed_difference", "w1"):
        tracer.trace_function(f"measures.{attr}", m, attr)
    tracer.trace_function(
        "util.compensated_cumsum", f"{package}.util", "compensated_cumsum", after=cumsum_elements
    )
    tracer.trace_function("partition.discretize", f"{package}.partition", "discretize")
    tracer.trace_method(
        "partition.weight_matrix", wc.PartitionScheme, "weight_matrix", after=weight_cells
    )
    tracer.trace_method("functions.moments", wc.CylinderFunction, "moments")
    tracer.trace_method("functions.exact_delta", wc.CylinderFunction, "exact_delta")
    tracer.trace_method("functions.exact_delta2", wc.CylinderFunction, "exact_delta2")
    tracer.trace_method("functions.scalar_call", wc.ScalarFunction, "__call__")
    d = f"{package}.derivative"
    for attr in ("dawson_extrapolated", "verify_deriv2", "field_values"):
        tracer.trace_function(f"derivative.{attr}", d, attr)
    tracer.trace_function("ftc.symmetry_residual", f"{package}.ftc", "symmetry_residual")
    tracer.trace_function("sampling.random_measure", f"{package}.sampling", "random_measure")
    tracer.trace_function("cli.emit", f"{package}.cli", "_emit")

    # antiderivative() builds a function; the span covers calls into it.
    build = sys.modules[f"{package}.ftc"].antiderivative

    def antiderivative(H, *args, **kwargs):
        built = build(H, *args, **kwargs)
        return wc.MeasureFunction(tracer.wrap("ftc.antiderivative_eval", built.fn), built.label)

    tracer.replace_function(f"{package}.ftc", "antiderivative", antiderivative)

    # run_sweep already times each criterion; keep its timings.
    run_sweep = sys.modules[f"{package}.acceptance"].run_sweep

    def timed_sweep(*args, **kwargs):
        report, timings = run_sweep(*args, **kwargs)
        tracer.sweep_timings = dict(timings)
        return report, timings

    tracer.replace_function(f"{package}.acceptance", "run_sweep", timed_sweep)
    return tracer
