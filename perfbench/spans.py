"""Spans and counters placed around calls into translab, from outside the package.

A ``Tracer`` replaces module attributes of an imported ``translab`` (the
public functions one layer calls in another) with timing wrappers, and
restores them on exit.  Spans are aggregated in memory per name: calls,
inclusive time, and self time (duration minus the time of the spans
nested directly inside it).  A layer is the part of a span name before
the first dot; a layer's self time is the sum of its spans' self times.

``NO_TRACE`` has the same wrapping methods and returns every callable
unchanged, so a workload builds identical inputs with tracing off.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter


class NoTrace:
    """Tracing off: every wrapper is the identity."""

    def modulus(self, beta):
        return beta

    def wrap(self, name, fn, before=None, after=None):
        return fn

    def evaluator(self, name, fn, record=False):
        return fn


NO_TRACE = NoTrace()


class Span:
    __slots__ = ("calls", "total", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_s = 0.0


class CountingModulus:
    """Delegates to a modulus and counts direct evaluations beta(s)."""

    def __init__(self, beta, counts: Counter) -> None:
        self.beta = beta
        self.counts = counts

    def __call__(self, s):
        self.counts["modulus.calls"] += 1
        return self.beta(s)

    def __getattr__(self, name):
        return getattr(self.beta, name)


class _ModulusFactory:
    """Stands in for ``ModulusSpec`` inside the driver so sweeps count beta calls."""

    def __init__(self, tracer: "Tracer", spec) -> None:
        self.tracer = tracer
        self.spec = spec

    def power(self, lam, alpha):
        return self.tracer.modulus(self.spec.power(lam, alpha))


class Tracer(NoTrace):
    """Spans, counters and recorded call arguments for one traced iteration."""

    def __init__(self, tl) -> None:
        self.tl = tl
        self.spans: dict[str, Span] = {}
        self.counts: Counter = Counter()
        self.stack = [[0.0]]  # child-time accumulators; the bottom one belongs to the caller
        self.profile_points = array("d")
        self.eval_calls: list = []  # (sampled function, point) per single-point evaluation
        self.certificates: list = []
        self.plain_beta = None
        self._undo: list = []

    def span(self, name: str) -> Span:
        return self.spans.setdefault(name, Span())

    def layer_self(self, layer: str) -> float:
        return sum(s.self_s for n, s in self.spans.items() if n.split(".", 1)[0] == layer)

    def modulus(self, beta):
        self.plain_beta = beta
        return CountingModulus(beta, self.counts)

    def wrap(self, name, fn, before=None, after=None):
        span, stack, clock = self.span(name), self.stack, time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(*args)
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stack[-1][0] += dt
                span.calls += 1
                span.total += dt
                span.self_s += dt - frame[0]
            return result if after is None else after(result)

        return traced

    def evaluator(self, name, fn, record=False):
        """Count the calls certify makes to a callable the benchmark passes in."""
        counts, calls = self.counts, self.eval_calls

        def note(x):
            counts["certifier.evals"] += 1
            if record:
                calls.append((fn, x))

        return self.wrap(name, fn, before=note)

    def _patch(self, owner, attr, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def __enter__(self) -> "Tracer":
        tl, counts = self.tl, self.counts
        enumerate_cubes = tl.certifier.enumerate_cubes

        def counted_cubes(n, q):
            for cube in enumerate_cubes(n, q):
                counts["certifier.cubes"] += 1
                yield cube

        def keep_certificate(cert):
            self.certificates.append(cert)
            return cert

        def count_rows(records):
            counts["driver.rows"] += len(records)
            return records

        def count_knots(h):
            counts["funcrep.count_knots"] += len(h.grid[0])

        def wrap_pullback(result):
            flat, factor = result
            return self.wrap("chart.pullback", flat), factor

        certify = self.wrap("certifier.certify", tl.certify, after=keep_certificate)
        for owner, attr, name, hooks in (
            (tl, "sweep", "driver.sweep", {"after": count_rows}),
            (tl, "write_csv", "driver.write_csv", {}),
            (tl.driver, "flatten_perturbation", "adversary.flatten", {}),
            (tl.driver, "refine_interpolant", "adversary.refine", {}),
            (tl.driver, "theory_upper_curve", "adversary.upper_curve", {}),
            (tl.driver, "count_zero_components", "funcrep.count", {"before": count_knots}),
            (tl.certifier, "pullback_perturbation", "chart.pullback_setup", {"after": wrap_pullback}),
            (tl.extremal, "profile", "extremal.profile", {"before": lambda beta, s: self.profile_points.append(s)}),
            (tl.ExtremalFunction, "__call__", "extremal.call", {}),
            (tl.ExtremalFunction, "sample", "extremal.sample", {}),
        ):
            self._patch(owner, attr, self.wrap(name, getattr(owner, attr), **hooks))
        self._patch(tl, "certify", certify)
        self._patch(tl.driver, "certify", certify)
        self._patch(tl.certifier, "enumerate_cubes", counted_cubes)
        self._patch(tl.driver, "ModulusSpec", _ModulusFactory(self, tl.driver.ModulusSpec))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
