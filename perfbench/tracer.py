"""Span tracing of ctmarket from outside the package.

:class:`Tracer` replaces each traced function at the name its caller looks
it up by (a module global such as ``ctmarket.cli.solve_equilibrium``, or a
class attribute such as ``LoadCurve.__init__``) with a wrapper that records
a span: name, start, end, parent span and scenario id.  Quadrature
abscissae are counted by wrapping the integrand handed to the quadrature
call.  A traced name that the package no longer has is skipped, so its
metrics read zero.  Leaving the ``with`` block puts every attribute back
exactly as it was.

A layer's self time is its span durations minus the durations of their
child spans; the benchmark's per-scenario root span keeps what no layer
claims, reported as the unattributed remainder.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter

import numpy as np

ROOT_SPAN = "bench.scenario"

# (module[:Class], attribute, span name, integrand parameter or None)
TARGETS = [
    ("ctmarket.cli", "main", "cli.main", None),
    ("ctmarket.cli", "run_scenario", "cli.series", None),
    ("ctmarket.cli", "render_report", "cli.report", None),
    ("ctmarket.cli", "emit_series", "cli.emit", None),
    ("ctmarket.cli", "validate", "scenario.validate", None),
    ("ctmarket.cli", "solve_equilibrium", "dispatch.solve", None),
    ("ctmarket.cli", "duration_curve", "curves.duration_curve", None),
    ("ctmarket.cli", "spot_price", "pricing.spot_price", None),
    ("ctmarket.cli", "duration_price", "pricing.duration_price", None),
    ("ctmarket.cli", "settle_spot", "settlement.settle_spot", None),
    ("ctmarket.cli", "settle_duration", "settlement.settle_duration", None),
    ("ctmarket", "validate", "scenario.validate", None),
    ("ctmarket", "solve_equilibrium", "dispatch.solve", None),
    ("ctmarket", "spot_price", "pricing.spot_price", None),
    ("ctmarket", "duration_price", "pricing.duration_price", None),
    ("ctmarket.settlement", "dispatch_cost", "settlement.dispatch_cost", None),
    ("ctmarket.settlement", "riemann_integrate", "quadrature.riemann", "f"),
    ("ctmarket.settlement", "lebesgue_integrate", "quadrature.lebesgue", "weight"),
    ("ctmarket.dispatch", "riemann_integrate", "quadrature.riemann", "f"),
    ("ctmarket.curves:MeasureFunction", "sample", "curves.measure_sample", None),
    ("ctmarket.curves:LoadCurve", "__init__", "curves.loadcurve", None),
]


def _resolve(owner_path: str):
    module_name, _, class_name = owner_path.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(owner, class_name, None) if class_name else owner


def _solution_sizes(sol) -> tuple[int, int]:
    """(knots, clamp events) of a dispatch solution; 0 where the shape is unknown."""
    knots = getattr(getattr(sol, "lambda_curve", None), "times", getattr(sol, "times", ()))
    return len(knots), len(getattr(sol, "clamp_events", ()))


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, scenario id]
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self.scenario = None
        self._last_error: BaseException | None = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- spans ----------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.scenario])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def _error(self, name: str, exc: BaseException) -> None:
        # Count an exception once, in the innermost layer it passes through.
        if exc is not self._last_error:
            self._last_error = exc
            self.errors[name.partition(".")[0]] += 1

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        except BaseException as exc:
            self._error(name, exc)
            raise
        finally:
            self._close(index)

    def _wrap(self, original, name: str, integrand: str | None):
        signature = inspect.signature(original) if integrand else None
        if signature is not None and integrand not in signature.parameters:
            signature = None  # renamed parameter: trace the call, skip the point count
        points = f"{name}.points"

        def counted(f):
            def call(xs):
                self.counts[points] += int(np.size(xs))
                return f(xs)

            return call

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.arguments[integrand] = counted(bound.arguments[integrand])
                args, kwargs = bound.args, bound.kwargs
            index = self._open(name)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                self._error(name, exc)
                raise
            finally:
                self._close(index)
            if name == "dispatch.solve":
                knots, events = _solution_sizes(result)
                self.counts["dispatch.knots"] += knots
                self.counts["dispatch.clamp_events"] += events
            return result

        return wrapper

    # -- installation -----------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            for owner_path, attr, name, integrand in TARGETS:
                owner = _resolve(owner_path)
                if owner is None or attr not in vars(owner):
                    continue
                original = vars(owner)[attr]
                self._patches.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, integrand))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def summary(self) -> tuple[dict[str, float], Counter, list[float]]:
        """Self time and call count per span name, and each root span's duration."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_time: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        roots = []
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            self_time[name] += (end - start) - child[i]
            calls[name] += 1
            if parent < 0:
                roots.append(end - start)
        return self_time, calls, roots


def span(tracer: Tracer | None, name: str):
    """``tracer.span(name)``, or a no-op when the run is not traced."""
    return nullcontext() if tracer is None else tracer.span(name)
