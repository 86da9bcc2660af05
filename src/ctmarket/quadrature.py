"""Dual integration engines over time and over power levels.

``riemann_integrate`` sums a composite rule over interval panels on the time
axis; ``lebesgue_integrate`` sums the same rules over power-level panels,
weighting each level by the trajectory's measure function.  Panel edges are
snapped to curve breakpoints (and to their images on the power axis), so a
piecewise-polynomial integrand of degree <= 3 on those kinks is integrated
exactly by the Simpson rule at any panel count.  Settlement, cost and unit
prices integrate only such integrands, so the library runs them at
``EXACT_CONFIG``: one Simpson pair (three points) per kink piece, the
closed-form integral of a cubic.  ``DEFAULT_CONFIG`` (10 000 panels) is the
default for arbitrary integrands and serves, with other configs, as the
oracle in tests; the limit constructions behind the two integral notions
are exercised as convergence tests, not reimplemented as the production
algorithm.  Both engines lay out the panels of all pieces at once and
evaluate once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .curves import LoadCurve, MeasureFunction
from .errors import DomainError, NumericError

__all__ = [
    "QuadratureConfig",
    "DEFAULT_CONFIG",
    "EXACT_CONFIG",
    "riemann_integrate",
    "lebesgue_integrate",
    "lebesgue_energy",
]

_RULES = ("midpoint", "simpson")


@dataclass(frozen=True)
class QuadratureConfig:
    """Composite-rule settings: panel count and rule choice."""

    n_panels: int = 10_000
    rule: str = "simpson"

    def __post_init__(self) -> None:
        if self.rule not in _RULES:
            raise ValueError(f"rule must be one of {_RULES}, got {self.rule!r}")
        if self.n_panels < 2:
            raise ValueError("n_panels must be at least 2")
        if self.rule == "simpson" and self.n_panels % 2 != 0:
            raise ValueError("simpson requires an even n_panels")


DEFAULT_CONFIG = QuadratureConfig()
# Two panels over [a, b] round to exactly two per kink piece under the
# proportional allocation of ``_composite``: one Simpson pair, exact for a
# cubic on each piece.  Only for integrands that are polynomials of degree
# <= 3 between the kinks passed.
EXACT_CONFIG = QuadratureConfig(n_panels=2)


def _evaluate(f: Callable, xs: np.ndarray) -> np.ndarray:
    """Evaluate ``f`` on an array; a scalar-only callable (one raising
    ``TypeError`` on an array, like ``math.sin``) goes point by point."""
    try:
        vals = np.asarray(f(xs), dtype=float)
    except TypeError:
        vals = None
    if vals is not None and vals.shape == ():
        return np.full(xs.shape, float(vals))
    if vals is None or vals.shape != xs.shape:
        return np.array([float(f(float(x))) for x in xs], dtype=float)
    return vals


def _composite(
    values: Callable, a: float, b: float, kinks: Iterable[float], cfg: QuadratureConfig, axis: str
) -> float:
    """Composite ``cfg.rule`` over ``[a, b]`` with panel edges snapped to ``kinks``.

    Each piece between consecutive edges gets panels in proportion to its
    width, with the abscissae of ``np.linspace(e0, e1, n + 1)`` (Simpson) or
    ``e0 + (k + 0.5) * h`` (midpoint).  ``values(xs, right)`` gives the
    integrand on all of them at once; ``right`` indexes the pieces' right
    edges under Simpson and is None under midpoint.  Each piece is one
    ``np.dot`` / ``np.sum`` on its slice, added left to right, so the total
    is bit for bit that of integrating the pieces one by one.
    """
    a, b = float(a), float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError("integration bounds must be finite")
    if a > b:
        raise DomainError(f"integration bounds out of order: {a!r} > {b!r}")
    if a == b:
        return 0.0
    pts = np.asarray(kinks if isinstance(kinks, np.ndarray) else list(kinks), dtype=float)
    edges = np.concatenate(([a], np.unique(pts[(pts > a) & (pts < b)]), [b]))
    lo, hi = edges[:-1], edges[1:]
    simpson = cfg.rule == "simpson"
    n = np.maximum(2 if simpson else 1, np.rint(cfg.n_panels * (hi - lo) / (b - a))).astype(np.int64)
    n += n % 2 if simpson else 0
    h = (hi - lo) / n
    counts = n + 1 if simpson else n
    stops = np.cumsum(counts)
    starts = stops - counts
    piece = np.repeat(np.arange(len(n)), counts)
    k = (np.arange(stops[-1]) - starts[piece]).astype(float)
    right = stops - 1 if simpson else None
    if simpson:
        xs = k * h[piece] + lo[piece]  # linspace: step * index + start, then the end
        xs[right] = hi
    else:
        xs = lo[piece] + (k + 0.5) * h[piece]
    vals = values(xs, right)
    bad = ~np.isfinite(vals)
    if bad.any():
        x = float(xs[bad][0])
        raise NumericError(f"integrand is not finite at {axis} = {x!r}", abscissa=x)
    spans = zip(starts.tolist(), stops.tolist())
    if simpson:
        w = np.where(k % 2.0 == 1.0, 4.0, 2.0)
        w[starts] = w[right] = 1.0
        sums, scale = [np.dot(w[s:e], vals[s:e]) for s, e in spans], h / 3.0
    else:
        sums, scale = [np.sum(vals[s:e]) for s, e in spans], h
    total = 0.0
    for c, v in zip(scale.tolist(), sums):
        total += c * float(v)
    return total


def riemann_integrate(
    f: Callable,
    a: float,
    b: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    *,
    breakpoints: Iterable[float] = (),
) -> float:
    """Composite-rule approximation of the time integral of ``f`` over ``[a, b]``.

    ``breakpoints`` lists known kinks of ``f``; panel edges are snapped to
    them, which makes the Simpson rule exact (to round-off) for
    piecewise-polynomial integrands of degree <= 3.

    Raises
    ------
    NumericError
        If ``f`` evaluates to a non-finite value; the offending abscissa is
        carried on the exception.
    """
    return _composite(lambda xs, _: _evaluate(f, xs), a, b, breakpoints, cfg, "t")


def lebesgue_integrate(
    m: MeasureFunction,
    y_lo: float,
    y_hi: float,
    weight: Callable,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> float:
    """Integral of ``weight(m(y))`` over the power interval ``[y_lo, y_hi]``.

    Panel edges are aligned to the breakpoint levels of the underlying
    curve.  ``m`` jumps down at levels carrying flat segments; within each
    level band ``weight(m(y))`` is smooth, so each band is integrated with
    its right edge evaluated as the limit from below.  This keeps the rule
    exact for piecewise-polynomial compositions despite the jumps.
    """

    def values(ys: np.ndarray, right: np.ndarray | None) -> np.ndarray:
        ms = m.sample(ys)
        if right is not None:
            ms[right] = m.limit_from_below(ys[right])
        return _evaluate(weight, ms)

    return _composite(values, y_lo, y_hi, m.levels, cfg, "y")


def lebesgue_energy(curve: LoadCurve, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Energy of the trajectory read off its level sets.

    The rectangle below the minimum power contributes ``min_power * T``; on
    top of it every level band contributes its measure:
    ``min_power * T + integral of m(y) over [min_power, max_power]``.
    Agrees with the time-axis reading of energy for every curve.
    """
    m = MeasureFunction(curve)
    base = curve.min_power * curve.horizon
    if curve.max_power == curve.min_power:
        return base
    return base + lebesgue_integrate(m, curve.min_power, curve.max_power, lambda d: d, cfg)
