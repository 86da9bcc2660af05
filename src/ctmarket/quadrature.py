"""Dual integration engines over time and over power levels.

``riemann_integrate`` sums a composite rule over interval panels on the time
axis; ``lebesgue_integrate`` sums the same rules over power-level panels,
weighting each level by the trajectory's measure function.  Panel edges are
snapped to curve breakpoints (and to their images on the power axis), so a
piecewise-polynomial integrand of degree <= 3 on those kinks is integrated
exactly by the Simpson rule at any panel count.  Revenues and unit values
integrate only such integrands, so the library runs them at
``EXACT_CONFIG``: one Simpson pair (three points) per kink piece, the
closed-form integral of a cubic.  Generation cost and energy are summed in
closed form on the trajectory knots and do not come here.
``DEFAULT_CONFIG`` (10 000 panels) is the default for arbitrary integrands
and serves, with other configs, as the oracle in tests; the limit
constructions behind the two integral notions are exercised as convergence
tests, not reimplemented as the production algorithm.  Both engines lay
out the panels of all pieces at once, evaluate once, and sum every piece
in one vectorised pass that adds its terms strictly left to right.  An
integrand may also return a (rows x points) block, several integrands on
one axis with one set of kinks: the panels are laid out once, each row is
summed exactly as it would be alone, and the result is one integral per
row.
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
    """Evaluate ``f`` on an array: its values at ``xs``, or a block of rows
    of them.  A scalar-only callable (one raising ``TypeError`` on an array,
    like ``math.sin``) goes point by point."""
    try:
        vals = np.asarray(f(xs), dtype=float)
    except TypeError:
        vals = None
    if vals is not None and vals.shape == ():
        return np.full(xs.shape, float(vals))
    if vals is None or vals.shape[-1:] != xs.shape or vals.ndim > 2:
        return np.array([float(f(float(x))) for x in xs], dtype=float)
    return vals


def _composite(
    values: Callable, a: float, b: float, kinks: Iterable[float], cfg: QuadratureConfig, axis: str
) -> float | np.ndarray:
    """Composite ``cfg.rule`` over ``[a, b]`` with panel edges snapped to ``kinks``.

    Each piece between consecutive edges gets panels in proportion to its
    width, with the abscissae of ``np.linspace(e0, e1, n + 1)`` (Simpson) or
    ``e0 + (k + 0.5) * h`` (midpoint).  ``values(xs, right)`` gives the
    integrand on all of them at once, as one row or as a (rows x points)
    block; ``right`` indexes the pieces' right edges under Simpson and is
    None under midpoint.  Each piece's terms (weight times value) are added
    strictly left to right, the scaled piece sums then left to right from
    0.0, so each row's total is bit for bit that of a plain running total
    over the pieces and their points, independent of the BLAS build and of
    the other rows.  A row-valued integrand gives one total per row.
    """
    a, b = float(a), float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError("integration bounds must be finite")
    if a > b:
        raise DomainError(f"integration bounds out of order: {a!r} > {b!r}")
    if a == b:
        # No panels: one point only tells whether the integrand has rows.
        rows = values(np.array([a]), None).shape[:-1]
        return np.zeros(rows) if rows else 0.0
    pts = np.asarray(kinks if isinstance(kinks, np.ndarray) else list(kinks), dtype=float)
    edges = np.concatenate(([a], np.unique(pts[(pts > a) & (pts < b)]), [b]))
    lo, hi = edges[:-1], edges[1:]
    simpson = cfg.rule == "simpson"
    # A piece's share of [a, b] is at most 1; clipping keeps an overflowing
    # share (inf) from casting to a negative count.
    n = np.clip(np.rint(cfg.n_panels * (hi - lo) / (b - a)), 2 if simpson else 1, cfg.n_panels)
    n = n.astype(np.int64)
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
        # The first bad entry in row-major order: the lowest row, then the
        # leftmost abscissa in it.
        row, col = divmod(int(np.argmax(bad)), len(xs))
        x = float(xs[col])
        if vals.ndim == 1:
            raise NumericError(f"integrand is not finite at {axis} = {x!r}", abscissa=x)
        raise NumericError(f"integrand row {row} is not finite at {axis} = {x!r}", abscissa=x, row=row)
    if simpson:
        w = np.where(k % 2.0 == 1.0, 4.0, 2.0)
        w[starts] = w[right] = 1.0
        terms, scale = w * vals, h / 3.0
    else:
        terms, scale = vals, h
    # Pieces of one point count are one (rows x count x pieces) gather;
    # cumsum down the count axis adds each piece left to right, a whole
    # row of pieces per step.  Gathers cover each point once, so no padding.
    sums = np.empty(vals.shape[:-1] + (len(counts),))
    order = np.argsort(counts, kind="stable")
    for group in np.split(order, np.flatnonzero(np.diff(counts[order])) + 1):
        block = terms[..., np.arange(counts[group[0]])[:, None] + starts[group]]
        sums[..., group] = np.cumsum(block, axis=-2)[..., -1, :]
    scaled = np.concatenate((np.zeros(sums.shape[:-1] + (1,)), scale * sums), axis=-1)
    total = np.cumsum(scaled, axis=-1)[..., -1]
    return total if total.ndim else float(total)


def riemann_integrate(
    f: Callable,
    a: float,
    b: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    *,
    breakpoints: Iterable[float] = (),
) -> float | np.ndarray:
    """Composite-rule approximation of the time integral of ``f`` over ``[a, b]``.

    ``breakpoints`` lists known kinks of ``f``; panel edges are snapped to
    them, which makes the Simpson rule exact (to round-off) for
    piecewise-polynomial integrands of degree <= 3.

    ``f(xs)`` returns its values at the abscissae ``xs``, and the result is
    a float.  It may instead return a (rows x ``len(xs)``) block, one
    integrand per row sharing the kinks; the result is then an array of
    one integral per row, each bit for bit what ``f``'s row alone would
    give.

    Raises
    ------
    NumericError
        If ``f`` evaluates to a non-finite value; the first offending
        abscissa in row-major order is carried on the exception, with its
        row index for a row-valued ``f``.
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
        # ``m`` at a level does not depend on the levels sampled with it, so
        # each abscissa is sampled once: right edges only as the left limit.
        if right is None:
            return _evaluate(weight, m.sample(ys))
        ms = np.empty_like(ys)
        inner = np.ones(ys.shape, dtype=bool)
        inner[right] = False
        ms[inner] = m.sample(ys[inner])
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
