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
in one vectorised pass that adds its terms strictly left to right (see
``_composite`` for the layouts and why no pairwise sum is used).  An
integrand may also return a (rows x points) block, several integrands on
one axis with one set of kinks: the panels are laid out once, each row is
summed exactly as it would be alone, and the result is one integral per
row; an array of any other shape is refused with a ``ValueError``.
``lebesgue_integrate`` samples the measure once over every abscissa and
adds the flat time at the pieces' right edges.
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
    like ``math.sin``) goes point by point; an array of any other shape is
    refused."""
    try:
        vals = np.asarray(f(xs), dtype=float)
    except TypeError:
        return np.array([float(f(float(x))) for x in xs], dtype=float)
    if vals.shape == ():
        return np.full(xs.shape, float(vals))
    if vals.shape[-1:] != xs.shape or vals.ndim > 2:
        raise ValueError(
            f"integrand returned shape {vals.shape}; expected {xs.shape} or (rows, {len(xs)})"
        )
    return vals


# Pieces of at most this many points are summed by explicit adds, one
# numpy call per point over every piece; longer ones by ``cumsum``.
_SHORT_PIECE = 8


def _weights(count: int, simpson: bool) -> np.ndarray:
    """Rule weights of one piece's ``count`` points: 1, 4, 2, ..., 4, 1
    under Simpson, all 1 under midpoint."""
    if not simpson:
        return np.ones(count)
    w = np.full(count, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return w


def _piece_sums(block: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Each piece's ``sum(w * values)`` over the last axis of a
    (... x pieces x count) block of values, its terms added strictly left
    to right (see :func:`_composite`)."""
    if len(w) > _SHORT_PIECE:
        return np.cumsum(w * block, axis=-1)[..., -1]
    total = w[0] * block[..., 0]
    for i in range(1, len(w)):
        total = total + w[i] * block[..., i]
    return total


def _composite(
    values: Callable, a: float, b: float, kinks: Iterable[float], cfg: QuadratureConfig, axis: str
) -> float | np.ndarray:
    """Composite ``cfg.rule`` over ``[a, b]`` with panel edges snapped to ``kinks``.

    Each piece between consecutive edges gets panels in proportion to its
    width, with the abscissae of ``np.linspace(e0, e1, n + 1)`` (Simpson) or
    ``e0 + (k + 0.5) * h`` (midpoint).  ``values(xs, right)`` gives the
    integrand on all of them at once, piece after piece, as one row or as
    a (rows x points) block; ``right`` indexes the pieces' right edges
    under Simpson and is None under midpoint.  Each piece's terms (weight
    times value) are added strictly left to right, the scaled piece sums
    then left to right from 0.0, so each row's total is bit for bit that
    of a plain running total over the pieces and their points, independent
    of the BLAS build and of the other rows.  A row-valued integrand gives
    one total per row.

    When every piece has the same point count -- always at
    ``EXACT_CONFIG``, three points each -- the abscissae are one grid and
    the values are read back as a (pieces x count) block, with no gather.
    Mixed counts (finer configs only) gather the values of each group of
    pieces sharing a count.  A short count is summed by one explicit add
    per point across all pieces: ``np.cumsum`` along so short an axis runs
    element by element, about ten times slower on 10 rows x 2000 pieces x
    3 points.  A long count takes the last entry of the sequential
    ``cumsum``.  ``np.add.reduce`` would be faster, but along a contiguous
    axis numpy adds pairwise, which changes the bits.
    """
    a, b = float(a), float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError("integration bounds must be finite")
    if a > b:
        raise DomainError(f"integration bounds out of order: {a!r} > {b!r}")
    if not math.isfinite(b - a):
        raise DomainError(f"integration interval [{a!r}, {b!r}] is wider than the float range")
    if a == b:
        # No panels: one point only tells whether the integrand has rows.
        rows = values(np.array([a]), None).shape[:-1]
        return np.zeros(rows) if rows else 0.0
    pts = np.asarray(kinks if isinstance(kinks, np.ndarray) else list(kinks), dtype=float)
    # The kinks inside (a, b), sorted, each kept once as ``np.unique`` keeps it.
    edges = np.concatenate(([a], np.sort(pts[(pts > a) & (pts < b)]), [b]))
    edges = edges[np.concatenate(([True], edges[1:] != edges[:-1]))]
    lo, hi = edges[:-1], edges[1:]
    width = hi - lo
    simpson = cfg.rule == "simpson"
    # A piece's share of [a, b] is at most 1; the bounds keep an overflowing
    # share (inf) from casting to a negative count.
    n = np.rint(cfg.n_panels * width / (b - a))
    n = np.minimum(np.maximum(n, 2 if simpson else 1), cfg.n_panels).astype(np.int64)
    n += n % 2 if simpson else 0
    h = width / n
    counts = n + 1 if simpson else n
    stops = counts.cumsum()
    right = stops - 1 if simpson else None
    count = int(counts[0])
    uniform = bool((counts == count).all())
    if uniform:
        # Column i of the grid is piece i; transposed and raveled, the
        # same points in the same order as below.
        k = np.arange(count, dtype=float)[:, None]
        lo_k, h_k = lo, h
    else:
        starts = stops - counts
        piece = np.repeat(np.arange(len(n)), counts)
        k = (np.arange(stops[-1]) - starts[piece]).astype(float)
        lo_k, h_k = lo[piece], h[piece]
    if simpson:
        xs = (k * h_k + lo_k).T.ravel()  # linspace: step * index + start, then the end
        xs[right] = hi
    else:
        xs = (lo_k + (k + 0.5) * h_k).T.ravel()
    vals = values(xs, right)
    if not np.isfinite(vals).all():
        # The first bad entry in row-major order: the lowest row, then the
        # leftmost abscissa in it.
        row, col = divmod(int(np.argmax(~np.isfinite(vals))), len(xs))
        x = float(xs[col])
        if vals.ndim == 1:
            raise NumericError(f"integrand is not finite at {axis} = {x!r}", abscissa=x)
        raise NumericError(f"integrand row {row} is not finite at {axis} = {x!r}", abscissa=x, row=row)
    if uniform:
        sums = _piece_sums(vals.reshape(vals.shape[:-1] + (len(n), count)), _weights(count, simpson))
    else:
        sums = np.empty(vals.shape[:-1] + (len(counts),))
        order = np.argsort(counts, kind="stable")
        for group in np.split(order, np.flatnonzero(np.diff(counts[order])) + 1):
            c = int(counts[group[0]])
            block = vals[..., starts[group][:, None] + np.arange(c)]
            sums[..., group] = _piece_sums(block, _weights(c, simpson))
    scale = h / 3.0 if simpson else h
    # A running total from 0.0 differs from one from the first piece only
    # in the sign of a zero, and never ends at -0.0: adding 0.0 at the end
    # gives its bits.
    total = (scale * sums).cumsum(axis=-1)[..., -1] + 0.0
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
    ValueError
        If ``f`` returns an array of any other shape, after that one call.
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
        # one pass samples every abscissa; the right edges then add their
        # flat time, ``m(y^-) = m(y) + flat(y)`` as ``limit_from_below``.
        ms = m.sample(ys)
        if right is not None:
            ms[right] += m._at(ys[right])
        return _evaluate(weight, ms)

    return _composite(values, y_lo, y_hi, m.curve.powers, cfg, "y")


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
