"""Market prices under the two mechanisms; every integral of a price
against energy is in :mod:`ctmarket.settlement`.

Spot pricing reads the dispatch shadow price directly: at ``lam(t)`` every
interior plant's marginal cost equals the market price, so the individual
profit maximizers reproduce the welfare optimum.

Load-duration pricing values energy by how long the system load exceeds it.
For a monotone load the optimality condition of the level-domain profit
problem is a first-order linear ODE in the time-domain price ``pi(t)``;
applying its integrating factor ``(T - t)`` once turns it into the explicit
form used here,

    pi(t) * (T - t) = lam(0) * T + int_0^t [2 lam'(s) (T - s) - lam(s)] ds,

anchored at ``pi(0) = lam(0)``.  Internally the equivalent cancellation-free
split is evaluated instead,

    pi(t) = lam(t) + G(t) / (T - t),      G(t) = int_0^t lam'(s) (T - s) ds,

whose correction term ``G`` accumulates non-negative increments and
vanishes identically for a flat shadow price, so the flat-load degeneracy
``pi == lam`` holds exactly.  For a piecewise-linear shadow price ``G`` is
piecewise quadratic and is evaluated in closed form; no ODE stepping takes
place and the ``t -> T`` singularity is never crossed.  The coefficients
entering the ODE are plant-independent, so one market price serves every
plant, and a :class:`DurationPrice` is determined by the shadow-price curve
alone.  Settlement works with the bounded product ``pi(m) * m``, never with
``pi`` alone near ``m = 0``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .curves import LoadCurve, _interpolate
from .dispatch import DispatchSolution
from .errors import DomainError, UnsupportedOperationError
from .tolerances import DOMAIN_TOL

__all__ = [
    "DurationPrice",
    "spot_price",
    "duration_price",
    "duration_price_from_curve",
]


@dataclass(frozen=True)
class DurationPrice:
    """Load-duration price of a non-decreasing shadow price, in both of its views.

    ``time_view(t)`` is the price on the clock-time axis, defined on
    ``[0, T)`` (the price has an integrable singularity at ``t = T``);
    ``measure_view(m)`` is the same price as a function of load duration,
    ``pi(m) = time_view(T - m)``, defined on ``(0, T]``.
    ``price_times_duration(m) = pi(m) * m`` stays bounded on all of
    ``[0, T]`` and is what settlement integrates.  ``anchor`` is the exact
    boundary value ``pi(0-elapsed) = lam(0)``; it also equals ``pi(m = T)``.
    The price is determined by ``lambda_curve`` alone: two prices are equal
    when their shadow prices are.
    """

    lambda_curve: LoadCurve
    _g0: np.ndarray = field(init=False, repr=False, compare=False)
    _slope: np.ndarray = field(init=False, repr=False, compare=False)
    _steep: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.lambda_curve.is_non_decreasing:
            raise UnsupportedOperationError(
                "duration pricing requires a non-decreasing load; rearrange the "
                "load with duration_curve() first"
            )
        T, tau, lam = self.horizon, self.lambda_curve.times, self.lambda_curve.powers
        dt, rise = np.diff(tau), np.diff(lam)
        with np.errstate(over="ignore"):
            slope = rise / dt
        # Closed-form segment integrals of lam'(s)(T - s): each contributes
        # slope_i * ((T - tau_i) dt_i - dt_i^2 / 2) >= 0.  A steep segment,
        # whose slope is past the float range (a subnormal dt, say), gives
        # the same integral as rise_i * ((T - tau_i) - dt_i / 2) and keeps a
        # slope of 0; every other segment keeps its bits.
        steep = np.flatnonzero(np.isinf(slope))
        if steep.size:
            slope[steep] = 0.0
        g0 = np.empty(len(tau))
        g0[0] = 0.0
        parts = slope * ((T - tau[:-1]) * dt - dt * dt / 2.0)
        if steep.size:
            parts[steep] = rise[steep] * ((T - tau[steep]) - dt[steep] / 2.0)
        g0[1:] = np.cumsum(parts)
        for name, arr in (("_g0", g0), ("_slope", slope), ("_steep", steep)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def horizon(self) -> float:
        return self.lambda_curve.horizon

    @property
    def anchor(self) -> float:
        return float(self.lambda_curve.powers[0])

    # ``G(t) = int_0^t lam'(s)(T - s) ds``, piecewise quadratic and
    # non-decreasing; ``pi(t) = lam(t) + G(t)/(T - t)``.  ``idx`` is the
    # segment holding ``t``, clipped to the first and last: one
    # ``searchsorted`` on the inner knots gives exactly the clipped index of
    # one on all of them.
    def _correction(self, ts: np.ndarray) -> np.ndarray:
        tau = self.lambda_curve.times
        idx = tau[1:-1].searchsorted(ts, side="right")
        t0 = tau[idx]
        u = ts - t0
        out = self._g0[idx] + self._slope[idx] * ((self.horizon - t0) * u - u * u / 2.0)
        if self._steep.size:
            # On a steep segment, add rise * (u / dt) * ((T - t0) - u / 2).
            idx, t0, u, out = map(np.atleast_1d, (idx, t0, u, out))
            at = np.isin(idx, self._steep)
            k, t0, u = idx[at], t0[at], u[at]
            rise, dt = np.diff(self.lambda_curve.powers)[k], np.diff(tau)[k]
            out[at] += rise * (u / dt) * ((self.horizon - t0) - u / 2.0)
            out = out.reshape(np.shape(ts))
        return out

    def _lambda_at(self, ts: np.ndarray) -> np.ndarray:
        return _interpolate(ts, self.lambda_curve.times, self.lambda_curve.powers)

    def time_view(self, t):
        """Price on the clock-time axis, for ``0 <= t < T``."""
        ts = np.asarray(t, dtype=float)
        if np.any(ts < -DOMAIN_TOL * max(self.horizon, 1.0)) or np.any(ts >= self.horizon):
            raise DomainError(f"time view is defined on [0, {self.horizon!r})")
        out = self._lambda_at(ts) + self._correction(ts) / (self.horizon - ts)
        return float(out) if out.ndim == 0 else out

    def measure_view(self, m):
        """Price as a function of load duration, for ``0 < m <= T``."""
        ms = np.asarray(m, dtype=float)
        if np.any(ms <= 0.0) or np.any(ms > self.horizon + DOMAIN_TOL * max(self.horizon, 1.0)):
            raise DomainError(f"measure view is defined on (0, {self.horizon!r}]")
        ts = self.horizon - ms
        out = self._lambda_at(ts) + self._correction(ts) / ms
        return float(out) if out.ndim == 0 else out

    def price_times_duration(self, m):
        """The bounded product ``pi(m) * m``, defined on all of ``[0, T]``."""
        ms = np.asarray(m, dtype=float)
        T = self.horizon
        tol = DOMAIN_TOL * max(T, 1.0)
        # NaN-ignoring extremes: a NaN duration passes, as it always has.
        if ms.size and (np.fmin.reduce(ms, axis=None) < -tol or np.fmax.reduce(ms, axis=None) > T + tol):
            raise DomainError(f"duration must lie in [0, {T!r}]")
        ts = T - ms
        out = self._lambda_at(ts) * ms + self._correction(ts)
        return float(out) if out.ndim == 0 else out


def spot_price(sol: DispatchSolution) -> LoadCurve:
    """The spot price ``lam(t)`` in $/MWh: the dispatch shadow price itself.

    At this price every interior plant's marginal cost equals the market
    price pointwise, so individual profit maximization reproduces the
    dispatch optimum.
    """
    return sol.lambda_curve


def duration_price_from_curve(price_curve: LoadCurve) -> DurationPrice:
    """Build the duration price from a marginal-cost (shadow-price) curve.

    The curve must be non-decreasing.  Accepts any plant's marginal-cost
    trajectory as the seed; interior dispatch makes them all identical, so
    the result does not depend on the choice.
    """
    return DurationPrice(price_curve)


def duration_price(sol: DispatchSolution) -> DurationPrice:
    """Load-duration price for an interior (bound-free) dispatch.

    Refuses clamped dispatches: the level-domain optimality condition that
    the price solves is derived for interior solutions only.
    """
    if sol.clamped:
        raise UnsupportedOperationError(
            "duration pricing is undefined for bound-clamped dispatch; "
            "only spot settlement applies"
        )
    return DurationPrice(sol.lambda_curve)
