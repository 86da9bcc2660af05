"""Market prices under the two mechanisms.

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
plant; settlement works with the bounded product ``pi(m) * m``, never with
``pi`` alone near ``m = 0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .curves import LoadCurve, MeasureFunction
from .dispatch import DispatchSolution
from .errors import DomainError, UndefinedPriceError, UnsupportedOperationError
from .quadrature import EXACT_CONFIG, lebesgue_integrate, riemann_integrate
from .tolerances import DOMAIN_TOL, SAME_HORIZON_TOL

__all__ = [
    "DurationPrice",
    "spot_price",
    "duration_price",
    "duration_price_from_curve",
    "unit_energy_price_spot",
    "unit_energy_price_duration",
]

DEFAULT_M_FLOOR_FRACTION = 1e-6


@dataclass(frozen=True, init=False)
class DurationPrice:
    """Load-duration price in both of its views.

    ``time_view(t)`` is the price on the clock-time axis, defined up to
    ``T - m_floor`` (the price has an integrable singularity at ``t = T``);
    ``measure_view(m)`` is the same price as a function of load duration,
    ``pi(m) = time_view(T - m)``, defined down to ``m_floor``.
    ``price_times_duration(m) = pi(m) * m`` stays bounded on all of
    ``[0, T]`` and is what settlement integrates.  ``anchor`` is the exact
    boundary value ``pi(0-elapsed) = lam(0)``; it also equals ``pi(m = T)``.
    """

    horizon: float
    m_floor: float
    anchor: float
    _tau: np.ndarray = field(repr=False, compare=False)
    _lam: np.ndarray = field(repr=False, compare=False)
    _g0: np.ndarray = field(repr=False, compare=False)
    _slope: np.ndarray = field(repr=False, compare=False)

    def __init__(self, horizon, m_floor, anchor, tau, lam, g0, slope) -> None:
        object.__setattr__(self, "horizon", float(horizon))
        object.__setattr__(self, "m_floor", float(m_floor))
        object.__setattr__(self, "anchor", float(anchor))
        for name, arr in (("_tau", tau), ("_lam", lam), ("_g0", g0), ("_slope", slope)):
            a = np.asarray(arr, dtype=float)
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    # ``G(t) = int_0^t lam'(s)(T - s) ds``, piecewise quadratic and
    # non-decreasing; ``pi(t) = lam(t) + G(t)/(T - t)``.
    def _correction(self, ts: np.ndarray) -> np.ndarray:
        idx = np.clip(np.searchsorted(self._tau, ts, side="right") - 1, 0, len(self._tau) - 2)
        u = ts - self._tau[idx]
        return self._g0[idx] + self._slope[idx] * ((self.horizon - self._tau[idx]) * u - u * u / 2.0)

    def _lambda_at(self, ts: np.ndarray) -> np.ndarray:
        return np.interp(ts, self._tau, self._lam)

    def time_view(self, t):
        """Price on the clock-time axis, for ``0 <= t <= T - m_floor``."""
        ts = np.asarray(t, dtype=float)
        cutoff = self.horizon - self.m_floor
        tol = DOMAIN_TOL * max(self.horizon, 1.0)
        if np.any(ts < -tol) or np.any(ts > cutoff + tol):
            raise DomainError(
                f"time view is defined on [0, {cutoff!r}] (horizon minus m_floor)"
            )
        out = self._lambda_at(ts) + self._correction(ts) / (self.horizon - ts)
        return float(out) if out.ndim == 0 else out

    def measure_view(self, m):
        """Price as a function of load duration, for ``m_floor <= m <= T``."""
        ms = np.asarray(m, dtype=float)
        tol = DOMAIN_TOL * max(self.horizon, 1.0)
        if np.any(ms < self.m_floor - tol) or np.any(ms > self.horizon + tol):
            raise DomainError(
                f"measure view is defined on [{self.m_floor!r}, {self.horizon!r}]"
            )
        ts = self.horizon - ms
        out = self._lambda_at(ts) + self._correction(ts) / ms
        return float(out) if out.ndim == 0 else out

    def price_times_duration(self, m):
        """The bounded product ``pi(m) * m``, defined on all of ``[0, T]``."""
        ms = np.asarray(m, dtype=float)
        tol = DOMAIN_TOL * max(self.horizon, 1.0)
        if np.any(ms < -tol) or np.any(ms > self.horizon + tol):
            raise DomainError(f"duration must lie in [0, {self.horizon!r}]")
        ts = self.horizon - ms
        out = self._lambda_at(ts) * ms + self._correction(ts)
        return float(out) if out.ndim == 0 else out


def spot_price(sol: DispatchSolution) -> LoadCurve:
    """The spot price ``lam(t)`` in $/MWh: the dispatch shadow price itself.

    At this price every interior plant's marginal cost equals the market
    price pointwise, so individual profit maximization reproduces the
    dispatch optimum.
    """
    return sol.lambda_curve


def duration_price_from_curve(
    price_curve: LoadCurve, *, m_floor: float | None = None
) -> DurationPrice:
    """Build the duration price from a marginal-cost (shadow-price) curve.

    The curve must be non-decreasing.  Accepts any plant's marginal-cost
    trajectory as the seed; interior dispatch makes them all identical, so
    the result does not depend on the choice.
    """
    if not price_curve.is_non_decreasing:
        raise UnsupportedOperationError(
            "duration pricing requires a non-decreasing load; rearrange the "
            "load with duration_curve() first"
        )
    T = price_curve.horizon
    if m_floor is None:
        m_floor = DEFAULT_M_FLOOR_FRACTION * T
    if not (0.0 < m_floor < T):
        raise DomainError(f"m_floor must lie in (0, {T!r}), got {m_floor!r}")
    if T - m_floor == T:
        raise DomainError(f"m_floor {m_floor!r} is too small: T - m_floor rounds to T = {T!r}")

    tau = price_curve.times
    lam = price_curve.powers
    dt = np.diff(tau)
    slope = np.diff(lam) / dt
    # Closed-form segment integrals of lam'(s)(T - s): each contributes
    # slope_i * ((T - tau_i) dt_i - dt_i^2 / 2) >= 0.
    g0 = np.empty(len(tau))
    g0[0] = 0.0
    g0[1:] = np.cumsum(slope * ((T - tau[:-1]) * dt - dt * dt / 2.0))
    return DurationPrice(
        horizon=T, m_floor=m_floor, anchor=float(lam[0]),
        tau=tau, lam=lam, g0=g0, slope=slope,
    )


def duration_price(sol: DispatchSolution, *, m_floor: float | None = None) -> DurationPrice:
    """Load-duration price for an interior (bound-free) dispatch.

    Refuses clamped dispatches: the level-domain optimality condition that
    the price solves is derived for interior solutions only.
    """
    if sol.clamped:
        raise UnsupportedOperationError(
            "duration pricing is undefined for bound-clamped dispatch; "
            "only spot settlement applies"
        )
    return duration_price_from_curve(sol.lambda_curve, m_floor=m_floor)


def time_slice(T: float, t1: float, t2: float) -> tuple[float, float]:
    """``(t1, t2)`` as floats; :class:`DomainError` unless ``0 <= t1 < t2 <= T``
    (``t2`` may pass ``T`` by ``DOMAIN_TOL`` relative)."""
    t1, t2 = float(t1), float(t2)
    if not (0.0 <= t1 < t2 <= T + DOMAIN_TOL * max(T, 1.0)):
        raise DomainError(f"need 0 <= t1 < t2 <= {T!r}, got [{t1!r}, {t2!r}]")
    return t1, t2


def level_band(y1: float, y2: float) -> tuple[float, float]:
    """``(y1, y2)`` as floats; :class:`DomainError` unless ``0 <= y1 < y2 < inf``."""
    y1, y2 = float(y1), float(y2)
    if not (0.0 <= y1 < y2 < math.inf):
        raise DomainError(f"need 0 <= y1 < y2 < inf, got [{y1!r}, {y2!r}]")
    return y1, y2


def unit_energy_price_spot(price: LoadCurve, plant_curve: LoadCurve, t1: float, t2: float) -> float:
    """Value per MWh of the time-slice commodity ``[t1, t2]`` of a trajectory.

    The slice's total settlement divided by its energy:
    ``int lam * P dt / int P dt``.
    """
    T = price.horizon
    t1, t2 = time_slice(T, t1, t2)
    if not math.isclose(plant_curve.horizon, T, rel_tol=SAME_HORIZON_TOL):
        raise ValueError("price and trajectory horizons differ")
    kinks = np.concatenate([price.times, plant_curve.times])
    energy = riemann_integrate(plant_curve.sample, t1, t2, EXACT_CONFIG, breakpoints=kinks)
    if energy <= 0.0:
        raise UndefinedPriceError(
            f"no energy on [{t1:.6g}, {t2:.6g}] h: unit price undefined"
        )
    value = riemann_integrate(
        lambda ts: price.sample(ts) * plant_curve.sample(ts),
        t1, t2, EXACT_CONFIG, breakpoints=kinks,
    )
    return value / energy


def unit_energy_price_duration(price: DurationPrice, m: MeasureFunction, y1: float, y2: float) -> float:
    """Value per MWh of the power-band commodity ``[y1, y2]`` of a trajectory.

    The band's total settlement divided by its energy:
    ``int pi(m(y)) m(y) dy / int m(y) dy``.  Bands below the trajectory
    minimum have ``m == T`` throughout and price at the anchor ``lam(0)``.
    """
    y1, y2 = level_band(y1, y2)
    if not math.isclose(m.horizon, price.horizon, rel_tol=SAME_HORIZON_TOL):
        raise ValueError("price and measure-function horizons differ")
    mass = lebesgue_integrate(m, y1, y2, lambda d: d, EXACT_CONFIG)
    if mass <= 0.0:
        raise UndefinedPriceError(
            f"zero measure mass on [{y1:.6g}, {y2:.6g}] MW: unit price undefined"
        )
    value = lebesgue_integrate(m, y1, y2, price.price_times_duration, EXACT_CONFIG)
    return value / mass
