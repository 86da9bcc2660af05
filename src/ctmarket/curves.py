"""Piecewise-linear power trajectories and their level-set geometry.

A :class:`LoadCurve` is a continuous, piecewise-linear power trajectory on a
market cycle ``[0, T]``.  On top of it the module provides the level-set
measure function ``m(y)`` -- the total time the trajectory spends strictly
above power ``y`` -- and the monotone non-decreasing rearrangement, which is
the curve sharing the original's measure function that the load-duration
pricing mechanism operates on.

On a non-decreasing curve -- every curve duration settlement integrates
-- the measure at a level comes from one ``searchsorted`` on the curve's
own arrays: the time after the segment holding the level, plus that
segment's fraction.  Each value is within a few ulps of the exact one, but
its bits are not those of a segment-by-segment sum.  On any other curve,
and in :func:`duration_curve` for every curve, level-set sums run over
every segment at once and add the per-segment contributions in segment
order (a sequential ``cumsum`` down the segment axis), so each result is
bit-for-bit the one a plain segment-by-segment loop gives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DomainError, UnsupportedOperationError
from .tolerances import DOMAIN_TOL, DURATION_KNOT_TOL

__all__ = ["LoadCurve", "MeasureFunction", "duration_curve"]

# Elements per (segments x levels) temporary block in the level-set sums;
# bounds their memory whatever the number of levels asked for.
_BLOCK = 1 << 16


def _frozen(values) -> np.ndarray:
    """``values`` as a read-only float array, shared when it already is one."""
    arr = np.asarray(values, dtype=float)
    if arr.flags.writeable or arr.base is not None:
        arr = arr.copy()
        arr.setflags(write=False)
    return arr


@dataclass(frozen=True, init=False, eq=False, repr=False)
class LoadCurve:
    """Continuous piecewise-linear trajectory ``P(t)`` on ``[0, T]``.

    Construct from ordered ``(time_h, power_mw)`` pairs,
    ``LoadCurve(breakpoints)``, or from two equal-length arrays,
    ``LoadCurve(times=..., powers=...)``.  Times must be strictly increasing
    and start at exactly 0; the last time defines the horizon ``T``.  Powers
    must be finite and non-negative.  Between breakpoints the curve is the
    linear interpolant, so it is continuous by construction.

    The curve holds only the two read-only arrays ``times`` and ``powers``.
    A read-only array passed in is kept, not copied, so curves built on one
    time axis (all outputs of a dispatch solution) share a single ``times``
    array.  ``breakpoints`` is derived from the arrays on each access.

    Instances are immutable values -- equal when their breakpoints are equal,
    hashable -- and safe to share between threads.
    """

    _times: np.ndarray
    _powers: np.ndarray

    def __init__(
        self,
        breakpoints: Iterable[Sequence[float]] | None = None,
        *,
        times=None,
        powers=None,
    ) -> None:
        if breakpoints is not None:
            if times is not None or powers is not None:
                raise TypeError("pass either breakpoints or times and powers, not both")
            pts = np.array(list(breakpoints), dtype=float)
            if pts.size and (pts.ndim != 2 or pts.shape[1] != 2):
                raise ValueError("breakpoints must be (time, power) pairs")
            times, powers = pts.reshape(-1, 2).T
        elif times is None or powers is None:
            raise TypeError("pass either breakpoints or both times and powers")
        times, powers = _frozen(times), _frozen(powers)
        if times.ndim != 1 or times.shape != powers.shape:
            raise ValueError("times and powers must be 1-D arrays of equal length")
        if len(times) < 2:
            raise ValueError("a curve needs at least 2 breakpoints")
        if times[0] != 0.0:
            raise ValueError(f"first breakpoint time must be 0, got {times[0]!r}")
        if not np.all(np.diff(times) > 0.0):
            raise ValueError("breakpoint times must be strictly increasing")
        if not np.all(np.isfinite(powers)):
            raise ValueError("power values must be finite")
        if np.any(powers < 0.0):
            raise ValueError("power values must be non-negative")
        object.__setattr__(self, "_times", times)
        object.__setattr__(self, "_powers", powers)

    @classmethod
    def _adopt(cls, times: np.ndarray, powers: np.ndarray) -> LoadCurve:
        """A curve holding ``times`` and ``powers`` as they are: no copy and
        no check.  The caller passes read-only arrays that it has already
        checked as the constructor would."""
        curve = cls.__new__(cls)
        object.__setattr__(curve, "_times", times)
        object.__setattr__(curve, "_powers", powers)
        return curve

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return bool(
            np.array_equal(self._times, other._times)
            and np.array_equal(self._powers, other._powers)
        )

    def __hash__(self) -> int:
        return hash(self.breakpoints)

    def __repr__(self) -> str:
        return f"LoadCurve(times={self._times!r}, powers={self._powers!r})"

    # ------------------------------------------------------------------
    # Basic geometry
    # ------------------------------------------------------------------

    @property
    def breakpoints(self) -> tuple[tuple[float, float], ...]:
        """The ``(time, power)`` pairs, built from the arrays on each access."""
        return tuple(zip(self._times.tolist(), self._powers.tolist()))

    @property
    def horizon(self) -> float:
        """Length ``T`` of the market cycle in hours."""
        return float(self._times[-1])

    @property
    def times(self) -> np.ndarray:
        return self._times

    @property
    def powers(self) -> np.ndarray:
        return self._powers

    @property
    def min_power(self) -> float:
        return float(self._powers.min())

    @property
    def max_power(self) -> float:
        return float(self._powers.max())

    @property
    def energy(self) -> float:
        """``int_0^T P(t) dt``: the trapezoid sum, exact for a piecewise-linear curve."""
        p = self._powers
        return float(np.dot(np.diff(self._times), p[:-1] + p[1:])) / 2.0

    @property
    def levels(self) -> tuple[float, ...]:
        """Distinct breakpoint power levels, ascending."""
        return tuple(np.unique(self._powers).tolist())

    @property
    def is_non_decreasing(self) -> bool:
        return bool(np.all(np.diff(self._powers) >= 0.0))

    @property
    def is_strictly_increasing(self) -> bool:
        return bool(np.all(np.diff(self._powers) > 0.0))

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def _check_domain(self, ts: np.ndarray) -> None:
        if not ts.size:
            return
        tol = DOMAIN_TOL * max(self.horizon, 1.0)
        # NaN-ignoring extremes: a NaN time passes, as it always has.
        lo, hi = np.fmin.reduce(ts, axis=None), np.fmax.reduce(ts, axis=None)
        if lo < -tol or hi > self.horizon + tol:
            bad = ts[(ts < -tol) | (ts > self.horizon + tol)]
            raise DomainError(
                f"time {float(np.atleast_1d(bad)[0])!r} outside [0, {self.horizon!r}]"
            )

    def evaluate(self, t: float) -> float:
        """Power at time ``t``: linear interpolation, exact at breakpoints."""
        arr = np.asarray(float(t))
        self._check_domain(arr)
        return float(np.interp(arr, self._times, self._powers))

    def sample(self, ts) -> np.ndarray:
        """Vectorised :meth:`evaluate` over an array of times."""
        arr = np.asarray(ts, dtype=float)
        self._check_domain(arr)
        return np.interp(arr, self._times, self._powers)

    # ------------------------------------------------------------------
    # Level sets
    # ------------------------------------------------------------------

    def measure_of(self, y: float) -> float:
        """Total length of the strict superlevel set ``{t : P(t) > y}``.

        On a non-decreasing curve one ``searchsorted`` finds the segment
        holding ``y``, within a few ulps of the exact value; on any other
        curve it is summed segment by segment.  A flat segment lying exactly
        at level ``y`` contributes zero (strict inequality), which makes the
        measure right-continuous in ``y`` with a downward jump at every
        level carrying a flat segment.
        """
        return MeasureFunction(self)(y)

    def flat_duration(self, y: float) -> float:
        """Total length of segments sitting exactly flat at level ``y``."""
        return float(MeasureFunction(self)._at(float(y)))

    def inverse(self, y: float) -> float:
        """The unique ``t`` with ``P(t) == y`` for a strictly increasing curve."""
        if not self.is_strictly_increasing:
            raise UnsupportedOperationError(
                "inverse requires a strictly increasing curve; "
                "rearrange with duration_curve() first"
            )
        y = float(y)
        lo, hi = float(self._powers[0]), float(self._powers[-1])
        if not lo <= y <= hi:  # NaN included
            raise DomainError(f"level {y!r} outside output range [{lo!r}, {hi!r}]")
        k = int(np.searchsorted(self._powers, y, side="left"))
        if k == 0:
            return float(self._times[0])
        t0, t1 = self._times[k - 1 : k + 1].tolist()
        p0, p1 = self._powers[k - 1 : k + 1].tolist()
        return t0 + (y - p0) * (t1 - t0) / (p1 - p0)


def _segment_sum(part: Callable[[np.ndarray], np.ndarray], n_segments: int, ys) -> np.ndarray:
    """``sum over segments of part(y)`` for every level in ``ys``.

    ``part`` maps a 1-D block of levels to its (segments x levels)
    contributions.  Each column is added up in segment order, the order of
    a running total over the segments; levels go in blocks of bounded size.
    """
    ys = np.asarray(ys, dtype=float)
    flat_ys = ys.ravel()
    out = np.zeros(flat_ys.size)
    if n_segments:
        step = max(1, _BLOCK // n_segments)
        for k in range(0, flat_ys.size, step):
            block = part(flat_ys[k : k + step])
            if len(block):
                out[k : k + step] = np.cumsum(block, axis=0)[-1]
    return out.reshape(ys.shape)


@dataclass(frozen=True)
class MeasureFunction:
    """Level-set measure ``m(y)`` of a trajectory.

    ``m(y)`` is the time the trajectory spends strictly above power ``y``.
    It is non-increasing, equals the horizon for ``y`` below the trajectory
    minimum, 0 above its maximum, and is right-continuous with a downward
    jump at every level carrying a flat segment.  ``levels`` lists the
    breakpoint levels of the underlying curve; between consecutive levels
    ``m`` is affine, which the quadrature engine exploits for exactness.

    The per-segment geometry -- duration, top power, power span and
    flatness, as column vectors -- and whether the curve is non-decreasing
    are computed once, at construction.  On a non-decreasing curve,
    ``sample``, calls and ``limit_from_below`` locate each level with one
    ``searchsorted`` (cost O(levels x log segments)); their values are
    within a few ulps of the exact ones, not bit-for-bit a segment-order
    sum.  On any other curve they sum over the segments in segment order.
    """

    curve: LoadCurve
    _dt: np.ndarray = field(init=False, repr=False, compare=False)
    _hi: np.ndarray = field(init=False, repr=False, compare=False)
    _width: np.ndarray = field(init=False, repr=False, compare=False)
    _is_flat: np.ndarray = field(init=False, repr=False, compare=False)
    _sorted: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        p0, p1 = self.curve.powers[:-1, None], self.curve.powers[1:, None]
        flat = p0 == p1
        hi = np.maximum(p0, p1)
        # A flat segment's width is never divided by; 1.0 keeps it finite.
        width = np.where(flat, 1.0, hi - np.minimum(p0, p1))
        for name, arr in (
            ("_dt", np.diff(self.curve.times)[:, None]),
            ("_hi", hi),
            ("_width", width),
            ("_is_flat", flat),
            ("_sorted", self.curve.is_non_decreasing),
        ):
            object.__setattr__(self, name, arr)

    @property
    def y_lo(self) -> float:
        return self.curve.min_power

    @property
    def y_hi(self) -> float:
        return self.curve.max_power

    @property
    def horizon(self) -> float:
        return self.curve.horizon

    @property
    def levels(self) -> tuple[float, ...]:
        return self.curve.levels

    def _strict(self, ys) -> np.ndarray:
        """``m`` at every level in ``ys``: sloped segments contribute the
        clipped fraction of their duration above ``y``, flat ones all of it
        when they lie strictly above ``y``."""
        dt, hi, width, flat = self._dt, self._hi, self._width, self._is_flat
        any_flat = bool(flat.any())

        def part(y: np.ndarray) -> np.ndarray:
            # A segment lying wholly at or below every level adds exactly
            # +0.0 to each running total, so leaving it out changes no bit.
            keep = ~(hi[:, 0] <= y.min())
            d, h = dt[keep], hi[keep]
            # A span below ~1e-305 overflows to +-inf, which the clip
            # saturates to the right fraction; the overflow is intended.
            with np.errstate(over="ignore"):
                sloped = d * np.clip((h - y) / width[keep], 0.0, 1.0)
            if not any_flat:
                return sloped
            return np.where(flat[keep], np.where(h > y, d, 0.0), sloped)

        return _segment_sum(part, len(dt), ys)

    def _flat(self, ys) -> np.ndarray:
        """Time spent on segments lying exactly flat at each level in ``ys``."""
        dt, level = self._dt[self._is_flat[:, 0]], self._hi[self._is_flat[:, 0]]
        return _segment_sum(lambda y: np.where(level == y, dt, 0.0), len(dt), ys)

    def _above(self, ys) -> np.ndarray:
        """``m`` at every level in ``ys``.

        On a non-decreasing curve, with ``j`` the last knot at or below
        ``y``, ``m(y) = (T - t[j+1]) + dt_j * clip((p[j+1] - y) / width_j)``:
        every later segment lies wholly above ``y``, every earlier one at
        or below it.
        """
        if not self._sorted:
            return self._strict(ys)
        ys = np.asarray(ys, dtype=float)
        t, p = self.curve.times, self.curve.powers
        n, T = len(self._dt), t[-1]
        r = np.searchsorted(p, ys, side="right")
        j = np.clip(r - 1, 0, n - 1)
        # The segment-order sum's own term for segment j, overflow and all.
        with np.errstate(over="ignore"):
            part = self._dt[j, 0] * np.clip((self._hi[j, 0] - ys) / self._width[j, 0], 0.0, 1.0)
        total = np.where(r == 0, T, np.where(r > n, 0.0, (T - t[np.minimum(r, n)]) + part))
        if self._is_flat.all():
            return total
        # A sloped segment's fraction at a NaN level is NaN.
        return np.where(np.isnan(ys), np.nan, total)

    def _at(self, ys) -> np.ndarray:
        """Flat time at every level in ``ys``.

        On a non-decreasing curve the knots sitting at ``y`` are consecutive:
        from the first one at or above ``y`` to the last one at or below it.
        """
        if not self._sorted:
            return self._flat(ys)
        ys = np.asarray(ys, dtype=float)
        t, p = self.curve.times, self.curve.powers
        first = np.searchsorted(p, ys, side="left")
        last = np.searchsorted(p, ys, side="right") - 1
        return np.where(last > first, t[last] - t[np.minimum(first, len(t) - 1)], 0.0)

    def __call__(self, y: float) -> float:
        return float(self._above(float(y)))

    def sample(self, ys) -> np.ndarray:
        """Vectorised ``m`` over an array of levels."""
        return self._above(ys)

    def limit_from_below(self, y):
        """Left limit ``m(y^-)``: the strict measure plus flat time exactly at ``y``.

        A float for a scalar ``y``, an array for an array of levels.
        """
        total = self._above(y) + self._at(y)
        return float(total) if total.ndim == 0 else total


def _merge_collinear(pts: list[tuple[float, float]]) -> list[tuple[float, float]]:
    out = [pts[0]]
    for nxt in pts[1:]:
        if len(out) >= 2:
            (t0, p0), (t1, p1) = out[-2], out[-1]
            t2, p2 = nxt
            if (p1 - p0) * (t2 - t1) == (p2 - p1) * (t1 - t0):
                out[-1] = nxt
                continue
        out.append(nxt)
    return out


def duration_curve(curve: LoadCurve) -> LoadCurve:
    """Monotone non-decreasing rearrangement sharing the input's measure function.

    The result ``Q`` is the unique non-decreasing curve on ``[0, T]`` with
    ``Q.measure_of(y) == curve.measure_of(y)`` for every level ``y``; energy
    is preserved as a consequence.  A non-decreasing input comes back
    unchanged up to merging of collinear breakpoints.

    Construction is analytic, not sampled: for each distinct breakpoint
    level ``y`` the strict measure ``m`` and the flat time ``d`` pin the
    piece of ``Q`` carrying that level to ``[T - m - d, T - m]``; between
    consecutive levels the measure is affine, so ``Q`` is linear there.
    """
    T = curve.horizon
    measure = MeasureFunction(curve)
    levels = np.unique(curve.powers)
    m = measure._strict(levels)
    d = measure._flat(levels)
    starts = np.clip(T - m - d, 0.0, T).tolist()
    ends = np.clip(T - m, 0.0, T).tolist()
    raw: list[tuple[float, float]] = []
    for start, end, y, flat in zip(starts, ends, levels.tolist(), d.tolist()):
        raw.append((start, y))
        if flat > 0.0:
            raw.append((end, y))
    # Mathematically the first point is (0, min level) and the last (T, max
    # level); snap float drift from the measure sums.
    raw[0] = (0.0, raw[0][1])
    raw[-1] = (T, raw[-1][1])
    pts = [raw[0]]
    tol = DURATION_KNOT_TOL * max(T, 1.0)
    for t, y in raw[1:]:
        if t <= pts[-1][0] + tol:
            continue
        pts.append((t, y))
    if pts[-1][0] != T:
        pts.append((T, curve.max_power))
    return LoadCurve(_merge_collinear(pts))
