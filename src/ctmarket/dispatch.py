"""Continuous-time equal-marginal-cost dispatch.

The welfare problem reduces to generation-cost minimization subject to the
instantaneous power balance; its first-order conditions equalize marginal
costs across interior plants, giving the affine map

    lam(t) = (P_d(t) + sum_j q1_j/(2 q2_j)) / (sum_j 1/(2 q2_j))
    P_j(t) = (lam(t) - q1_j) / (2 q2_j)

so a piecewise-linear load yields a piecewise-linear shadow price and
piecewise-linear plant outputs sharing the load's breakpoint times.

Capacity bounds are validated after the fact.  The default refuses with the
violating plant, time interval and bound; the opt-in clamped mode computes
the exact active-set dispatch instead, subdividing time at the shadow-price
levels where a plant enters or leaves a bound.  A clamped solution supports
spot settlement only.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .cost import QuadraticCost
from .curves import LoadCurve
from .errors import InfeasibleDispatchError, NumericError, UnsupportedOperationError
from .tolerances import CLAMPED_KNOT_TOL, DISPATCH_TOL

__all__ = [
    "Plant",
    "ClampEvent",
    "DispatchSolution",
    "DispatchCost",
    "solve_equilibrium",
    "dispatch_cost",
]

_INF = float("inf")
_PLATEAU = (
    "shadow price jumps across a merit-order gap (supply plateau); "
    "clamped dispatch cannot represent this load"
)


@dataclass(frozen=True)
class Plant:
    """A generating unit: quadratic cost plus optional time-constant bounds."""

    id: str
    cost: QuadraticCost
    p_min: float = 0.0
    p_max: float | None = None

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("plant id must be a non-empty string")
        if not math.isfinite(self.p_min) or self.p_min < 0.0:
            raise ValueError(f"p_min must be finite and >= 0, got {self.p_min!r}")
        if self.p_max is not None:
            if not math.isfinite(self.p_max) or self.p_max < self.p_min:
                raise ValueError(
                    f"p_max must be finite and >= p_min, got {self.p_max!r}"
                )

    @property
    def p_max_or_inf(self) -> float:
        return _INF if self.p_max is None else self.p_max


class ClampEvent(NamedTuple):
    plant: str
    start: float
    end: float
    kind: str  # "p_min" | "p_max"
    bound: float


@dataclass(frozen=True)
class DispatchSolution:
    """Equilibrium dispatch: shadow-price curve plus per-plant trajectories.

    ``plants`` is the fleet solved; ``outputs`` maps each plant id, in that
    order, to its trajectory.  ``lambda_curve`` and every
    output are array-backed :class:`LoadCurve` values on one knot grid:
    they share a single read-only ``times`` array (the load's own for an
    interior solution), and only their ``powers`` differ.  The outputs'
    ``powers`` are the read-only rows of one (plants x knots) block, so
    holding any one output curve keeps the whole block alive.  ``clamped`` marks
    solutions where a capacity bound is active on an interval
    (``clamp_events`` lists them); duration pricing refuses such solutions.
    """

    lambda_curve: LoadCurve
    outputs: Mapping[str, LoadCurve]
    plants: tuple[Plant, ...]
    load: LoadCurve
    horizon: float
    clamped: bool = False
    clamp_events: tuple[ClampEvent, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "outputs", MappingProxyType(dict(self.outputs)))
        object.__setattr__(self, "plants", tuple(self.plants))


class DispatchCost(NamedTuple):
    per_plant: dict[str, float]
    total: float


def _check_plants(plants: Sequence[Plant]) -> None:
    if not plants:
        raise ValueError("at least one plant is required")
    ids = [p.id for p in plants]
    if len(set(ids)) != len(ids):
        raise ValueError("plant ids must be unique")


_KINDS = ("p_min", "p_max")

# Row blocks of the output block, and of the clamped bracket sums, hold at
# most this many entries: each is filled and reduced while it is in cache,
# and a large fleet needs no (brackets x plants) matrix at once.
_BLOCK_ENTRIES = 1 << 16


def _bound_pairs(p_min: np.ndarray, p_max: np.ndarray) -> np.ndarray:
    """Each plant's ``(p_min, p_max)`` as a row; an unbounded p_max
    (``inf``) becomes NaN, which no comparison meets."""
    return np.column_stack([p_min, np.where(p_max < _INF, p_max, np.nan)])


def _tol(bound):
    """The bound tolerance ``DISPATCH_TOL * max(1, |bound|)``, elementwise."""
    return DISPATCH_TOL * np.maximum(1.0, np.abs(bound))


def _violation_intervals(
    times: np.ndarray, values: np.ndarray, bound: float, below: bool
) -> list[tuple[float, float]]:
    """Maximal intervals where the piecewise-linear (times, values) path
    lies strictly past ``bound`` (below it if ``below`` else above).

    A NaN value has no side: a segment from a NaN to a value past the bound
    lies past it from its start, as one from a value past the bound to a NaN
    does to its end."""
    gap = bound - values if below else values - bound
    intervals: list[tuple[float, float]] = []
    start: float | None = None
    for i in range(len(times) - 1):
        g0, g1 = gap[i], gap[i + 1]
        t0, t1 = times[i], times[i + 1]
        if start is None and g0 <= 0.0 < g1:
            start = t0 + (0.0 - g0) * (t1 - t0) / (g1 - g0)
        if start is None and (g0 > 0.0 or g1 > 0.0):
            start = t0
        if start is not None and g0 > 0.0 >= g1:
            end = t0 + (0.0 - g0) * (t1 - t0) / (g1 - g0)
            intervals.append((start, end))
            start = None
    if start is not None:
        intervals.append((start, float(times[-1])))
    return intervals


def _row_blocks(block: np.ndarray) -> list[slice]:
    """Consecutive row ranges of ``block`` of at most ``_BLOCK_ENTRIES``
    entries each (at least one row)."""
    step = max(1, _BLOCK_ENTRIES // block.shape[1])
    return [slice(first, first + step) for first in range(0, len(block), step)]


def _row_extremes(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row's NaN-ignoring minimum and maximum, and whether it holds a
    NaN (``np.minimum`` keeps the NaN that ``np.fmin`` skips)."""
    return (
        np.fmin.reduce(rows, axis=1),
        np.fmax.reduce(rows, axis=1),
        np.isnan(np.minimum.reduce(rows, axis=1)),
    )


def _solution(
    plants: Sequence[Plant],
    load: LoadCurve,
    times: np.ndarray,
    lam: np.ndarray,
    block: np.ndarray,
    extremes: tuple[np.ndarray, np.ndarray, np.ndarray],
    events: Sequence[ClampEvent] = (),
) -> DispatchSolution:
    """The solution with shadow price ``lam`` and row ``j`` of ``block`` as
    plant ``j``'s output, all on the shared, already-validated axis ``times``.

    ``extremes`` are :func:`_row_extremes` of ``block``.  ``lam`` and then
    the rows in plant order are checked as :class:`LoadCurve` checks them;
    the first refusal is its own ``ValueError``.  Each output curve then
    adopts a read-only row of ``block`` without a copy.
    """
    lam.setflags(write=False)
    lambda_curve = LoadCurve(times=times, powers=lam)
    lo, hi, has_nan = extremes
    bad = np.flatnonzero(has_nan | ~np.isfinite(lo) | ~np.isfinite(hi) | (lo < 0.0))
    if bad.size:
        LoadCurve(times=times, powers=block[bad[0]])  # raises: not finite, or below 0
    block.setflags(write=False)
    return DispatchSolution(
        lambda_curve=lambda_curve,
        outputs={p.id: LoadCurve._adopt(times, row) for p, row in zip(plants, block)},
        plants=plants,
        load=load,
        horizon=load.horizon,
        clamped=bool(events),
        clamp_events=tuple(events),
    )


def solve_equilibrium(
    plants: Sequence[Plant], load: LoadCurve, *, allow_clamp: bool = False
) -> DispatchSolution:
    """Solve the equal-marginal-cost equilibrium against ``load``.

    Returns the shadow price lam(t) and every plant trajectory as exact
    piecewise-linear curves.  If the unconstrained solution violates a
    capacity bound anywhere, the default raises
    :class:`InfeasibleDispatchError` naming the plant, the first violating
    time interval and the bound; with ``allow_clamp=True`` the exact
    active-set solution is returned instead, marked ``clamped``.
    """
    plants = list(plants)
    _check_plants(plants)
    inv2a = np.array([1.0 / (2.0 * p.cost.q2) for p in plants])
    q1 = np.array([p.cost.q1 for p in plants])
    denom = float(inv2a.sum())
    offset = float((q1 * inv2a).sum())

    times = load.times
    lam = (load.powers + offset) / denom
    # Every P_j = (lam - q1_j) / (2 q2_j) is a row of one (plants x knots) block.
    block = np.empty((len(plants), len(times)))
    parts = []
    for rows in _row_blocks(block):
        out = block[rows]
        np.subtract(lam, q1[rows, None], out=out)
        out *= inv2a[rows, None]
        parts.append(_row_extremes(out))
    lo, hi, has_nan = (np.concatenate(part) for part in zip(*parts))

    # Subtraction is monotone, so ``p_min - lo > tol`` exactly when some
    # ``p_min - P > tol``, and likewise for p_max; a NaN output decides nothing.
    bounds = _bound_pairs(
        np.array([p.p_min for p in plants]), np.array([p.p_max_or_inf for p in plants])
    )
    crossed = np.column_stack([bounds[:, 0] - lo, hi - bounds[:, 1]]) > _tol(bounds)
    if not crossed.any():
        # An output a rounding below 0 that p_min's tolerance accepts is a
        # plant at its merit-order entry point: it runs at +0.0.
        for j in np.flatnonzero(lo < 0.0):
            row = block[j]
            row[row < 0.0] = 0.0
            lo[j] = 0.0
        return _solution(plants, load, times, lam, block, (lo, hi, has_nan))

    if allow_clamp:
        return _solve_clamped(plants, load)
    # The intervals are needed only to name the first one.
    violations = []
    for j, k in zip(*np.nonzero(crossed)):
        plant, kind = plants[j], _KINDS[k]
        bound = getattr(plant, kind)
        violations += [
            (s, e, plant, kind, bound)
            for s, e in _violation_intervals(times, block[j], bound, kind == "p_min")
        ]
    s, e, plant, kind, bound = min(violations, key=lambda v: v[0])
    side = "below p_min" if kind == "p_min" else "above p_max"
    raise InfeasibleDispatchError(
        f"unconstrained dispatch puts plant {plant.id!r} {side} = {bound:.6g} MW "
        f"on t in [{s:.6g}, {e:.6g}] h; enable clamped dispatch to proceed "
        f"(spot settlement only)",
        plant=plant.id,
        interval=(s, e),
        bound=bound,
        kind=kind,
    )


# ----------------------------------------------------------------------
# Clamped (active-set) dispatch
# ----------------------------------------------------------------------


def _clip(raw, lo, hi):
    """Set ``raw`` to ``min(max(raw, lo), hi)`` elementwise, in place and
    keeping Python's tie rules; return it."""
    np.copyto(raw, lo, where=lo > raw)
    np.copyto(raw, hi, where=hi < raw)
    return raw


def _ordered_sums(values: np.ndarray) -> np.ndarray:
    """``0.0 + values[..., 0] + values[..., 1] + ...``: each row of ``values``
    added left to right along its last axis."""
    start = np.zeros(values.shape[:-1] + (1,))
    return np.cumsum(np.concatenate([start, values], axis=-1), axis=-1)[..., -1]


class _Fleet:
    """Plant coefficients and bounds as arrays in plant order, plus the
    supply curve's breakpoints: the price thresholds where a plant meets a
    bound, and the total clipped supply at each.

    Bracket ``k`` is the price range from ``thr[k]`` to ``thr[k + 1]`` (to
    infinity for the last).  On it each plant is fixed at a bound or moves
    with the price, so total supply is ``den[k] * lam - num[k] + fixed[k]``.
    The three sums are taken once for every bracket, as rows of masked
    (brackets x plants) blocks added left to right; a masked-out plant adds
    ``+0.0``, so each equals the sum over that bracket's plants alone.  The
    supplies at the thresholds are taken on the same blocks.
    """

    def __init__(self, plants: Sequence[Plant]) -> None:
        self.q1 = np.array([p.cost.q1 for p in plants])
        self.two_q2 = np.array([2.0 * p.cost.q2 for p in plants])
        self.p_min = np.array([p.p_min for p in plants])
        self.p_max = np.array([p.p_max_or_inf for p in plants])
        # ``QuadraticCost.marginal``'s operations in its order; an unbounded
        # plant's p_max threshold is inf and is no breakpoint.
        lo_thr = self.two_q2 * self.p_min + self.q1
        hi_thr = self.two_q2 * self.p_max + self.q1
        self.p_min_sum = float(_ordered_sums(self.p_min))
        self.p_max_sum = float(_ordered_sums(self.p_max))
        listed = np.column_stack([np.full(len(plants), True), self.p_max < _INF])
        self.thr = sorted(set(np.column_stack([lo_thr, hi_thr])[listed].tolist()))

        slope, offset = 1.0 / self.two_q2, self.q1 / self.two_q2
        edges = np.append(self.thr, _INF)
        self.supplies, self.fixed, self.den, self.num = [], [], [], []
        rows = max(1, _BLOCK_ENTRIES // len(plants))
        for first in range(0, len(self.thr), rows):
            last = min(first + rows, len(self.thr))
            v_lo, v_hi = edges[first:last, None], edges[first + 1 : last + 1, None]
            # Row by row the same pairwise sum as ``supply`` at each threshold.
            raw = (v_lo - self.q1) / self.two_q2
            self.supplies += _clip(raw, self.p_min, self.p_max).sum(axis=1).tolist()
            at_max = hi_thr <= v_lo
            at_min = ~at_max & (lo_thr >= v_hi)
            active = ~(at_max | at_min)
            at_bound = np.where(at_max, self.p_max, np.where(at_min, self.p_min, 0.0))
            self.fixed += _ordered_sums(at_bound).tolist()
            self.den += _ordered_sums(np.where(active, slope, 0.0)).tolist()
            self.num += _ordered_sums(np.where(active, offset, 0.0)).tolist()

    def supply(self, lam: float) -> float:
        return float(_clip((lam - self.q1) / self.two_q2, self.p_min, self.p_max).sum())


def _lambda_for_demand(fleet: _Fleet, demand: float) -> float:
    """Smallest lam with total clipped supply equal to ``demand``.

    The supply breakpoints locate the bracket; its sums, precomputed by
    :class:`_Fleet`, give lam in closed form.
    """
    tol = DISPATCH_TOL * max(1.0, abs(demand))
    if demand < fleet.p_min_sum - tol or demand > fleet.p_max_sum + tol:
        raise InfeasibleDispatchError(
            f"demand {demand:.6g} MW outside the feasible range "
            f"[{fleet.p_min_sum:.6g}, {fleet.p_max_sum:.6g}] MW",
            kind="capacity",
        )
    thr, supplies = fleet.thr, fleet.supplies
    if demand <= supplies[0]:
        return thr[0]
    # Beyond the last threshold only the unbounded plants still move.
    last = demand > supplies[-1]
    k = len(thr) - 1 if last else bisect.bisect_left(supplies, demand) - 1
    den = fleet.den[k]
    if den == 0.0:
        # Supply plateau at fixed[k].  The float supply at its far end may
        # round above the plateau; a demand above it is met only at thr[k + 1].
        return thr[k] if last or demand <= fleet.fixed[k] else thr[k + 1]
    lam = (demand - fleet.fixed[k] + fleet.num[k]) / den
    return max(lam, thr[k]) if last else min(max(lam, thr[k]), thr[k + 1])


def _clamped_knots(fleet: _Fleet, load: LoadCurve) -> tuple[np.ndarray, np.ndarray]:
    """The clamped solution's knot times (read-only) and shadow price at
    each: the load's breakpoints plus every time the price crosses a
    supply threshold, located analytically."""
    thr = fleet.thr
    t_tol = CLAMPED_KNOT_TOL * max(load.horizon, 1.0)
    knots: list[tuple[float, float]] = []

    def push(t: float, lam: float) -> None:
        if knots and t <= knots[-1][0] + t_tol:
            if abs(lam - knots[-1][1]) > DISPATCH_TOL * max(1.0, abs(lam)):
                raise UnsupportedOperationError(_PLATEAU)
            return
        knots.append((t, lam))

    times, powers = load.times.tolist(), load.powers.tolist()
    lam1 = _lambda_for_demand(fleet, powers[0])
    for i in range(len(times) - 1):
        t0, t1 = times[i], times[i + 1]
        d0, d1 = powers[i], powers[i + 1]
        lam0, lam1 = lam1, _lambda_for_demand(fleet, d1)
        if not knots:
            knots.append((t0, lam0))
        # Thresholds strictly between lam0 and lam1, in the order crossed.
        if lam1 > lam0:
            crossed = range(bisect.bisect_right(thr, lam0), bisect.bisect_left(thr, lam1))
        else:
            crossed = reversed(range(bisect.bisect_right(thr, lam1), bisect.bisect_left(thr, lam0)))
        prev_supply = None
        for k in crossed:
            dv = fleet.supplies[k]
            if prev_supply is not None and dv == prev_supply:
                raise UnsupportedOperationError(_PLATEAU)
            prev_supply = dv
            tv = t0 + (dv - d0) * (t1 - t0) / (d1 - d0)
            push(tv, thr[k])
        push(t1, lam1)

    knot_times = np.array([t for t, _ in knots])
    knot_times.setflags(write=False)
    return knot_times, np.array([v for _, v in knots])


def _clamp_events(
    plants: Sequence[Plant], p_min: np.ndarray, p_max: np.ndarray, times: np.ndarray, rows: np.ndarray
) -> list[ClampEvent]:
    """Every maximal run of knots at which an output row sits at a bound,
    in plant order, ``p_min`` before ``p_max``, then in time."""
    n = len(times)
    bounds = _bound_pairs(p_min, p_max)
    # Line 2j + k of ``at`` marks the knots where plant j sits at bound k.
    at = np.empty((len(plants), 2, n), dtype=bool)
    gap = np.empty_like(rows)
    for k in range(2):
        np.subtract(rows, bounds[:, k, None], out=gap)
        np.abs(gap, out=gap)
        np.less_equal(gap, _tol(bounds[:, k, None]), out=at[:, k])
    # A run's segments lie between two knots at the bound; padding each line
    # with False makes every run start and end at a change.
    runs = np.zeros((2 * len(plants), n + 1), dtype=bool)
    at = at.reshape(2 * len(plants), n)
    np.logical_and(at[:, :-1], at[:, 1:], out=runs[:, 1:-1])
    line, edge = np.divmod(np.flatnonzero(runs[:, 1:] != runs[:, :-1]), n)
    plant, kind = np.divmod(line[::2], 2)
    return [
        ClampEvent(plants[j].id, s, e, _KINDS[k], getattr(plants[j], _KINDS[k]))
        for j, k, s, e in zip(
            plant.tolist(), kind.tolist(), times[edge[::2]].tolist(), times[edge[1::2]].tolist()
        )
    ]


def _solve_clamped(plants: Sequence[Plant], load: LoadCurve) -> DispatchSolution:
    fleet = _Fleet(plants)
    times, lam = _clamped_knots(fleet, load)
    block = np.empty((len(plants), len(times)))
    parts, events = [], []
    for rows in _row_blocks(block):
        out = block[rows]
        np.subtract(lam, fleet.q1[rows, None], out=out)
        out /= fleet.two_q2[rows, None]
        p_min, p_max = fleet.p_min[rows], fleet.p_max[rows]
        _clip(out, p_min[:, None], p_max[:, None])
        parts.append(_row_extremes(out))
        events += _clamp_events(plants[rows], p_min, p_max, times, out)
    extremes = tuple(np.concatenate(part) for part in zip(*parts))
    return _solution(plants, load, times, lam, block, extremes, events)


def checked_fsum(values: Iterable[float], what: str) -> float:
    """``math.fsum(values)``; a sum past the float range raises
    :class:`NumericError` naming ``what`` instead of ``OverflowError``."""
    try:
        return math.fsum(values)
    except OverflowError:
        raise NumericError.out_of_range(what) from None


def dispatch_cost(sol: DispatchSolution) -> DispatchCost:
    """Per-plant generation cost over the cycle plus the market total.

    Closed form, no quadrature: a segment of length ``dt`` on which the
    output runs linearly from ``b0`` to ``b1`` costs
    ``q2 dt (b0^2 + b0 b1 + b1^2) / 3 + q1 dt (b0 + b1) / 2 + q0 dt``.
    A total past the float range raises :class:`NumericError` naming it.
    """
    per: dict[str, float] = {}
    for p in sol.plants:
        curve, c = sol.outputs[p.id], p.cost
        b0, b1 = curve.powers[:-1], curve.powers[1:]
        square = float(np.dot(np.diff(curve.times), b0 * b0 + b0 * b1 + b1 * b1)) / 3.0
        per[p.id] = c.q2 * square + c.q1 * curve.energy + c.q0 * sol.horizon
    return DispatchCost(per, checked_fsum(per.values(), "the total generation cost"))
