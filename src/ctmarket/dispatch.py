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
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .cost import QuadraticCost
from .curves import LoadCurve
from .errors import InfeasibleDispatchError, UnsupportedOperationError

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

    ``outputs`` maps plant id to its trajectory.  ``lambda_curve`` and every
    output are array-backed :class:`LoadCurve` values on one knot grid:
    they share a single read-only ``times`` array (the load's own for an
    interior solution), and only their ``powers`` differ.  ``clamped`` marks
    solutions where a capacity bound is active on an interval
    (``clamp_events`` lists them); duration pricing refuses such solutions.
    """

    lambda_curve: LoadCurve
    outputs: Mapping[str, LoadCurve]
    load: LoadCurve
    horizon: float
    clamped: bool = False
    clamp_events: tuple[ClampEvent, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "outputs", MappingProxyType(dict(self.outputs)))


class DispatchCost(NamedTuple):
    per_plant: dict[str, float]
    total: float


def _check_plants(plants: Sequence[Plant]) -> None:
    if not plants:
        raise ValueError("at least one plant is required")
    ids = [p.id for p in plants]
    if len(set(ids)) != len(ids):
        raise ValueError("plant ids must be unique")


def _gap(values: np.ndarray, bound: float, below: bool) -> np.ndarray:
    """How far ``values`` lie past ``bound``: below it if ``below``, else above."""
    return bound - values if below else values - bound


def _crosses(values: np.ndarray, bound: float, below: bool) -> bool:
    """Whether ``values`` pass ``bound`` by more than the bound tolerance."""
    return bool(np.any(_gap(values, bound, below) > 1e-9 * max(1.0, abs(bound))))


def _violation_intervals(
    times: np.ndarray, values: np.ndarray, bound: float, below: bool
) -> list[tuple[float, float]]:
    """Maximal intervals where the piecewise-linear (times, values) path
    crosses strictly past ``bound`` (below it if ``below`` else above)."""
    if not _crosses(values, bound, below):
        return []
    gap = _gap(values, bound, below)
    intervals: list[tuple[float, float]] = []
    start: float | None = None
    for i in range(len(times) - 1):
        g0, g1 = gap[i], gap[i + 1]
        t0, t1 = times[i], times[i + 1]
        if start is None and g0 <= 0.0 < g1:
            start = t0 + (0.0 - g0) * (t1 - t0) / (g1 - g0)
        if start is None and g0 > 0.0:
            start = t0
        if start is not None and g0 > 0.0 >= g1:
            end = t0 + (0.0 - g0) * (t1 - t0) / (g1 - g0)
            intervals.append((start, end))
            start = None
    if start is not None:
        intervals.append((start, float(times[-1])))
    return intervals


def _curve_on(times: np.ndarray, values: np.ndarray) -> LoadCurve:
    """A curve on the shared time axis ``times``; ``values`` is handed over."""
    values.setflags(write=False)
    return LoadCurve(times=times, powers=values)


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
    outputs = {p.id: (lam - p.cost.q1) * inv2a[j] for j, p in enumerate(plants)}

    bounds = [
        (p, kind, bound, kind == "p_min")
        for p in plants
        for kind, bound in (("p_min", p.p_min), ("p_max", p.p_max))
        if bound is not None
    ]
    if not any(_crosses(outputs[p.id], bound, below) for p, _, bound, below in bounds):
        return DispatchSolution(
            lambda_curve=_curve_on(times, lam),
            outputs={pid: _curve_on(times, vals) for pid, vals in outputs.items()},
            load=load,
            horizon=load.horizon,
        )

    if not allow_clamp:
        # The intervals are needed only to name the first one.
        violations = [
            (s, e, p, kind, bound)
            for p, kind, bound, below in bounds
            for s, e in _violation_intervals(times, outputs[p.id], bound, below)
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

    return _solve_clamped(plants, load)


# ----------------------------------------------------------------------
# Clamped (active-set) dispatch
# ----------------------------------------------------------------------


def _clip(raw, lo, hi):
    """``min(max(raw, lo), hi)`` elementwise, keeping Python's tie rules."""
    raw = np.where(lo > raw, lo, raw)
    return np.where(hi < raw, hi, raw)


# The bracket sums are taken on (brackets x plants) blocks of at most this
# many entries, so a large fleet needs no (brackets x plants) matrix at once.
_BLOCK_ENTRIES = 1 << 16


def _ordered_sums(values: np.ndarray) -> np.ndarray:
    """``0.0 + values[..., 0] + values[..., 1] + ...``: each row of ``values``
    added left to right along its last axis."""
    start = np.zeros(values.shape[:-1] + (1,))
    return np.cumsum(np.concatenate([start, values], axis=-1), axis=-1)[..., -1]


def _thresholds(plants: Sequence[Plant]) -> list[float]:
    vals = set()
    for p in plants:
        vals.add(p.cost.marginal(p.p_min))
        if p.p_max is not None:
            vals.add(p.cost.marginal(p.p_max))
    return sorted(vals)


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
        lo_thr = np.array([p.cost.marginal(p.p_min) for p in plants])
        hi_thr = np.array([_INF if p.p_max is None else p.cost.marginal(p.p_max) for p in plants])
        self.p_min_sum = float(_ordered_sums(self.p_min))
        self.p_max_sum = float(_ordered_sums(self.p_max))
        self.thr = _thresholds(plants)

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
    tol = 1e-9 * max(1.0, abs(demand))
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
    last = demand >= supplies[-1]
    k = len(thr) - 1 if last else bisect.bisect_left(supplies, demand) - 1
    den = fleet.den[k]
    if den == 0.0:
        # Supply plateau: demand equals the constant supply on this bracket.
        return thr[k]
    lam = (demand - fleet.fixed[k] + fleet.num[k]) / den
    return max(lam, thr[k]) if last else min(max(lam, thr[k]), thr[k + 1])


def _clamp_runs(times: np.ndarray, at: np.ndarray) -> list[tuple[float, float]]:
    """Maximal time intervals whose every knot has ``at`` set."""
    both = np.concatenate(([False], at[:-1] & at[1:], [False]))
    edges = np.flatnonzero(both[1:] != both[:-1])
    return [(float(times[s]), float(times[e])) for s, e in zip(edges[::2], edges[1::2])]


def _solve_clamped(plants: Sequence[Plant], load: LoadCurve) -> DispatchSolution:
    fleet = _Fleet(plants)
    thr = fleet.thr
    T = load.horizon
    t_tol = 1e-14 * max(T, 1.0)
    knots: list[tuple[float, float]] = []

    def push(t: float, lam: float) -> None:
        if knots and t <= knots[-1][0] + t_tol:
            if abs(lam - knots[-1][1]) > 1e-9 * max(1.0, abs(lam)):
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
    lam_vals = np.array([v for _, v in knots])
    out_vals = {
        p.id: _clip((lam_vals - fleet.q1[j]) / fleet.two_q2[j], fleet.p_min[j], fleet.p_max[j])
        for j, p in enumerate(plants)
    }

    events: list[ClampEvent] = []
    for p in plants:
        vals = out_vals[p.id]
        for kind, bound in (("p_min", p.p_min), ("p_max", p.p_max)):
            if bound is None:
                continue
            at = np.abs(vals - bound) <= 1e-9 * max(1.0, abs(bound))
            events.extend(ClampEvent(p.id, s, e, kind, bound) for s, e in _clamp_runs(knot_times, at))

    return DispatchSolution(
        lambda_curve=_curve_on(knot_times, lam_vals),
        outputs={pid: _curve_on(knot_times, vals) for pid, vals in out_vals.items()},
        load=load,
        horizon=T,
        clamped=bool(events),
        clamp_events=tuple(events),
    )


def dispatch_cost(sol: DispatchSolution, plants: Sequence[Plant]) -> DispatchCost:
    """Per-plant generation cost over the cycle plus the market total.

    Closed form, no quadrature: a segment of length ``dt`` on which the
    output runs linearly from ``b0`` to ``b1`` costs
    ``q2 dt (b0^2 + b0 b1 + b1^2) / 3 + q1 dt (b0 + b1) / 2 + q0 dt``.
    """
    per: dict[str, float] = {}
    for p in plants:
        curve, c = sol.outputs[p.id], p.cost
        b0, b1 = curve.powers[:-1], curve.powers[1:]
        square = float(np.dot(np.diff(curve.times), b0 * b0 + b0 * b1 + b1 * b1)) / 3.0
        per[p.id] = c.q2 * square + c.q1 * curve.energy + c.q0 * sol.horizon
    return DispatchCost(per, math.fsum(per.values()))
