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

Either way a solution keeps only the shadow price: each output is the
plant's inverse marginal cost of it, clipped at a binding bound, made anew
whenever it is read, one plant at a time or a bounded block of plants at a
time, and never cached.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

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
    """Equilibrium dispatch: shadow-price curve plus per-plant trajectories,
    as :func:`solve_equilibrium` returns it.

    ``plants`` is the fleet solved; ``outputs`` maps each plant id, in that
    order, to its trajectory.  ``lambda_curve`` and every
    output are array-backed :class:`LoadCurve` values on one knot grid:
    they share a single read-only ``times`` array (the load's own for an
    interior solution), and only their ``powers`` differ.  Each output is
    the plant's inverse marginal cost of the shadow price, clipped at a
    binding capacity bound: each lookup in ``outputs`` makes a fresh
    read-only row from the shadow price, which the solution does not keep.
    Only the cost and energy sums (``_segment_sums``) are cached.
    ``clamped`` marks solutions where a capacity bound is active on an
    interval (``clamp_events`` lists them); duration pricing refuses such
    solutions.
    """

    lambda_curve: LoadCurve
    outputs: Mapping[str, LoadCurve]
    plants: tuple[Plant, ...]
    load: LoadCurve
    horizon: float
    clamped: bool = False
    clamp_events: tuple[ClampEvent, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.outputs, _Outputs):
            raise TypeError("a DispatchSolution is made only by solve_equilibrium")

    @property
    def times(self) -> np.ndarray:
        """The knot times that the shadow price and every output share."""
        return self.lambda_curve.times

    @cached_property
    def _segment_sums(self) -> tuple[list[float], list[float]]:
        """Per plant, ``int P^2 dt`` and the energy ``int P dt``: with
        ``b0``, ``b1`` a segment's end outputs, ``dt (b0^2 + b0 b1 +
        b1^2) / 3`` and ``dt (b0 + b1) / 2`` summed over the segments by one
        ``np.dot`` per row.  The terms are taken on blocks of rows, so each
        sum is bit for bit that of the plant's own curve arrays."""
        t = self.times
        dt = t[1:] - t[:-1]
        squares: list[float] = []
        energies: list[float] = []
        for _, block in self.outputs.row_blocks():
            b0, b1 = block[:, :-1], block[:, 1:]
            squares += [float(np.dot(dt, row)) / 3.0 for row in b0 * b0 + b0 * b1 + b1 * b1]
            energies += [float(np.dot(dt, row)) / 2.0 for row in b0 + b1]
        return squares, energies


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

# Blocks of output rows, and of the clamped bracket sums, hold at most this
# many entries: each is made and reduced while it is in cache, and a large
# fleet needs no (plants x knots) or (brackets x plants) matrix at once.
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


def _extremes(lam: np.ndarray, q1, scale, op, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Each plant's NaN-ignoring minimum and maximum output over the knots,
    taken from the shadow price's own: the rows of :func:`_outputs_at`
    at lam's extremes.

    Each output does not decrease with the price, and a non-decreasing map
    commutes with min and max, so each value is its plant's cell at lam's
    extreme.  Where ``1 / (2 q2)`` is 0 or inf the map can make a NaN of a
    number (``0 * inf``, ``inf / inf``); an extreme it turns into NaN is a
    NaN cell of that output, which the finiteness check refuses, and no
    bound check would decide otherwise on the cell it hides.  A NaN in
    lam itself is refused by lam's own check, before any output's.
    """
    return _outputs_at(np.array([[np.fmin.reduce(lam)], [np.fmax.reduce(lam)]]), q1, scale, op, lo, hi)


def _outputs_at(prices, q1, scale, op, lo, hi) -> np.ndarray:
    """Every plant's output (a column each) at each price of a column:
    ``op(price - q1_j, scale_j)`` clipped to ``[lo_j, hi_j]``."""
    return _clip(op(prices - q1, scale), lo, hi)


def _clip(raw, lo, hi):
    """Set ``raw`` to ``min(max(raw, lo), hi)`` elementwise, in place and
    keeping Python's tie rules; return it."""
    np.copyto(raw, lo, where=lo > raw)
    np.copyto(raw, hi, where=hi < raw)
    return raw


class _Outputs(Mapping):
    """A solution's outputs by plant id, in plant order.

    Row ``j`` is the plant's inverse marginal cost of the shadow price,
    ``op(lam - q1_j, scale_j)``, clipped to ``[lo_j, hi_j]`` where a bound
    binds.  A lookup makes its row on the spot, read-only, and
    :meth:`row_blocks` makes every row a block of plants at a time; neither
    keeps anything.  A bound of -inf (``lo``) or +inf (``hi``) meets no
    cell, so its comparison is skipped.  The map may overflow where a
    bound clips the cell back into range, so it runs with numpy's
    floating-point warnings off; an output left out of range was refused
    when the solution was made.
    """

    def __init__(self, plants: Sequence[Plant], times, lam, q1, scale, op, lo, hi) -> None:
        self._ids = {p.id: j for j, p in enumerate(plants)}
        self.times, self.lam, self.model = times, lam, (q1, scale, op, lo, hi)
        self._binds = lo > -_INF, hi < _INF

    def row_blocks(self, width: int | None = None) -> Iterator[tuple[slice, np.ndarray]]:
        """``(rows, outputs)`` for consecutive ranges of plants: a fresh
        array of their outputs, a row each, of at most ``_BLOCK_ENTRIES``
        entries when a row counts ``width`` (default: the knots), and at
        least one row."""
        q1, scale, op, lo, hi = self.model
        step = max(1, _BLOCK_ENTRIES // (width or len(self.times)))
        for first in range(0, len(self._ids), step):
            rows = slice(first, first + step)
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # clipped below
                out = self.lam - q1[rows, None]
                op(out, scale[rows, None], out=out)
            if self._binds[0][rows].any():
                np.copyto(out, lo[rows, None], where=lo[rows, None] > out)
            if self._binds[1][rows].any():
                np.copyto(out, hi[rows, None], where=hi[rows, None] < out)
            yield rows, out

    def __getitem__(self, pid: str) -> LoadCurve:
        j = self._ids[pid]
        q1, scale, op, lo, hi = self.model
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # clipped below
            row = self.lam - q1[j]
            op(row, scale[j], out=row)
        if self._binds[0][j]:
            np.copyto(row, lo[j], where=lo[j] > row)
        if self._binds[1][j]:
            np.copyto(row, hi[j], where=hi[j] < row)
        row.setflags(write=False)
        return LoadCurve._adopt(self.times, row)

    def __iter__(self) -> Iterator[str]:
        return iter(self._ids)

    def __len__(self) -> int:
        return len(self._ids)

    def __repr__(self) -> str:
        return repr(dict(self))


def _solution(plants: Sequence[Plant], load: LoadCurve, outputs: _Outputs, events=()) -> DispatchSolution:
    """The solution with ``outputs``, on the shared, already-validated
    axis ``outputs.times``.

    The shadow price and then the outputs in plant order are checked as
    :class:`LoadCurve` checks them, the outputs from their
    :func:`_extremes`; the first refusal is its own ``ValueError``.
    """
    times, lam = outputs.times, outputs.lam
    lam.setflags(write=False)
    lambda_curve = LoadCurve(times=times, powers=lam)
    lo, hi = _extremes(lam, *outputs.model)
    bad = np.flatnonzero(~np.isfinite(lo) | ~np.isfinite(hi) | (lo < 0.0))
    if bad.size:
        LoadCurve(times=times, powers=outputs[plants[bad[0]].id].powers)  # raises
    return DispatchSolution(
        lambda_curve=lambda_curve,
        outputs=outputs,
        plants=tuple(plants),
        load=load,
        horizon=load.horizon,
        clamped=bool(events),
        clamp_events=tuple(events),
    )


@np.errstate(divide="ignore", over="ignore", invalid="ignore")  # the checks refuse what overflows
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
    if denom == 0.0:  # no price moves the supply
        p = plants[0]
        raise NumericError(f"every plant's 1/(2 q2) rounds to 0: plant {p.id!r} has q2 = {p.cost.q2!r}")
    offset = float((q1 * inv2a).sum())

    times = load.times
    lam = (load.powers + offset) / denom
    # Every P_j = (lam - q1_j) / (2 q2_j), the same two operations per cell.
    lo, hi = _extremes(lam, q1, inv2a, np.multiply, -_INF, _INF)

    # Subtraction is monotone, so ``p_min - lo > tol`` exactly when some
    # ``p_min - P > tol``, and likewise for p_max; a NaN output decides nothing.
    bounds = _bound_pairs(
        np.array([p.p_min for p in plants]), np.array([p.p_max_or_inf for p in plants])
    )
    crossed = np.column_stack([bounds[:, 0] - lo, hi - bounds[:, 1]]) > _tol(bounds)
    if not crossed.any():
        # An output a rounding below 0 that p_min's tolerance accepts is a
        # plant at its merit-order entry point: it runs at +0.0.
        floor = np.where(lo < 0.0, 0.0, -_INF)
        outputs = _Outputs(plants, times, lam, q1, inv2a, np.multiply, floor, np.full(len(plants), _INF))
        return _solution(plants, load, outputs)

    if allow_clamp:
        return _solve_clamped(plants, load)
    # The intervals are needed only to name the first one.
    violations = []
    for j, k in zip(*np.nonzero(crossed)):
        plant, kind = plants[j], _KINDS[k]
        bound = getattr(plant, kind)
        violations += [
            (s, e, plant, kind, bound)
            for s, e in _violation_intervals(times, (lam - q1[j]) * inv2a[j], bound, kind == "p_min")
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
        self.model = self.q1, self.two_q2, np.divide, self.p_min, self.p_max
        # ``QuadraticCost.marginal``'s operations in its order; an unbounded
        # plant's p_max threshold is inf and is no breakpoint.  A listed one
        # past the float range (``inf * 0`` is NaN) has no place in the order.
        with np.errstate(over="ignore", invalid="ignore"):
            lo_thr = self.two_q2 * self.p_min + self.q1
            hi_thr = self.two_q2 * self.p_max + self.q1
        listed = np.column_stack([np.full(len(plants), True), self.p_max < _INF])
        thresholds = np.column_stack([lo_thr, hi_thr])
        bad = np.argwhere(listed & ~np.isfinite(thresholds))
        if bad.size:
            j, k = bad[0]
            raise NumericError.out_of_range(f"the marginal cost of plant {plants[j].id!r} at {_KINDS[k]}")
        self.thr = sorted(set(thresholds[listed].tolist()))
        self.p_min_sum = float(_ordered_sums(self.p_min))
        self.p_max_sum = float(_ordered_sums(self.p_max))

        slope, offset = 1.0 / self.two_q2, self.q1 / self.two_q2
        edges = np.append(self.thr, _INF)
        self.supplies, self.fixed, self.den, self.num = [], [], [], []
        rows = max(1, _BLOCK_ENTRIES // len(plants))
        for first in range(0, len(self.thr), rows):
            last = min(first + rows, len(self.thr))
            v_lo, v_hi = edges[first:last, None], edges[first + 1 : last + 1, None]
            # Row by row the same pairwise sum as ``supply`` at each threshold.
            self.supplies += _outputs_at(v_lo, *self.model).sum(axis=1).tolist()
            at_max = hi_thr <= v_lo
            at_min = ~at_max & (lo_thr >= v_hi)
            active = ~(at_max | at_min)
            at_bound = np.where(at_max, self.p_max, np.where(at_min, self.p_min, 0.0))
            self.fixed += _ordered_sums(at_bound).tolist()
            self.den += _ordered_sums(np.where(active, slope, 0.0)).tolist()
            self.num += _ordered_sums(np.where(active, offset, 0.0)).tolist()

    def supply(self, lam: float) -> float:
        return float(_outputs_at(lam, *self.model).sum())


def _infeasible(fleet: _Fleet, demand: float) -> InfeasibleDispatchError:
    return InfeasibleDispatchError(
        f"demand {demand:.6g} MW outside the feasible range "
        f"[{fleet.p_min_sum:.6g}, {fleet.p_max_sum:.6g}] MW",
        kind="capacity",
    )


@np.errstate(all="ignore")
def _lambdas_for_demands(fleet: _Fleet, demands: np.ndarray) -> np.ndarray:
    """The smallest lam with total clipped supply equal to each demand, for
    the demands before the first one outside the feasible range (all of
    them if none is).

    One array pass: the supply breakpoints locate each demand's bracket,
    whose sums, precomputed by :class:`_Fleet`, give lam in closed form.
    Each entry is bit for bit the scalar formula, which warns of nothing;
    ``np.where`` keeps Python's ``min`` / ``max`` tie rules.
    """
    tol = DISPATCH_TOL * np.maximum(1.0, np.abs(demands))
    bad = np.flatnonzero((demands < fleet.p_min_sum - tol) | (demands > fleet.p_max_sum + tol))
    d = demands[: bad[0]] if bad.size else demands
    thr, supplies = np.array(fleet.thr), np.array(fleet.supplies)
    fixed, den, num = np.array(fleet.fixed), np.array(fleet.den), np.array(fleet.num)
    # Beyond the last threshold only the unbounded plants still move.
    last = d > supplies[-1]
    k = np.where(last, len(thr) - 1, np.searchsorted(supplies, d, side="left") - 1)
    k = np.maximum(k, 0)  # a demand at or below the first supply prices at thr[0]
    lo, hi = thr[k], thr[np.minimum(k + 1, len(thr) - 1)]
    lam = np.divide(d - fixed[k] + num[k], den[k], out=np.zeros_like(d), where=den[k] != 0.0)
    lam = np.where(lo > lam, lo, lam)
    lam = np.where(~last & (hi < lam), hi, lam)
    # Supply plateau at fixed[k].  The float supply at its far end may round
    # above the plateau; a demand above it is met only at thr[k + 1].
    plateau = np.where(last | (d <= fixed[k]), lo, hi)
    lam = np.where(den[k] == 0.0, plateau, lam)
    return np.where(d <= supplies[0], thr[0], lam)


def _lambda_for_demand(fleet: _Fleet, demand: float) -> float:
    """Smallest lam with total clipped supply equal to ``demand``: the one
    demand's :func:`_lambdas_for_demands`; outside the feasible range,
    :class:`InfeasibleDispatchError`."""
    lam = _lambdas_for_demands(fleet, np.array([float(demand)]))
    if not lam.size:
        raise _infeasible(fleet, demand)
    return float(lam[0])


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

    lams = _lambdas_for_demands(fleet, load.powers).tolist()
    # The segments before the first infeasible demand are crossed before it
    # is refused, so a plateau on one of them is the error reported.
    n = len(lams)
    times, powers = load.times[:n].tolist(), load.powers[:n].tolist()
    for i in range(len(times) - 1):
        t0, t1 = times[i], times[i + 1]
        d0, d1 = powers[i], powers[i + 1]
        lam0, lam1 = lams[i], lams[i + 1]
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

    if n < len(load.powers):
        raise _infeasible(fleet, float(load.powers[n]))
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
    outputs = _Outputs(plants, *_clamped_knots(fleet, load), *fleet.model)
    # The clamp events are found on a few rows at a time.
    events = []
    for rows, block in outputs.row_blocks():
        events += _clamp_events(plants[rows], fleet.p_min[rows], fleet.p_max[rows], outputs.times, block)
    return _solution(plants, load, outputs, events)


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
    The segment sums come from one pass over the solution's outputs, a
    block of plants at a time, taken once per solution and shared with the
    settlements' energies.
    A total past the float range raises :class:`NumericError` naming it.
    """
    squares, energies = sol._segment_sums
    per = {
        p.id: p.cost.q2 * square + p.cost.q1 * energy + p.cost.q0 * sol.horizon
        for p, square, energy in zip(sol.plants, squares, energies)
    }
    return DispatchCost(per, checked_fsum(per.values(), "the total generation cost"))
