"""Settlement and energy valuation: every integral of a price against energy.

Settlement reads the fleet and the spot price (the shadow price) from the
dispatch solution; duration settlement and band values build the duration
price from that shadow price, so a solution settles at its own price
only.  Generation cost and energy come in closed form from one pass over
the solution's (plants x knots) output block, taken once per solution and
shared by both mechanisms; only revenue differs between them.  Spot revenue
integrates price times output over time.  Duration revenue integrates
``pi(m(y)) * m(y)`` over the plant's output range and adds the base block
``[0, min output]``, settled at the anchor ``pi(T)``.  Revenues run on the
quadrature engines at ``EXACT_CONFIG``, one Simpson pair per kink piece;
spot revenue takes one row-valued call per block of plants (see
:func:`_output_integrals`).  A unit energy price is ``int lam P dt / int P
dt`` over a time slice or ``int pi(m) m dy / int m dy`` over a power band,
and ``value_by_slice`` / ``value_by_band`` value every segment from those
integrals in closed form, with no engine call: cut at every knot (bands
no higher than the curve's top, above which no energy lies), each
integrand is a polynomial of degree <= 2 on a piece, so one Simpson pair
per piece is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .curves import LoadCurve, MeasureFunction
from .dispatch import DispatchSolution, _row_blocks, checked_fsum, dispatch_cost
from .errors import DomainError, NumericError, UndefinedPriceError
from .pricing import DurationPrice, duration_price
from .quadrature import EXACT_CONFIG, lebesgue_integrate, riemann_integrate
from .tolerances import DOMAIN_TOL, SAME_HORIZON_TOL

__all__ = [
    "PlantSettlement",
    "SettlementReport",
    "ValueSegment",
    "settle_spot",
    "settle_duration",
    "unit_energy_price_spot",
    "unit_energy_price_duration",
    "value_by_slice",
    "value_by_band",
]


@dataclass(frozen=True)
class PlantSettlement:
    """One plant's cycle accounting: cost, revenue, profit, profit rate, energy."""

    plant: str
    generation_cost: float
    revenue: float
    profit: float
    profit_rate: float | None  # profit / cost; None when cost == 0
    energy: float


@dataclass(frozen=True)
class SettlementReport:
    """Market-wide settlement under one mechanism."""

    mechanism: str  # "spot" | "duration"
    plants: tuple[PlantSettlement, ...]
    total_cost: float
    total_revenue: float
    total_profit: float
    market_profit_rate: float | None


@dataclass(frozen=True)
class ValueSegment:
    """Unit energy value of one commodity segment of one plant."""

    mechanism: str
    plant: str
    lo: float  # slice start (hours) under spot, band bottom (MW) under duration
    hi: float
    energy: float
    unit_value: float


def _assemble(mechanism: str, rows: list[PlantSettlement]) -> SettlementReport:
    total_cost = checked_fsum((r.generation_cost for r in rows), f"the {mechanism} total cost")
    total_revenue = checked_fsum((r.revenue for r in rows), f"the {mechanism} total revenue")
    total_profit = checked_fsum((r.profit for r in rows), f"the {mechanism} total profit")
    return SettlementReport(
        mechanism=mechanism,
        plants=tuple(rows),
        total_cost=total_cost,
        total_revenue=total_revenue,
        total_profit=total_profit,
        market_profit_rate=total_profit / total_cost if total_cost > 0.0 else None,
    )


def _plant_row(
    mechanism: str, plant: str, cost: float, revenue: float, energy: float
) -> PlantSettlement:
    if not math.isfinite(revenue):
        raise NumericError.out_of_range(f"the {mechanism} settlement of {plant}")
    profit = revenue - cost
    return PlantSettlement(
        plant=plant,
        generation_cost=cost,
        revenue=revenue,
        profit=profit,
        profit_rate=profit / cost if cost > 0.0 else None,
        energy=energy,
    )


def _output_integrals(sol: DispatchSolution) -> Iterator[float]:
    """Each output's spot revenue ``int lam P_j dt``, in plant order: one
    row-valued engine call per block of at most ``_BLOCK_ENTRIES`` samples
    (or one plant), each row bit for bit its plant's own call.  The
    integrand fills one (rows x points) array, one ``np.interp`` per row of
    the output block; every row shares lam's times, so lam's domain check
    covers them all, and the engine checks the whole array once.  A
    non-finite integrand raises :class:`NumericError` naming its plant,
    after the revenues of the plants before it."""
    lam = sol.lambda_curve
    times, block = lam.times, sol.block
    # EXACT_CONFIG samples one Simpson pair, three points, per kink piece.
    points = 3 * (len(times) - 1)

    def integrals(rows: np.ndarray) -> list[float]:
        def values(ts: np.ndarray) -> np.ndarray:
            lam_ts = lam.sample(ts)
            out = np.empty((len(rows), len(ts)))
            for j, row in enumerate(rows):
                out[j] = np.interp(ts, times, row)
            out *= lam_ts
            return out

        return riemann_integrate(values, 0.0, sol.horizon, EXACT_CONFIG, breakpoints=times).tolist()

    for rows in _row_blocks(len(sol.plants), points):
        try:
            yield from integrals(block[rows])
        except NumericError as exc:
            # The plants before the bad row come first, as one call each would.
            yield from integrals(block[rows][: exc.row]) if exc.row else ()
            where = f"the spot settlement of {sol.plants[rows][exc.row].id}"
            raise NumericError.out_of_range(where, exc.abscissa) from exc


def settle_spot(sol: DispatchSolution) -> SettlementReport:
    """Settle each plant at the spot price: revenue = int lam(t) P_j(t) dt.

    ``lam`` is the dispatch's shadow price; every output shares its knot
    times, so the revenues of a block of plants come from one engine call
    (see :func:`_output_integrals`).  Cost and energy come from the
    solution's one pass over its output block.  The market purchasing cost
    (total revenue) equals the integral of lam times the system load, since
    outputs balance the load pointwise.  A revenue past the float range
    raises :class:`NumericError` naming the plant, the first in plant
    order, and a market total past it one naming the total.
    """
    costs = dispatch_cost(sol)
    energies = sol._segment_sums[1]
    rows = [
        _plant_row("spot", p.id, costs.per_plant[p.id], revenue, energy)
        for p, revenue, energy in zip(sol.plants, _output_integrals(sol), energies)
    ]
    return _assemble("spot", rows)


def settle_duration(sol: DispatchSolution) -> SettlementReport:
    """Settle each plant of ``sol`` at its market duration price.

    revenue = pi(T) * min_output * T + int pi(m_j(y)) m_j(y) dy over the
    plant's output range; the first term is the base block running the
    whole cycle, priced at the anchor.  Generation cost and energy are the
    same closed forms as under spot settlement, taken once per solution.
    A base block, level-band integrand or revenue past the float range
    raises :class:`NumericError` naming the plant, and a market total past
    it one naming the total.
    A clamped dispatch has no duration price and raises
    :class:`UnsupportedOperationError`.
    """
    price = duration_price(sol)
    costs = dispatch_cost(sol)
    anchor, T, weight = price.anchor, sol.horizon, price.price_times_duration
    rows = []
    for p, energy in zip(sol.plants, sol._segment_sums[1]):
        curve = sol.outputs[p.id]
        lo, hi = curve.min_power, curve.max_power
        revenue = anchor * lo * T
        if hi > lo:
            try:
                revenue += lebesgue_integrate(MeasureFunction(curve), lo, hi, weight, EXACT_CONFIG)
            except NumericError as exc:
                where = f"the duration settlement of {p.id}"
                raise NumericError.out_of_range(where, exc.abscissa) from exc
        rows.append(_plant_row("duration", p.id, costs.per_plant[p.id], revenue, energy))
    return _assemble("duration", rows)


def _time_slice(T: float, t1: float, t2: float) -> tuple[float, float]:
    """``(t1, t2)`` as floats; :class:`DomainError` unless ``0 <= t1 < t2 <= T``
    (``t2`` may pass ``T`` by ``DOMAIN_TOL`` relative)."""
    t1, t2 = float(t1), float(t2)
    if not (0.0 <= t1 < t2 <= T + DOMAIN_TOL * max(T, 1.0)):
        raise DomainError(f"need 0 <= t1 < t2 <= {T!r}, got [{t1!r}, {t2!r}]")
    return t1, t2


def _level_band(y1: float, y2: float) -> tuple[float, float]:
    """``(y1, y2)`` as floats; :class:`DomainError` unless ``0 <= y1 < y2 < inf``."""
    y1, y2 = float(y1), float(y2)
    if not (0.0 <= y1 < y2 < math.inf):
        raise DomainError(f"need 0 <= y1 < y2 < inf, got [{y1!r}, {y2!r}]")
    return y1, y2


def _simpson_pairs(edges: np.ndarray, kinks: np.ndarray, top: float = math.inf):
    """Cut ``[edges[0], min(edges[-1], top)]`` at every edge and every kink
    inside it (``top``, where it cuts, must be a kink).  Returns the knots,
    the middles and ``sums(at_knots, mid, right=None)``: each interval's
    integral by one Simpson pair per piece (``right`` defaults to the next
    knot's value), terms and then pieces (``np.bincount``) added in order."""
    knots = np.unique(np.concatenate([edges, kinks]))
    knots = knots[(knots >= edges[0]) & (knots <= min(edges[-1], top))]
    half, bins = (knots[1:] - knots[:-1]) / 2.0, edges.searchsorted(knots[:-1], side="right") - 1

    def sums(at_knots: np.ndarray, mid: np.ndarray, right: np.ndarray | None = None) -> np.ndarray:
        terms = at_knots[:-1] + 4.0 * mid + (at_knots[1:] if right is None else right)
        return np.bincount(bins, weights=half / 3.0 * terms, minlength=len(edges) - 1)

    return knots, knots[:-1] + half, sums


def _slice_sums(lam: LoadCurve, curves: Sequence[LoadCurve], edges: np.ndarray):
    """``(int P dt, int lam P dt)`` per slice of ``edges``, one row per ``P`` in ``curves``."""
    kinks = [lam.times, *(c.times for c in curves if c.times is not lam.times)]
    knots, mids, sums = _simpson_pairs(edges, np.concatenate(kinks))
    lam_k, lam_m = np.interp(knots, lam.times, lam.powers), np.interp(mids, lam.times, lam.powers)
    energy, value = [], []
    for c in curves:
        p_k, p_m = np.interp(knots, c.times, c.powers), np.interp(mids, c.times, c.powers)
        energy.append(sums(p_k, p_m))
        value.append(sums(lam_k * p_k, lam_m * p_m))
    return np.array(energy), np.array(value)


def _band_sums(price: DurationPrice, m: MeasureFunction, edges: np.ndarray):
    """``(int m dy, int pi(m) m dy)`` per band of ``edges``, up to ``m``'s top."""
    knots, mids, sums = _simpson_pairs(edges, m.curve.powers, top=m.y_hi)
    ms = m.sample(knots), m.sample(mids), m.limit_from_below(knots[1:])
    return sums(*ms), sums(*map(price.price_times_duration, ms))


def unit_energy_price_spot(price: LoadCurve, plant_curve: LoadCurve, t1: float, t2: float) -> float:
    """Value per MWh of the time-slice commodity ``[t1, t2]`` of a trajectory
    at the spot price ``price``: ``int lam * P dt / int P dt``."""
    T = price.horizon
    t1, t2 = _time_slice(T, t1, t2)
    if not math.isclose(plant_curve.horizon, T, rel_tol=SAME_HORIZON_TOL):
        raise ValueError("price and trajectory horizons differ")
    energy, value = (x.item() for x in _slice_sums(price, [plant_curve], np.array([t1, t2])))
    if energy <= 0.0:
        raise UndefinedPriceError(f"no energy on [{t1:.6g}, {t2:.6g}] h: unit price undefined")
    return value / energy


def unit_energy_price_duration(price: DurationPrice, m: MeasureFunction, y1: float, y2: float) -> float:
    """Value per MWh of the power-band commodity ``[y1, y2]`` of a trajectory.

    ``int pi(m(y)) m(y) dy / int m(y) dy``.  Bands below the trajectory
    minimum have ``m == T`` throughout and price at the anchor ``lam(0)``;
    above the trajectory's peak a band holds no energy and adds no value.
    """
    y1, y2 = _level_band(y1, y2)
    if not math.isclose(m.horizon, price.horizon, rel_tol=SAME_HORIZON_TOL):
        raise ValueError("price and measure-function horizons differ")
    mass, value = (x.item() for x in _band_sums(price, m, np.array([y1, y2])))
    if mass <= 0.0:
        raise UndefinedPriceError(f"zero measure mass on [{y1:.6g}, {y2:.6g}] MW: unit price undefined")
    return value / mass


def value_by_slice(
    sol: DispatchSolution, time_edges: Sequence[float] | None = None
) -> tuple[ValueSegment, ...]:
    """Each plant's energy by time slice, valued at the spot price.

    The slices run between consecutive ``time_edges`` (default: the shadow
    price's breakpoints).  A slice's unit value is the market unit price of
    the slice commodity, total load settlement over total load energy, so
    the segments of one slice carry one value across plants.  Slices
    without load and plants without energy in a slice are omitted.  An
    energy or unit value past the float range raises :class:`NumericError`.
    """
    lam = sol.lambda_curve
    edges = list(time_edges) if time_edges is not None else list(lam.times)
    slices = [_time_slice(lam.horizon, t1, t2) for t1, t2 in zip(edges, edges[1:])]
    if not slices:
        return ()
    energy, value = _slice_sums(lam, [sol.load, *sol.outputs.values()], np.array(edges, dtype=float))
    rows: list[ValueSegment] = []
    for (t1, t2), (load_energy, *energies), load_value in zip(slices, energy.T.tolist(), value[0]):
        if load_energy <= 0.0:
            continue
        unit = float(load_value) / load_energy
        for p, energy in zip(sol.plants, energies):
            if not math.isfinite(energy):
                raise NumericError.out_of_range(f"the energy on [{t1!r}, {t2!r}] h of {p.id}", t1)
            if energy > 0.0:
                rows.append(ValueSegment("spot", p.id, t1, t2, energy, unit))
        if not math.isfinite(unit):
            raise NumericError.out_of_range(f"the unit value on [{t1!r}, {t2!r}] h", t1)
    return tuple(rows)


def value_by_band(
    sol: DispatchSolution, band_edges: Sequence[float] | None = None
) -> tuple[ValueSegment, ...]:
    """Each plant's energy by power band, valued at its market duration price.

    The bands run between consecutive sorted ``band_edges`` (default, per
    plant: the base block ``[0, min output]`` and the bands between
    consecutive output breakpoint levels).  A band's unit value depends
    only on the band, not on when its energy was produced.  A band holds
    energy only up to the plant's peak, and bands without energy are
    omitted.  A band energy or value past the float range raises
    :class:`NumericError` naming the plant and the band.  A clamped
    dispatch has no duration price and raises
    :class:`UnsupportedOperationError`.
    """
    price = duration_price(sol)
    given = None if band_edges is None else sorted(set(map(float, band_edges)))
    for y1, y2 in [] if given is None else zip(given, given[1:]):
        _level_band(y1, y2)  # once; default edges (output levels) are sorted, finite, >= 0
    rows: list[ValueSegment] = []
    for pid, curve in sol.outputs.items():
        edges = sorted({0.0, *curve.levels}) if given is None else given
        if len(edges) < 2:
            continue
        energies, values = _band_sums(price, MeasureFunction(curve), np.array(edges))
        for y1, y2, energy, value in zip(edges, edges[1:], energies.tolist(), values.tolist()):
            if not (math.isfinite(energy) and math.isfinite(value)):
                where = f"the duration value of {pid} on [{y1!r}, {y2!r}] MW"
                raise NumericError.out_of_range(where, y1)
            if energy > 0.0:
                rows.append(ValueSegment("duration", pid, y1, y2, energy, value / energy))
    return tuple(rows)
