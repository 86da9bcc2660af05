"""Settlement and energy valuation: every integral of a price against energy.

Settlement reads the fleet and the spot price (the shadow price) from the
dispatch solution; duration settlement and band values build the duration
price from that shadow price, so a solution settles at its own price
only.  Generation cost and energy come in closed form from the
output knots; only revenue differs between the mechanisms.  Spot revenue
integrates price times output over time.  Duration revenue integrates
``pi(m(y)) * m(y)`` over the plant's output range and adds the base block
``[0, min output]``, settled at the anchor ``pi(T)``.  A unit energy price
is ``int lam P dt / int P dt`` over a time slice or ``int pi(m) m dy /
int m dy`` over a power band, and ``value_by_slice`` / ``value_by_band``
value every segment from those two integrals.  Every integrand is a
polynomial of degree <= 2 between the kinks passed to the engine, so each
integral runs at ``EXACT_CONFIG``: one Simpson pair per kink piece, exact
to round-off, with no resolution to choose.  Every output shares the
shadow price's knots, so spot revenue and slice energy are integrated for
a block of plants at once: one row-valued engine call per block of at
most 2^16 samples (dispatch's block size), each row bit for bit its
plant's own integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .curves import LoadCurve, MeasureFunction
from .dispatch import DispatchSolution, Plant, _row_blocks, checked_fsum, dispatch_cost
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


def _output_integrals(
    sol: DispatchSolution, t1: float, t2: float, what: str, *, priced: bool
) -> Iterator[float]:
    """``int lam P_j dt`` (``priced``) or ``int P_j dt`` over ``[t1, t2]``
    for each output ``P_j`` of ``sol``, in plant order.

    Every output shares the knots of the shadow price ``lam``, so one
    engine call integrates a block of outputs, one row per plant, each row
    bit for bit its plant's own call.  A block holds at most
    ``_BLOCK_ENTRIES`` samples, or one plant.  A non-finite integrand
    raises :class:`NumericError` as ``what`` of its plant, after the
    integrals of the plants before it.
    """
    lam = sol.lambda_curve
    # EXACT_CONFIG samples one Simpson pair, three points, per kink piece.
    points = 3 * (int(np.count_nonzero((lam.times > t1) & (lam.times < t2))) + 1)

    def integrals(plants: tuple[Plant, ...]) -> list[float]:
        curves = [sol.outputs[p.id] for p in plants]

        def rows(ts: np.ndarray) -> np.ndarray:
            outputs = np.array([curve.sample(ts) for curve in curves])
            return lam.sample(ts) * outputs if priced else outputs

        return riemann_integrate(rows, t1, t2, EXACT_CONFIG, breakpoints=lam.times).tolist()

    for block in _row_blocks(len(sol.plants), points):
        plants = sol.plants[block]
        try:
            yield from integrals(plants)
        except NumericError as exc:
            # The plants before the bad row come first, as one call each would.
            yield from integrals(plants[: exc.row]) if exc.row else ()
            raise NumericError.out_of_range(f"{what} of {plants[exc.row].id}", exc.abscissa) from exc


def settle_spot(sol: DispatchSolution) -> SettlementReport:
    """Settle each plant at the spot price: revenue = int lam(t) P_j(t) dt.

    ``lam`` is the dispatch's shadow price; every output shares its knot
    times, so the revenues of a block of plants come from one engine call
    (see :func:`_output_integrals`).  The market purchasing cost (total
    revenue) equals the integral of lam times the system load, since
    outputs balance the load pointwise.  A revenue past the float range
    raises :class:`NumericError` naming the plant, the first in plant
    order, and a market total past it one naming the total.
    """
    costs = dispatch_cost(sol)
    revenues = _output_integrals(sol, 0.0, sol.horizon, "the spot settlement", priced=True)
    rows = [
        _plant_row("spot", p.id, costs.per_plant[p.id], revenue, sol.outputs[p.id].energy)
        for p, revenue in zip(sol.plants, revenues)
    ]
    return _assemble("spot", rows)


def settle_duration(sol: DispatchSolution) -> SettlementReport:
    """Settle each plant of ``sol`` at its market duration price.

    revenue = pi(T) * min_output * T + int pi(m_j(y)) m_j(y) dy over the
    plant's output range; the first term is the base block running the
    whole cycle, priced at the anchor.  Generation cost is the same
    closed form as under spot settlement.  A base block, level-band
    integrand or revenue past the float range raises :class:`NumericError`
    naming the plant, and a market total past it one naming the total.
    A clamped dispatch has no duration price and raises
    :class:`UnsupportedOperationError`.
    """
    price = duration_price(sol)
    costs = dispatch_cost(sol)
    anchor, T, weight = price.anchor, sol.horizon, price.price_times_duration
    rows = []
    for p in sol.plants:
        curve = sol.outputs[p.id]
        lo, hi = curve.min_power, curve.max_power
        revenue = anchor * lo * T
        if hi > lo:
            try:
                revenue += lebesgue_integrate(MeasureFunction(curve), lo, hi, weight, EXACT_CONFIG)
            except NumericError as exc:
                where = f"the duration settlement of {p.id}"
                raise NumericError.out_of_range(where, exc.abscissa) from exc
        rows.append(_plant_row("duration", p.id, costs.per_plant[p.id], revenue, curve.energy))
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


def _slice_integrals(lam: LoadCurve, curve: LoadCurve, t1: float, t2: float) -> tuple[float, float]:
    """``(int P dt, int lam P dt)`` of the trajectory ``curve`` over ``[t1, t2]``."""
    kinks = np.concatenate([lam.times, curve.times])
    energy = riemann_integrate(curve.sample, t1, t2, EXACT_CONFIG, breakpoints=kinks)
    value = riemann_integrate(
        lambda ts: lam.sample(ts) * curve.sample(ts), t1, t2, EXACT_CONFIG, breakpoints=kinks
    )
    return energy, value


def _band_integrals(
    price: DurationPrice, m: MeasureFunction, y1: float, y2: float
) -> tuple[float, float]:
    """``(int m dy, int pi(m) m dy)`` of the level-set measure ``m`` over ``[y1, y2]``."""
    mass = lebesgue_integrate(m, y1, y2, lambda d: d, EXACT_CONFIG)
    value = lebesgue_integrate(m, y1, y2, price.price_times_duration, EXACT_CONFIG)
    return mass, value


def unit_energy_price_spot(price: LoadCurve, plant_curve: LoadCurve, t1: float, t2: float) -> float:
    """Value per MWh of the time-slice commodity ``[t1, t2]`` of a trajectory
    at the spot price ``price``: ``int lam * P dt / int P dt``."""
    T = price.horizon
    t1, t2 = _time_slice(T, t1, t2)
    if not math.isclose(plant_curve.horizon, T, rel_tol=SAME_HORIZON_TOL):
        raise ValueError("price and trajectory horizons differ")
    energy, value = _slice_integrals(price, plant_curve, t1, t2)
    if energy <= 0.0:
        raise UndefinedPriceError(f"no energy on [{t1:.6g}, {t2:.6g}] h: unit price undefined")
    return value / energy


def unit_energy_price_duration(price: DurationPrice, m: MeasureFunction, y1: float, y2: float) -> float:
    """Value per MWh of the power-band commodity ``[y1, y2]`` of a trajectory.

    ``int pi(m(y)) m(y) dy / int m(y) dy``.  Bands below the trajectory
    minimum have ``m == T`` throughout and price at the anchor ``lam(0)``.
    """
    y1, y2 = _level_band(y1, y2)
    if not math.isclose(m.horizon, price.horizon, rel_tol=SAME_HORIZON_TOL):
        raise ValueError("price and measure-function horizons differ")
    mass, value = _band_integrals(price, m, y1, y2)
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
    without load and plants without energy in a slice are omitted.
    """
    lam = sol.lambda_curve
    edges = list(time_edges) if time_edges is not None else list(lam.times)
    rows: list[ValueSegment] = []
    for t1, t2 in zip(edges, edges[1:]):
        t1, t2 = _time_slice(lam.horizon, t1, t2)
        load_energy, load_value = _slice_integrals(lam, sol.load, t1, t2)
        if load_energy <= 0.0:
            continue
        unit = load_value / load_energy
        energies = _output_integrals(sol, t1, t2, f"the energy on [{t1!r}, {t2!r}] h", priced=False)
        for p, energy in zip(sol.plants, energies):
            if energy > 0.0:
                rows.append(ValueSegment("spot", p.id, t1, t2, energy, unit))
    return tuple(rows)


def value_by_band(
    sol: DispatchSolution, band_edges: Sequence[float] | None = None
) -> tuple[ValueSegment, ...]:
    """Each plant's energy by power band, valued at its market duration price.

    The bands run between consecutive sorted ``band_edges`` (default, per
    plant: the base block ``[0, min output]`` and the bands between
    consecutive output breakpoint levels).  A band's unit value depends
    only on the band, not on when its energy was produced.  Bands without
    energy are omitted.  A band integrand past the float range raises
    :class:`NumericError` naming the plant and the band.  A clamped
    dispatch has no duration price and raises
    :class:`UnsupportedOperationError`.
    """
    price = duration_price(sol)
    rows: list[ValueSegment] = []
    for pid, curve in sol.outputs.items():
        m = MeasureFunction(curve)
        edges = sorted({0.0, *curve.levels} if band_edges is None else set(map(float, band_edges)))
        for y1, y2 in zip(edges, edges[1:]):
            y1, y2 = _level_band(y1, y2)
            try:
                energy, value = _band_integrals(price, m, y1, y2)
            except NumericError as exc:
                where = f"the duration value of {pid} on [{y1!r}, {y2!r}] MW"
                raise NumericError.out_of_range(where, exc.abscissa) from exc
            if energy > 0.0:
                rows.append(ValueSegment("duration", pid, y1, y2, energy, value / energy))
    return tuple(rows)
