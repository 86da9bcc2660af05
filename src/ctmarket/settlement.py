"""Per-plant and market-wide settlement under both pricing mechanisms.

Settlement reads the fleet and the spot price (the shadow price) from the
dispatch solution; duration settlement also takes the duration price.
Generation cost and energy are the same under both mechanisms (same
dispatch) and come in closed form from the output knots; only revenue
differs.  Spot revenue integrates price times output over time.  Duration
revenue integrates the bounded product ``pi(m(y)) * m(y)`` over the
plant's output range and adds the base block ``[0, min output]``, which
runs the whole cycle and settles at the anchor price ``pi(T)``.  Every
plant settles at the single market duration price.  Every integrand is a
polynomial of degree <= 2 between the kinks passed to the engine
(piecewise-linear price times piecewise-linear output on the time axis;
``pi(m) * m`` of a non-decreasing output on its level bands), so each
integral runs at ``EXACT_CONFIG``: one Simpson pair per kink piece, exact
to round-off, with no resolution to choose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .curves import LoadCurve, MeasureFunction
from .dispatch import DispatchSolution, checked_fsum, dispatch_cost
from .errors import NumericError, UnsupportedOperationError
from .pricing import (
    DurationPrice,
    level_band,
    time_slice,
    unit_energy_price_duration,
    unit_energy_price_spot,
)
from .quadrature import EXACT_CONFIG, lebesgue_integrate, riemann_integrate

__all__ = [
    "PlantSettlement",
    "SettlementReport",
    "ValueSegment",
    "settle_spot",
    "settle_duration",
    "value_decomposition",
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


def settle_spot(sol: DispatchSolution) -> SettlementReport:
    """Settle each plant at the spot price: revenue = int lam(t) P_j(t) dt.

    ``lam`` is the dispatch's shadow price; every output shares its knot
    times.  The market purchasing cost (total revenue) equals the integral
    of lam times the system load, since outputs balance the load pointwise.
    A revenue past the float range raises :class:`NumericError` naming the
    plant, and a market total past it one naming the total.
    """
    costs = dispatch_cost(sol)
    lam = sol.lambda_curve
    rows = []
    for p in sol.plants:
        curve = sol.outputs[p.id]
        try:
            revenue = riemann_integrate(
                lambda ts, k=curve: lam.sample(ts) * k.sample(ts),
                0.0, sol.horizon, EXACT_CONFIG, breakpoints=lam.times,
            )
        except NumericError as exc:
            raise NumericError.out_of_range(f"the spot settlement of {p.id}", exc.abscissa) from exc
        rows.append(_plant_row("spot", p.id, costs.per_plant[p.id], revenue, curve.energy))
    return _assemble("spot", rows)


def settle_duration(sol: DispatchSolution, price: DurationPrice) -> SettlementReport:
    """Settle each plant of ``sol`` at the market duration price ``price``.

    revenue = pi(T) * min_output * T + int pi(m_j(y)) m_j(y) dy over the
    plant's output range; the first term is the base block running the
    whole cycle, priced at the anchor.  Generation cost is the same
    closed form as under spot settlement.  A base block, level-band
    integrand or revenue past the float range raises :class:`NumericError`
    naming the plant, and a market total past it one naming the total.
    """
    if sol.clamped:
        raise UnsupportedOperationError(
            "duration settlement is undefined for bound-clamped dispatch"
        )
    costs = dispatch_cost(sol)
    rows = []
    for p in sol.plants:
        curve = sol.outputs[p.id]
        m = MeasureFunction(curve)
        revenue = price.anchor * curve.min_power * sol.horizon
        if curve.max_power > curve.min_power:
            try:
                revenue += lebesgue_integrate(
                    m, curve.min_power, curve.max_power, price.price_times_duration, EXACT_CONFIG
                )
            except NumericError as exc:
                where = f"the duration settlement of {p.id}"
                raise NumericError.out_of_range(where, exc.abscissa) from exc
        rows.append(_plant_row("duration", p.id, costs.per_plant[p.id], revenue, curve.energy))
    return _assemble("duration", rows)


def value_decomposition(
    sol: DispatchSolution,
    price: LoadCurve | DurationPrice,
    mechanism: str,
    *,
    time_edges: Sequence[float] | None = None,
    band_edges: Sequence[float] | None = None,
) -> tuple[ValueSegment, ...]:
    """Partition each plant's energy into commodity segments and value them.

    ``price`` is ``spot_price(sol)`` under "spot", a ``DurationPrice`` else.
    Under "spot" the segments are time slices (default: between consecutive
    shadow-price breakpoints, or ``time_edges``); a slice's unit value is
    the market unit price of the slice commodity -- total load settlement
    over total load energy -- so same-time segments carry one value across
    plants.  Under "duration" the segments are power bands per plant
    (default: the base block ``[0, min output]`` plus the bands between
    consecutive output breakpoint levels, or ``band_edges``); a band's unit
    value depends only on the band, not on when the energy was produced.
    Segments carrying no energy are omitted.
    """
    rows: list[ValueSegment] = []
    if mechanism == "spot":
        if not isinstance(price, LoadCurve):
            raise ValueError("spot decomposition needs the spot price curve")
        edges = list(time_edges) if time_edges is not None else list(price.times)
        for t1, t2 in zip(edges, edges[1:]):
            t1, t2 = time_slice(price.horizon, t1, t2)
            load_energy = riemann_integrate(
                sol.load.sample, t1, t2, EXACT_CONFIG, breakpoints=sol.load.times
            )
            if load_energy <= 0.0:
                continue
            unit = unit_energy_price_spot(price, sol.load, t1, t2)
            for pid, curve in sol.outputs.items():
                energy = riemann_integrate(
                    curve.sample, t1, t2, EXACT_CONFIG, breakpoints=curve.times
                )
                if energy <= 0.0:
                    continue
                rows.append(ValueSegment("spot", pid, t1, t2, energy, unit))
    elif mechanism == "duration":
        if not isinstance(price, DurationPrice):
            raise ValueError("duration decomposition needs a DurationPrice")
        for pid, curve in sol.outputs.items():
            m = MeasureFunction(curve)
            if band_edges is not None:
                edges = sorted(set(float(y) for y in band_edges))
            else:
                edges = sorted({0.0, *curve.levels})
            for y1, y2 in zip(edges, edges[1:]):
                y1, y2 = level_band(y1, y2)
                energy = lebesgue_integrate(m, y1, y2, lambda d: d, EXACT_CONFIG)
                if energy <= 0.0:
                    continue
                unit = unit_energy_price_duration(price, m, y1, y2)
                rows.append(ValueSegment("duration", pid, y1, y2, energy, unit))
    else:
        raise ValueError(f"unknown mechanism {mechanism!r}")
    return tuple(rows)
