"""Settlement and energy valuation: every integral of a price against energy.

Settlement reads the fleet and the spot price (the shadow price) from the
dispatch solution; duration settlement and band values build the duration
price from that shadow price, so a solution settles at its own price
only.  The solution keeps no output: dispatch makes each from the shadow
price, and samples it, whenever it is read, a bounded block of plants at a
time.  Generation cost and energy come in closed form from one pass over
the outputs, taken once per solution and shared by both mechanisms; only
revenue differs between them.  Spot revenue integrates price times output
over time, the outputs sampled by dispatch again.  Duration revenue
integrates ``pi(m(y)) * m(y)`` over the plant's output range and adds the
base block ``[0, min output]``, settled at the anchor ``pi(T)``.  Revenues
run on the quadrature engines at ``EXACT_CONFIG``, one Simpson pair per
kink piece; spot revenue takes one row-valued call per block of plants
(see :func:`_output_integrals`).  A unit energy price is ``int lam P dt /
int P dt`` over a time slice or ``int pi(m) m dy / int m dy`` over a power band,
and ``value_by_slice`` / ``value_by_band`` value every segment from those
integrals in closed form, with no engine call, into one table of columns:
cut at every knot (bands no higher than the curve's top, above which no
energy lies), each integrand is a polynomial of degree <= 2 on a piece, so
one Simpson pair per piece is exact.  Slice values read the outputs in
blocks of plants sampled by dispatch, one sum over each block; band values
read one output's level sets at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .curves import LoadCurve, MeasureFunction, _interpolate
from .dispatch import DispatchSolution, _costs, checked_fsum
from .errors import DomainError, NumericError, UndefinedPriceError
from .pricing import DurationPrice, duration_price
from .quadrature import EXACT_CONFIG, lebesgue_integrate, riemann_integrate
from .tolerances import DOMAIN_TOL, SAME_HORIZON_TOL

__all__ = [
    "PlantSettlement",
    "SettlementReport",
    "ValueTable",
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


@dataclass(frozen=True, eq=False)
class ValueTable:
    """Unit energy values as read-only columns, a row per plant and segment
    with energy; ``plant`` is a numpy string array: ``t.energy[t.plant == "p1"]``."""

    mechanism: str
    plant: np.ndarray
    lo: np.ndarray  # slice start (hours) under spot, band bottom (MW) under duration
    hi: np.ndarray
    energy: np.ndarray
    unit_value: np.ndarray

    def __post_init__(self) -> None:
        for column in (self.plant, self.lo, self.hi, self.energy, self.unit_value):
            column.setflags(write=False)


def _assemble(mechanism: str, rows: list[PlantSettlement], total_cost: float) -> SettlementReport:
    total_revenue = checked_fsum((r.revenue for r in rows), f"the {mechanism} total revenue")
    total_profit = checked_fsum((r.profit for r in rows), f"the {mechanism} total profit")
    market_rate = total_profit / total_cost if total_cost > 0.0 else None
    # Each plant's cost, then each plant's profit rate, then the market's.
    numbers = [(r.plant, r.generation_cost) for r in rows] + [(r.plant, r.profit_rate) for r in rows]
    for name, x in [*numbers, ("total", market_rate)]:
        if x is not None and not math.isfinite(x):
            raise NumericError.out_of_range(f"the {mechanism} settlement of {name}")
    return SettlementReport(
        mechanism=mechanism,
        plants=tuple(rows),
        total_cost=total_cost,
        total_revenue=total_revenue,
        total_profit=total_profit,
        market_profit_rate=market_rate,
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
    row-valued engine call per range of plants whose integrand holds at
    most ``_BLOCK_ENTRIES`` samples (or one plant), each row bit for bit
    its plant's own call.  The integrand is the range's outputs sampled at
    the engine's points (``_Outputs.rows``) times lam there; every row
    shares lam's times, so lam's domain check covers them all, and the
    engine checks the whole array once.  A non-finite integrand raises
    :class:`NumericError` naming its plant, after the revenues of the
    plants before it."""
    lam = sol.lambda_curve
    # EXACT_CONFIG samples one Simpson pair, three points, per kink piece.
    points = 3 * (len(lam.times) - 1)

    def integrals(rows: slice) -> list[float]:
        def values(ts: np.ndarray) -> np.ndarray:
            return sol.outputs.rows(rows, ts) * lam.sample(ts)

        return riemann_integrate(values, 0.0, sol.horizon, EXACT_CONFIG, breakpoints=lam.times).tolist()

    for rows in sol.outputs.ranges(points):
        try:
            yield from integrals(rows)
        except NumericError as exc:
            # The plants before the bad row come first, as one call each would.
            yield from integrals(slice(rows.start, rows.start + exc.row)) if exc.row else ()
            where = f"the spot settlement of {sol.plants[rows][exc.row].id}"
            raise NumericError.out_of_range(where, exc.abscissa) from exc


@np.errstate(over="ignore", invalid="ignore")  # a value past the float range is refused
def settle_spot(sol: DispatchSolution) -> SettlementReport:
    """Settle each plant at the spot price: revenue = int lam(t) P_j(t) dt.

    ``lam`` is the dispatch's shadow price; every output shares its knot
    times, so the revenues of a block of plants come from one engine call
    (see :func:`_output_integrals`).  Cost and energy come from the
    solution's one pass over its outputs.  The market purchasing cost
    (total revenue) equals the integral of lam times the system load, since
    outputs balance the load pointwise.  A revenue past the float range
    raises :class:`NumericError` naming the plant, the first in plant
    order, a market total past it one naming the total, then a generation
    cost past it one naming the first such plant, then a profit rate (a
    tiny cost) past it one naming the first such plant, and last a market
    profit rate past it one naming ``total``.
    """
    costs = _costs(sol)
    energies = sol._segment_sums[1]
    rows = [
        _plant_row("spot", p.id, costs.per_plant[p.id], revenue, energy)
        for p, revenue, energy in zip(sol.plants, _output_integrals(sol), energies)
    ]
    return _assemble("spot", rows, costs.total)


@np.errstate(over="ignore", invalid="ignore")  # a value past the float range is refused
def settle_duration(sol: DispatchSolution) -> SettlementReport:
    """Settle each plant of ``sol`` at its market duration price.

    revenue = pi(T) * min_output * T + int pi(m_j(y)) m_j(y) dy over the
    plant's output range; the first term is the base block running the
    whole cycle, priced at the anchor.  Generation cost and energy are the
    same closed forms as under spot settlement, taken once per solution.
    A base block, level-band integrand or revenue past the float range
    raises :class:`NumericError` naming the plant, a market total past it
    one naming the total, then a generation cost past it one naming the
    first such plant, then a profit rate past it one naming the first such
    plant, and last a market profit rate past it one naming ``total``.
    A clamped dispatch has no duration price and raises
    :class:`UnsupportedOperationError`.
    """
    price = duration_price(sol)
    costs = _costs(sol)
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
    return _assemble("duration", rows, costs.total)


def _edges(edges, horizon: float | None = None) -> np.ndarray:
    """``edges`` as a float array once every consecutive pair passes one
    check: ``0 <= t1 < t2 <= horizon`` for slices (``t2`` may pass it by
    ``DOMAIN_TOL`` relative), ``0 <= y1 < y2 < inf`` for bands (``horizon``
    None).  The first pair that fails raises :class:`DomainError`."""
    e = np.asarray(edges, dtype=float)
    top = np.finfo(float).max if horizon is None else horizon + DOMAIN_TOL * max(horizon, 1.0)
    bad = np.flatnonzero(~((0.0 <= e[:-1]) & (e[:-1] < e[1:]) & (e[1:] <= top)))
    if bad.size:
        e1, e2 = e[bad[0] : bad[0] + 2].tolist()
        need = "0 <= y1 < y2 < inf" if horizon is None else f"0 <= t1 < t2 <= {horizon!r}"
        raise DomainError(f"need {need}, got [{e1!r}, {e2!r}]")
    return e


def _simpson_pairs(edges: np.ndarray, kinks: np.ndarray, top: float = math.inf):
    """Cut ``[edges[0], min(edges[-1], top)]`` at every edge and every kink
    inside it (``top``, where it cuts, must be a kink).  Returns the knots,
    the middles and ``sums(at_knots, mid, right=None)``: each interval's
    integral by one Simpson pair per piece (``right`` defaults to the next
    knot's value), of one row of values or of each row of a (rows x points)
    block.  One ``np.bincount`` over the ids ``row * intervals + interval``
    adds terms and then pieces in order, so each row of a block keeps the
    bits of its own call.  Fewer than two edges cut no interval: no knots,
    and empty float sums."""
    first, last = (edges[0], min(edges[-1], top)) if len(edges) > 1 else (math.inf, -math.inf)
    knots = np.unique(np.concatenate([edges, kinks]))
    knots = knots[(knots >= first) & (knots <= last)]
    half, bins = (knots[1:] - knots[:-1]) / 2.0, edges.searchsorted(knots[:-1], side="right") - 1
    n = max(len(edges) - 1, 0)

    def sums(at_knots: np.ndarray, mid: np.ndarray, right: np.ndarray | None = None) -> np.ndarray:
        terms = at_knots[..., :-1] + 4.0 * mid + (at_knots[..., 1:] if right is None else right)
        rows = math.prod(terms.shape[:-1])
        ids = bins + n * np.arange(rows)[:, None]
        # With no piece, bincount gives integer zeros whatever the weights.
        out = np.bincount(ids.ravel(), weights=(half / 3.0 * terms).ravel(), minlength=rows * n)
        return out.astype(float, copy=False).reshape(*terms.shape[:-1], n)

    return knots, knots[:-1] + half, sums


def _slice_sums(lam: LoadCurve, edges: np.ndarray, curve: LoadCurve):
    """The slices of ``edges`` cut at every knot of lam and ``curve`` (the
    knots, middles and ``sums`` of :func:`_simpson_pairs`), and ``curve``'s
    ``int P dt`` and ``int lam P dt`` per slice."""
    cut = knots, mids, sums = _simpson_pairs(edges, np.concatenate([lam.times, curve.times]))
    lam_k, lam_m = _interpolate(knots, lam.times, lam.powers), _interpolate(mids, lam.times, lam.powers)
    p_k, p_m = _interpolate(knots, curve.times, curve.powers), _interpolate(mids, curve.times, curve.powers)
    return cut, sums(p_k, p_m), sums(lam_k * p_k, lam_m * p_m)


def _band_sums(price: DurationPrice, m: MeasureFunction, edges: np.ndarray):
    """``(int m dy, int pi(m) m dy)`` per band of ``edges``, up to ``m``'s top."""
    knots, mids, sums = _simpson_pairs(edges, m.curve.powers, top=m.y_hi)
    ms = m.sample(knots), m.sample(mids), m.limit_from_below(knots[1:])
    return sums(*ms), sums(*map(price.price_times_duration, ms))


def unit_energy_price_spot(price: LoadCurve, plant_curve: LoadCurve, t1: float, t2: float) -> float:
    """Value per MWh of the time-slice commodity ``[t1, t2]`` of a trajectory
    at the spot price ``price``: ``int lam * P dt / int P dt``."""
    t1, t2 = edges = _edges([t1, t2], price.horizon)
    if not math.isclose(plant_curve.horizon, price.horizon, rel_tol=SAME_HORIZON_TOL):
        raise ValueError("price and trajectory horizons differ")
    _, energy, value = _slice_sums(price, edges, plant_curve)
    energy, value = energy.item(), value.item()
    if energy <= 0.0:
        raise UndefinedPriceError(f"no energy on [{t1:.6g}, {t2:.6g}] h: unit price undefined")
    return value / energy


def unit_energy_price_duration(price: DurationPrice, m: MeasureFunction, y1: float, y2: float) -> float:
    """Value per MWh of the power-band commodity ``[y1, y2]`` of a trajectory.

    ``int pi(m(y)) m(y) dy / int m(y) dy``.  Bands below the trajectory
    minimum have ``m == T`` throughout and price at the anchor ``lam(0)``;
    above the trajectory's peak a band holds no energy and adds no value.
    """
    y1, y2 = edges = _edges([y1, y2])
    if not math.isclose(m.horizon, price.horizon, rel_tol=SAME_HORIZON_TOL):
        raise ValueError("price and measure-function horizons differ")
    mass, value = (x.item() for x in _band_sums(price, m, edges))
    if mass <= 0.0:
        raise UndefinedPriceError(f"zero measure mass on [{y1:.6g}, {y2:.6g}] MW: unit price undefined")
    return value / mass


@np.errstate(over="ignore", invalid="ignore")  # the values past the float range are refused below
def value_by_slice(sol: DispatchSolution, time_edges: Sequence[float] | None = None) -> ValueTable:
    """Each plant's energy by time slice, valued at the spot price.

    The slices run between consecutive ``time_edges`` (default: the shadow
    price's breakpoints).  A slice's unit value is the market unit price of
    the slice commodity, total load settlement over total load energy, so
    the rows of one slice carry one value across plants.  Rows run by
    slice, then plant; slices without load and plants without energy in a
    slice are omitted.  The first energy or unit value past the float range
    in that order (a slice's unit value last) raises :class:`NumericError`.
    """
    lam = sol.lambda_curve
    edges = _edges(lam.times if time_edges is None else time_edges, lam.horizon)
    ids, outputs = np.array([p.id for p in sol.plants]), sol.outputs
    (knots, mids, sums), load_energy, load_value = _slice_sums(lam, edges, sol.load)
    # Every output shares lam's knots; dispatch samples them a block of plants at a time.
    energy = [sums(outputs.rows(r, knots), outputs.rows(r, mids)) for r in outputs.ranges(len(knots))]
    held = ~(load_energy <= 0.0)  # slices with load; a NaN load energy is refused below
    lo, hi, unit = edges[:-1][held], edges[1:][held], load_value[held] / load_energy[held]
    energies = np.concatenate(energy)[:, held].T  # (slices x plants)
    bad = np.flatnonzero(~np.isfinite(np.column_stack([energies, unit])))
    if bad.size:
        s, j = divmod(int(bad[0]), len(ids) + 1)
        on = f"on [{lo[s].item()!r}, {hi[s].item()!r}] h"
        what = f"the energy {on} of {sol.plants[j].id}" if j < len(ids) else f"the unit value {on}"
        raise NumericError.out_of_range(what, lo[s].item())
    s, j = np.nonzero(energies > 0.0)
    return ValueTable("spot", ids[j], lo[s], hi[s], energies[s, j], unit[s])


@np.errstate(divide="ignore", over="ignore", invalid="ignore")  # empty bands are dropped below
def value_by_band(sol: DispatchSolution, band_edges: Sequence[float] | None = None) -> ValueTable:
    """Each plant's energy by power band, valued at its market duration price.

    The bands run between consecutive sorted ``band_edges`` (default, per
    plant: the base block ``[0, min output]`` and the bands between
    consecutive output breakpoint levels).  A band's unit value depends
    only on the band, not on when its energy was produced, and a band holds
    energy only up to the plant's peak.  Rows run by plant, then band;
    bands without energy are omitted.  The first band energy or value past
    the float range in that order raises :class:`NumericError` naming the
    plant and the band.  A clamped dispatch has no duration price and
    raises :class:`UnsupportedOperationError`.
    """
    price = duration_price(sol)
    given = None if band_edges is None else _edges(sorted(set(map(float, band_edges))))
    ids, parts = np.array([p.id for p in sol.plants]), []  # per plant: (plant, lo, hi, energy, unit)
    for j, (p, curve) in enumerate(zip(sol.plants, sol.outputs.values())):
        # Default sorted({0.0, *curve.levels}): levels are >= 0, and + 0.0 turns a -0.0 one into 0.0.
        edges = np.union1d(curve.powers, [0.0]) + 0.0 if given is None else given
        m = MeasureFunction(curve)
        energy, value = _band_sums(price, m, edges)
        bad = np.flatnonzero(~(np.isfinite(energy) & np.isfinite(value)))
        if bad.size:
            y1, y2 = edges[bad[0] : bad[0] + 2].tolist()
            raise NumericError.out_of_range(f"the duration value of {p.id} on [{y1!r}, {y2!r}] MW", y1)
        parts.append((np.full(energy.size, j), edges[:-1], edges[1:], energy, value / energy))
    j, lo, hi, energy, unit = map(np.concatenate, zip(*parts))
    held = energy > 0.0
    return ValueTable("duration", ids[j[held]], lo[held], hi[held], energy[held], unit[held])
