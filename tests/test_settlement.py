"""Settlement accounting under both mechanisms and the value of energy by
time slice and by power band."""

from __future__ import annotations

import inspect
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from ctmarket import (
    DomainError,
    LoadCurve,
    MeasureFunction,
    NumericError,
    Plant,
    QuadraticCost,
    UndefinedPriceError,
    UnsupportedOperationError,
    dispatch_cost,
    duration_curve,
    duration_price,
    lebesgue_integrate,
    riemann_integrate,
    settle_duration,
    settle_spot,
    solve_equilibrium,
    spot_price,
    unit_energy_price_duration,
    unit_energy_price_spot,
    validate,
    value_by_band,
    value_by_slice,
)
from ctmarket.quadrature import EXACT_CONFIG
from conftest import (
    affine_product_integral,
    interior_demand_floor,
    random_monotone_load,
    random_plants,
)

GOLDEN = Path(__file__).parent / "data" / "golden"

# Antiderivative oracles for the regression scenario, kept independent of
# the quadrature path they check.
SPOT_REVENUE_ORACLE = {
    "plant1": affine_product_integral(0.32, 0.4, 250.0, 400.0, 0.0, 1.0),
    "plant2": affine_product_integral(0.32, 0.4, 90.0, 200.0, 0.0, 1.0),
    "plant3": affine_product_integral(0.32, 0.4, 10.0, 100.0, 0.0, 1.0),
}
COST_ORACLE = {
    "plant1": 0.0005 * (650.0**3 - 250.0**3) / 1200.0 + 0.07 * 450.0 + 0.2,
    "plant2": 0.001 * (290.0**3 - 90.0**3) / 600.0 + 0.14 * 190.0 + 0.4,
    "plant3": 0.002 * (110.0**3 - 10.0**3) / 300.0 + 0.28 * 60.0 + 0.8,
}
# Duration revenue: anchor * min_output + range_width * int_0^1 H(u) du with
# H(u) = 0.32 + 0.48 u - 0.6 u^2, so the integral is 0.36.
H_MEAN = 0.32 + 0.48 / 2.0 - 0.6 / 3.0
DURATION_REVENUE_ORACLE = {
    "plant1": 0.32 * 250.0 + 400.0 * H_MEAN,
    "plant2": 0.32 * 90.0 + 200.0 * H_MEAN,
    "plant3": 0.32 * 10.0 + 100.0 * H_MEAN,
}


@pytest.fixture(scope="module")
def spot_report(case_solution):
    return settle_spot(case_solution)


@pytest.fixture(scope="module")
def duration_report(case_solution):
    return settle_duration(case_solution)


class TestSpotSettlement:
    def test_revenues_match_oracle(self, spot_report):
        for row in spot_report.plants:
            assert row.revenue == pytest.approx(SPOT_REVENUE_ORACLE[row.plant], rel=1e-10)

    def test_printed_regression_values(self, spot_report):
        revs = [r.revenue for r in spot_report.plants]
        assert revs == pytest.approx([247.32, 105.52, 34.48], abs=0.1)
        profits = [r.profit for r in spot_report.plants]
        assert profits == pytest.approx([107.69, 39.06, 8.04], abs=0.1)

    def test_profit_identity(self, spot_report):
        for row in spot_report.plants:
            assert row.profit == row.revenue - row.generation_cost

    def test_market_purchasing_cost(self, spot_report, case_solution):
        assert spot_report.total_revenue == pytest.approx(387.33, abs=0.1)
        load_value = riemann_integrate(
            lambda ts: case_solution.lambda_curve.sample(ts) * case_solution.load.sample(ts),
            0.0,
            1.0,
            breakpoints=case_solution.load.times,
        )
        assert spot_report.total_revenue == pytest.approx(load_value, rel=1e-9)

    def test_totals_are_sums(self, spot_report):
        assert spot_report.total_cost == pytest.approx(
            math.fsum(r.generation_cost for r in spot_report.plants), rel=1e-9
        )
        assert spot_report.total_revenue == pytest.approx(
            math.fsum(r.revenue for r in spot_report.plants), rel=1e-9
        )

    def test_revenue_past_the_float_range_names_the_plant(self):
        """price * output * 1e300 h overflows on a flat 1e6 MW load; spot
        settlement used to return revenues of inf unchecked."""
        plants = [
            Plant("plant1", QuadraticCost(0.0005, 0.07, 0.2)),
            Plant("plant2", QuadraticCost(0.001, 0.14, 0.4)),
        ]
        # The float-range diagnostic comes with no numpy warning before it.
        sol = solve_equilibrium(plants, LoadCurve([(0.0, 1e6), (1e300, 1e6)]))
        with pytest.raises(NumericError, match="^the spot settlement of plant1 is not finite: "):
            settle_spot(sol)

    def test_first_plant_in_order_is_named(self):
        """plant1's integrand is finite but its revenue over 1e300 h is not;
        plant2's integrand is already infinite.  Both settle in one engine
        call, and plant1, first in plant order, is the one named."""
        plants = [
            Plant("plant1", QuadraticCost(1.0, 0.0, 0.0)),
            Plant("plant2", QuadraticCost(1e-300, 0.0, 0.0)),
        ]
        sol = solve_equilibrium(plants, LoadCurve([(0.0, 3e304), (1e300, 3e304)]))
        lam = sol.lambda_curve.powers[0].item()
        assert math.isfinite(lam * sol.outputs["plant1"].powers[0].item())
        assert lam * sol.outputs["plant2"].powers[0].item() == math.inf
        with pytest.raises(NumericError, match="^the spot settlement of plant1 is not finite: "):
            settle_spot(sol)

    @pytest.mark.parametrize(
        "settle, what",
        [
            (dispatch_cost, "generation cost"),
            (settle_spot, "spot settlement"),
            (settle_duration, "duration settlement"),
        ],
    )
    def test_a_cost_past_the_float_range_is_refused(self, settle, what):
        """A fixed cost of 1e300 over 1e10 h: plant a's cost is inf.  Both
        settlements used to report it with a profit of -inf and NaN rates."""
        plants = [Plant("a", QuadraticCost(1.0, 1.0, 1e300)), Plant("b", QuadraticCost(1.0, 1.0, 0.0))]
        sol = solve_equilibrium(plants, LoadCurve([(0.0, 10.0), (1e10, 20.0)]))
        with pytest.raises(NumericError, match=f"^the {what} of a is not finite: "):
            settle(sol)

    @pytest.mark.parametrize("settle", [dispatch_cost, settle_spot, settle_duration])
    def test_overflowing_squares_refuse_with_no_warning_first(self, settle):
        """Outputs of about 1e155 MW: their squares, price times output and
        the level-band sums pass the float range.  Under the suite's
        warnings-as-errors, a numpy warning before the refusal fails."""
        plants = [Plant("a", QuadraticCost(1.0, 0.0, 0.0)), Plant("b", QuadraticCost(1.0, 0.0, 0.0))]
        sol = solve_equilibrium(plants, LoadCurve([(0.0, 1e155), (1.0, 2e155)]))
        with pytest.raises(NumericError, match="^the [a-z ]+ of a is not finite: "):
            settle(sol)

    def test_idle_plant_loses_standby_cost(self):
        plants = [
            Plant("cheap", QuadraticCost(0.001, 0.1, 0.0)),
            Plant("dear", QuadraticCost(0.001, 5.0, 2.0)),
        ]
        load = LoadCurve([(0.0, 10.0), (1.0, 20.0)])
        sol = solve_equilibrium(plants, load, allow_clamp=True)
        report = settle_spot(sol)
        dear = next(r for r in report.plants if r.plant == "dear")
        assert dear.revenue == 0.0
        assert dear.profit == pytest.approx(-2.0, rel=1e-12)
        assert dear.energy == 0.0


class TestDurationSettlement:
    def test_revenues_match_oracle(self, duration_report):
        for row in duration_report.plants:
            assert row.revenue == pytest.approx(DURATION_REVENUE_ORACLE[row.plant], rel=1e-10)

    def test_printed_regression_values(self, duration_report):
        revs = [r.revenue for r in duration_report.plants]
        assert revs == pytest.approx([224.0, 100.84, 39.16], abs=0.1)
        profits = [r.profit for r in duration_report.plants]
        assert profits == pytest.approx([84.37, 34.38, 12.72], abs=0.1)

    def test_market_totals(self, duration_report):
        assert duration_report.total_revenue == pytest.approx(364.0, abs=0.1)
        assert duration_report.market_profit_rate == pytest.approx(0.57, abs=0.01)

    def test_cost_identical_to_spot(self, spot_report, duration_report):
        for s, d in zip(spot_report.plants, duration_report.plants):
            assert s.generation_cost == d.generation_cost

    def test_purchasing_cost_below_spot(self, spot_report, duration_report):
        assert duration_report.total_revenue < spot_report.total_revenue

    def test_profit_rate_spread_narrower_than_spot(self, spot_report, duration_report):
        def spread(report):
            rates = [r.profit_rate for r in report.plants]
            return max(rates) - min(rates)

        assert spread(duration_report) < spread(spot_report)

    def test_flat_load_matches_spot_settlement(self):
        plants = [
            Plant("a", QuadraticCost(0.001, 0.1, 0.5)),
            Plant("b", QuadraticCost(0.002, 0.2, 0.5)),
        ]
        load = LoadCurve([(0.0, 300.0), (2.0, 300.0)])
        sol = solve_equilibrium(plants, load)
        spot = settle_spot(sol)
        dur = settle_duration(sol)
        for s, d in zip(spot.plants, dur.plants):
            assert d.revenue == pytest.approx(s.revenue, rel=1e-10)
            assert d.profit == pytest.approx(s.profit, rel=1e-10)

    def test_flat_output_past_the_float_range_names_the_plant(self):
        """A flat output settles as its base block alone, anchor * 1e6 MW *
        1e300 h here, which overflows; it used to settle at inf unchecked."""
        plants = [
            Plant("plant1", QuadraticCost(0.0005, 0.07, 0.2)),
            Plant("plant2", QuadraticCost(0.001, 0.14, 0.4)),
        ]
        # As in run_scenario: the float-range diagnostic replaces numpy's warnings.
        with np.errstate(all="ignore"):
            sol = solve_equilibrium(plants, LoadCurve([(0.0, 1e6), (1e300, 1e6)]))
            with pytest.raises(NumericError, match="^the duration settlement of plant1 is not finite: "):
                settle_duration(sol)

    def test_refuses_clamped_dispatch(self):
        plants = [
            Plant("small", QuadraticCost(0.0005, 0.1, 0.0), p_max=300.0),
            Plant("big", QuadraticCost(0.001, 0.1, 0.0)),
        ]
        load = LoadCurve([(0.0, 0.0), (1.0, 900.0)])
        sol = solve_equilibrium(plants, load, allow_clamp=True)
        # settlement and band values refuse with pricing's one message
        refusal = "^duration pricing is undefined for bound-clamped dispatch; only spot"
        for refused in (duration_price, settle_duration, value_by_band):
            with pytest.raises(UnsupportedOperationError, match=refusal):
                refused(sol)

    def test_tiny_horizon_settles(self):
        """A flat load over 1e-320 h has a duration price and settles: only
        the CLI series need an m_floor, whose default underflows here."""
        plants = [Plant("a", QuadraticCost(0.001, 0.1, 0.1))]
        sol = solve_equilibrium(plants, LoadCurve([(0.0, 100.0), (1e-320, 100.0)]))
        report = settle_duration(sol)
        assert all(math.isfinite(x) for x in (report.total_cost, report.total_revenue))
        table = value_by_band(sol)
        assert table.energy.size and np.isfinite(table.energy).all() and np.isfinite(table.unit_value).all()

    def test_overflowing_band_names_plant_and_band(self):
        """lam rises from 2e292 to 2e300 over 1e10 h, so pi(m) * m passes
        the float range above the base block (which is finite at
        2e292 * 100 MW * 1e10 h).  Settlement names the plant; band values
        name the plant and the band, not just the abscissa."""
        plants = [Plant("g1", QuadraticCost(1e290, 0.1, 0.1))]
        with np.errstate(all="ignore"):
            sol = solve_equilibrium(plants, LoadCurve([(0.0, 100.0), (1e10, 1e10)]))
            with pytest.raises(NumericError, match="^the duration settlement of g1 is not finite: "):
                settle_duration(sol)
            band = r"^the duration value of g1 on \[100\.0, 10000000000\.0\] MW is not finite: "
            with pytest.raises(NumericError, match=band) as err:
                value_by_band(sol)
        assert err.value.abscissa == 100.0

    def test_steep_price_segment_settles(self):
        """lam rises by 0.2 over 1e-320 h, a slope past the float range.
        Inside that segment lam used to interpolate to inf, so duration
        settlement and band values refused a solution whose integrals are
        all below 1e-318; both are finite now, and the bands' energies
        add up to the plant's."""
        plants = [Plant("g1", QuadraticCost(0.001, 0.1, 0.1))]
        sol = solve_equilibrium(plants, LoadCurve([(0.0, 100.0), (1e-320, 200.0)]))
        report, table = settle_duration(sol), value_by_band(sol)
        row = report.plants[0]
        assert all(math.isfinite(x) and x > 0.0 for x in (row.revenue, row.generation_cost, row.energy))
        assert table.energy.size == 2 and np.isfinite(table.unit_value).all()
        assert math.isclose(float(table.energy.sum()), row.energy, rel_tol=1e-2)

    def test_steep_price_segment_settles_at_spot(self):
        """The same solution at the spot price: each output row used to
        interpolate to inf inside the steep segment, so spot settlement and
        slice values refused it; both are finite now and agree on the
        plant's energy."""
        plants = [Plant("g1", QuadraticCost(0.001, 0.1, 0.1))]
        sol = solve_equilibrium(plants, LoadCurve([(0.0, 100.0), (1e-320, 200.0)]))
        row, table = settle_spot(sol).plants[0], value_by_slice(sol)
        assert all(math.isfinite(x) and x > 0.0 for x in (row.revenue, row.generation_cost, row.energy))
        assert table.energy.size == 1 and np.isfinite(table.unit_value).all()
        assert math.isclose(float(table.energy[0]), row.energy, rel_tol=1e-2)


class TestValueDecomposition:
    def test_spot_same_slice_same_value_across_plants(self, case_solution, case_plants):
        table = value_by_slice(case_solution, [0.4, 0.6])
        assert table.plant.tolist() == [p.id for p in case_plants]
        assert len(set(table.unit_value.tolist())) == 1

    def test_spot_default_slices_cover_cycle(self, case_solution):
        table = value_by_slice(case_solution)
        assert set(zip(table.lo.tolist(), table.hi.tolist())) == {(0.0, 1.0)}
        (plant1,) = table.energy[table.plant == "plant1"]
        assert plant1 == pytest.approx(450.0, rel=1e-10)

    @staticmethod
    def _band(table, plant, lo, hi) -> int:
        """The row of ``plant``'s band ``[lo, hi]``; band edges come from
        computed output levels, so they match to 1e-6 MW."""
        rows = np.flatnonzero(
            (table.plant == plant) & (np.abs(table.lo - lo) < 1e-6) & (np.abs(table.hi - hi) < 1e-6)
        )
        assert rows.size == 1, f"no band [{lo}, {hi}] for {plant}: {table}"
        return int(rows[0])

    def test_duration_band_value_independent_of_time(self, case_solution):
        table = value_by_band(case_solution)
        peak = table.unit_value[self._band(table, "plant1", 250.0, 650.0)]
        base = table.unit_value[self._band(table, "plant1", 0.0, 250.0)]
        assert peak == pytest.approx(0.72, rel=1e-10)
        assert base == pytest.approx(0.32, rel=1e-12)
        # the base block is cheaper than the variable (peakier) band
        assert base < peak

    def test_duration_band_energies(self, case_solution):
        table = value_by_band(case_solution)
        assert table.energy[self._band(table, "plant1", 0.0, 250.0)] == pytest.approx(250.0, rel=1e-9)
        assert table.energy[self._band(table, "plant1", 250.0, 650.0)] == pytest.approx(200.0, rel=1e-9)

    def test_duration_segment_values_sum_to_revenue(self, case_solution):
        for sol in [case_solution, *_seeded_interior_solutions()]:
            table = value_by_band(sol)
            for rep_row in settle_duration(sol).plants:
                mine = table.plant == rep_row.plant
                total = math.fsum((table.energy[mine] * table.unit_value[mine]).tolist())
                assert total == pytest.approx(rep_row.revenue, rel=1e-10)

    @pytest.mark.parametrize("custom_edges", [False, True], ids=["default-edges", "custom-edges"])
    @pytest.mark.parametrize("make", ["case_study", "clamped", "seeded"])
    def test_spot_segment_values_sum_to_revenue(self, make, custom_edges, case_solution):
        """Over every slice, the plants' energies add up to the load's, and
        energy times unit value adds up to the market's spot revenue."""
        sols = {
            "case_study": lambda: [case_solution],
            "clamped": lambda: [_clamped_solution()],
            "seeded": _seeded_interior_solutions,
        }[make]()
        rng = np.random.default_rng(17)
        for sol in sols:
            edges = None
            if custom_edges:
                inner = np.sort(rng.uniform(0.0, sol.horizon, 4)).tolist()
                edges = [0.0, *inner, sol.horizon]
            table = value_by_slice(sol, edges)
            for lo, hi in sorted(set(zip(table.lo.tolist(), table.hi.tolist()))):
                load_energy = riemann_integrate(
                    sol.load.sample, lo, hi, breakpoints=sol.load.times
                )
                energy = math.fsum(table.energy[(table.lo == lo) & (table.hi == hi)].tolist())
                assert energy == pytest.approx(load_energy, rel=1e-12), (lo, hi)
            total = math.fsum((table.energy * table.unit_value).tolist())
            assert total == pytest.approx(settle_spot(sol).total_revenue, rel=1e-12)

    def test_band_above_the_peak_holds_nothing(self, case_solution):
        """plant3 peaks at 110 MW: its [100, 1000] MW band holds the energy
        of [100, 110] MW at the same unit value, and a band wholly above the
        peak is omitted.  The empty MW above the peak used to be booked at
        lim pi(m) m as m -> 0, 360.68 $/MWh instead of 4.68."""

        def plant3(edges):
            """plant3's last band: (lo, hi, energy, unit value)."""
            t = value_by_band(case_solution, edges)
            row = np.flatnonzero(t.plant == "plant3")[-1]
            return t.lo[row], t.hi[row], t.energy[row], t.unit_value[row]

        wide, narrow = plant3([0, 100, 1000]), plant3([0, 100, 110])
        assert (wide[0], wide[1], narrow[1]) == (100.0, 1000.0, 110.0)
        assert wide[2:] == narrow[2:]
        assert wide[3] == pytest.approx(4.68, rel=1e-12)
        assert "plant3" not in value_by_band(case_solution, [200, 300]).plant.tolist()

    def test_slice_energy_past_the_float_range_names_slice_and_plant(self):
        """A flat 1e10 MW load over 1e300 h: every output is finite but each
        plant's energy over the slice is not.  It used to come back as inf,
        with a NaN unit value."""
        plants = [
            Plant("plant1", QuadraticCost(0.0005, 0.07, 0.2)),
            Plant("plant2", QuadraticCost(0.001, 0.14, 0.4)),
        ]
        # As in run_scenario: the float-range diagnostic replaces numpy's warnings.
        with np.errstate(all="ignore"):
            sol = solve_equilibrium(plants, LoadCurve([(0.0, 1e10), (1e300, 1e10)]))
            msg = r"^the energy on \[0\.0, 1e\+300\] h of plant1 is not finite: "
            with pytest.raises(NumericError, match=msg) as err:
                value_by_slice(sol)
        assert err.value.abscissa == 0.0

    def test_unit_value_past_the_float_range_names_the_slice(self):
        """The price is about 2.3e299 $/MWh and the load 1e10 MW, so the
        load's value over the slice overflows while every energy is finite."""
        plants = [
            Plant("plant1", QuadraticCost(1e289, 1e299, 0.0)),
            Plant("plant2", QuadraticCost(2e289, 1e299, 0.0)),
        ]
        sol = solve_equilibrium(plants, LoadCurve([(0.0, 1e10), (1.0, 1e10)]))
        with np.errstate(all="ignore"):
            msg = r"^the unit value on \[0\.0, 1\.0\] h is not finite: "
            with pytest.raises(NumericError, match=msg) as err:
                value_by_slice(sol)
        assert err.value.abscissa == 0.0

    @pytest.mark.parametrize("edges", [[0.0, 2.0], [0.5, 0.2]])
    def test_spot_slice_outside_cycle_named(self, case_solution, edges):
        msg = rf"^need 0 <= t1 < t2 <= 1\.0, got \[{edges[0]}, {edges[1]}\]$"
        with pytest.raises(DomainError, match=msg):
            value_by_slice(case_solution, edges)

    @pytest.mark.parametrize(
        "edges, band",
        [([0.0, math.inf], r"\[0\.0, inf\]"), ([0.0, math.nan, 100.0], r"\[.*nan.*\]")],
    )
    def test_duration_band_that_is_not_finite_named(self, case_solution, edges, band):
        with pytest.raises(DomainError, match=rf"^need 0 <= y1 < y2 < inf, got {band}$"):
            value_by_band(case_solution, edges)


def test_unit_prices_refuse_a_curve_on_another_horizon(case_solution):
    """The slice or band is checked first; then the two horizons must agree."""
    curve = case_solution.outputs["plant1"]
    longer = LoadCurve(times=2.0 * curve.times, powers=curve.powers)
    with pytest.raises(ValueError, match="^price and trajectory horizons differ$"):
        unit_energy_price_spot(case_solution.lambda_curve, longer, 0.0, 0.5)
    with pytest.raises(ValueError, match="^price and measure-function horizons differ$"):
        unit_energy_price_duration(duration_price(case_solution), MeasureFunction(longer), 0.0, 100.0)
    with pytest.raises(DomainError, match=r"^need 0 <= t1 < t2 <= 1\.0, got \[0\.5, 0\.5\]$"):
        unit_energy_price_spot(case_solution.lambda_curve, longer, 0.5, 0.5)


def test_level_domain_cost_identity(case_solution, case_plants):
    """Generation cost settled in the time domain equals its level-set
    reading: int m_j(y) C_j'(y) dy over the output range plus the standing
    block C_j(min output) * T."""
    from ctmarket import MeasureFunction, dispatch_cost

    costs = dispatch_cost(case_solution)
    for p in case_plants:
        curve = case_solution.outputs[p.id]
        m = MeasureFunction(curve)
        level_form = riemann_integrate(
            lambda ys: m.sample(ys) * p.cost.marginal(ys),
            curve.min_power,
            curve.max_power,
            breakpoints=curve.levels,
        ) + p.cost.cost(curve.min_power) * case_solution.horizon
        assert level_form == pytest.approx(costs.per_plant[p.id], rel=1e-10)


def test_settlement_stable_across_panel_counts(case_solution, case_plants):
    """Panel edges align with every kink, so the integrals are exact: both
    settlements equal the quadrature oracle at any panel count."""
    from ctmarket import MeasureFunction, QuadratureConfig, lebesgue_integrate

    rng = np.random.default_rng(11)
    plants = random_plants(rng, 4)
    instances = [
        (case_plants, case_solution),
        (plants, solve_equilibrium(plants, random_monotone_load(rng, plants))),
    ]
    for plants, sol in instances:
        spot, dprice = spot_price(sol), duration_price(sol)
        spot_report = settle_spot(sol)
        duration_report = settle_duration(sol)
        for n in (100, 10_000, 100_000):
            cfg = QuadratureConfig(n_panels=n)
            for p, s, d in zip(plants, spot_report.plants, duration_report.plants):
                curve = sol.outputs[p.id]
                cost = riemann_integrate(
                    lambda ts: p.cost.cost(curve.sample(ts)), 0.0, sol.horizon, cfg,
                    breakpoints=curve.times,
                )
                spot_revenue = riemann_integrate(
                    lambda ts: spot.sample(ts) * curve.sample(ts), 0.0, sol.horizon, cfg,
                    breakpoints=curve.times,
                )
                duration_revenue = dprice.anchor * curve.min_power * sol.horizon
                if curve.max_power > curve.min_power:
                    duration_revenue += lebesgue_integrate(
                        MeasureFunction(curve), curve.min_power, curve.max_power,
                        dprice.price_times_duration, cfg,
                    )
                assert s.generation_cost == pytest.approx(cost, rel=1e-12)
                assert d.generation_cost == pytest.approx(cost, rel=1e-12)
                assert s.revenue == pytest.approx(spot_revenue, rel=1e-12)
                assert d.revenue == pytest.approx(duration_revenue, rel=1e-12)


def _exact_at(curve: LoadCurve, knots: list[Fraction]) -> list[Fraction]:
    """The curve's values at sorted ``knots``, interpolated in rational arithmetic."""
    times = [Fraction(x) for x in curve.times.tolist()]
    powers = [Fraction(x) for x in curve.powers.tolist()]
    out, k = [], 0
    for t in knots:
        while k < len(times) - 2 and times[k + 1] <= t:
            k += 1
        slope = (powers[k + 1] - powers[k]) / (times[k + 1] - times[k])
        out.append(powers[k] + (t - times[k]) * slope)
    return out


def _exact_spot(sol, plant: Plant) -> tuple[Fraction, Fraction, Fraction]:
    """Exact (revenue, cost, energy) of one plant under spot settlement.

    Price ``a`` and output ``b`` are linear between the union of their
    knots, so each segment integrates in closed form from its end values.
    """
    lam, out = sol.lambda_curve, sol.outputs[plant.id]
    knots = sorted({Fraction(t) for t in (*lam.times.tolist(), *out.times.tolist())})
    a, b = _exact_at(lam, knots), _exact_at(out, knots)
    q2, q1, q0 = (Fraction(plant.cost.q2), Fraction(plant.cost.q1), Fraction(plant.cost.q0))
    revenue = cost = energy = Fraction(0)
    for k in range(len(knots) - 1):
        dt, a0, a1, b0, b1 = knots[k + 1] - knots[k], a[k], a[k + 1], b[k], b[k + 1]
        revenue += dt * (2 * a0 * b0 + a0 * b1 + a1 * b0 + 2 * a1 * b1) / 6
        cost += q2 * dt * (b0 * b0 + b0 * b1 + b1 * b1) / 3 + q1 * dt * (b0 + b1) / 2 + q0 * dt
        energy += dt * (b0 + b1) / 2
    return revenue, cost, energy


def _wide_instance():
    """8 interior plants on a seeded, non-monotone 120-breakpoint load."""
    rng = np.random.default_rng(8120)
    plants = random_plants(rng, 8)
    times = np.linspace(0.0, 24.0, 120)
    powers = interior_demand_floor(plants) + rng.uniform(0.0, 500.0, size=len(times))
    return plants, LoadCurve(times=times, powers=powers), False


def _clamped_instance():
    case = validate(json.loads((GOLDEN / "clamped" / "scenario.json").read_text()))
    return case.plant_objects(), case.load_curve(), True


def _clamped_solution():
    plants, load, _ = _clamped_instance()
    return solve_equilibrium(plants, load, allow_clamp=True)


def _seeded_interior_solutions(n: int = 8) -> list:
    """Interior dispatches of seeded fleets on monotone loads."""
    sols = []
    for k in range(n):
        rng = np.random.default_rng([2026, k])
        plants = random_plants(rng)
        sols.append(solve_equilibrium(plants, random_monotone_load(rng, plants)))
    return sols


@pytest.mark.parametrize("make", ["case_study", "clamped", "wide"])
def test_spot_settlement_matches_exact_rational_integrals(make, case_plants, case_load):
    """Settlement and cost against closed-form segment integrals computed in
    ``Fraction`` arithmetic: an oracle that runs no quadrature."""
    plants, load, clamp = {
        "case_study": lambda: (case_plants, case_load, False),
        "clamped": _clamped_instance,
        "wide": _wide_instance,
    }[make]()
    sol = solve_equilibrium(plants, load, allow_clamp=clamp)
    assert sol.clamped == clamp
    report = settle_spot(sol)
    costs = dispatch_cost(sol)

    def close(x: float, exact: Fraction) -> bool:
        return abs(Fraction(x) - exact) <= Fraction(1e-14) * abs(exact)

    total_revenue = total_cost = Fraction(0)
    for p, row in zip(plants, report.plants):
        revenue, cost, energy = _exact_spot(sol, p)
        total_revenue += revenue
        total_cost += cost
        assert close(row.revenue, revenue), (p.id, row.revenue, float(revenue))
        assert close(row.generation_cost, cost), (p.id, row.generation_cost, float(cost))
        assert close(costs.per_plant[p.id], cost), (p.id, costs.per_plant[p.id], float(cost))
        assert close(row.energy, energy), (p.id, row.energy, float(energy))
    assert close(report.total_revenue, total_revenue)
    assert close(report.total_cost, total_cost)
    assert close(costs.total, total_cost)


def test_settlement_samples_one_simpson_pair_per_kink_piece(
    monkeypatch, case_solution, case_plants
):
    """Only the revenue integrals run on the quadrature engines: one Riemann
    call per row block of plants under spot (the case study's three plants
    are one block), one Lebesgue call per plant under duration, and none
    for cost or energy.  Each revenue integrand is piecewise <= cubic on
    the kinks it passes, so each kink piece gets exactly 3 abscissae; a
    silent fall back to a fine panel count, or to one call per plant,
    fails here.
    Abscissae are counted on the integrand, as the benchmark tracer counts
    them; every engine call is counted on the shared ``_composite``."""
    import ctmarket.quadrature
    import ctmarket.settlement

    def pieces(lo: float, hi: float, kinks) -> int:
        return len({float(k) for k in kinks if lo < k < hi}) + 1

    calls: dict[str, list[tuple[int, int]]] = {}  # name -> [(points, pieces)]

    def counting(module, name: str, integrand: str, kinks_of) -> None:
        original = getattr(module, name)
        signature = inspect.signature(original)
        key = f"{module.__name__}.{name}"
        calls[key] = []

        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            f, sizes = bound.arguments[integrand], []

            def counted(xs):
                sizes.append(int(np.size(xs)))
                return f(xs)

            bound.arguments[integrand] = counted
            result = original(*bound.args, **bound.kwargs)
            calls[key].append((sum(sizes), kinks_of(bound.arguments)))
            return result

        monkeypatch.setattr(module, name, wrapper)

    def time_pieces(a) -> int:
        return pieces(a["a"], a["b"], a["breakpoints"])

    counting(ctmarket.settlement, "riemann_integrate", "f", time_pieces)
    counting(
        ctmarket.settlement, "lebesgue_integrate", "weight",
        lambda a: pieces(a["y_lo"], a["y_hi"], a["m"].levels),
    )
    engine_calls = []
    composite = ctmarket.quadrature._composite

    def counted_composite(*args):
        engine_calls.append(args[-1])
        return composite(*args)

    monkeypatch.setattr(ctmarket.quadrature, "_composite", counted_composite)

    dispatch_cost(case_solution)
    assert engine_calls == []
    settle_spot(case_solution)
    assert engine_calls == ["t"]
    settle_duration(case_solution)
    assert engine_calls == ["t"] + ["y"] * len(case_plants)
    assert len(calls["ctmarket.settlement.riemann_integrate"]) == 1
    assert len(calls["ctmarket.settlement.lebesgue_integrate"]) == len(case_plants)
    for key, seen in calls.items():
        for points, n_pieces in seen:
            assert points == 3 * n_pieces, (key, points, n_pieces)


def _monotone_instance(n_plants: int, n_breakpoints: int):
    """Interior plants on a seeded, strictly increasing load."""
    rng = np.random.default_rng(2000)
    plants = random_plants(rng, n_plants)
    times = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 24.0, n_breakpoints - 2)), [24.0]])
    powers = interior_demand_floor(plants) + np.cumsum(rng.uniform(0.0, 300.0, n_breakpoints))
    return plants, LoadCurve(times=times, powers=powers)


@pytest.mark.parametrize("size", [None, (50, 2000)], ids=["case-study", "50x2000"])
def test_duration_settlement_never_sums_segment_by_segment(monkeypatch, case_plants, case_load, size):
    """Every curve duration settlement measures is non-decreasing, so each
    level is located by searchsorted; the (segments x levels) sum would
    make settlement quadratic in breakpoints."""
    import ctmarket.curves

    plants, load = (case_plants, case_load) if size is None else _monotone_instance(*size)
    sol = solve_equilibrium(plants, load)

    def refuse(*args, **kwargs):
        raise AssertionError("a segment-order sum ran")

    monkeypatch.setattr(ctmarket.curves, "_segment_sum", refuse)
    report = settle_duration(sol)
    assert all(math.isfinite(row.revenue) and row.revenue > 0.0 for row in report.plants)


def test_spot_settlement_blocks_stay_within_the_entry_bound(monkeypatch):
    """At 200 plants x 2000 breakpoints the fleet's spot revenues take
    several row blocks; no engine call evaluates more than 2^16 integrand
    entries, and every revenue is bit for bit its plant's own scalar call."""
    import ctmarket.settlement
    from ctmarket.dispatch import _BLOCK_ENTRIES

    plants, load = _monotone_instance(200, 2000)
    sol = solve_equilibrium(plants, load)
    sizes = []
    engine = ctmarket.settlement.riemann_integrate

    def counting(f, *args, **kwargs):
        def counted(xs):
            vals = f(xs)
            sizes.append(int(np.size(vals)))
            return vals

        return engine(counted, *args, **kwargs)

    monkeypatch.setattr(ctmarket.settlement, "riemann_integrate", counting)
    report = settle_spot(sol)
    assert _BLOCK_ENTRIES == 1 << 16
    assert len(sizes) > 1 and max(sizes) <= _BLOCK_ENTRIES
    lam = sol.lambda_curve
    for p, row in zip(plants, report.plants):
        curve = sol.outputs[p.id]
        want = engine(
            lambda ts: lam.sample(ts) * curve.sample(ts),
            0.0, sol.horizon, EXACT_CONFIG, breakpoints=lam.times,
        )
        assert row.revenue == want, p.id


def test_valuation_makes_no_engine_call(monkeypatch, case_solution):
    """Slice and band values are summed in closed form on the knots: with
    both engines refusing to run, the four valuation functions still return
    on the case study, the clamped solution (slices only) and the seeded
    interior solutions."""
    import ctmarket.quadrature
    import ctmarket.settlement

    sols = [case_solution, _clamped_solution(), *_seeded_interior_solutions()]

    def refuse(*args, **kwargs):
        raise AssertionError("a quadrature engine ran")

    monkeypatch.setattr(ctmarket.quadrature, "_composite", refuse)
    monkeypatch.setattr(ctmarket.settlement, "riemann_integrate", refuse)
    monkeypatch.setattr(ctmarket.settlement, "lebesgue_integrate", refuse)
    for sol in sols:
        curve = max(sol.outputs.values(), key=lambda c: c.energy)
        assert value_by_slice(sol).energy.size
        assert unit_energy_price_spot(sol.lambda_curve, curve, 0.0, sol.horizon) > 0.0
        if not sol.clamped:
            price = duration_price(sol)
            assert value_by_band(sol).energy.size
            band = (0.0, curve.max_power)
            assert unit_energy_price_duration(price, MeasureFunction(curve), *band) > 0.0
    with pytest.raises(AssertionError, match="engine ran"):
        settle_spot(case_solution)


def _engine_slice(lam: LoadCurve, curve: LoadCurve, t1: float, t2: float):
    """``(int P dt, int lam P dt)`` of ``curve`` over ``[t1, t2]`` on the
    Riemann engine at ``EXACT_CONFIG``."""
    kinks = np.concatenate([lam.times, curve.times])
    energy = riemann_integrate(curve.sample, t1, t2, EXACT_CONFIG, breakpoints=kinks)
    value = riemann_integrate(
        lambda ts: lam.sample(ts) * curve.sample(ts), t1, t2, EXACT_CONFIG, breakpoints=kinks
    )
    return energy, value


def _engine_band(price, m: MeasureFunction, y1: float, y2: float):
    """``(int m dy, int pi(m) m dy)`` over ``[y1, y2]`` clipped at the
    curve's top, on the Lebesgue engine at ``EXACT_CONFIG``."""
    y2 = min(y2, m.y_hi)
    if y1 >= y2:
        return 0.0, 0.0
    mass = lebesgue_integrate(m, y1, y2, lambda d: d, EXACT_CONFIG)
    value = lebesgue_integrate(m, y1, y2, price.price_times_duration, EXACT_CONFIG)
    return mass, value


def _random_edges(rng, hi: float, chosen) -> np.ndarray:
    """0, ``hi``, four uniform draws between them and ``chosen``, sorted."""
    return np.unique(np.concatenate([[0.0, hi], rng.uniform(0.0, hi, 4), chosen]))


def _flat_levels(curve: LoadCurve) -> np.ndarray:
    p = curve.powers
    return p[1:][p[1:] == p[:-1]]


def _slice_arrays(lam: LoadCurve, curves: list[LoadCurve], edges: np.ndarray):
    """``(int P dt, int lam P dt)`` by slice, a row per curve, each cut at
    lam's knots and its own."""
    from ctmarket.settlement import _slice_sums

    energy, value = zip(*(_slice_sums(lam, edges, c)[1:] for c in curves))
    return np.array(energy), np.array(value)


def _assert_close(got, want) -> None:
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert (np.abs(got - want) <= 1e-13 * np.abs(want)).all(), np.max(np.abs(got - want))


def test_valuation_agrees_with_the_engines():
    """The closed-form slice and band sums against the engine formulas
    they replace, at ``EXACT_CONFIG`` with bands clipped at the curve's
    top: 50 seeded interior solutions, with random slice edges (two on
    the price's knots) and random band edges (two on output levels, every
    flat level, and some above the peak).  Then unit band prices of
    non-monotone outputs, flats included, under their load's duration
    price."""
    from ctmarket.settlement import _band_sums

    for k in range(50):
        rng = np.random.default_rng([2121, k])
        plants = random_plants(rng)
        sol = solve_equilibrium(plants, random_monotone_load(rng, plants))
        lam, price = sol.lambda_curve, duration_price(sol)
        edges = _random_edges(rng, sol.horizon, rng.choice(lam.times, 2))
        curves = [sol.load, *sol.outputs.values()]
        want = [[_engine_slice(lam, c, t1, t2) for t1, t2 in zip(edges, edges[1:])] for c in curves]
        _assert_close(np.stack(_slice_arrays(lam, curves, edges), axis=-1), want)
        for c in sol.outputs.values():
            m = MeasureFunction(c)
            edges = _random_edges(rng, 1.3 * c.max_power, [*_flat_levels(c), *rng.choice(c.powers, 2)])
            want = [_engine_band(price, m, y1, y2) for y1, y2 in zip(edges, edges[1:])]
            _assert_close(np.stack(_band_sums(price, m, edges), axis=-1), want)

    for k in range(10):
        rng = np.random.default_rng([2122, k])
        plants = random_plants(rng)
        times = np.linspace(0.0, float(rng.uniform(0.5, 24.0)), 8)
        powers = interior_demand_floor(plants) + rng.uniform(0.0, 300.0, len(times))
        powers[3] = powers[2]
        load = LoadCurve(times=times, powers=powers)
        sol = solve_equilibrium(plants, load)
        price = duration_price(solve_equilibrium(plants, duration_curve(load)))
        for c in sol.outputs.values():
            m = MeasureFunction(c)
            assert not c.is_non_decreasing and _flat_levels(c).size
            edges = _random_edges(rng, 1.3 * c.max_power, [*_flat_levels(c), *rng.choice(c.powers, 2)])
            for y1, y2 in zip(edges, edges[1:]):
                mass, value = _engine_band(price, m, y1, y2)
                if mass > 0.0:
                    _assert_close(unit_energy_price_duration(price, m, y1, y2), value / mass)
                else:
                    with pytest.raises(UndefinedPriceError):
                        unit_energy_price_duration(price, m, y1, y2)


@pytest.mark.parametrize("edges", [[], [0.5]], ids=repr)
def test_valuation_kernels_give_float_empties_under_two_edges(edges, case_solution):
    """Fewer than two edges cut no interval: both kernels return float64
    empties, one row per curve for slices.  No edge used to fail at
    ``edges[0]``, and one gave ``np.bincount``'s int64 zeros."""
    from ctmarket.settlement import _band_sums

    sol, edges = case_solution, np.array(edges, dtype=float)
    curves = [sol.load, *sol.outputs.values()]
    for sums in _slice_arrays(sol.lambda_curve, curves, edges):
        assert sums.dtype == np.float64 and sums.shape == (len(curves), 0)
    for sums in _band_sums(duration_price(sol), MeasureFunction(curves[1]), edges):
        assert sums.dtype == np.float64 and sums.shape == (0,)


def test_bands_wholly_above_the_peak_sum_to_float_zeros(case_solution):
    """No knot lies in a band above the output's peak; its sums are float
    zeros, not ``np.bincount``'s integer ones."""
    from ctmarket.settlement import _band_sums

    m = MeasureFunction(case_solution.outputs["plant1"])
    for sums in _band_sums(duration_price(case_solution), m, np.array([1e6, 2e6, 3e6])):
        assert sums.dtype == np.float64 and sums.tolist() == [0.0, 0.0]
