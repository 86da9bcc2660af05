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
    NumericError,
    Plant,
    QuadraticCost,
    UnsupportedOperationError,
    dispatch_cost,
    duration_price,
    riemann_integrate,
    settle_duration,
    settle_spot,
    solve_equilibrium,
    spot_price,
    validate,
    value_by_band,
    value_by_slice,
)
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
    return settle_duration(case_solution, duration_price(case_solution))


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
        # As in run_scenario: the float-range diagnostic replaces numpy's warnings.
        with np.errstate(all="ignore"):
            sol = solve_equilibrium(plants, LoadCurve([(0.0, 1e6), (1e300, 1e6)]))
            with pytest.raises(NumericError, match="^the spot settlement of plant1 is not finite: "):
                settle_spot(sol)

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
        dur = settle_duration(sol, duration_price(sol))
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
            price = duration_price(sol)
            with pytest.raises(NumericError, match="^the duration settlement of plant1 is not finite: "):
                settle_duration(sol, price)

    def test_refuses_clamped_dispatch(self):
        plants = [
            Plant("small", QuadraticCost(0.0005, 0.1, 0.0), p_max=300.0),
            Plant("big", QuadraticCost(0.001, 0.1, 0.0)),
        ]
        load = LoadCurve([(0.0, 0.0), (1.0, 900.0)])
        sol = solve_equilibrium(plants, load, allow_clamp=True)
        with pytest.raises(UnsupportedOperationError):
            duration_price(sol)


class TestValueDecomposition:
    def test_spot_same_slice_same_value_across_plants(self, case_solution, case_plants):
        rows = value_by_slice(case_solution, [0.4, 0.6])
        assert len(rows) == len(case_plants)
        values = {r.unit_value for r in rows}
        assert len(values) == 1

    def test_spot_default_slices_cover_cycle(self, case_solution):
        rows = value_by_slice(case_solution)
        assert {(r.lo, r.hi) for r in rows} == {(0.0, 1.0)}
        plant1 = next(r for r in rows if r.plant == "plant1")
        assert plant1.energy == pytest.approx(450.0, rel=1e-10)

    @staticmethod
    def _band(rows, plant, lo, hi):
        # band edges come from computed output levels, so match to 1e-6 MW
        for r in rows:
            if r.plant == plant and abs(r.lo - lo) < 1e-6 and abs(r.hi - hi) < 1e-6:
                return r
        raise AssertionError(f"no band [{lo}, {hi}] for {plant}: {rows}")

    def test_duration_band_value_independent_of_time(self, case_solution):
        rows = value_by_band(case_solution, duration_price(case_solution))
        peak = self._band(rows, "plant1", 250.0, 650.0)
        base = self._band(rows, "plant1", 0.0, 250.0)
        assert peak.unit_value == pytest.approx(0.72, rel=1e-10)
        assert base.unit_value == pytest.approx(0.32, rel=1e-12)
        # the base block is cheaper than the variable (peakier) band
        assert base.unit_value < peak.unit_value

    def test_duration_band_energies(self, case_solution):
        rows = value_by_band(case_solution, duration_price(case_solution))
        assert self._band(rows, "plant1", 0.0, 250.0).energy == pytest.approx(250.0, rel=1e-9)
        assert self._band(rows, "plant1", 250.0, 650.0).energy == pytest.approx(200.0, rel=1e-9)

    def test_duration_segment_values_sum_to_revenue(self, case_solution):
        for sol in [case_solution, *_seeded_interior_solutions()]:
            price = duration_price(sol)
            rows = value_by_band(sol, price)
            for rep_row in settle_duration(sol, price).plants:
                total = math.fsum(
                    r.energy * r.unit_value for r in rows if r.plant == rep_row.plant
                )
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
            rows = value_by_slice(sol, edges)
            for lo, hi in sorted({(r.lo, r.hi) for r in rows}):
                load_energy = riemann_integrate(
                    sol.load.sample, lo, hi, breakpoints=sol.load.times
                )
                energy = math.fsum(r.energy for r in rows if (r.lo, r.hi) == (lo, hi))
                assert energy == pytest.approx(load_energy, rel=1e-12), (lo, hi)
            total = math.fsum(r.energy * r.unit_value for r in rows)
            assert total == pytest.approx(settle_spot(sol).total_revenue, rel=1e-12)

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
        dp = duration_price(case_solution)
        with pytest.raises(DomainError, match=rf"^need 0 <= y1 < y2 < inf, got {band}$"):
            value_by_band(case_solution, dp, edges)


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
        duration_report = settle_duration(sol, dprice)
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
    call per plant under spot, one Lebesgue call per plant under duration,
    and none for cost or energy.  Each revenue integrand is piecewise <=
    cubic on the kinks it passes, so each kink piece gets exactly 3
    abscissae; a silent fall back to a fine panel count fails here.
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
    assert engine_calls == ["t"] * len(case_plants)
    settle_duration(case_solution, duration_price(case_solution))
    assert engine_calls == ["t"] * len(case_plants) + ["y"] * len(case_plants)
    for key, seen in calls.items():
        assert len(seen) == len(case_plants), key
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
    price = duration_price(sol)

    def refuse(*args, **kwargs):
        raise AssertionError("a segment-order sum ran")

    monkeypatch.setattr(ctmarket.curves, "_segment_sum", refuse)
    report = settle_duration(sol, price)
    assert all(math.isfinite(row.revenue) and row.revenue > 0.0 for row in report.plants)
