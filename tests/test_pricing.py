"""Spot and load-duration prices, unit energy prices, ODE residual."""

from __future__ import annotations

import math

import numpy as np
import pytest

from ctmarket import (
    DomainError,
    LoadCurve,
    MeasureFunction,
    Plant,
    QuadraticCost,
    UndefinedPriceError,
    UnsupportedOperationError,
    duration_price,
    duration_price_from_curve,
    solve_equilibrium,
    spot_price,
    unit_energy_price_duration,
    unit_energy_price_spot,
)


def closed_form_pi(t):
    """Independent check value: (0.32 + 0.48 t - 0.6 t^2) / (1 - t)."""
    t = np.asarray(t, dtype=float)
    return (0.32 + 0.48 * t - 0.6 * t * t) / (1.0 - t)


class TestSpotPrice:
    def test_equals_shadow_price_curve(self, case_solution):
        price = spot_price(case_solution)
        ts = np.linspace(0.0, 1.0, 101)
        assert np.allclose(price.sample(ts), 0.32 + 0.4 * ts, atol=1e-12)

    def test_midpoint_value(self, case_solution):
        assert spot_price(case_solution).evaluate(0.5) == pytest.approx(0.52, abs=1e-12)

    def test_flat_load_gives_constant_price(self):
        plants = [Plant("a", QuadraticCost(0.001, 0.1, 0.0))]
        load = LoadCurve([(0.0, 200.0), (1.0, 200.0)])
        sol = solve_equilibrium(plants, load)
        price = spot_price(sol)
        ts = np.linspace(0.0, 1.0, 11)
        assert np.allclose(price.sample(ts), price.evaluate(0.0), atol=1e-14)

    def test_marginal_cost_residual_zero(self, case_solution, case_plants):
        price = spot_price(case_solution)
        ts = np.linspace(0.0, 1.0, 101)
        for p in case_plants:
            marg = p.cost.marginal(case_solution.outputs[p.id].sample(ts))
            assert np.max(np.abs(marg - price.sample(ts))) <= 1e-10


class TestDurationPrice:
    def test_matches_closed_form(self, case_solution):
        dp = duration_price(case_solution)
        ts = np.linspace(0.0, 0.999, 1000)
        got = dp.time_view(ts)
        want = closed_form_pi(ts)
        assert np.all(np.abs(got - want) <= 1e-8 * np.abs(want))

    def test_value_at_half(self, case_solution):
        # (0.32 + 0.24 - 0.15) / 0.5
        assert duration_price(case_solution).time_view(0.5) == pytest.approx(0.82, rel=1e-12)

    def test_measure_view_change_of_variable(self, case_solution):
        dp = duration_price(case_solution)
        for m in (0.2, 0.5, 0.9, 1.0):
            assert dp.measure_view(m) == pytest.approx(dp.time_view(1.0 - m), rel=1e-12)

    def test_anchor_equals_initial_shadow_price(self, case_solution):
        dp = duration_price(case_solution)
        lam0 = case_solution.lambda_curve.evaluate(0.0)
        assert dp.anchor == lam0
        assert dp.time_view(0.0) == lam0
        assert dp.measure_view(dp.horizon) == pytest.approx(lam0, rel=1e-14)

    def test_bounded_product_at_vanishing_duration(self, case_solution):
        dp = duration_price(case_solution)
        assert dp.price_times_duration(0.0) == pytest.approx(0.2, rel=1e-12)
        assert dp.price_times_duration(1.0) == pytest.approx(0.32, rel=1e-12)

    def test_singularity_guard(self, case_solution):
        dp = duration_price(case_solution)
        with pytest.raises(DomainError):
            dp.time_view(1.0)  # t = T
        with pytest.raises(DomainError):
            dp.measure_view(0.0)
        with pytest.raises(DomainError):
            dp.price_times_duration(1.5)

    def test_price_decreases_with_duration(self, case_solution):
        dp = duration_price(case_solution)
        ms = np.linspace(1e-6, 1.0, 400)
        vals = dp.measure_view(ms)
        assert np.all(np.diff(vals) < 0.0)

    def test_flat_load_degenerates_to_spot(self):
        plants = [Plant("a", QuadraticCost(0.001, 0.1, 0.0)), Plant("b", QuadraticCost(0.002, 0.1, 0.0))]
        load = LoadCurve([(0.0, 300.0), (2.0, 300.0)])
        sol = solve_equilibrium(plants, load)
        dp = duration_price(sol)
        lam = sol.lambda_curve.evaluate(0.0)
        ts = np.linspace(0.0, 2.0 - 2e-6, 101)
        assert np.max(np.abs(dp.time_view(ts) - lam)) <= 1e-10

    def test_ode_residual_small(self, case_solution):
        """Substituting the computed price into the optimality ODE, written as
        d/dt[pi(t)(T-t)] = 2 lam'(t)(T-t) - lam(t), leaves residual <= 1e-4."""
        dp = duration_price(case_solution)
        h = 1e-6

        def phi(t):
            return dp.time_view(t) * (1.0 - t)

        for t in np.linspace(h, 0.999, 997):
            lhs = (phi(t + h) - phi(t - h)) / (2.0 * h)
            rhs = 2.0 * 0.4 * (1.0 - t) - (0.32 + 0.4 * t)
            assert abs(lhs - rhs) <= 1e-4

    def test_plant_independent(self, case_solution, case_plants):
        dp = duration_price(case_solution)
        ts = np.linspace(0.0, 1.0 - 1e-3, 101)
        base = dp.time_view(ts)
        for p in case_plants:
            out = case_solution.outputs[p.id]
            marginal_curve = LoadCurve(
                zip(out.times, 2.0 * p.cost.q2 * out.powers + p.cost.q1)
            )
            seeded = duration_price_from_curve(marginal_curve)
            assert np.max(np.abs(seeded.time_view(ts) - base)) <= 1e-10

    def test_refuses_decreasing_load(self):
        plants = [Plant("a", QuadraticCost(0.001, 0.1, 0.0))]
        load = LoadCurve([(0.0, 200.0), (0.5, 100.0), (1.0, 300.0)])
        sol = solve_equilibrium(plants, load)
        with pytest.raises(UnsupportedOperationError, match="non-decreasing"):
            duration_price(sol)

    def test_refuses_clamped_dispatch(self):
        plants = [
            Plant("small", QuadraticCost(0.0005, 0.1, 0.0), p_max=300.0),
            Plant("big", QuadraticCost(0.001, 0.1, 0.0)),
        ]
        load = LoadCurve([(0.0, 0.0), (1.0, 900.0)])
        sol = solve_equilibrium(plants, load, allow_clamp=True)
        with pytest.raises(UnsupportedOperationError, match="clamped"):
            duration_price(sol)

    def test_equal_exactly_when_shadow_prices_are(self, case_solution, case_plants):
        """Prices of one horizon and one lam(0) used to compare equal (and
        hash alike) whatever their shadow prices in between."""
        held = LoadCurve([(0.0, 350.0), (0.5, 350.0), (1.0, 1050.0)])
        a = duration_price(case_solution)
        b = duration_price(solve_equilibrium(case_plants, held))
        assert (a.horizon, a.anchor) == (b.horizon, b.anchor)
        assert a != b and len({a, b}) == 2
        again = duration_price(case_solution)
        assert a == again and hash(a) == hash(again)

    def test_correction_is_finite_over_a_subnormal_horizon(self):
        """lam rises by 0.2 over T = 1e-320 h, a slope past the float range;
        G(t) = int_0^t lam'(s)(T - s) ds is still tiny: rise * T / 2 at T
        and rise * 3T / 8 half-way, each within a few ulps."""
        T = 1e-320
        sol = solve_equilibrium([Plant("a", QuadraticCost(0.001, 0.1, 0.1))], LoadCurve([(0.0, 100.0), (T, 200.0)]))
        price = duration_price(sol)
        rise = float(np.diff(sol.lambda_curve.powers)[0])
        # At m = 0 the price term lam(T) * m is 0, leaving G(T).
        for got, want in (
            (price.price_times_duration(0.0), rise * T / 2.0),
            (float(price._correction(np.asarray(T / 2.0))), rise * (3.0 * T / 8.0)),
        ):
            assert math.isfinite(got) and abs(got - want) <= 4.0 * math.ulp(want)

    def test_time_view_is_finite_inside_a_steep_segment(self):
        """Half-way through lam's 1e-320 h rise, pi = lam + G / (T - t) =
        0.4 + 0.15: lam used to interpolate to inf there.  G is a subnormal
        of about 10 bits, so the price is within 1e-3 of 0.55."""
        T = 1e-320
        sol = solve_equilibrium([Plant("a", QuadraticCost(0.001, 0.1, 0.1))], LoadCurve([(0.0, 100.0), (T, 200.0)]))
        price = duration_price(sol)
        got = [price.time_view(T / 2.0), *price.time_view([0.0, T / 2.0]), price.measure_view(T / 2.0)]
        assert got[0] == got[2] == got[3] and got[1] == price.anchor
        assert math.isfinite(got[0]) and abs(got[0] - 0.55) < 1e-3


class TestUnitEnergyPriceSpot:
    def test_plant1_whole_cycle(self, case_solution):
        price = spot_price(case_solution)
        val = unit_energy_price_spot(price, case_solution.outputs["plant1"], 0.0, 1.0)
        assert val == pytest.approx((80.0 + 114.0 + 160.0 / 3.0) / 450.0, rel=1e-12)
        assert val == pytest.approx(0.5496, abs=1e-4)

    def test_constant_price_window(self):
        plants = [Plant("a", QuadraticCost(0.001, 0.1, 0.0))]
        load = LoadCurve([(0.0, 200.0), (1.0, 200.0)])
        sol = solve_equilibrium(plants, load)
        price = spot_price(sol)
        val = unit_energy_price_spot(price, sol.outputs["a"], 0.2, 0.7)
        assert val == pytest.approx(price.evaluate(0.0), rel=1e-13)

    def test_plant3_whole_cycle(self, case_solution):
        price = spot_price(case_solution)
        val = unit_energy_price_spot(price, case_solution.outputs["plant3"], 0.0, 1.0)
        # 34.533... / 60
        assert val == pytest.approx((3.2 + 18.0 + 40.0 / 3.0) / 60.0, rel=1e-12)
        assert val == pytest.approx(0.5755, abs=1e-4)

    def test_zero_energy_window_undefined(self, case_solution):
        price = spot_price(case_solution)
        idle = LoadCurve([(0.0, 0.0), (1.0, 0.0)])
        with pytest.raises(UndefinedPriceError):
            unit_energy_price_spot(price, idle, 0.0, 1.0)

    def test_bad_window_rejected(self, case_solution):
        price = spot_price(case_solution)
        curve = case_solution.outputs["plant1"]
        with pytest.raises(DomainError):
            unit_energy_price_spot(price, curve, 0.6, 0.4)


class TestUnitEnergyPriceDuration:
    def test_plant1_variable_band(self, case_solution):
        dp = duration_price(case_solution)
        m = MeasureFunction(case_solution.outputs["plant1"])
        val = unit_energy_price_duration(dp, m, 250.0, 650.0)
        assert val == pytest.approx(0.72, rel=1e-10)

    def test_base_band_prices_at_anchor(self, case_solution):
        dp = duration_price(case_solution)
        m = MeasureFunction(case_solution.outputs["plant1"])
        val = unit_energy_price_duration(dp, m, 0.0, 250.0)
        assert val == pytest.approx(dp.anchor, rel=1e-12)

    def test_plant3_variable_band(self, case_solution):
        dp = duration_price(case_solution)
        m = MeasureFunction(case_solution.outputs["plant3"])
        val = unit_energy_price_duration(dp, m, 10.0, 110.0)
        assert val == pytest.approx(0.72, rel=1e-10)

    def test_band_above_the_peak_prices_as_its_part_below(self, case_solution):
        """plant3 peaks at 110 MW.  Above the peak m is 0 and no energy lies;
        the MW up to 1000 used to be booked at lim pi(m) m as m -> 0."""
        dp = duration_price(case_solution)
        m = MeasureFunction(case_solution.outputs["plant3"])
        val = unit_energy_price_duration(dp, m, 100.0, 1000.0)
        assert val == unit_energy_price_duration(dp, m, 100.0, 110.0)
        assert val == pytest.approx(4.68, rel=1e-12)

    def test_zero_mass_band_undefined(self, case_solution):
        dp = duration_price(case_solution)
        m = MeasureFunction(case_solution.outputs["plant3"])
        with pytest.raises(UndefinedPriceError):
            unit_energy_price_duration(dp, m, 200.0, 300.0)

    def test_band_that_is_not_finite_named(self, case_solution):
        dp = duration_price(case_solution)
        m = MeasureFunction(case_solution.outputs["plant1"])
        with pytest.raises(DomainError, match=r"^need 0 <= y1 < y2 < inf, got \[0\.0, inf\]$"):
            unit_energy_price_duration(dp, m, 0.0, math.inf)
