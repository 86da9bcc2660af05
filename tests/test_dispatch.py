"""Equilibrium dispatch: closed forms, bounds handling, clamped active sets."""

from __future__ import annotations

import dataclasses
import re

import numpy as np
import pytest

from ctmarket import (
    DispatchSolution,
    InfeasibleDispatchError,
    LoadCurve,
    NumericError,
    Plant,
    QuadraticCost,
    UnsupportedOperationError,
    builtin_case_study,
    dispatch_cost,
    duration_price,
    settle_duration,
    settle_spot,
    solve_equilibrium,
)
from conftest import random_monotone_load, random_plants
from ctmarket import dispatch


class TestCaseStudyDispatch:
    def test_closed_forms(self, case_solution):
        ts = np.linspace(0.0, 1.0, 101)
        assert np.allclose(case_solution.lambda_curve.sample(ts), 0.32 + 0.4 * ts, atol=1e-12)
        assert np.allclose(case_solution.outputs["plant1"].sample(ts), 250.0 + 400.0 * ts, atol=1e-10)
        assert np.allclose(case_solution.outputs["plant2"].sample(ts), 90.0 + 200.0 * ts, atol=1e-10)
        assert np.allclose(case_solution.outputs["plant3"].sample(ts), 10.0 + 100.0 * ts, atol=1e-10)

    def test_not_clamped(self, case_solution):
        assert not case_solution.clamped
        assert case_solution.clamp_events == ()

    def test_balance_and_equal_marginals(self, case_solution, case_plants):
        ts = np.linspace(0.0, 1.0, 1001)
        total = sum(case_solution.outputs[p.id].sample(ts) for p in case_plants)
        load = case_solution.load.sample(ts)
        assert np.all(np.abs(total - load) <= 1e-8 * np.maximum(1.0, load))
        lam = case_solution.lambda_curve.sample(ts)
        for p in case_plants:
            marg = p.cost.marginal(case_solution.outputs[p.id].sample(ts))
            assert np.all(np.abs(marg - lam) <= 1e-8 * lam)


class TestSmallIdentities:
    def test_single_plant_takes_whole_load(self):
        plant = Plant("only", QuadraticCost(0.001, 0.1, 1.0))
        load = LoadCurve([(0.0, 50.0), (0.5, 120.0), (1.0, 80.0)])
        sol = solve_equilibrium([plant], load)
        ts = np.linspace(0.0, 1.0, 101)
        assert np.allclose(sol.outputs["only"].sample(ts), load.sample(ts), atol=1e-10)
        assert np.allclose(
            sol.lambda_curve.sample(ts), plant.cost.marginal(load.sample(ts)), atol=1e-12
        )

    def test_two_identical_plants_split_evenly(self):
        cost = QuadraticCost(0.002, 0.2, 0.5)
        plants = [Plant("a", cost), Plant("b", cost)]
        load = LoadCurve([(0.0, 100.0), (1.0, 100.0)])
        sol = solve_equilibrium(plants, load)
        for pid in ("a", "b"):
            assert sol.outputs[pid].evaluate(0.3) == pytest.approx(50.0, abs=1e-10)

    def test_rejects_empty_plant_list(self):
        with pytest.raises(ValueError, match="at least one plant"):
            solve_equilibrium([], LoadCurve([(0.0, 1.0), (1.0, 2.0)]))

    def test_rejects_duplicate_ids(self):
        cost = QuadraticCost(0.002, 0.2, 0.5)
        with pytest.raises(ValueError, match="unique"):
            solve_equilibrium(
                [Plant("a", cost), Plant("a", cost)], LoadCurve([(0.0, 1.0), (1.0, 2.0)])
            )


def test_affine_covariance_under_load_scaling(case_plants, case_load):
    """Scaling the load keeps lam on the affine map of the scaled load."""
    denom = sum(1.0 / (2.0 * p.cost.q2) for p in case_plants)
    offset = sum(p.cost.q1 / (2.0 * p.cost.q2) for p in case_plants)
    for alpha in (1.5, 2.0, 3.7):  # upward scalings keep every plant interior
        scaled = LoadCurve([(t, alpha * p) for t, p in case_load.breakpoints])
        sol = solve_equilibrium(case_plants, scaled)
        ts = np.linspace(0.0, 1.0, 101)
        expected = (scaled.sample(ts) + offset) / denom
        got = sol.lambda_curve.sample(ts)
        assert np.all(np.abs(got - expected) <= 1e-12 * np.abs(expected))


class TestBoundRefusal:
    def test_p_max_violation_reports_plant_interval_bound(self):
        plants = [
            Plant("small", QuadraticCost(0.0005, 0.1, 0.0), p_max=300.0),
            Plant("big", QuadraticCost(0.001, 0.1, 0.0)),
        ]
        load = LoadCurve([(0.0, 0.0), (1.0, 900.0)])
        with pytest.raises(InfeasibleDispatchError) as err:
            solve_equilibrium(plants, load)
        exc = err.value
        assert exc.plant == "small"
        assert exc.kind == "p_max"
        assert exc.bound == 300.0
        # unconstrained small-plant share is 2/3 of load: crosses 300 at t = 0.5
        assert exc.interval[0] == pytest.approx(0.5, abs=1e-9)
        assert exc.interval[1] == pytest.approx(1.0, abs=1e-9)
        assert "small" in str(exc)

    def test_priced_out_plant_reports_p_min(self):
        plants = [
            Plant("cheap", QuadraticCost(0.001, 0.1, 0.0)),
            Plant("dear", QuadraticCost(0.001, 5.0, 0.0)),
        ]
        load = LoadCurve([(0.0, 10.0), (1.0, 20.0)])
        with pytest.raises(InfeasibleDispatchError) as err:
            solve_equilibrium(plants, load)
        assert err.value.plant == "dear"
        assert err.value.kind == "p_min"

    def test_unservable_demand_fails_even_with_clamp(self):
        plants = [Plant("a", QuadraticCost(0.001, 0.1, 0.0), p_max=100.0)]
        load = LoadCurve([(0.0, 50.0), (1.0, 500.0)])
        with pytest.raises(InfeasibleDispatchError, match="feasible range"):
            solve_equilibrium(plants, load, allow_clamp=True)


@pytest.mark.parametrize("start", [np.nextafter(280.0, 0.0), 280.0, np.nextafter(280.0, np.inf)])
def test_load_at_merit_order_entry_point_is_served(case_plants, start):
    """At 280 MW the shadow price reaches plant3's q1 = 0.28, where it enters
    the merit order.  One ulp below, its output rounds to about -1e-16: inside
    p_min's tolerance, so it runs at +0.0 instead of being refused."""
    load = LoadCurve([(0.0, float(start)), (1.0, 1000.0)])
    sol = solve_equilibrium(case_plants, load)
    first = sol.outputs["plant3"].powers[0]
    assert first == 0.0 and not np.signbit(first)
    assert sol.outputs["plant3"].powers[1] > 0.0


class TestClampedDispatch:
    def _plants(self):
        return [
            Plant("small", QuadraticCost(0.0005, 0.1, 0.0), p_max=300.0),
            Plant("big", QuadraticCost(0.001, 0.1, 0.0)),
        ]

    def test_switch_time_and_values(self):
        """The small plant carries 2/3 of load until it saturates at 300 MW
        (load 450, t = 0.5); beyond that the big plant takes the remainder
        and the price follows its marginal cost."""
        plants = self._plants()
        load = LoadCurve([(0.0, 0.0), (1.0, 900.0)])
        sol = solve_equilibrium(plants, load, allow_clamp=True)
        assert sol.clamped
        assert 0.5 in [t for t, _ in sol.lambda_curve.breakpoints]
        assert sol.lambda_curve.evaluate(0.5) == pytest.approx(0.4, abs=1e-12)
        assert sol.lambda_curve.evaluate(1.0) == pytest.approx(1.3, abs=1e-12)
        assert sol.outputs["small"].evaluate(0.75) == pytest.approx(300.0, abs=1e-9)
        assert sol.outputs["big"].evaluate(1.0) == pytest.approx(600.0, abs=1e-9)
        events = [e for e in sol.clamp_events if e.plant == "small" and e.kind == "p_max"]
        assert len(events) == 1
        assert events[0].start == pytest.approx(0.5, abs=1e-9)
        assert events[0].end == pytest.approx(1.0, abs=1e-9)

    def test_matches_pointwise_bisection_oracle(self):
        """Clamped trajectories agree with an independent bisection solve of
        sum_j clip((lam - q1_j)/(2 q2_j)) = demand at every probe time."""
        plants = self._plants()
        load = LoadCurve([(0.0, 0.0), (0.4, 500.0), (0.7, 380.0), (1.0, 900.0)])
        sol = solve_equilibrium(plants, load, allow_clamp=True)

        def clip_outputs(lam):
            return [
                min(max((lam - p.cost.q1) / (2 * p.cost.q2), p.p_min), p.p_max or np.inf)
                for p in plants
            ]

        for t in np.linspace(0.0, 1.0, 201):
            demand = load.evaluate(float(t))
            lo, hi = 0.0, 10.0
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if sum(clip_outputs(mid)) < demand:
                    lo = mid
                else:
                    hi = mid
            for p, want in zip(plants, clip_outputs(hi)):
                got = sol.outputs[p.id].evaluate(float(t))
                assert got == pytest.approx(want, abs=1e-6)
            total = sum(sol.outputs[p.id].evaluate(float(t)) for p in plants)
            assert total == pytest.approx(demand, abs=1e-9 * max(1.0, demand))

    def test_clamp_not_engaged_when_bounds_loose(self):
        plants = [
            Plant("small", QuadraticCost(0.0005, 0.1, 0.0), p_max=10_000.0),
            Plant("big", QuadraticCost(0.001, 0.1, 0.0)),
        ]
        load = LoadCurve([(0.0, 30.0), (1.0, 900.0)])
        sol = solve_equilibrium(plants, load, allow_clamp=True)
        assert not sol.clamped

    def test_random_bound_instances_match_bisection_oracle(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            plants = []
            for j in range(n):
                q2 = float(rng.uniform(3e-4, 3e-3))
                q1 = float(rng.uniform(0.05, 0.3))
                p_max = float(rng.uniform(150.0, 600.0)) if rng.random() < 0.7 else None
                plants.append(Plant(f"g{j}", QuadraticCost(q2, q1, 0.1), p_max=p_max))
            cap = sum(p.p_max if p.p_max else 10_000.0 for p in plants)
            times = [0.0, 0.3, 0.7, 1.0]
            powers = rng.uniform(5.0, 0.9 * cap, size=4)
            load = LoadCurve(zip(times, powers))
            try:
                sol = solve_equilibrium(plants, load, allow_clamp=True)
            except InfeasibleDispatchError:
                continue  # demand drawn outside the fleet's feasible range

            def supply(lam):
                return sum(
                    min(max((lam - p.cost.q1) / (2 * p.cost.q2), 0.0), p.p_max or np.inf)
                    for p in plants
                )

            for t in np.linspace(0.0, 1.0, 41):
                demand = load.evaluate(float(t))
                total = sum(sol.outputs[p.id].evaluate(float(t)) for p in plants)
                assert total == pytest.approx(demand, abs=1e-8 * max(1.0, demand))
                lo, hi = 0.0, 100.0
                for _ in range(200):
                    mid = 0.5 * (lo + hi)
                    if supply(mid) < demand:
                        lo = mid
                    else:
                        hi = mid
                assert supply(sol.lambda_curve.evaluate(float(t))) == pytest.approx(
                    supply(hi), abs=1e-6 * max(1.0, demand)
                )

    def test_merit_order_gap_refused(self):
        """Disjoint marginal-cost ranges make supply flat on a price band;
        the shadow price would jump there, which piecewise-linear curves
        cannot represent."""
        from ctmarket import UnsupportedOperationError

        plants = [
            Plant("low", QuadraticCost(0.001, 0.1, 0.0), p_max=100.0),  # marginal <= 0.3
            Plant("high", QuadraticCost(0.001, 1.0, 0.0)),  # marginal >= 1.0
        ]
        loads = [
            # one load segment crosses both ends of the plateau
            [(0.0, 50.0), (1.0, 150.0)],
            # a load breakpoint sits on the plateau: the knot at t = 0.5
            # would carry two prices
            [(0.0, 50.0), (0.5, 100.0), (1.0, 150.0)],
        ]
        for breakpoints in loads:
            with pytest.raises(UnsupportedOperationError, match="merit-order gap"):
                solve_equilibrium(plants, LoadCurve(breakpoints), allow_clamp=True)

    def test_priced_out_plant_clamps_to_zero(self):
        plants = [
            Plant("cheap", QuadraticCost(0.001, 0.1, 0.0)),
            Plant("dear", QuadraticCost(0.001, 5.0, 1.0)),
        ]
        load = LoadCurve([(0.0, 10.0), (1.0, 20.0)])
        sol = solve_equilibrium(plants, load, allow_clamp=True)
        assert sol.clamped
        ts = np.linspace(0.0, 1.0, 11)
        assert np.allclose(sol.outputs["dear"].sample(ts), 0.0, atol=1e-12)
        assert np.allclose(sol.outputs["cheap"].sample(ts), load.sample(ts), atol=1e-9)


def test_supply_threshold_past_the_float_range_is_refused_by_name():
    """2 q2 of plant a overflows, so its marginal cost at p_min = 0 is
    ``inf * 0``: a NaN threshold, which put the clamped solve's supply
    breakpoints in an order that changed from call to call."""
    plants = [Plant("a", QuadraticCost(1e308, 0.0, 0.0)), Plant("b", QuadraticCost(3e-309, 1.0, 0.0), p_max=5.0)]
    load = LoadCurve([(0.0, 5e307), (1.0, 1.7e308)])
    refusal = r"^the marginal cost of plant 'a' at p_min is not finite"
    for _ in range(20):
        with pytest.raises(NumericError, match=refusal):
            solve_equilibrium(plants, load, allow_clamp=True)
    with pytest.raises(NumericError, match=refusal):
        dispatch._Fleet(plants)  # and the thresholds themselves warn of nothing


@pytest.mark.parametrize(
    "plants, allow_clamp, refusal",
    [
        pytest.param(
            [Plant("a", QuadraticCost(1e308, 0.0, 0.0)), Plant("b", QuadraticCost(3e-309, 1.0, 0.0), p_max=5.0)],
            False,
            (InfeasibleDispatchError, r"^unconstrained dispatch puts plant 'b' above p_max = 5 MW on t in \[0, 1\] h;"),
            id="overflowing-sums-interior",
        ),
        pytest.param(
            [Plant("a", QuadraticCost(1e308, 0.0, 0.0)), Plant("b", QuadraticCost(3e-309, 1.0, 0.0), p_max=5.0)],
            True,
            (NumericError, r"^the marginal cost of plant 'a' at p_min is not finite: "),
            id="overflowing-sums-clamped",
        ),
        pytest.param(
            [Plant("a", QuadraticCost(1e308, 0.0, 0.0))],
            False,
            (NumericError, r"^every plant's 1/\(2 q2\) rounds to 0: plant 'a' has q2 = 1e\+308$"),
            id="zero-supply-slope",
        ),
        pytest.param(
            [Plant("a", QuadraticCost(1e308, 0.0, 0.0)), Plant("b", QuadraticCost(9e307, 1.0, 0.0), p_max=5.0)],
            True,
            (NumericError, r"^every plant's 1/\(2 q2\) rounds to 0: plant 'a' has q2 = 1e\+308$"),
            id="zero-supply-slope-clamped",
        ),
    ],
)
def test_numbers_past_the_float_range_are_refused_without_a_warning(plants, allow_clamp, refusal):
    """Coefficient sums past the float range (or a fleet whose ``1/(2 q2)``
    are all 0) used to warn from numpy on the library path, outside
    ``run_scenario``'s ``np.errstate``, before any check refused them;
    under warnings as errors the warning was the failure.  The checks'
    own refusals come instead."""
    load = LoadCurve([(0.0, 5e307), (1.0, 1.7e308)])
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        with pytest.raises(refusal[0], match=refusal[1]):
            solve_equilibrium(plants, load, allow_clamp=allow_clamp)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"id": ""}, "plant id must be a non-empty string"),
        ({"p_min": -1.0}, "p_min must be finite and >= 0, got -1.0"),
        ({"p_min": float("nan")}, "p_min must be finite and >= 0, got nan"),
        ({"p_min": 5.0, "p_max": 4.0}, "p_max must be finite and >= p_min, got 4.0"),
        ({"p_max": float("inf")}, "p_max must be finite and >= p_min, got inf"),
    ],
)
def test_plant_constructor_refusals(kwargs, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Plant(**{"id": "a", "cost": QuadraticCost(0.001, 0.1, 0.0), **kwargs})


def test_a_solution_is_not_built_from_a_mapping_of_curves(case_solution):
    """The constructor is reachable through the package exports, but only
    ``solve_equilibrium`` makes the outputs a solution holds."""
    curves = {pid: case_solution.outputs[pid] for pid in case_solution.outputs}
    with pytest.raises(TypeError, match="^a DispatchSolution is made only by solve_equilibrium$"):
        DispatchSolution(outputs=curves, load=case_solution.load)


def _interior_and_clamped():
    """The case study, and a fleet whose cheap plant sits at p_max for most of the cycle."""
    plants = [
        Plant("small", QuadraticCost(0.0005, 0.1, 0.0), p_max=300.0),
        Plant("big", QuadraticCost(0.001, 0.1, 0.0)),
    ]
    clamped = solve_equilibrium(plants, LoadCurve([(0.0, 100.0), (1.0, 900.0)]), allow_clamp=True)
    assert clamped.clamped
    case = builtin_case_study()
    return [solve_equilibrium(case.plant_objects(), case.load_curve()), clamped]


@pytest.mark.parametrize("sol", _interior_and_clamped(), ids=["interior", "clamped"])
def test_a_solution_holds_only_its_outputs_and_its_load(sol):
    """Every other attribute is read from those two, so no copy can set it
    apart from the rest."""
    assert [f.name for f in dataclasses.fields(DispatchSolution)] == ["outputs", "load"]
    for name in ("clamped", "horizon", "plants", "lambda_curve", "clamp_events"):
        with pytest.raises(TypeError):
            dataclasses.replace(sol, **{name: getattr(sol, name)})
    assert sol.plants == sol.outputs.plants and list(sol.outputs) == [p.id for p in sol.plants]
    assert sol.lambda_curve is sol.outputs.lambda_curve and sol.times is sol.lambda_curve.times
    assert sol.clamp_events == sol.outputs.events and sol.clamped == bool(sol.clamp_events)
    assert sol.horizon == sol.load.horizon


@pytest.mark.parametrize("sol", _interior_and_clamped(), ids=["interior", "clamped"])
def test_a_copy_reads_the_same_and_takes_its_own_sums(sol):
    spot = settle_spot(sol)
    copy = dataclasses.replace(sol)
    assert copy is not sol and "_segment_sums" in vars(sol) and "_segment_sums" not in vars(copy)
    for name in ("outputs", "load", "lambda_curve", "plants", "clamp_events", "times"):
        assert getattr(copy, name) is getattr(sol, name), name
    assert (copy.horizon, copy.clamped) == (sol.horizon, sol.clamped)
    assert settle_spot(copy) == spot and "_segment_sums" in vars(copy)
    assert copy._segment_sums is not sol._segment_sums
    # Solutions compare by identity: equal fields need not settle alike.
    assert copy != sol and sol == sol
    # ``clamped`` is read from the clamp events, so a clamped copy is refused
    # duration pricing as its original is.
    for call in (duration_price, settle_duration) if sol.clamped else ():
        with pytest.raises(UnsupportedOperationError, match="^duration pricing is undefined for bound-clamped"):
            call(copy)


@pytest.mark.parametrize("clamp", [False, True], ids=["interior", "clamped"])
def test_solution_carries_its_fleet_in_output_order(clamp):
    plants = [
        Plant("small", QuadraticCost(0.0005, 0.1, 0.0), p_max=300.0 if clamp else None),
        Plant("big", QuadraticCost(0.001, 0.1, 0.0)),
    ]
    sol = solve_equilibrium(plants, LoadCurve([(0.0, 0.0), (1.0, 900.0)]), allow_clamp=clamp)
    assert sol.clamped == clamp
    assert sol.plants == tuple(plants)
    assert list(sol.outputs) == [p.id for p in sol.plants]


class TestDispatchCost:
    def test_case_study_values(self, case_solution, case_plants):
        costs = dispatch_cost(case_solution)
        oracle = {
            "plant1": 0.0005 * (650.0**3 - 250.0**3) / 1200.0 + 0.07 * 450.0 + 0.2,
            "plant2": 0.001 * (290.0**3 - 90.0**3) / 600.0 + 0.14 * 190.0 + 0.4,
            "plant3": 0.002 * (110.0**3 - 10.0**3) / 300.0 + 0.28 * 60.0 + 0.8,
        }
        for pid, want in oracle.items():
            assert costs.per_plant[pid] == pytest.approx(want, rel=1e-12)
        assert costs.total == pytest.approx(sum(oracle.values()), rel=1e-12)
        assert costs.total == pytest.approx(232.53, abs=0.1)

    def test_idle_plant_costs_standby_only(self):
        plants = [
            Plant("cheap", QuadraticCost(0.001, 0.1, 0.0)),
            Plant("dear", QuadraticCost(0.001, 5.0, 1.5)),
        ]
        load = LoadCurve([(0.0, 10.0), (2.0, 20.0)])
        sol = solve_equilibrium(plants, load, allow_clamp=True)
        costs = dispatch_cost(sol)
        assert costs.per_plant["dear"] == pytest.approx(1.5 * 2.0, rel=1e-12)


def test_random_instances_balance_and_marginals():
    rng = np.random.default_rng(42)
    for _ in range(20):
        plants = random_plants(rng)
        load = random_monotone_load(rng, plants)
        sol = solve_equilibrium(plants, load)
        ts = np.linspace(0.0, load.horizon, 101)
        total = sum(sol.outputs[p.id].sample(ts) for p in plants)
        want = load.sample(ts)
        assert np.all(np.abs(total - want) <= 1e-8 * np.maximum(1.0, want))
        lam = sol.lambda_curve.sample(ts)
        margs = np.vstack([p.cost.marginal(sol.outputs[p.id].sample(ts)) for p in plants])
        assert np.all(margs.max(axis=0) - margs.min(axis=0) <= 1e-8 * lam)
