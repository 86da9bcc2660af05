"""A dispatch solution's outputs, made from the shadow price a block of
plants at a time, and the cost and energy sums taken on those blocks,
against the per-curve formulas.

Interior and clamped solutions alike keep only the shadow price: each
lookup in ``outputs`` makes its plant's read-only row from it, and the
consumers that read every output make them a bounded block of rows at a
time (``_Outputs.rows``) with the same bits, and drop them.
``dispatch_cost`` and the settlements' energies come from one pass over
those blocks per solution.  The reference below is the per-curve code that
pass replaced: each output's own arrays, one ``np.dot`` for its squares
and ``LoadCurve.energy`` for its energy.  The same IEEE operations run on
every cell and the same dot product on every row, so the results must be
equal bits.
"""

from __future__ import annotations

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fleets, interior_demand_floor, loads, random_monotone_load, random_plants, random_wiggly_curve
from ctmarket import (
    LoadCurve,
    Plant,
    QuadraticCost,
    dispatch_cost,
    duration_curve,
    settle_duration,
    settle_spot,
    solve_equilibrium,
    value_by_slice,
)
from ctmarket import dispatch
from ctmarket.curves import _interpolate
from ctmarket.dispatch import DispatchSolution
from ctmarket.settlement import _simpson_pairs
from test_settlement import _clamped_solution


def ref_cost_and_energy(sol: DispatchSolution) -> tuple[dict[str, float], dict[str, float]]:
    cost, energy = {}, {}
    for p in sol.plants:
        curve, c = sol.outputs[p.id], p.cost
        t, b0, b1 = curve.times, curve.powers[:-1], curve.powers[1:]
        square = float(np.dot(t[1:] - t[:-1], b0 * b0 + b0 * b1 + b1 * b1)) / 3.0
        energy[p.id] = curve.energy
        cost[p.id] = c.q2 * square + c.q1 * curve.energy + c.q0 * sol.horizon
    return cost, energy


def _bits(values) -> list[str]:
    return [float(x).hex() for x in values]


def _clamped_fleet(rng: np.random.Generator, n: int) -> tuple[list[Plant], LoadCurve]:
    """A ``clamped_spot``-shaped fleet (every marginal-cost range holds
    [20, 25], so no supply plateau) and an oscillating load that binds
    capacity bounds."""
    q1 = rng.uniform(10.0, 20.0, n)
    p_max = rng.uniform(20.0, 60.0, n)
    q2 = rng.uniform(15.0, 30.0, n) / (2.0 * p_max)
    plants = [
        Plant(f"g{j}", QuadraticCost(float(q2[j]), float(q1[j]), float(rng.uniform(0.0, 50.0))), p_max=float(p_max[j]))
        for j in range(n)
    ]
    knots = int(rng.integers(3, 40))
    times = np.cumsum(np.concatenate([[0.0], rng.uniform(0.05, 1.0, knots - 1)]))
    share = np.clip(0.55 + 0.4 * np.sin(times * rng.uniform(1.0, 5.0)), 0.05, 0.98)
    return plants, LoadCurve(times=times, powers=p_max.sum() * share)


def _solutions():
    """Seeded interior (monotone and not), duration-rearranged and clamped
    solutions, fleets of 1 to 40 plants."""
    rng = np.random.default_rng(2024)
    for k in range(40):
        plants = random_plants(rng, int(rng.integers(1, 41)))
        load = random_monotone_load(rng, plants)
        yield f"interior-{k}", solve_equilibrium(plants, load)
        wiggle = random_wiggly_curve(rng)
        floor = load.powers[0]
        wiggly = LoadCurve(times=wiggle.times, powers=wiggle.powers + floor)
        yield f"wiggly-{k}", solve_equilibrium(plants, wiggly)
        yield f"duration-{k}", solve_equilibrium(plants, duration_curve(wiggly))
        plants, load = _clamped_fleet(rng, int(rng.integers(2, 41)))
        sol = solve_equilibrium(plants, load, allow_clamp=True)
        assert sol.clamped
        yield f"clamped-{k}", sol


@pytest.mark.parametrize("block_entries", [dispatch._BLOCK_ENTRIES, 7])
def test_cost_and_energy_from_the_block_equal_the_per_curve_formulas(block_entries):
    # Small row blocks split a fleet over several blocks, as a large one is.
    with mock.patch.object(dispatch, "_BLOCK_ENTRIES", block_entries):
        for name, sol in _solutions():
            cost, energy = ref_cost_and_energy(sol)
            got = dispatch_cost(sol)
            assert _bits(got.per_plant.values()) == _bits(cost.values()), name
            assert list(got.per_plant) == list(cost), name
            monotone = not sol.clamped and sol.load.is_non_decreasing
            reports = [settle_spot(sol)] + ([settle_duration(sol)] if monotone else [])
            for report in reports:
                assert _bits(r.energy for r in report.plants) == _bits(energy.values()), name
                assert _bits(r.generation_cost for r in report.plants) == _bits(cost.values()), name


def _wide_interior(n_plants: int = 200, n_knots: int = 20_000) -> tuple[list[Plant], LoadCurve]:
    """A fleet and a monotone load that keeps it interior."""
    rng = np.random.default_rng(10)
    plants = random_plants(rng, n_plants)
    times = np.linspace(0.0, 24.0, n_knots)
    load = LoadCurve(times=times, powers=interior_demand_floor(plants) + np.cumsum(rng.uniform(0.0, 300.0, n_knots)))
    return plants, load


def test_interior_outputs_are_made_without_a_block():
    """200 plants x 20 000 knots: solving and reading every output never
    holds the 32 MB (plants x knots) block of them all."""
    plants, load = _wide_interior()
    tracemalloc.start()
    try:
        sol = solve_equilibrium(plants, load)
        for p in plants:
            assert sol.outputs[p.id].powers.shape == load.times.shape
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * len(plants) * len(load.times)


def test_a_clamped_solve_holds_no_block():
    """50 plants at their p_max on an oscillating 20 000-breakpoint load:
    the clamp events are found a few rows at a time, and the solve never
    holds the (plants x knots) block of about 8.7 MB."""
    rng = np.random.default_rng(12)
    q1, p_max = rng.uniform(10.0, 20.0, 50), rng.uniform(20.0, 60.0, 50)
    q2 = rng.uniform(15.0, 30.0, 50) / (2.0 * p_max)
    plants = [Plant(f"g{j}", QuadraticCost(q2[j], q1[j], 0.0), p_max=p_max[j]) for j in range(50)]
    times = np.linspace(0.0, 24.0, 20_000)
    load = LoadCurve(times=times, powers=p_max.sum() * (0.55 + 0.4 * np.sin(5.0 * times)))
    tracemalloc.start()
    try:
        sol = solve_equilibrium(plants, load, allow_clamp=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.clamped and len(sol.times) > len(times)
    assert peak < 8 * len(plants) * len(sol.times)


def test_outputs_hold_the_block_rows_bits_before_and_after_it_is_built():
    """Each lookup has the bits of its row in the blocks that the cost sums
    and spot settlement read, before and after they have read them; small
    blocks split a fleet over several."""
    for block_entries in (dispatch._BLOCK_ENTRIES, 7):
        for name, sol in _solutions():
            before = [sol.outputs[p.id].powers for p in sol.plants]
            with mock.patch.object(dispatch, "_BLOCK_ENTRIES", block_entries):
                rows = [row for r in sol.outputs.ranges() for row in sol.outputs.rows(r)]
                settle_spot(sol)
            after = [sol.outputs[p.id].powers for p in sol.plants]
            assert _bits(np.concatenate(before)) == _bits(np.concatenate(rows)) == _bits(np.concatenate(after)), name


def _steep_solution():
    """Three plants on a load that doubles in 1e-320 h.  The first and last
    outputs rise too steeply for ``np.interp`` inside that segment, which
    gives inf there; the middle plant's rise (about 7e-22 MW) does not."""
    plants = [
        Plant("a", QuadraticCost(0.001, 0.1, 0.1)),
        Plant("b", QuadraticCost(1e20, 0.1, 0.1)),
        Plant("c", QuadraticCost(0.002, 0.1, 0.1)),
    ]
    return solve_equilibrium(plants, LoadCurve([(0.0, 100.0), (1e-320, 200.0)]))


def _sample_times(sol, rng: np.random.Generator) -> np.ndarray:
    t = sol.times
    return np.sort(np.concatenate([t, (t[:-1] + t[1:]) / 2.0, rng.uniform(0.0, sol.horizon, 20)]))


@pytest.mark.parametrize("block_entries", [dispatch._BLOCK_ENTRIES, 7])
def test_sampled_rows_have_the_bits_of_each_rows_interpolation(block_entries):
    """``rows(r, ts)``, for every range and for each plant alone, has the
    bits of ``_interpolate`` on that plant's own row, the steep rows that
    ``np.interp`` makes infinite among them."""
    rng = np.random.default_rng(30)
    steep = _steep_solution()
    steep_ts = np.array([0.0, 2.5e-321, 5e-321, 7.5e-321, 1e-320])
    plain = [np.interp(steep_ts, steep.times, steep.outputs[p].powers) for p in "abc"]
    assert [bool(np.isfinite(row).all()) for row in plain] == [False, True, False]
    assert np.isfinite(steep.outputs.rows(slice(0, 3), steep_ts)).all()
    cases = [("steep", steep, steep_ts)] + [(name, sol, _sample_times(sol, rng)) for name, sol in _solutions()]
    with mock.patch.object(dispatch, "_BLOCK_ENTRIES", block_entries):
        for name, sol, ts in cases:
            want = [_interpolate(ts, sol.times, sol.outputs[p.id].powers) for p in sol.plants]
            blocks = [sol.outputs.rows(r, ts) for r in sol.outputs.ranges(len(ts))]
            alone = [sol.outputs.rows(slice(j, j + 1), ts)[0] for j in range(len(sol.plants))]
            assert _bits(np.concatenate(want)) == _bits(np.concatenate([np.ravel(b) for b in blocks])), name
            assert _bits(np.concatenate(want)) == _bits(np.concatenate(alone)), name


def test_outputs_are_read_only_and_share_the_solution_times():
    for name, sol in _solutions():
        assert sol.times is sol.lambda_curve.times, name
        for p in sol.plants:
            curve = sol.outputs[p.id]
            assert curve.times is sol.times, name
            with pytest.raises(ValueError):
                curve.powers[0] = 1.0


@pytest.mark.parametrize("settle", [settle_spot, dispatch_cost], ids=["settle_spot", "dispatch_cost"])
def test_settlement_holds_no_output_block(settle):
    """200 plants x 20 000 knots: the cost sums and the spot revenues read
    every output a few rows at a time and never hold the 32 MB (plants x
    knots) block of them all."""
    sol = solve_equilibrium(*_wide_interior())
    tracemalloc.start()
    try:
        settle(sol)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000


def test_slice_values_hold_no_output_block():
    """200 plants x 20 000 knots in 24 hourly slices: the slice sums read
    the outputs a few rows at a time, never all of them at once (35 MB)."""
    sol = solve_equilibrium(*_wide_interior())
    tracemalloc.start()
    try:
        table = value_by_slice(sol, np.arange(25.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.energy.size == 24 * len(sol.plants)
    assert peak < 8_000_000


def test_an_output_read_after_settlement_owns_only_its_row():
    sol = solve_equilibrium(*_wide_interior(20, 2_000))
    settle_spot(sol)
    powers = sol.outputs[sol.plants[3].id].powers
    assert powers.base is None and powers.nbytes == 8 * len(sol.times)


def _one_slice_revenues(sol: DispatchSolution) -> np.ndarray:
    """Each output's ``int lam P dt`` over the whole horizon by the slice
    kernel: one slice ``[0, T]`` cut at lam's knots, the outputs read a
    block of plants at a time at the knots and the middles, times lam there."""
    lam = sol.lambda_curve
    knots, mids, sums = _simpson_pairs(np.array([0.0, sol.horizon]), lam.times)
    at_knots, at_mids = lam.sample(knots), lam.sample(mids)
    blocks = [
        sums(sol.outputs.rows(r, knots) * at_knots, sol.outputs.rows(r, mids) * at_mids)
        for r in sol.outputs.ranges(len(knots))
    ]
    return np.concatenate(blocks)[:, 0]


def _assert_spot_revenues_are_the_slice_kernels(sol: DispatchSolution, name: str = "") -> None:
    for block_entries in (dispatch._BLOCK_ENTRIES, 7):
        with mock.patch.object(dispatch, "_BLOCK_ENTRIES", block_entries):
            revenues = [r.revenue for r in settle_spot(sol).plants]
            assert _bits(revenues) == _bits(_one_slice_revenues(sol)), (name, block_entries)


@settings(max_examples=150, deadline=None)
@given(fleets(max_plants=12), st.data())
def test_spot_revenues_are_the_one_slice_block_kernel_on_interior_draws(plants, data):
    """Spot settlement's engine call and the valuation's block kernel over
    one slice run the same Simpson pairs in the same order, so every
    revenue has the same bits, at the usual row blocks and at blocks of
    one or two plants."""
    load = data.draw(loads(floor=interior_demand_floor(plants)))
    _assert_spot_revenues_are_the_slice_kernels(solve_equilibrium(plants, load))


def test_spot_revenues_are_the_one_slice_block_kernel_on_seeded_and_clamped_solutions():
    for name, sol in [*_solutions(), ("clamped golden", _clamped_solution())]:
        _assert_spot_revenues_are_the_slice_kernels(sol, name)
