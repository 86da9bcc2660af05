"""Metamorphic properties: transformations of a scenario with a known effect.

* Rescaling time by a power of two scales every time exactly, so energy,
  cost and both revenues scale by exactly the same factor, bit for bit.
* ``duration_curve`` is idempotent, bit for bit.
* Splitting a plant (q2, q1, q0) into two plants (2 q2, q1, q0 / 2) leaves
  the shadow price unchanged; the halves' outputs and costs sum to the
  original plant's.
* Capacity bounds that never bind leave clamped dispatch equal to
  unconstrained dispatch: the same knots, the same price and outputs.
* Duration revenue is two prices: each plant's base block at the lowest
  shadow price and the rest of its energy at the highest.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fleets, interior_demand_floor, loads
from ctmarket import (
    LoadCurve,
    Plant,
    QuadraticCost,
    dispatch_cost,
    duration_curve,
    settle_duration,
    settle_spot,
    solve_equilibrium,
)
from ctmarket import dispatch

REL = 1e-14


@st.composite
def interior_instances(draw, monotone: bool | None = None):
    """A fleet and a load that keeps every plant strictly interior."""
    plants = draw(fleets())
    return plants, draw(loads(floor=interior_demand_floor(plants), monotone=monotone))


def _settle(plants, load):
    sol = solve_equilibrium(plants, load)
    dsol = sol if load.is_non_decreasing else solve_equilibrium(plants, duration_curve(load))
    return settle_spot(sol), settle_duration(dsol)


@settings(max_examples=100, deadline=None)
@given(interior_instances(), st.sampled_from([0.5, 2.0, 8.0]))
def test_rescaling_time_scales_energy_cost_and_revenues_exactly(instance, c):
    plants, load = instance
    scaled = LoadCurve(times=c * load.times, powers=load.powers)
    spot, dur = _settle(plants, load)
    c_spot, c_dur = _settle(plants, scaled)
    for mech, rep, c_rep in (("spot", spot, c_spot), ("duration", dur, c_dur)):
        for row, c_row in zip(rep.plants, c_rep.plants):
            want = [c * x for x in (row.energy, row.generation_cost, row.revenue)]
            assert [c_row.energy, c_row.generation_cost, c_row.revenue] == want, (mech, row.plant)


@settings(max_examples=300, deadline=None)
@given(loads())
def test_duration_curve_is_idempotent_bit_for_bit(load):
    once = duration_curve(load)
    twice = duration_curve(once)
    assert twice.times.tobytes() == once.times.tobytes()
    assert twice.powers.tobytes() == once.powers.tobytes()


def _close(got, want, rel=REL):
    np.testing.assert_allclose(got, want, rtol=rel, atol=0.0)


@settings(max_examples=100, deadline=None)
@given(interior_instances(), st.data())
def test_splitting_a_plant_leaves_the_price_unchanged(instance, data):
    plants, load = instance
    j = data.draw(st.integers(0, len(plants) - 1))
    c = plants[j].cost
    half = QuadraticCost(q2=2.0 * c.q2, q1=c.q1, q0=c.q0 / 2.0)
    halves = [Plant(id=f"{plants[j].id}{s}", cost=half) for s in ("a", "b")]
    split = plants[:j] + halves + plants[j + 1 :]

    sol, s_sol = solve_equilibrium(plants, load), solve_equilibrium(split, load)
    assert s_sol.lambda_curve.times.tobytes() == sol.lambda_curve.times.tobytes()
    _close(s_sol.lambda_curve.powers, sol.lambda_curve.powers)
    a, b = (s_sol.outputs[p.id].powers for p in halves)
    _close(a + b, sol.outputs[plants[j].id].powers)
    cost, s_cost = dispatch_cost(sol).per_plant, dispatch_cost(s_sol).per_plant
    _close(s_cost[halves[0].id] + s_cost[halves[1].id], cost[plants[j].id])


@settings(max_examples=100, deadline=None)
@given(interior_instances(), st.data())
def test_bounds_that_never_bind_leave_clamped_dispatch_unconstrained(instance, data):
    plants, load = instance
    free = solve_equilibrium(plants, load)
    bounded = []
    for p in plants:
        out = free.outputs[p.id]
        share = data.draw(st.floats(0.0, 0.5))
        bounded.append(
            Plant(id=p.id, cost=p.cost, p_min=share * out.min_power, p_max=2.0 * out.max_power + 1.0)
        )

    clamped = dispatch._solve_clamped(bounded, load)
    assert not clamped.clamped
    assert clamped.lambda_curve.times.tobytes() == free.lambda_curve.times.tobytes()
    _close(clamped.lambda_curve.powers, free.lambda_curve.powers)
    for p in plants:
        _close(clamped.outputs[p.id].powers, free.outputs[p.id].powers)


# The worst relative gap between a plant's duration revenue and its
# two-price form over 15 000 derandomized draws of each strategy below
# (81 702 plants) was 1.185e-13: a load that rises in 0.01 h and then
# stays flat for hours.  Against exact rationals the two-price form of the
# same floats is within 5e-17 there; the gap is settlement's level-band
# integral.  The test's draws are fixed (``derandomize``), so a rarer draw
# past the measured worst cannot make it fail at random.
TWO_PRICE_REL = 1.2e-13


@st.composite
def entry_point_instances(draw):
    """A fleet and a load whose lowest demand puts the shadow price at the
    highest ``q1``: that plant starts at its merit-order entry point, and
    its row is floored at +0.0 wherever the solve lands a hair below it."""
    plants = draw(fleets())
    top = max(p.cost.q1 for p in plants)
    floor = sum((top - p.cost.q1) / (2.0 * p.cost.q2) for p in plants)
    return plants, draw(loads(floor=floor))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(interior_instances(), entry_point_instances()))
def test_duration_revenue_is_two_prices(instance):
    """``lam_min lo_j T + lam_max (E_j - lo_j T)`` on the duration dispatch,
    with ``lo_j`` the plant's minimum output and ``E_j`` its energy.  A
    plant at its entry point has ``lo_j`` = 0; its output leaves 0 at
    ``lam = q1_j``, and the solve floors only a row that lands at most
    ``DISPATCH_TOL`` below 0, so ``q1_j`` is within ``2 q2_j DISPATCH_TOL``
    of lam_min."""
    plants, load = instance
    sol = solve_equilibrium(plants, duration_curve(load))
    lam, T = sol.lambda_curve.powers, sol.horizon
    for p, row in zip(sol.plants, settle_duration(sol).plants):
        lo = sol.outputs[p.id].min_power
        form = float(lam[0]) * lo * T + float(lam[-1]) * (row.energy - lo * T)
        assert abs(row.revenue - form) <= TWO_PRICE_REL * abs(row.revenue), p.id
