"""Clamped dispatch against per-demand active-set sums, bit for bit.

``dispatch._Fleet`` takes each supply bracket's sums (fixed output,
price slope, price offset) once per fleet, as masked rows added left to
right.  The reference below takes them afresh for each demand, over the
plants active on that demand's bracket only, as the solver did before the
sums were precomputed.  A masked-out plant adds ``+0.0``, so the results
must be equal exactly (equal bits), not approximately.
"""

from __future__ import annotations

import bisect
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctmarket import (
    InfeasibleDispatchError,
    LoadCurve,
    Plant,
    QuadraticCost,
    UnsupportedOperationError,
    solve_equilibrium,
)
from ctmarket import dispatch

# ----------------------------------------------------------------------
# Reference: the active set and its sums, found for each demand
# ----------------------------------------------------------------------


def _ordered_sum(values: np.ndarray) -> float:
    return float(np.cumsum(np.append(0.0, values))[-1])


def ref_lambda_for_demand(plants, fleet, demand: float) -> float:
    """Smallest lam with total clipped supply equal to ``demand``."""
    slope = 1.0 / fleet.two_q2
    offset = fleet.q1 / fleet.two_q2
    unbounded = np.array([p.p_max is None for p in plants])
    lo_thr = np.array([p.cost.marginal(p.p_min) for p in plants])
    hi_thr = np.array([np.inf if p.p_max is None else p.cost.marginal(p.p_max) for p in plants])
    p_min_sum, p_max_sum = _ordered_sum(fleet.p_min), _ordered_sum(fleet.p_max)
    tol = 1e-9 * max(1.0, abs(demand))
    if demand < p_min_sum - tol or demand > p_max_sum + tol:
        raise InfeasibleDispatchError(
            f"demand {demand:.6g} MW outside the feasible range "
            f"[{p_min_sum:.6g}, {p_max_sum:.6g}] MW",
            kind="capacity",
        )
    thr, supplies = fleet.thr, fleet.supplies
    if demand <= supplies[0]:
        return thr[0]
    if demand > supplies[-1]:
        active = unbounded
        den = _ordered_sum(slope[active])
        if den == 0.0:
            return thr[-1]
        fixed = _ordered_sum(fleet.p_max[~active])
        num = demand - fixed + _ordered_sum(offset[active])
        return max(num / den, thr[-1])
    k = int(np.searchsorted(supplies, demand, side="left"))
    v_lo, v_hi = thr[k - 1], thr[k]
    at_max = hi_thr <= v_lo
    at_min = ~at_max & (lo_thr >= v_hi)
    active = ~(at_max | at_min)
    fixed = _ordered_sum(np.where(at_max, fleet.p_max, fleet.p_min)[~active])
    den = _ordered_sum(slope[active])
    num = _ordered_sum(offset[active])
    if den == 0.0:
        return v_lo if demand <= fixed else v_hi
    lam = (demand - fixed + num) / den
    return min(max(lam, v_lo), v_hi)


def ref_lambdas_for_demands(plants, fleet, demands: np.ndarray) -> np.ndarray:
    """:func:`ref_lambda_for_demand` of each demand, up to the first one
    outside the feasible range."""
    lams = []
    for demand in demands.tolist():
        try:
            lams.append(ref_lambda_for_demand(plants, fleet, demand))
        except InfeasibleDispatchError:
            break
    return np.array(lams)


def scalar_lambda_for_demand(fleet, demand: float) -> float:
    """The scalar bracket lookup on the fleet's precomputed sums, one demand
    per call, that the array pass replaced."""
    tol = 1e-9 * max(1.0, abs(demand))
    if demand < fleet.p_min_sum - tol or demand > fleet.p_max_sum + tol:
        raise InfeasibleDispatchError(
            f"demand {demand:.6g} MW outside the feasible range "
            f"[{fleet.p_min_sum:.6g}, {fleet.p_max_sum:.6g}] MW",
            kind="capacity",
        )
    thr, supplies = fleet.thr, fleet.supplies
    if demand <= supplies[0]:
        return thr[0]
    last = demand > supplies[-1]
    k = len(thr) - 1 if last else bisect.bisect_left(supplies, demand) - 1
    den = fleet.den[k]
    if den == 0.0:
        return thr[k] if last or demand <= fleet.fixed[k] else thr[k + 1]
    lam = (demand - fleet.fixed[k] + fleet.num[k]) / den
    return max(lam, thr[k]) if last else min(max(lam, thr[k]), thr[k + 1])


def ref_thresholds(plants) -> list[float]:
    """The distinct marginal costs at each plant's bounds, ascending."""
    vals = set()
    for p in plants:
        vals.add(p.cost.marginal(p.p_min))
        if p.p_max is not None:
            vals.add(p.cost.marginal(p.p_max))
    return sorted(vals)


def _outcome(call):
    """A call's result, or the type and message of what it raised."""
    try:
        return call()
    except (InfeasibleDispatchError, UnsupportedOperationError) as exc:
        return type(exc), str(exc)


def _bits(x: float) -> str:
    return float(x).hex()


# ----------------------------------------------------------------------
# Fleets with ties: few distinct coefficients and bounds, so thresholds
# repeat within a plant set and across it
# ----------------------------------------------------------------------


@st.composite
def fleets(draw):
    n = draw(st.integers(1, 12))
    plants = []
    for j in range(n):
        q2 = draw(st.sampled_from([0.0005, 0.001, 0.002]) | st.floats(1e-4, 1e-2))
        q1 = draw(st.sampled_from([0.0, 0.1, 0.2]) | st.floats(0.0, 1.0))
        p_min = draw(st.sampled_from([0.0, 0.0, 25.0, 50.0]))
        p_max = draw(st.sampled_from([None, 50.0, 100.0, 200.0]))
        if p_max is not None:
            p_max += p_min
        plants.append(Plant(f"g{j}", QuadraticCost(q2, q1, 0.0), p_min=p_min, p_max=p_max))
    return plants


def _demands(fleet: dispatch._Fleet, fractions) -> list[float]:
    """Every supply breakpoint, points between and beyond them, and
    demands just outside the feasible range."""
    lo = fleet.p_min_sum
    hi = fleet.p_max_sum if np.isfinite(fleet.p_max_sum) else fleet.supplies[-1] + 500.0
    inside = [lo + f * (hi - lo) for f in fractions]
    return [*fleet.supplies, *inside, lo - 1.0, hi + 1.0, fleet.supplies[-1] + 100.0]


@settings(max_examples=300, deadline=None)
@given(
    fleets(),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
    st.sampled_from([dispatch._BLOCK_ENTRIES, 1, 7, 30]),
)
def test_lambda_for_demand_matches_reference(plants, fractions, block_entries):
    # Small blocks split the brackets over several blocks, as a large fleet does.
    with mock.patch.object(dispatch, "_BLOCK_ENTRIES", block_entries):
        fleet = dispatch._Fleet(plants)
    assert list(map(_bits, fleet.supplies)) == [_bits(fleet.supply(v)) for v in fleet.thr]
    assert list(map(_bits, fleet.thr)) == list(map(_bits, ref_thresholds(plants)))
    for demand in _demands(fleet, fractions):
        got = _outcome(lambda: _bits(dispatch._lambda_for_demand(fleet, demand)))
        want = _outcome(lambda: _bits(ref_lambda_for_demand(plants, fleet, demand)))
        assert got == want, demand


@settings(max_examples=300, deadline=None)
@given(fleets(), st.lists(st.floats(0.0, 1.0), min_size=2, max_size=12))
def test_clamped_solution_matches_reference(plants, fractions):
    fleet = dispatch._Fleet(plants)
    hi = fleet.p_max_sum if np.isfinite(fleet.p_max_sum) else fleet.supplies[-1] + 500.0
    powers = [fleet.p_min_sum + f * (hi - fleet.p_min_sum) for f in fractions]
    load = LoadCurve(zip(np.linspace(0.0, 1.0, len(powers)), powers))

    got = _outcome(lambda: solve_equilibrium(plants, load, allow_clamp=True))
    ref = mock.patch.object(
        dispatch, "_lambdas_for_demands", lambda fl, ds: ref_lambdas_for_demands(plants, fl, ds)
    )
    with ref:
        want = _outcome(lambda: solve_equilibrium(plants, load, allow_clamp=True))

    if isinstance(want, tuple):
        assert got == want
        return
    assert got.lambda_curve.times.tobytes() == want.lambda_curve.times.tobytes()
    assert got.lambda_curve.powers.tobytes() == want.lambda_curve.powers.tobytes()
    for p in plants:
        assert got.outputs[p.id].powers.tobytes() == want.outputs[p.id].powers.tobytes()
    assert got.clamp_events == want.clamp_events
    assert got.clamped == want.clamped


def _load_order_demands(fleet: dispatch._Fleet, fractions) -> list[float]:
    """Demands at or below the first supply, at every supply breakpoint
    and between them, on a plateau's near and far side, and in the last
    bracket, shuffled into load order by ``fractions``."""
    below = [fleet.p_min_sum, fleet.supplies[0], np.nextafter(fleet.supplies[0], -np.inf)]
    plateaus = [
        x
        for k in range(len(fleet.thr) - 1)
        if fleet.den[k] == 0.0
        for edge in (fleet.supplies[k], fleet.fixed[k], fleet.supplies[k + 1])
        for x in (np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf))
    ]
    top = [fleet.supplies[-1] + 1e-3, fleet.p_max_sum * (1.0 + 1e-12)]
    demands = [*below, *_demands(fleet, fractions), *plateaus, *top]
    order = np.argsort(np.resize(np.asarray(fractions), len(demands)), kind="stable")
    return [float(demands[i]) for i in order]


@settings(max_examples=300, deadline=None)
@given(fleets(), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8), st.integers(0, 40))
def test_array_lambdas_match_the_scalar_code(plants, fractions, infeasible_at):
    """Each demand's lam from the one array pass is bit for bit the scalar
    lookup's; a demand outside the feasible range ends the pass there, and
    the scalar wrapper refuses it as the scalar code did."""
    fleet = dispatch._Fleet(plants)
    outcomes = [(d, _outcome(lambda: scalar_lambda_for_demand(fleet, d))) for d in _load_order_demands(fleet, fractions)]
    # Every demand the scalar code accepts, those within the tolerance of the range's ends included.
    demands = [d for d, lam in outcomes if np.isfinite(d) and not isinstance(lam, tuple)]
    want = [_bits(lam) for d, lam in outcomes if np.isfinite(d) and not isinstance(lam, tuple)]
    assert list(map(_bits, dispatch._lambdas_for_demands(fleet, np.array(demands)))) == want
    assert [_bits(dispatch._lambda_for_demand(fleet, d)) for d in demands] == want
    # A first infeasible demand in load order, with feasible and infeasible ones after it.
    at = min(infeasible_at, len(demands))
    bad = fleet.p_min_sum - 1.0 if infeasible_at % 2 else fleet.p_max_sum * 2.0 + 1.0
    if not np.isfinite(bad):
        bad = fleet.p_min_sum - 1.0
    mixed = [*demands[:at], bad, *demands[at:], fleet.p_min_sum - 5.0]
    got = dispatch._lambdas_for_demands(fleet, np.array(mixed))
    assert list(map(_bits, got)) == want[:at]
    assert _outcome(lambda: dispatch._lambda_for_demand(fleet, bad)) == _outcome(
        lambda: scalar_lambda_for_demand(fleet, bad)
    )


@pytest.mark.parametrize(
    "breakpoints, error, message",
    [
        (
            [(0.0, 50.0), (1.0, 150.0), (2.0, 500.0)],
            UnsupportedOperationError,
            "shadow price jumps across a merit-order gap (supply plateau); "
            "clamped dispatch cannot represent this load",
        ),
        (
            [(0.0, 50.0), (1.0, 500.0), (2.0, 150.0), (3.0, 600.0)],
            InfeasibleDispatchError,
            "demand 500 MW outside the feasible range [0, 150] MW",
        ),
        (
            [(0.0, 500.0), (1.0, 150.0)],
            InfeasibleDispatchError,
            "demand 500 MW outside the feasible range [0, 150] MW",
        ),
    ],
    ids=["plateau-then-infeasible", "first-infeasible-in-load-order", "infeasible-at-start"],
)
def test_clamped_refusal_follows_load_order(breakpoints, error, message):
    """A supply plateau on a segment before the first infeasible demand is
    the refusal, as when each demand was priced in turn; otherwise the
    first infeasible demand in load order is named."""
    plants = [
        Plant("low", QuadraticCost(0.001, 0.1, 0.0), p_max=100.0),
        Plant("high", QuadraticCost(0.001, 1.0, 0.0), p_max=50.0),
    ]
    with pytest.raises(error) as err:
        solve_equilibrium(plants, LoadCurve(breakpoints), allow_clamp=True)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "plants, breakpoints, error, message",
    [
        (
            [Plant("a", QuadraticCost(0.001, 0.1, 0.0), p_max=100.0)],
            [(0.0, 50.0), (1.0, 500.0)],
            InfeasibleDispatchError,
            "demand 500 MW outside the feasible range [0, 100] MW",
        ),
        (
            [
                Plant("a", QuadraticCost(0.001, 0.1, 0.0), p_min=20.0, p_max=100.0),
                Plant("b", QuadraticCost(0.002, 0.1, 0.0), p_min=10.0, p_max=100.0),
            ],
            [(0.0, 10.0), (1.0, 150.0)],
            InfeasibleDispatchError,
            "demand 10 MW outside the feasible range [30, 200] MW",
        ),
        (
            [
                Plant("low", QuadraticCost(0.001, 0.1, 0.0), p_max=100.0),
                Plant("high", QuadraticCost(0.001, 1.0, 0.0)),
            ],
            [(0.0, 50.0), (1.0, 150.0)],
            UnsupportedOperationError,
            "shadow price jumps across a merit-order gap (supply plateau); "
            "clamped dispatch cannot represent this load",
        ),
    ],
    ids=["above-capacity", "below-minimum", "plateau"],
)
def test_clamped_refusal_messages(plants, breakpoints, error, message):
    with pytest.raises(error) as err:
        solve_equilibrium(plants, LoadCurve(breakpoints), allow_clamp=True)
    assert str(err.value) == message


def test_unclamped_refusal_names_first_interval():
    plants = [
        Plant("small", QuadraticCost(0.0005, 0.1, 0.0), p_max=300.0),
        Plant("big", QuadraticCost(0.001, 0.1, 0.0)),
    ]
    with pytest.raises(InfeasibleDispatchError) as err:
        solve_equilibrium(plants, LoadCurve([(0.0, 0.0), (1.0, 900.0)]))
    assert str(err.value) == (
        "unconstrained dispatch puts plant 'small' above p_max = 300 MW on t in [0.5, 1] h; "
        "enable clamped dispatch to proceed (spot settlement only)"
    )
