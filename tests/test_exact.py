"""The engine against the exact rational reference in ``exact.py``.

A fixed, seeded corpus: interior fleets on monotone loads, as
``conftest.random_plants`` and ``random_monotone_load`` draw them, and
clamped fleets shaped like those of ``test_clamped_reference.py`` with
demands drawn inside their supply range.  Each quantity's worst error in
ulps of the exact value must stay within its budget.  A budget is the worst
error the engine showed when the reference was added, rounded up to the
next whole ulp: a change of summation order may move bits, but it must not
make any quantity's worst case worse.

Demands exactly at a supply breakpoint are not in the clamped corpus.
Where a merit-order gap makes a supply plateau, the smallest ``lam`` jumps
across the plateau as demand passes its level, so no ulp budget holds
there; a float supply one rounding above the plateau level already lands
on the wrong side of the jump.
"""

from __future__ import annotations

import math

import numpy as np

import exact
from conftest import random_monotone_load, random_plants
from ctmarket import Plant, QuadraticCost, dispatch, dispatch_cost, settle_spot, solve_equilibrium
from test_geometry_reference import ulps

# Worst error, in ulps of the exact value, over the corpus below.
BUDGETS = {
    "lambda": 3.0,
    "outputs": 13.0,
    "cost": 10.0,
    "spot_revenue": 11.0,
    "clamped_lambda": 4.0,
}

N_INSTANCES = 200


def _over_budget(errors: dict[str, list[float]]) -> dict[str, float]:
    worst = {name: max(values) for name, values in errors.items()}
    return {name: w for name, w in worst.items() if not w <= BUDGETS[name]}


def test_interior_dispatch_and_spot_settlement_within_budget():
    errors: dict[str, list[float]] = {"lambda": [], "outputs": [], "cost": [], "spot_revenue": []}
    for k in range(N_INSTANCES):
        rng = np.random.default_rng([2026, k])
        plants = random_plants(rng)
        load = random_monotone_load(rng, plants)
        sol = solve_equilibrium(plants, load)
        costs, report = dispatch_cost(sol), settle_spot(sol)

        times = exact._exact(load.times)
        lam, outputs = exact.interior_dispatch(plants, load)
        errors["lambda"] += map(ulps, sol.lambda_curve.powers.tolist(), lam)
        for p, row in zip(plants, report.plants):
            output = outputs[p.id]
            errors["outputs"] += map(ulps, sol.outputs[p.id].powers.tolist(), output)
            errors["cost"].append(ulps(costs.per_plant[p.id], exact.generation_cost(p, times, output)))
            errors["spot_revenue"].append(ulps(row.revenue, exact.spot_revenue(times, lam, output)))
    assert _over_budget(errors) == {}


def _clamped_fleet(rng: np.random.Generator) -> list[Plant]:
    """1 to 12 plants from few distinct coefficients and bounds, so that
    thresholds repeat, as in ``test_clamped_reference.fleets``."""
    plants = []
    for j in range(int(rng.integers(1, 13))):
        q2 = float(rng.choice([0.0005, 0.001, 0.002]) if rng.random() < 0.5 else rng.uniform(1e-4, 1e-2))
        q1 = float(rng.choice([0.0, 0.1, 0.2]) if rng.random() < 0.5 else rng.uniform(0.0, 1.0))
        p_min = float(rng.choice([0.0, 0.0, 25.0, 50.0]))
        p_max = [None, 50.0, 100.0, 200.0][int(rng.integers(4))]
        plants.append(
            Plant(f"g{j}", QuadraticCost(q2, q1, 0.0), p_min=p_min, p_max=None if p_max is None else p_min + p_max)
        )
    return plants


def test_clamped_lambda_within_budget():
    errors: dict[str, list[float]] = {"clamped_lambda": []}
    for k in range(N_INSTANCES):
        rng = np.random.default_rng([2027, k])
        plants = _clamped_fleet(rng)
        fleet = dispatch._Fleet(plants)
        lo = fleet.p_min_sum
        hi = fleet.p_max_sum if math.isfinite(fleet.p_max_sum) else fleet.supplies[-1] + 500.0
        demands = [lo + f * (hi - lo) for f in rng.uniform(0.0, 1.0, 8).tolist()]
        got = [dispatch._lambda_for_demand(fleet, d) for d in demands]
        errors["clamped_lambda"] += map(ulps, got, exact.clamped_lambdas(plants, demands))
    assert _over_budget(errors) == {}
