"""Acceptance regression suite.

One test per acceptance criterion, each at its stated tolerance; on success
a criterion prints one PASS line (visible with ``pytest -s`` or in the
captured-output section).  Expected values come from independent
antiderivative oracles; printed regression values are matched inside their
documented +/-0.10 windows.
"""

from __future__ import annotations

import csv
import math

import numpy as np
import pytest

from ctmarket import (
    LoadCurve,
    MeasureFunction,
    QuadratureConfig,
    builtin_case_study,
    dispatch_cost,
    duration_curve,
    duration_price,
    duration_price_from_curve,
    lebesgue_energy,
    riemann_integrate,
    settle_duration,
    settle_spot,
    solve_equilibrium,
)
from ctmarket.cli import main as cli_main
from conftest import (
    affine_product_integral,
    interior_demand_floor,
    random_monotone_load,
    random_plants,
    random_wiggly_curve,
)


def _report(n: int, text: str) -> None:
    print(f"criterion {n}: PASS - {text}")


@pytest.fixture(scope="module")
def case():
    scenario = builtin_case_study()
    plants = scenario.plant_objects()
    load = scenario.load_curve()
    sol = solve_equilibrium(plants, load)
    return scenario, plants, load, sol


def test_criterion_1_dispatch_regression(case):
    _, _, _, sol = case
    ts = np.linspace(0.0, 1.0, 101)
    checks = {
        "lambda": (sol.lambda_curve, 0.32 + 0.4 * ts),
        "plant1": (sol.outputs["plant1"], 250.0 + 400.0 * ts),
        "plant2": (sol.outputs["plant2"], 90.0 + 200.0 * ts),
        "plant3": (sol.outputs["plant3"], 10.0 + 100.0 * ts),
    }
    for name, (curve, want) in checks.items():
        err = np.max(np.abs(curve.sample(ts) - want))
        assert err <= 1e-10, f"{name}: max abs error {err}"
    _report(1, "dispatch matches the affine closed forms at 101 grid points to 1e-10")


def test_criterion_2_cost_regression(case):
    _, plants, _, sol = case
    costs = dispatch_cost(sol)
    oracle = {
        "plant1": 0.0005 * (650.0**3 - 250.0**3) / 1200.0 + 0.07 * 450.0 + 0.2,
        "plant2": 0.001 * (290.0**3 - 90.0**3) / 600.0 + 0.14 * 190.0 + 0.4,
        "plant3": 0.002 * (110.0**3 - 10.0**3) / 300.0 + 0.28 * 60.0 + 0.8,
    }
    printed = {"plant1": 139.63, "plant2": 66.46, "plant3": 26.44}
    for pid in oracle:
        assert costs.per_plant[pid] == pytest.approx(oracle[pid], rel=1e-8)
        assert costs.per_plant[pid] == pytest.approx(printed[pid], abs=0.1)
    assert costs.total == pytest.approx(232.53, abs=0.1)
    _report(2, "per-plant costs (139.62, 66.43, 26.47) within 0.10 of print, 1e-8 of oracle")


def test_criterion_3_spot_settlement(case):
    _, plants, _, sol = case
    report = settle_spot(sol)
    revenue_oracle = {
        "plant1": affine_product_integral(0.32, 0.4, 250.0, 400.0, 0.0, 1.0),
        "plant2": affine_product_integral(0.32, 0.4, 90.0, 200.0, 0.0, 1.0),
        "plant3": affine_product_integral(0.32, 0.4, 10.0, 100.0, 0.0, 1.0),
    }
    printed_rev = {"plant1": 247.32, "plant2": 105.52, "plant3": 34.48}
    printed_profit = {"plant1": 107.69, "plant2": 39.06, "plant3": 8.04}
    for row in report.plants:
        assert row.revenue == pytest.approx(revenue_oracle[row.plant], rel=1e-8)
        assert row.revenue == pytest.approx(printed_rev[row.plant], abs=0.1)
        assert row.profit == pytest.approx(printed_profit[row.plant], abs=0.1)
    assert report.total_revenue == pytest.approx(387.32, abs=0.1)
    assert report.market_profit_rate == pytest.approx(0.67, abs=0.01)
    _report(3, "spot revenues/profits within 0.10; market 387.32 +/- 0.10, rate 67% +/- 1pt")


def test_criterion_4_duration_price(case):
    _, _, _, sol = case
    dp = duration_price(sol)
    ts = np.linspace(0.0, 0.999, 1000)
    want = (0.32 + 0.48 * ts - 0.6 * ts * ts) / (1.0 - ts)
    got = dp.time_view(ts)
    assert np.all(np.abs(got - want) <= 1e-8 * np.abs(want))

    h = 1e-6
    worst = 0.0
    for t in np.linspace(h, 0.999, 500):
        phi = lambda x: dp.time_view(x) * (1.0 - x)
        lhs = (phi(t + h) - phi(t - h)) / (2.0 * h)
        rhs = 2.0 * 0.4 * (1.0 - t) - (0.32 + 0.4 * t)
        worst = max(worst, abs(lhs - rhs))
    assert worst <= 1e-4
    _report(4, f"duration price matches closed form to 1e-8; ODE residual {worst:.2e} <= 1e-4")


def test_criterion_5_duration_settlement(case):
    _, plants, _, sol = case
    report = settle_duration(sol)
    h_mean = 0.32 + 0.48 / 2.0 - 0.6 / 3.0  # mean of pi(t)(1 - t) over the cycle
    revenue_oracle = {
        "plant1": 0.32 * 250.0 + 400.0 * h_mean,
        "plant2": 0.32 * 90.0 + 200.0 * h_mean,
        "plant3": 0.32 * 10.0 + 100.0 * h_mean,
    }
    printed_rev = {"plant1": 224.0, "plant2": 100.84, "plant3": 39.16}
    printed_profit = {"plant1": 84.37, "plant2": 34.38, "plant3": 12.72}
    for row in report.plants:
        assert row.revenue == pytest.approx(revenue_oracle[row.plant], rel=1e-8)
        assert row.revenue == pytest.approx(printed_rev[row.plant], abs=0.1)
        assert row.profit == pytest.approx(printed_profit[row.plant], abs=0.1)
    assert report.total_revenue == pytest.approx(364.0, abs=0.1)
    assert report.market_profit_rate == pytest.approx(0.57, abs=0.01)

    spot_report = settle_spot(sol)
    spread = lambda rep: max(r.profit_rate for r in rep.plants) - min(
        r.profit_rate for r in rep.plants
    )
    assert spread(report) < spread(spot_report)
    _report(5, "duration revenues/profits within 0.10; market 364, rate 57%; narrower spread")


def _check_instance(plants, load, rng, cfg) -> None:
    sol = solve_equilibrium(plants, load)
    T = load.horizon
    probe = np.linspace(0.0, T, 1001)

    outs = np.vstack([sol.outputs[p.id].sample(probe) for p in plants])
    want = load.sample(probe)
    assert np.all(np.abs(outs.sum(axis=0) - want) <= 1e-8 * np.maximum(1.0, want))

    lam = sol.lambda_curve.sample(probe)
    margs = np.vstack(
        [2.0 * p.cost.q2 * outs[j] + p.cost.q1 for j, p in enumerate(plants)]
    )
    assert np.all(margs.max(axis=0) - margs.min(axis=0) <= 1e-8 * lam)

    r_energy = riemann_integrate(load.sample, 0.0, T, cfg, breakpoints=load.times)
    l_energy = lebesgue_energy(load, cfg)
    assert abs(r_energy - l_energy) <= 1e-8 * max(1.0, abs(r_energy))

    wig = random_wiggly_curve(rng)
    rearranged = duration_curve(wig)
    ys = np.linspace(wig.min_power, wig.max_power, 41)
    got_m = MeasureFunction(rearranged).sample(ys)
    want_m = MeasureFunction(wig).sample(ys)
    assert np.max(np.abs(got_m - want_m)) <= wig.horizon * 1e-6
    e0 = riemann_integrate(wig.sample, 0.0, wig.horizon, cfg, breakpoints=wig.times)
    e1 = riemann_integrate(
        rearranged.sample, 0.0, rearranged.horizon, cfg, breakpoints=rearranged.times
    )
    assert abs(e0 - e1) <= 1e-8 * max(1.0, abs(e0))

    flat_level = interior_demand_floor(plants) + float(rng.uniform(0.0, 500.0))
    flat_sol = solve_equilibrium(plants, LoadCurve([(0.0, flat_level), (T, flat_level)]))
    flat_dp = duration_price(flat_sol)
    lam_flat = flat_sol.lambda_curve.evaluate(0.0)
    tgrid = np.linspace(0.0, T - 1e-6 * T, 101)
    assert np.max(np.abs(flat_dp.time_view(tgrid) - lam_flat)) <= 1e-10 * max(1.0, lam_flat)

    dp = duration_price(sol)
    tgrid = np.linspace(0.0, T * (1.0 - 1e-3), 101)
    base_view = dp.time_view(tgrid)
    for j, p in enumerate(plants):
        out = sol.outputs[p.id]
        seeded = duration_price_from_curve(
            LoadCurve(zip(out.times, 2.0 * p.cost.q2 * out.powers + p.cost.q1))
        )
        assert np.max(np.abs(seeded.time_view(tgrid) - base_view)) <= 1e-10 * max(
            1.0, float(lam.max())
        )

    if len(plants) >= 2:
        for _ in range(2):
            j, k = (int(x) for x in rng.choice(len(plants), size=2, replace=False))
            u = float(rng.uniform(0.0, 0.8 * T))
            v = float(rng.uniform(u + 0.05 * T, T))
            donor = sol.outputs[plants[k].id]
            window_ts = [u, v] + [t for t in donor.times if u < t < v]
            delta = min(1e-3 / (v - u), 0.4 * min(donor.evaluate(t) for t in window_ts))
            assert delta > 0.0
            receiver = sol.outputs[plants[j].id]
            base = riemann_integrate(
                lambda ts: plants[j].cost.cost(receiver.sample(ts))
                + plants[k].cost.cost(donor.sample(ts)),
                u, v, cfg, breakpoints=np.concatenate([receiver.times, donor.times]),
            )
            perturbed = riemann_integrate(
                lambda ts: plants[j].cost.cost(receiver.sample(ts) + delta)
                + plants[k].cost.cost(donor.sample(ts) - delta),
                u, v, cfg, breakpoints=np.concatenate([receiver.times, donor.times]),
            )
            assert perturbed >= base - 1e-9 * max(1.0, base)


def test_criterion_6_property_suite(case):
    scenario, plants, load, _ = case
    rng = np.random.default_rng(20260809)
    cfg = QuadratureConfig(n_panels=64)
    _check_instance(plants, load, rng, cfg)  # the regression scenario itself
    for _ in range(200):
        rnd_plants = random_plants(rng)
        rnd_load = random_monotone_load(rng, rnd_plants)
        _check_instance(rnd_plants, rnd_load, rng, cfg)
    _report(6, "201 instances: balance, marginals, energy equivalence, rearrangement, "
               "degeneracy, plant independence, no cost-reducing transfers")


def test_criterion_7_quadrature_convergence():
    integrand = lambda t: (0.32 + 0.4 * t) * (250.0 + 400.0 * t)
    exact = affine_product_integral(0.32, 0.4, 250.0, 400.0, 0.0, 1.0)
    errors = []
    n = 16
    while n <= 4096:
        cfg = QuadratureConfig(n_panels=n, rule="midpoint")
        errors.append(abs(riemann_integrate(integrand, 0.0, 1.0, cfg) - exact))
        n *= 2
    assert all(e2 < e1 for e1, e2 in zip(errors, errors[1:])), errors

    simpson_err = abs(riemann_integrate(integrand, 0.0, 1.0) - exact)
    assert simpson_err <= 100.0 * np.finfo(float).eps * abs(exact)
    _report(7, f"midpoint error falls {errors[0]:.1e} -> {errors[-1]:.1e} over doublings; "
               f"Simpson error {simpson_err:.1e} within 100 eps")


def test_criterion_8_cli_end_to_end(tmp_path, capsys):
    rc = cli_main(["--case-study", "--mechanism", "both", "--out-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0

    headers = {
        "timeseries.csv": ["t", "load", "lambda", "pi_time", "P_plant1", "P_plant2", "P_plant3"],
        "duration.csv": ["m", "pi_measure"],
        "settlement.csv": ["mechanism", "plant", "cost", "revenue", "profit", "profit_rate"],
    }
    for fname, header in headers.items():
        with open(tmp_path / fname, newline="") as fh:
            assert next(csv.reader(fh)) == header

    with open(tmp_path / "settlement.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    file_totals = {r[0]: [float(v) for v in r[2:]] for r in rows if r[1] == "total"}
    mech = None
    seen = set()
    for line in out.splitlines():
        if line.startswith("["):
            mech = line.strip("[]")
        elif mech and line.startswith("total"):
            cells = line.split()[1:]
            assert cells == [f"{v:.6g}" for v in file_totals[mech]]
            seen.add(mech)
    assert seen == {"spot", "duration"}
    _report(8, "CLI exits 0, three series files carry the specified headers, totals agree")
