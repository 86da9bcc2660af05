"""Shared fixtures and random-instance generators for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from ctmarket import (
    LoadCurve,
    Plant,
    QuadraticCost,
    builtin_case_study,
    solve_equilibrium,
)


@pytest.fixture(scope="session")
def case_study():
    return builtin_case_study()


@pytest.fixture(scope="session")
def case_plants(case_study):
    return case_study.plant_objects()


@pytest.fixture(scope="session")
def case_load(case_study):
    return case_study.load_curve()


@pytest.fixture(scope="session")
def case_solution(case_plants, case_load):
    return solve_equilibrium(case_plants, case_load)


# ----------------------------------------------------------------------
# Random instances (seeded by the caller)
# ----------------------------------------------------------------------


def random_plants(rng: np.random.Generator, n: int | None = None) -> list[Plant]:
    n = int(rng.integers(1, 6)) if n is None else n
    return [
        Plant(
            id=f"g{j}",
            cost=QuadraticCost(
                q2=float(10.0 ** rng.uniform(-4.0, -1.3)),
                q1=float(rng.uniform(0.0, 0.5)),
                q0=float(rng.uniform(0.0, 5.0)),
            ),
        )
        for j in range(n)
    ]


def interior_demand_floor(plants: list[Plant]) -> float:
    """Demand above which every plant runs strictly above zero output."""
    denom = sum(1.0 / (2.0 * p.cost.q2) for p in plants)
    offset = sum(p.cost.q1 / (2.0 * p.cost.q2) for p in plants)
    lam_floor = max(p.cost.q1 for p in plants) + 0.05
    return max(lam_floor * denom - offset, 0.0) + 1.0


def random_monotone_load(rng: np.random.Generator, plants: list[Plant]) -> LoadCurve:
    """Non-decreasing load keeping every plant strictly interior."""
    floor = interior_demand_floor(plants)
    T = float(rng.uniform(0.5, 24.0))
    n_seg = int(rng.integers(1, 6))
    interior = np.sort(rng.uniform(0.05 * T, 0.95 * T, size=n_seg - 1))
    times = np.unique(np.concatenate([[0.0], interior, [T]]))
    incs = rng.uniform(0.0, 300.0, size=len(times))
    if len(times) > 2 and rng.random() < 0.4:
        incs[int(rng.integers(1, len(times)))] = 0.0  # an exactly flat piece
    powers = floor + np.cumsum(incs)
    return LoadCurve(zip(times, powers))


def random_wiggly_curve(rng: np.random.Generator) -> LoadCurve:
    """Arbitrary (generally non-monotone) trajectory for rearrangement tests."""
    T = float(rng.uniform(0.5, 10.0))
    n = int(rng.integers(3, 9))
    interior = np.sort(rng.uniform(0.02 * T, 0.98 * T, size=n - 2))
    times = np.unique(np.concatenate([[0.0], interior, [T]]))
    powers = rng.uniform(0.0, 800.0, size=len(times))
    if len(times) > 3 and rng.random() < 0.3:
        i = int(rng.integers(1, len(times) - 1))
        powers[i] = powers[i - 1]  # flat piece
    return LoadCurve(zip(times, powers))


def affine_product_integral(c0, c1, d0, d1, a, b) -> float:
    """Antiderivative oracle for the integral of (c0 + c1 t)(d0 + d1 t)."""
    a0, a1, a2 = c0 * d0, c0 * d1 + c1 * d0, c1 * d1

    def antider(t):
        return a0 * t + a1 * t * t / 2.0 + a2 * t**3 / 3.0

    return antider(b) - antider(a)


# ----------------------------------------------------------------------
# Fleets and loads (hypothesis)
# ----------------------------------------------------------------------


@st.composite
def fleets(draw, max_plants: int = 5) -> list[Plant]:
    """1 to ``max_plants`` unbounded plants, costs in ``random_plants``' ranges."""
    return [
        Plant(
            id=f"g{j}",
            cost=QuadraticCost(
                q2=draw(st.floats(1e-4, 0.05)), q1=draw(st.floats(0.0, 0.5)), q0=draw(st.floats(0.0, 5.0))
            ),
        )
        for j in range(draw(st.integers(1, max_plants)))
    ]


@st.composite
def loads(draw, floor: float = 0.0, monotone: bool | None = None) -> LoadCurve:
    """A breakpoint load of 2 to 12 breakpoints, every power at or above
    ``floor``, over a horizon of at most 48 h.  Powers repeat now and then
    (flat pieces, levels met twice).  The load is non-decreasing when
    ``monotone`` is true, arbitrary when false, and either when None."""
    n = draw(st.integers(2, 12))
    times = np.cumsum([0.0, *draw(st.lists(st.floats(0.01, 4.0), min_size=n - 1, max_size=n - 1))])
    level = st.floats(0.0, 1000.0) | st.sampled_from([0.0, 250.0, 500.0])
    powers = np.array(draw(st.lists(level, min_size=n, max_size=n)))
    if draw(st.booleans()) if monotone is None else monotone:
        powers = np.sort(powers)
    return LoadCurve(times=times, powers=floor + powers)


# ----------------------------------------------------------------------
# Raw scenario data (hypothesis): near-valid breakpoint loads
# ----------------------------------------------------------------------

# A valid load, then up to three of these spoils.  Each is one way a load
# can fail a single check, or pass it narrowly.
_SPOILS = (
    "bool", "huge int", "big int", "non-finite", "null", "string", "nested",
    "triple", "single", "dict", "repeat time", "decrease time", "negative power",
    "negative zero", "first time", "horizon edge",
)


def _horizon_edges(horizon: float) -> list[float]:
    """Last times just inside and just outside the horizon-match tolerance."""
    tol = max(1e-9 * abs(horizon), 1e-12)
    return [horizon + f * tol for f in (-1.01, -0.99, 0.99, 1.01)]


def _spoil(draw, bps: list, horizon: float) -> None:
    kind = draw(st.sampled_from(_SPOILS))
    i = draw(st.integers(0, len(bps) - 1))
    k = draw(st.integers(0, 1))
    pairs = [j for j, item in enumerate(bps) if isinstance(item, list) and len(item) == 2]
    if not pairs:
        return
    i = i if i in pairs else pairs[-1]
    if kind == "bool":
        bps[i][k] = draw(st.booleans())
    elif kind == "huge int":
        bps[i][k] = draw(st.sampled_from([10**400, -(10**400)]))
    elif kind == "big int":  # each converts to a float exactly as float() does
        bps[i][k] = draw(st.sampled_from([2**53 + 1, 2**64 + 1, 10**300]))
    elif kind == "non-finite":
        bps[i][k] = draw(st.sampled_from([float("nan"), float("inf"), float("-inf")]))
    elif kind == "null":
        bps[i][k] = None
    elif kind == "string":
        bps[i][k] = str(bps[i][k])
    elif kind == "nested":
        bps[i][k] = [bps[i][k]]
    elif kind == "triple":
        bps[i] = bps[i] + [0.0]
    elif kind == "single":
        bps[i] = bps[i][:1]
    elif kind == "dict":
        bps[i] = {"t": bps[i][0], "p": bps[i][1]}
    elif kind in ("repeat time", "decrease time"):
        j = max(i, 1)
        if j in pairs and j - 1 in pairs:
            if kind == "repeat time":
                bps[j][0] = bps[j - 1][0]
            else:
                bps[j][0], bps[j - 1][0] = bps[j - 1][0], bps[j][0]
    elif kind == "negative power":
        bps[i][1] = draw(st.sampled_from([-5.0, -5e-324]))
    elif kind == "negative zero":
        bps[i][1] = -0.0
    elif kind == "first time" and 0 in pairs:
        bps[0][0] = draw(st.sampled_from([-0.0, 5e-324, 1e-3]))
    elif kind == "horizon edge" and pairs[-1] == len(bps) - 1:
        bps[-1][0] = draw(st.sampled_from(_horizon_edges(horizon)))


@st.composite
def raw_scenarios(draw) -> dict:
    """Raw scenario data as ``json.loads`` returns it: a small fleet and a
    breakpoint load that is valid or fails one to three checks narrowly
    (now and then an affine load or a bad horizon instead).  One load in
    five is flat over a horizon near the float range: its duration price
    is NaN past t = 0 while its settlement may stay finite, so only the
    series check stands between it and a CSV cell."""
    huge = draw(st.integers(0, 4)) == 0
    horizon = draw(st.sampled_from([1e300, 1e308] if huge else [1.0, 1, 24.0, 0.75, 1e-4, 3600.0]))
    n = draw(st.integers(2, 6))
    inner = sorted(draw(st.lists(
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), min_size=n - 2, max_size=n - 2, unique=True
    )))
    times = [draw(st.sampled_from([0, 0.0]))] + [u * horizon for u in inner] + [horizon]
    power = st.sampled_from([0, 0.0, 10, 350.5, 1000.0, 1e300]) | st.floats(0.0, 1e4)
    level = draw(power) if huge else None
    bps = [[t, draw(power) if level is None else level] for t in times]
    for _ in range(draw(st.sampled_from([0, 0, 1] if huge else [0, 1, 1, 1, 2, 3]))):
        _spoil(draw, bps, horizon)
    load = {"breakpoints": bps}
    if draw(st.integers(0, 9)) == 0:
        load = {"affine": {"base": draw(power), "slope": draw(st.sampled_from([0.0, 50.0, -1.0]))}}

    plants = []
    for j in range(draw(st.integers(1, 3))):
        plant = {
            "id": f"g{j}",
            "q2": draw(st.sampled_from([0.0005, 0.001, 0.002, 3e-309])),
            "q1": draw(st.sampled_from([0.0, 0.07, 0.5])),
            "q0": draw(st.sampled_from([0, 0.2])),
        }
        p_max = draw(st.sampled_from([None, None, 50.0, 400.0]))
        if p_max is not None:
            plant["p_max"] = p_max
        plants.append(plant)
    data = {
        "name": "generated",
        "horizon": draw(st.sampled_from([horizon] * 9 + [-1.0])),
        "load": load,
        "plants": plants,
    }
    mechanisms = draw(st.sampled_from([None, ["spot"], ["duration"], ["spot", "duration"]]))
    if mechanisms is not None:
        data["options"] = {"mechanisms": mechanisms, "allow_clamp": draw(st.booleans())}
    return data
