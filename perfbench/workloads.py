"""Seeded scenario generators for the three benchmark workloads.

Every generator takes the workload seed and a scenario index and returns
plain scenario data (a dict in the ctmarket scenario-file schema); the same
``(seed, index)`` always gives the same scenario.  The engine only ever sees
the generated file or JSON text.

Sizes, as (plants, load breakpoints), are in ``SIZES``; why each workload
was chosen is the ``why`` of its entry in ``BENCHMARK.json``.
"""

from __future__ import annotations

import json

import numpy as np

HORIZON = 24.0

SIZES = {
    "settle_deep": (8, 120),
    "clamped_spot": (30, 200),
    "dispatch_wide": (300, 10_000),
}


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def _times(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` strictly increasing breakpoint times from 0 to exactly HORIZON."""
    jitter = rng.uniform(-0.4, 0.4, size=n - 2)
    interior = HORIZON * (np.arange(1, n - 1) + jitter) / (n - 1)
    return np.concatenate([[0.0], interior, [HORIZON]])


def _interior_floor(q2: np.ndarray, q1: np.ndarray, margin: float) -> float:
    """Demand above which every plant's output stays strictly positive."""
    inv = 1.0 / (2.0 * q2)
    return float((q1.max() + margin) * inv.sum() - (q1 * inv).sum())


def _scenario(name: str, times, powers, q2, q1, q0, p_max=None) -> dict:
    plants = []
    for j in range(len(q2)):
        plant = {"id": f"g{j:03d}", "q2": float(q2[j]), "q1": float(q1[j]), "q0": float(q0[j])}
        if p_max is not None:
            plant["p_max"] = float(p_max[j])
        plants.append(plant)
    return {
        "name": name,
        "horizon": HORIZON,
        "load": {"breakpoints": [[float(t), float(p)] for t, p in zip(times, powers)]},
        "plants": plants,
    }


def settle_deep(seed: int, index: int) -> dict:
    n_plants, n_bp = SIZES["settle_deep"]
    rng = _rng(seed, index)
    q2 = 10.0 ** rng.uniform(-3.5, -2.0, size=n_plants)
    q1 = rng.uniform(0.5, 5.0, size=n_plants)
    q0 = rng.uniform(0.0, 5.0, size=n_plants)
    times = _times(rng, n_bp)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    day = 0.5 - 0.5 * np.cos(2.0 * np.pi * times / HORIZON)
    ripple = 0.5 + 0.5 * np.sin(4.0 * np.pi * times / HORIZON + phase)
    powers = (
        _interior_floor(q2, q1, 0.5) + 200.0
        + 250.0 * day + 100.0 * ripple + rng.uniform(0.0, 40.0, size=n_bp)
    )
    return _scenario(f"settle_deep-{seed}-{index}", times, powers, q2, q1, q0)


def clamped_spot(seed: int, index: int) -> dict:
    # Marginal-cost ranges [q1, q1 + 2 q2 p_max] all contain [20, 25], so
    # total supply rises strictly with price and no merit-order gap (supply
    # plateau) can occur.
    n_plants, n_bp = SIZES["clamped_spot"]
    rng = _rng(seed, index)
    q1 = rng.uniform(10.0, 20.0, size=n_plants)
    p_max = rng.uniform(20.0, 60.0, size=n_plants)
    q2 = rng.uniform(15.0, 30.0, size=n_plants) / (2.0 * p_max)
    q0 = rng.uniform(0.0, 50.0, size=n_plants)
    capacity = float(p_max.sum())
    times = _times(rng, n_bp)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    wave = np.sin(2.0 * np.pi * 3.0 * times / HORIZON + phase)
    share = np.clip(0.55 + 0.35 * wave + rng.uniform(-0.01, 0.01, size=n_bp), 0.1, 0.97)
    return _scenario(f"clamped_spot-{seed}-{index}", times, capacity * share, q2, q1, q0, p_max)


def dispatch_wide(seed: int, index: int) -> dict:
    n_plants, n_bp = SIZES["dispatch_wide"]
    rng = _rng(seed, index)
    q2 = 10.0 ** rng.uniform(-4.0, -1.3, size=n_plants)
    q1 = rng.uniform(0.0, 0.5, size=n_plants)
    q0 = rng.uniform(0.0, 5.0, size=n_plants)
    times = _times(rng, n_bp)
    steps = rng.uniform(0.05, 1.0, size=n_bp)
    powers = _interior_floor(q2, q1, 0.05) + 1.0 + np.cumsum(steps) - steps[0]
    return _scenario(f"dispatch_wide-{seed}-{index}", times, powers, q2, q1, q0)


GENERATORS = {
    "settle_deep": settle_deep,
    "clamped_spot": clamped_spot,
    "dispatch_wide": dispatch_wide,
}


def scenario_text(workload: str, seed: int, index: int) -> str:
    """The scenario as the JSON text the engine receives."""
    return json.dumps(GENERATORS[workload](seed, index))
