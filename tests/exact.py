"""Exact rational reference for dispatch, cost and spot settlement.

Each function reads its float inputs -- cost coefficients, bounds, load
knots, demands -- as the rationals they are (``Fraction`` of a float is
exact) and computes the paper's closed forms in ``fractions.Fraction``
without rounding.  Its results are the exact values at those inputs, so a
float result from the engine is judged by its distance from them in units
in the last place (``test_geometry_reference.ulps``).

Covered so far: the interior shadow price and every output at each load
knot, each plant's generation cost and spot revenue as per-segment
polynomials, and the clamped shadow price for a demand.  Duration
revenue and the duration price's correction term ``G(t)`` are not.
"""

from __future__ import annotations

import bisect
from fractions import Fraction
from typing import Sequence

from ctmarket import LoadCurve, Plant


def _exact(values) -> list[Fraction]:
    return [Fraction(x) for x in values.tolist()]


def interior_dispatch(
    plants: Sequence[Plant], load: LoadCurve
) -> tuple[list[Fraction], dict[str, list[Fraction]]]:
    """The interior shadow price at each load knot and each plant's output
    there: ``lam = (L + sum q1/(2 q2)) / sum 1/(2 q2)`` and
    ``P_j = (lam - q1_j) / (2 q2_j)``."""
    slopes = [1 / (2 * Fraction(p.cost.q2)) for p in plants]
    den = sum(slopes)
    offset = sum(Fraction(p.cost.q1) * s for p, s in zip(plants, slopes))
    lam = [(demand + offset) / den for demand in _exact(load.powers)]
    outputs = {
        p.id: [(v - Fraction(p.cost.q1)) * s for v in lam] for p, s in zip(plants, slopes)
    }
    return lam, outputs


def generation_cost(plant: Plant, times: Sequence[Fraction], output: Sequence[Fraction]) -> Fraction:
    """The cycle cost of an output linear between ``times``: per segment
    ``q2 dt (b0^2 + b0 b1 + b1^2) / 3 + q1 dt (b0 + b1) / 2 + q0 dt``."""
    q2, q1, q0 = (Fraction(plant.cost.q2), Fraction(plant.cost.q1), Fraction(plant.cost.q0))
    total = Fraction(0)
    for t0, t1, b0, b1 in zip(times, times[1:], output, output[1:]):
        dt = t1 - t0
        total += q2 * dt * (b0 * b0 + b0 * b1 + b1 * b1) / 3 + q1 * dt * (b0 + b1) / 2 + q0 * dt
    return total


def spot_revenue(
    times: Sequence[Fraction], lam: Sequence[Fraction], output: Sequence[Fraction]
) -> Fraction:
    """``int lam P dt`` for a price and an output both linear between
    ``times``: per segment ``dt (2 a0 b0 + a0 b1 + a1 b0 + 2 a1 b1) / 6``."""
    total = Fraction(0)
    for k in range(len(times) - 1):
        dt, a0, a1, b0, b1 = times[k + 1] - times[k], lam[k], lam[k + 1], output[k], output[k + 1]
        total += dt * (2 * a0 * b0 + a0 * b1 + a1 * b0 + 2 * a1 * b1) / 6
    return total


def clamped_lambdas(plants: Sequence[Plant], demands: Sequence[float]) -> list[Fraction]:
    """For each demand, the smallest ``lam`` whose total clipped supply
    ``sum clip((lam - q1)/(2 q2), p_min, p_max)`` equals it.

    Supply is piecewise linear in ``lam``, with kinks at the thresholds
    ``2 q2 p + q1`` where a plant meets a bound.  The exact supplies at the
    thresholds locate the bracket holding a demand, and ``lam`` solves
    that bracket's affine piece.  At or below the first threshold's supply
    the answer is the first threshold, as in the engine.
    """
    coeffs = [
        (
            Fraction(p.cost.q1),
            2 * Fraction(p.cost.q2),
            Fraction(p.p_min),
            None if p.p_max is None else Fraction(p.p_max),
        )
        for p in plants
    ]

    def supply(v: Fraction) -> Fraction:
        total = Fraction(0)
        for q1, two_q2, lo, hi in coeffs:
            raw = max((v - q1) / two_q2, lo)
            total += raw if hi is None else min(raw, hi)
        return total

    thr = sorted(
        {two_q2 * bound + q1 for q1, two_q2, lo, hi in coeffs for bound in (lo, hi) if bound is not None}
    )
    supplies = [supply(v) for v in thr]
    # Beyond the last threshold only the unbounded plants still move.
    top_slope = sum(1 / two_q2 for q1, two_q2, lo, hi in coeffs if hi is None)

    def solve(d: Fraction) -> Fraction:
        if d <= supplies[0]:
            return thr[0]
        k = bisect.bisect_left(supplies, d)
        if k == len(thr):
            if top_slope == 0:
                raise ValueError(f"demand {float(d)!r} exceeds the fleet's capacity")
            return thr[-1] + (d - supplies[-1]) / top_slope
        return thr[k - 1] + (d - supplies[k - 1]) * (thr[k] - thr[k - 1]) / (supplies[k] - supplies[k - 1])

    return [solve(Fraction(d)) for d in demands]
