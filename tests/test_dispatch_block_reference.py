"""Dispatch outputs made a block of plants at a time, against per-plant code.

``solve_equilibrium`` decides the bound checks from the shadow price's
NaN-ignoring extremes.  Every solution, interior or clamped, makes each
output from lam when it is looked up, and the clamped solve finds its
clamp events on blocks of rows.  The reference below is the per-plant
code it replaced, returning plain arrays and curves rather than a
solution: one array, one ``np.any`` test per bound and one validated
``LoadCurve`` per plant, and per-plant clipping and clamp runs on the
clamped path.  Its one addition is the merit-order entry-point rule,
marked where it applies: an interior output a rounding below 0 that
``p_min``'s tolerance accepts runs at +0.0.

The same IEEE operations run on every cell, so results must be equal
bits, refusals the same exception type and message, and clamp events the
same list in the same order.  Both sides run with numpy's floating-point
warnings off, so that fleets whose coefficient sums overflow (lam NaN or
inf) reach the checks instead of stopping at the first warning.
"""

from __future__ import annotations

import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctmarket import InfeasibleDispatchError, LoadCurve, Plant, QuadraticCost, solve_equilibrium
from ctmarket import dispatch
from ctmarket.dispatch import ClampEvent

# ----------------------------------------------------------------------
# Reference: the per-plant interior and clamped code
# ----------------------------------------------------------------------


def _crosses(values, bound, below) -> bool:
    gap = bound - values if below else values - bound
    return bool(np.any(gap > 1e-9 * max(1.0, abs(bound))))


def _curve_on(times, values) -> LoadCurve:
    values.setflags(write=False)
    return LoadCurve(times=times, powers=values)


def _clip(raw, lo, hi):
    raw = np.where(lo > raw, lo, raw)
    return np.where(hi < raw, hi, raw)


def _clamp_runs(times, at) -> list[tuple[float, float]]:
    both = np.concatenate(([False], at[:-1] & at[1:], [False]))
    edges = np.flatnonzero(both[1:] != both[:-1])
    return [(float(times[s]), float(times[e])) for s, e in zip(edges[::2], edges[1::2])]


def ref_solve(plants, load, allow_clamp=False) -> SimpleNamespace:
    plants = list(plants)
    dispatch._check_plants(plants)
    inv2a = np.array([1.0 / (2.0 * p.cost.q2) for p in plants])
    q1 = np.array([p.cost.q1 for p in plants])
    denom = float(inv2a.sum())
    offset = float((q1 * inv2a).sum())

    times = load.times
    lam = (load.powers + offset) / denom
    outputs = {p.id: (lam - p.cost.q1) * inv2a[j] for j, p in enumerate(plants)}

    bounds = [
        (p, kind, bound, kind == "p_min")
        for p in plants
        for kind, bound in (("p_min", p.p_min), ("p_max", p.p_max))
        if bound is not None
    ]
    if not any(_crosses(outputs[p.id], bound, below) for p, _, bound, below in bounds):
        # The entry-point rule: the one change from the per-plant code.
        outputs = {pid: np.where(vals < 0.0, 0.0, vals) for pid, vals in outputs.items()}
        return SimpleNamespace(
            lambda_curve=_curve_on(times, lam),
            outputs={pid: _curve_on(times, vals) for pid, vals in outputs.items()},
            plants=plants,
            load=load,
            horizon=load.horizon,
            clamped=False,
            clamp_events=(),
        )

    if not allow_clamp:
        violations = [
            (s, e, p, kind, bound)
            for p, kind, bound, below in bounds
            if _crosses(outputs[p.id], bound, below)
            for s, e in dispatch._violation_intervals(times, outputs[p.id], bound, below)
        ]
        s, e, plant, kind, bound = min(violations, key=lambda v: v[0])
        side = "below p_min" if kind == "p_min" else "above p_max"
        raise InfeasibleDispatchError(
            f"unconstrained dispatch puts plant {plant.id!r} {side} = {bound:.6g} MW "
            f"on t in [{s:.6g}, {e:.6g}] h; enable clamped dispatch to proceed "
            f"(spot settlement only)",
            plant=plant.id,
            interval=(s, e),
            bound=bound,
            kind=kind,
        )

    fleet = dispatch._Fleet(plants)
    knot_times, lam_vals = dispatch._clamped_knots(fleet, load)
    out_vals = {
        p.id: _clip((lam_vals - fleet.q1[j]) / fleet.two_q2[j], fleet.p_min[j], fleet.p_max[j])
        for j, p in enumerate(plants)
    }
    events = []
    for p in plants:
        vals = out_vals[p.id]
        for kind, bound in (("p_min", p.p_min), ("p_max", p.p_max)):
            if bound is None:
                continue
            at = np.abs(vals - bound) <= 1e-9 * max(1.0, abs(bound))
            events.extend(ClampEvent(p.id, s, e, kind, bound) for s, e in _clamp_runs(knot_times, at))
    return SimpleNamespace(
        lambda_curve=_curve_on(knot_times, lam_vals),
        outputs={pid: _curve_on(knot_times, vals) for pid, vals in out_vals.items()},
        plants=plants,
        load=load,
        horizon=load.horizon,
        clamped=bool(events),
        clamp_events=tuple(events),
    )


# ----------------------------------------------------------------------
# Fleets: bounds at the tolerance edge of the unconstrained outputs,
# p_min > 0, no p_max, and coefficient sums past the float range
# ----------------------------------------------------------------------

# Multiples of the bound tolerance by which a bound sits past an output extreme.
_EDGE = [-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]


@st.composite
def cases(draw):
    n = draw(st.integers(1, 6))
    knots = draw(st.integers(2, 6))
    times = np.cumsum([0.0] + draw(st.lists(st.floats(0.01, 2.0), min_size=knots - 1, max_size=knots - 1)))
    if draw(st.booleans()):
        # 1/(2 q2) of 1.7e308 or inf: the sums overflow, and with loads near
        # the float range lam is 0, inf or NaN, at some knots or all.
        q2 = [draw(st.sampled_from([3e-309, 1e-310, 1e-3])) for _ in range(n)]
        q1 = [draw(st.sampled_from([0.0, 0.5])) for _ in range(n)]
        powers = [draw(st.sampled_from([0.0, 10.0, 5e307, 1.7e308])) for _ in range(knots)]
    else:
        q2 = [draw(st.sampled_from([0.0005, 0.001]) | st.floats(1e-4, 1e-2)) for _ in range(n)]
        q1 = [draw(st.sampled_from([0.0, 0.1, 0.3]) | st.floats(0.0, 1.0)) for _ in range(n)]
        powers = draw(st.lists(st.floats(0.0, 1000.0), min_size=knots, max_size=knots))
    load = LoadCurve(times=times, powers=powers)

    with np.errstate(all="ignore"):
        inv2a = np.array([1.0 / (2.0 * a) for a in q2])
        lam = (load.powers + float((np.array(q1) * inv2a).sum())) / float(inv2a.sum())
        raw = [(lam - b) * c for b, c in zip(q1, inv2a)]
    plants = []
    for j in range(n):
        lo, hi = float(np.fmin.reduce(raw[j])), float(np.fmax.reduce(raw[j]))
        p_min = draw(st.sampled_from(["zero", "edge", "positive"]))
        if p_min == "edge":
            p_min = lo + draw(st.sampled_from(_EDGE)) * 1e-9 * max(1.0, abs(lo))
        elif p_min == "positive":
            p_min = lo * draw(st.sampled_from([0.5, 1.0, 1.5]))
        else:
            p_min = 0.0
        p_min = max(p_min, 0.0) if math.isfinite(p_min) else 0.0
        p_max = draw(st.sampled_from(["none", "edge", "binding"]))
        if p_max == "edge":
            p_max = hi + draw(st.sampled_from(_EDGE)) * 1e-9 * max(1.0, abs(hi))
        elif p_max == "binding":
            p_max = lo / 2.0 + hi / 2.0
        if p_max == "none" or not math.isfinite(p_max):
            p_max = None
        elif p_max < p_min:
            p_max = p_min
        plants.append(Plant(f"g{j}", QuadraticCost(q2[j], q1[j], 0.0), p_min=p_min, p_max=p_max))
    return plants, load, draw(st.booleans())


def _outcome(call):
    """A call's result, or the type and message of what it raised."""
    try:
        with np.errstate(all="ignore"):
            return call()
    except Exception as exc:  # every refusal is compared, whatever its type
        return type(exc), str(exc)


def _event_bits(event: ClampEvent) -> tuple:
    return tuple(x.hex() if isinstance(x, float) else x for x in event)


# The case-study fleet one ulp below 280 MW, where plant3 enters the merit
# order at about -1e-16 MW: the entry-point rule applies.
_ENTRY_POINT = (
    [
        Plant(f"plant{j + 1}", QuadraticCost(q2, q1, 0.0))
        for j, (q2, q1) in enumerate([(0.0005, 0.07), (0.001, 0.14), (0.002, 0.28)])
    ],
    LoadCurve([(0.0, 279.99999999999994), (1.0, 1000.0)]),
    False,
)

# Subnormal prices: plant b's output row is [-5e-324, -0.0]; only the first
# cell is below 0.0, and the -0.0 keeps its sign.
_NEGATIVE_ZERO = (
    [Plant("a", QuadraticCost(0.5, 0.0, 0.0)), Plant("b", QuadraticCost(1.0, 1.5e-323, 0.0))],
    LoadCurve([(0.0, 0.0), (1.0, 5e-324)]),
    False,
)


# Clamped: g0's map (lam - q1) / (2 q2) overflows to inf at both knots and
# p_max = 0 clips it back; a lookup outside the solve raises no warning.
_CLIPPED_OVERFLOW = (
    [
        Plant("g0", QuadraticCost(3e-309, 0.0, 0.0), p_min=0.0, p_max=0.0),
        Plant("g1", QuadraticCost(0.001, 0.5, 0.0)),
    ],
    LoadCurve([(0.0, 10.0), (1.0, 5e307)]),
    True,
)


@settings(max_examples=600, deadline=None)
@given(cases(), st.sampled_from([dispatch._BLOCK_ENTRIES, 1, 7]))
@example(_ENTRY_POINT, dispatch._BLOCK_ENTRIES)
@example(_NEGATIVE_ZERO, dispatch._BLOCK_ENTRIES)
@example(_CLIPPED_OVERFLOW, dispatch._BLOCK_ENTRIES)
def test_block_dispatch_matches_per_plant_reference(case, block_entries):
    plants, load, allow_clamp = case
    want = _outcome(lambda: ref_solve(plants, load, allow_clamp=allow_clamp))
    # Small blocks fill the outputs a row or two at a time, as a long load does.
    with mock.patch.object(dispatch, "_BLOCK_ENTRIES", block_entries), np.errstate(all="ignore"):
        got = _outcome(lambda: solve_equilibrium(plants, load, allow_clamp=allow_clamp))
        if isinstance(want, tuple) or isinstance(got, tuple):
            assert got == want
            return

        times = got.lambda_curve.times
        assert times.tobytes() == want.lambda_curve.times.tobytes()
        assert got.lambda_curve.powers.tobytes() == want.lambda_curve.powers.tobytes()
        assert list(got.outputs) == list(want.outputs)
        # Each lookup makes its output from lam.
        for p in plants:
            assert got.outputs[p.id].powers.tobytes() == want.outputs[p.id].powers.tobytes(), p.id
        assert list(map(_event_bits, got.clamp_events)) == list(map(_event_bits, want.clamp_events))
        assert got.clamped == want.clamped
        assert got.horizon == want.horizon and got.load is load

    # The outputs are read-only, on one times array.
    for p in plants:
        curve = got.outputs[p.id]
        assert curve.times is times and not curve.powers.flags.writeable


def test_nan_cells_decide_no_bound():
    """lam is [0, NaN]: the NaN-free cell alone decides that each plant
    falls below p_min, as the per-plant ``np.any`` decided it."""
    plants = [Plant(f"g{j}", QuadraticCost(3e-309, 0.5, 0.0)) for j in range(2)]
    load = LoadCurve([(0.0, 0.0), (1.0, 5e307)])
    got = _outcome(lambda: solve_equilibrium(plants, load))
    assert got == _outcome(lambda: ref_solve(plants, load))
    assert got[0] is InfeasibleDispatchError


def test_nan_cell_before_crossing_starts_an_interval():
    """lam is [NaN, 0]: the segment from the NaN cell to the cell below
    p_min lies below p_min from its start.  Both sides share
    ``_violation_intervals``; while it started no interval at a NaN, both
    refused with ``ValueError: min() arg is an empty sequence``."""
    plants = [Plant(f"g{j}", QuadraticCost(3e-309, 0.5, 0.0)) for j in range(2)]
    load = LoadCurve([(0.0, 5e307), (1.0, 0.0)])
    got = _outcome(lambda: solve_equilibrium(plants, load))
    assert got == _outcome(lambda: ref_solve(plants, load))
    assert got[0] is InfeasibleDispatchError
    assert "plant 'g0' below p_min = 0 MW on t in [0, 1] h" in got[1]
