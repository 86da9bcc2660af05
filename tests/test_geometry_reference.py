"""Array geometry against a plain per-segment reference, bit for bit.

The level-set routines in ``ctmarket.curves`` work on whole arrays.  The
reference below is the straightforward scalar form: one Python loop over
the segments, adding each contribution to a running total.  The array code
adds the same contributions in the same order, so the results must be
equal exactly (``==`` and equal bytes), not approximately.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_monotone_load, random_plants, random_wiggly_curve
from ctmarket import LoadCurve, MeasureFunction, duration_curve, solve_equilibrium

# ----------------------------------------------------------------------
# Scalar reference: one segment at a time
# ----------------------------------------------------------------------


def _segments(curve):
    pts = curve.breakpoints
    return zip(pts, pts[1:])


def ref_measure_of(curve: LoadCurve, y: float) -> float:
    total = 0.0
    for (t0, p0), (t1, p1) in _segments(curve):
        dt = t1 - t0
        if p0 == p1:
            if p0 > y:
                total += dt
        else:
            lo, hi = (p0, p1) if p0 < p1 else (p1, p0)
            frac = (hi - y) / (hi - lo)
            total += dt * min(max(frac, 0.0), 1.0)
    return total


def ref_flat_duration(curve: LoadCurve, y: float) -> float:
    return sum(t1 - t0 for (t0, p0), (t1, p1) in _segments(curve) if p0 == p1 == y)


def ref_sample(curve: LoadCurve, ys: np.ndarray) -> np.ndarray:
    total = np.zeros_like(ys)
    for (t0, p0), (t1, p1) in _segments(curve):
        dt = t1 - t0
        if p0 == p1:
            total += np.where(ys < p0, dt, 0.0)
        else:
            lo, hi = (p0, p1) if p0 < p1 else (p1, p0)
            with np.errstate(over="ignore"):
                total += dt * np.clip((hi - ys) / (hi - lo), 0.0, 1.0)
    return total


def ref_duration_points(curve: LoadCurve) -> list[tuple[float, float]]:
    """Breakpoints of the rearrangement, before collinear merging."""
    T = curve.horizon
    raw = []
    for y in sorted(set(p for _, p in curve.breakpoints)):
        m = ref_measure_of(curve, y)
        d = ref_flat_duration(curve, y)
        raw.append((min(max(T - m - d, 0.0), T), y))
        if d > 0.0:
            raw.append((min(max(T - m, 0.0), T), y))
    raw[0] = (0.0, raw[0][1])
    raw[-1] = (T, raw[-1][1])
    pts = [raw[0]]
    for t, y in raw[1:]:
        if t > pts[-1][0] + 1e-15 * max(T, 1.0):
            pts.append((t, y))
    if pts[-1][0] != T:
        pts.append((T, curve.max_power))
    return pts


def ref_duration_curve(curve: LoadCurve) -> tuple[tuple[float, float], ...]:
    out = []
    for nxt in ref_duration_points(curve):
        if len(out) >= 2:
            (t0, p0), (t1, p1) = out[-2], out[-1]
            if (p1 - p0) * (nxt[0] - t1) == (nxt[1] - p1) * (t1 - t0):
                out[-1] = nxt
                continue
        out.append(nxt)
    return tuple(out)


# ----------------------------------------------------------------------
# Curves: flat segments, repeated levels, non-monotone shapes
# ----------------------------------------------------------------------


@st.composite
def curves(draw) -> LoadCurve:
    n = draw(st.integers(2, 14))
    steps = draw(
        st.lists(
            st.sampled_from([0.25, 0.5, 1.0]) | st.floats(0.01, 5.0),
            min_size=n - 1,
            max_size=n - 1,
        )
    )
    # A small pool of levels makes repeats, and so flat segments, common.
    pool = draw(st.lists(st.floats(0.0, 1000.0), min_size=1, max_size=4))
    powers = draw(
        st.lists(st.sampled_from(pool) | st.floats(0.0, 1000.0), min_size=n, max_size=n)
    )
    return LoadCurve(times=np.concatenate([[0.0], np.cumsum(steps)]), powers=powers)


def probe_levels(curve: LoadCurve, extra=()) -> list[float]:
    levels = list(curve.levels)
    mids = [(a + b) / 2.0 for a, b in zip(levels, levels[1:])]
    return levels + mids + [curve.min_power - 1.0, curve.max_power + 1.0, *extra]


def seeded_curves() -> list[LoadCurve]:
    rng = np.random.default_rng(20)
    out = [random_wiggly_curve(rng) for _ in range(20)]
    out += [random_monotone_load(rng, random_plants(rng)) for _ in range(10)]
    out.append(LoadCurve([(0.0, 5.0), (1.0, 5.0), (2.0, 9.0), (3.0, 5.0), (4.0, 5.0), (5.0, 9.0)]))
    return out


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def check_against_reference(curve: LoadCurve, ys: list[float]) -> None:
    m = MeasureFunction(curve)
    for y in ys:
        assert curve.measure_of(y) == ref_measure_of(curve, y)
        assert m(y) == ref_measure_of(curve, y)
        assert curve.flat_duration(y) == ref_flat_duration(curve, y)
        assert m.limit_from_below(y) == ref_measure_of(curve, y) + ref_flat_duration(curve, y)
    arr = np.array(ys)
    assert_same_bits(m.sample(arr), ref_sample(curve, arr))
    assert duration_curve(curve).breakpoints == ref_duration_curve(curve)


@settings(max_examples=300, deadline=None)
@given(curve=curves(), extra=st.lists(st.floats(-10.0, 1100.0), max_size=5))
def test_geometry_matches_reference_on_generated_curves(curve, extra):
    check_against_reference(curve, probe_levels(curve, extra))


@pytest.mark.parametrize("index", range(len(seeded_curves())))
def test_geometry_matches_reference_on_seeded_curves(index):
    curve = seeded_curves()[index]
    check_against_reference(curve, probe_levels(curve))


def test_sample_matches_reference_across_level_blocks():
    """Enough levels to split the sum into several blocks."""
    rng = np.random.default_rng(3)
    times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 1.0, 300))])
    powers = rng.choice([0.0, 10.0, 20.0, 35.0], size=301) + rng.uniform(0, 1, 301) * (
        rng.random(301) < 0.5
    )
    curve = LoadCurve(times=times, powers=powers)
    ys = np.linspace(-1.0, 37.0, 1001)
    assert_same_bits(MeasureFunction(curve).sample(ys), ref_sample(curve, ys))
    grid = ys.reshape(7, 143)
    assert_same_bits(MeasureFunction(curve).sample(grid), ref_sample(curve, grid))


def test_sample_keeps_scalar_and_empty_shapes():
    curve = LoadCurve([(0.0, 0.0), (1.0, 10.0)])
    m = MeasureFunction(curve)
    assert m.sample(4.0).shape == ()
    assert float(m.sample(4.0)) == ref_measure_of(curve, 4.0)
    assert m.sample(np.array([])).shape == (0,)


# ----------------------------------------------------------------------
# LoadCurve value semantics
# ----------------------------------------------------------------------


PAIRS = ((0.0, 5.0), (0.5, 7.5), (2.0, 7.5), (3.0, 1.0))


class TestValueSemantics:
    def test_equal_curves_compare_and_hash_equal(self):
        a = LoadCurve(PAIRS)
        b = LoadCurve(times=[t for t, _ in PAIRS], powers=[p for _, p in PAIRS])
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_different_curves_compare_unequal(self):
        a = LoadCurve(PAIRS)
        assert a != LoadCurve(PAIRS[:-1])
        assert a != LoadCurve([*PAIRS[:-1], (3.0, 2.0)])
        assert a != PAIRS
        assert (a == PAIRS) is False

    def test_signed_zero_power_is_the_same_value(self):
        a = LoadCurve([(0.0, 0.0), (1.0, 1.0)])
        b = LoadCurve([(0.0, -0.0), (1.0, 1.0)])
        assert a == b and hash(a) == hash(b)

    def test_breakpoints_round_trip(self):
        a = LoadCurve(PAIRS)
        assert a.breakpoints == PAIRS
        assert all(type(v) is float for pt in a.breakpoints for v in pt)
        assert LoadCurve(a.breakpoints) == a
        assert LoadCurve(zip(a.times, a.powers)) == a

    def test_immutable(self):
        a = LoadCurve(PAIRS)
        for name in ("breakpoints", "times", "powers", "_times", "_powers", "other"):
            with pytest.raises(AttributeError):
                setattr(a, name, None)
        with pytest.raises(ValueError):
            a.times[0] = 1.0
        with pytest.raises(ValueError):
            a.powers[0] = 1.0

    def test_writable_input_arrays_are_copied(self):
        times, powers = np.array([0.0, 1.0]), np.array([2.0, 3.0])
        a = LoadCurve(times=times, powers=powers)
        times[1], powers[0] = 9.0, 9.0
        assert a.breakpoints == ((0.0, 2.0), (1.0, 3.0))

    def test_read_only_input_arrays_are_shared(self):
        times = np.array([0.0, 1.0])
        times.setflags(write=False)
        assert LoadCurve(times=times, powers=[1.0, 2.0]).times is times

    def test_array_form_keeps_every_check(self):
        cases = [
            ({"times": [0.0], "powers": [1.0]}, "at least 2"),
            ({"times": [0.5, 1.0], "powers": [1.0, 1.0]}, "must be 0"),
            ({"times": [0.0, 1.0, 1.0], "powers": [1.0, 1.0, 1.0]}, "strictly increasing"),
            ({"times": [0.0, 1.0], "powers": [1.0, math.nan]}, "finite"),
            ({"times": [0.0, 1.0], "powers": [1.0, -1.0]}, "non-negative"),
            ({"times": [0.0, 1.0], "powers": [1.0, 1.0, 1.0]}, "equal length"),
        ]
        for kwargs, message in cases:
            with pytest.raises(ValueError, match=message):
                LoadCurve(**kwargs)

    def test_malformed_pairs_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            LoadCurve([])
        with pytest.raises(ValueError, match="pairs"):
            LoadCurve([(0.0, 1.0, 2.0), (1.0, 2.0, 3.0)])
        with pytest.raises(TypeError):
            LoadCurve()
        with pytest.raises(TypeError):
            LoadCurve(PAIRS, times=[0.0, 1.0], powers=[1.0, 1.0])


def test_solution_curves_share_one_read_only_time_axis():
    rng = np.random.default_rng(5)
    plants = random_plants(rng, 4)
    load = random_monotone_load(rng, plants)
    sol = solve_equilibrium(plants, load)
    axis = sol.lambda_curve.times
    assert not axis.flags.writeable
    assert all(curve.times is axis for curve in sol.outputs.values())
    assert all(not curve.powers.flags.writeable for curve in sol.outputs.values())
