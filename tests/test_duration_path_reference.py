"""The duration path's array forms against the code they replaced, bit for bit.

Four pieces of duration settlement were rewritten for speed, each meant
to give the same bits as before:

* the level-set queries of a non-decreasing curve, ``MeasureFunction``'s
  ``_above`` and ``_at``, which read a padded segment table after one
  ``searchsorted``;
* ``duration_curve``, which builds the rearranged points as arrays and runs
  its two sequential rules (the merge of points within
  ``DURATION_KNOT_TOL`` and of collinear points) only where a vectorised
  test finds a candidate;
* the engine's panel counts at two Simpson panels, set to 2 per piece
  without the general allocation;
* ``settle_duration``'s output range, read from the extremes that dispatch
  checks instead of each row's ``min`` and ``max``.

The code each one replaced is kept below as the reference.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import fleets, loads
from ctmarket import (
    LoadCurve,
    MeasureFunction,
    Plant,
    QuadraticCost,
    duration_curve,
    duration_price,
    lebesgue_integrate,
    riemann_integrate,
    settle_duration,
    solve_equilibrium,
)
from ctmarket.curves import _merge_collinear
from ctmarket.errors import DomainError
from ctmarket.quadrature import EXACT_CONFIG, QuadratureConfig
from ctmarket.tolerances import DURATION_KNOT_TOL

TINY = 2.0**-1070  # a subnormal power span


def same_bits(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


# ----------------------------------------------------------------------
# Level sets of a non-decreasing curve
# ----------------------------------------------------------------------


def ref_segments(curve: LoadCurve):
    """Per segment, as column vectors: duration, top power, width (1.0 on
    a flat segment) and flatness."""
    p0, p1 = curve.powers[:-1, None], curve.powers[1:, None]
    flat = p0 == p1
    hi = np.maximum(p0, p1)
    width = np.where(flat, 1.0, hi - np.minimum(p0, p1))
    return (curve.times[1:] - curve.times[:-1])[:, None], hi, width, flat


def ref_above(curve: LoadCurve, ys) -> np.ndarray:
    """``m`` at ``ys`` on a non-decreasing curve, as the segment index and
    two ``where``s gave it."""
    dt, hi, width, flat = ref_segments(curve)
    ys = np.asarray(ys, dtype=float)
    t, p = curve.times, curve.powers
    n, T = len(dt), t[-1]
    r = p.searchsorted(ys, side="right")
    j = np.minimum(np.maximum(r - 1, 0), n - 1)
    with np.errstate(over="ignore"):
        frac = (hi[:, 0][j] - ys) / width[:, 0][j]
    part = dt[:, 0][j] * np.minimum(np.maximum(frac, 0.0), 1.0)
    total = np.where(r == 0, T, np.where(r > n, 0.0, (T - t[np.minimum(r, n)]) + part))
    if flat.all():
        return total
    return np.where(np.isnan(ys), np.nan, total)


def ref_at(curve: LoadCurve, ys) -> np.ndarray:
    """Flat time at ``ys`` on a non-decreasing curve, searched for."""
    ys = np.asarray(ys, dtype=float)
    t, p = curve.times, curve.powers
    first = p.searchsorted(ys, side="left")
    last = p.searchsorted(ys, side="right") - 1
    return np.where(last > first, t[last] - t[np.minimum(first, len(t) - 1)], 0.0)


@st.composite
def monotone_curves(draw) -> LoadCurve:
    """A non-decreasing curve of 1 to 9 segments: flat runs (a rise of 0),
    subnormal spans (from 0) and rises of any size."""
    n = draw(st.integers(1, 9))
    steps = draw(st.lists(st.sampled_from([0.25, 0.5, 1.0]) | st.floats(1e-3, 5.0), min_size=n, max_size=n))
    rise = st.sampled_from([0.0, 0.0, TINY, 1.0]) | st.floats(0.0, 500.0)
    start = draw(st.sampled_from([0.0, 250.0]) | st.floats(0.0, 1000.0))
    powers = np.cumsum([start, *draw(st.lists(rise, min_size=n, max_size=n))])
    return LoadCurve(times=np.cumsum([0.0, *steps]), powers=powers)


def probe(curve: LoadCurve, extra: list[float]) -> np.ndarray:
    """Levels at and next to every knot, at every piece's middle, outside
    the range, +-inf, NaN and ``extra``."""
    p = curve.powers
    return np.concatenate([
        p, np.nextafter(p, -math.inf), np.nextafter(p, math.inf), (p[:-1] + p[1:]) / 2.0,
        [p[0] - 1.0, p[-1] + 1.0, -1e300, 1e300, -math.inf, math.inf, math.nan, 0.0, -0.0],
        extra,
    ])


@settings(max_examples=200, deadline=None)
@given(monotone_curves(), st.lists(st.floats(-10.0, 2000.0), max_size=4))
@example(LoadCurve([(0.0, 0.0), (1.0, TINY), (2.0, 1.0)]), [TINY / 2.0, 1e-310])
@example(LoadCurve([(0.0, 4.0), (1.0, 4.0), (3.0, 4.0)]), [])  # all flat: m(NaN) is 0.0
@example(LoadCurve([(0.0, 2.0), (1.5, 7.0)]), [])  # one segment
@example(LoadCurve([(0.0, 1.0), (0.5, 5.0), (1.5, 5.0), (3.0, 9.0)]), [])  # a plateau inside
def test_level_sets_match_the_searched_form(curve, extra):
    """``sample``, ``_at``, a call and ``limit_from_below`` give the bits of
    the form with a clipped segment index and ``where``s, at every level
    and in every shape."""
    assert curve.is_non_decreasing
    m = MeasureFunction(curve)
    ys = probe(curve, extra)
    above, at = ref_above(curve, ys), ref_at(curve, ys)
    assert same_bits(m.sample(ys), above)
    assert same_bits(m._at(ys), at)
    assert same_bits(m.limit_from_below(ys), above + at)
    grid = ys[: len(ys) // 2 * 2].reshape(2, -1)
    assert same_bits(m.sample(grid), ref_above(curve, grid))
    assert same_bits(m.limit_from_below(grid), ref_above(curve, grid) + ref_at(curve, grid))
    for y in ys.tolist():
        assert same_bits(m(y), float(ref_above(curve, y)))
        assert same_bits(m.limit_from_below(y), float(ref_above(curve, y) + ref_at(curve, y)))
        assert m.sample(y).shape == ()


# ----------------------------------------------------------------------
# The rearrangement
# ----------------------------------------------------------------------


def ref_raw_points(curve: LoadCurve) -> list[tuple[float, float]]:
    """Each level's start point, and its end point where it carries flat
    time, the first and last snapped to 0 and T."""
    T = curve.horizon
    measure = MeasureFunction(curve)
    levels = np.unique(curve.powers)
    m = measure._strict(levels)
    d = measure._flat(levels)
    starts = np.clip(T - m - d, 0.0, T).tolist()
    ends = np.clip(T - m, 0.0, T).tolist()
    raw: list[tuple[float, float]] = []
    for start, end, y, flat in zip(starts, ends, levels.tolist(), d.tolist()):
        raw.append((start, y))
        if flat > 0.0:
            raw.append((end, y))
    raw[0] = (0.0, raw[0][1])
    raw[-1] = (T, raw[-1][1])
    return raw


def ref_duration_curve(curve: LoadCurve) -> LoadCurve:
    """``duration_curve`` with its points built and merged by loops."""
    T = curve.horizon
    raw = ref_raw_points(curve)
    pts = [raw[0]]
    tol = DURATION_KNOT_TOL * max(T, 1.0)
    for t, y in raw[1:]:
        if t <= pts[-1][0] + tol:
            continue
        pts.append((t, y))
    if pts[-1][0] != T:
        pts.append((T, curve.max_power))
    return LoadCurve(_merge_collinear(pts))


@st.composite
def rearranged_loads(draw) -> LoadCurve:
    """A load of 2 to 12 knots, times on a grid of quarter hours now and
    then, whose next power repeats the last (a plateau), continues its
    line (a collinear run), lies within a few ulps of an earlier one (points
    closer than ``DURATION_KNOT_TOL`` once rearranged) or is new."""
    n = draw(st.integers(2, 12))
    steps = draw(st.lists(st.sampled_from([0.25, 0.5]) | st.floats(0.01, 4.0), min_size=n - 1, max_size=n - 1))
    powers = [draw(st.floats(0.0, 1000.0))]
    for _ in range(n - 1):
        kind = draw(st.sampled_from(["plateau", "line", "near", "new"]))
        last = powers[-1]
        if kind == "plateau":
            powers.append(last)
        elif kind == "line" and len(powers) > 1:
            powers.append(max(0.0, 2.0 * last - powers[-2]))
        elif kind == "near":
            level = draw(st.sampled_from(powers))
            powers.append(level + draw(st.integers(-4, 4)) * math.ulp(level))
        else:
            powers.append(draw(st.floats(0.0, 1000.0)))
    return LoadCurve(times=np.cumsum([0.0, *steps]), powers=np.abs(powers))


# A peak whose rise and fall pass 500 MW at levels 1 ulp apart: their
# points lie about 1e-16 h apart once rearranged, so one is dropped.
CLOSE = LoadCurve([(0.0, 0.0), (0.5, 500.0), (1.0, 1000.0), (1.5, math.nextafter(500.0, 1e9)), (2.0, 0.0)])
# A straight ramp that doubles back: its rearranged points are collinear.
COLLINEAR = LoadCurve([(0.0, 0.0), (1.0, 100.0), (2.0, 200.0), (3.0, 100.0), (4.0, 0.0)])


@settings(max_examples=400, deadline=None)
@given(rearranged_loads() | loads())
@example(CLOSE)
@example(COLLINEAR)
def test_rearrangement_matches_the_loops(curve):
    got, want = duration_curve(curve), ref_duration_curve(curve)
    assert same_bits(got.times, want.times)
    assert same_bits(got.powers, want.powers)


def test_both_sequential_rules_fire_on_their_examples():
    """Two raw points of ``CLOSE`` lie within the tolerance, and those of
    ``COLLINEAR`` are apart but collinear, so the loops run on each."""
    close, collinear = ref_raw_points(CLOSE), ref_raw_points(COLLINEAR)
    gap = lambda pts: min(b[0] - a[0] for a, b in zip(pts, pts[1:]))  # noqa: E731
    assert gap(close) <= DURATION_KNOT_TOL
    assert gap(collinear) > DURATION_KNOT_TOL and _merge_collinear(collinear) != collinear
    assert duration_curve(CLOSE).breakpoints == ((0.0, 0.0), (2.0, 1000.0))
    assert duration_curve(COLLINEAR).breakpoints == ((0.0, 0.0), (4.0, 200.0))


# ----------------------------------------------------------------------
# Two Simpson panels: every piece gets two
# ----------------------------------------------------------------------


class NotTwo(int):
    """2, except that it does not compare equal to 2: a config of two
    panels that takes the engine's general allocation."""

    def __eq__(self, other):
        return False if other == 2 else int(self) == other

    __hash__ = int.__hash__


GENERAL_TWO = QuadratureConfig(n_panels=NotTwo(2))


@settings(max_examples=300, deadline=None)
@given(
    st.floats(-1e3, 1e3),
    st.floats(0.0, 1e3) | st.sampled_from([1e-300, 5e-324, 1e300]),
    st.lists(st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0]), max_size=12),
)
def test_two_panels_match_the_general_allocation(a, width, fractions):
    """The same bits as the proportional allocation with its floor, cap and
    evenness rule, on random intervals and kinks (at the edges, repeated,
    outside)."""
    b = a + width
    kinks = [a + f * (b - a) for f in fractions] + [a - 1.0, b + 1.0]
    f = lambda xs: np.cos(xs) + 1e-3 * xs  # noqa: E731
    with np.errstate(over="ignore"):  # a 1e300-wide integral is inf either way
        fast = riemann_integrate(f, a, b, EXACT_CONFIG, breakpoints=kinks)
        general = riemann_integrate(f, a, b, GENERAL_TWO, breakpoints=kinks)
    assert same_bits(fast, general)


def test_two_panels_match_the_general_allocation_in_the_level_engine():
    curve = LoadCurve([(0.0, 0.0), (0.3, 7.0), (1.0, 7.0), (2.5, 11.0), (3.0, 40.0)])
    m = MeasureFunction(curve)
    for lo, hi in ((0.0, 40.0), (1.0, 7.0), (7.0, 39.0)):
        fast = lebesgue_integrate(m, lo, hi, lambda d: d * d, EXACT_CONFIG)
        assert same_bits(fast, lebesgue_integrate(m, lo, hi, lambda d: d * d, GENERAL_TWO))


# ----------------------------------------------------------------------
# Duration settlement's output range
# ----------------------------------------------------------------------


@st.composite
def interior_instances(draw):
    """A fleet and a non-decreasing load, now and then starting where the
    dearest plant enters the merit order, so that its row is floored at
    +0.0 where the solve lands a hair below it."""
    plants = draw(fleets())
    top = max(p.cost.q1 for p in plants)
    floor = sum((top - p.cost.q1) / (2.0 * p.cost.q2) for p in plants)
    return plants, draw(loads(floor=floor if draw(st.booleans()) else floor + 50.0, monotone=True))


ENTRY_POINT = (
    [
        Plant(f"plant{j + 1}", QuadraticCost(q2, q1, 0.0))
        for j, (q2, q1) in enumerate([(0.0005, 0.07), (0.001, 0.14), (0.002, 0.28)])
    ],
    LoadCurve([(0.0, 279.99999999999994), (1.0, 1000.0)]),
)


@settings(max_examples=200, deadline=None)
@given(interior_instances())
@example(ENTRY_POINT)
def test_the_output_range_is_each_rows_min_and_max(instance):
    """The extremes dispatch checks are the cells of each row's ``min`` and
    ``max``, the range ``settle_duration`` integrates over."""
    plants, load = instance
    sol = solve_equilibrium(plants, load)
    lows, highs = sol.outputs.extremes
    for j, curve in enumerate(sol.outputs.values()):
        assert same_bits(lows[j], curve.powers.min())
        assert same_bits(highs[j], curve.powers.max())


def test_an_entry_point_plant_settles_from_plus_zero():
    plants, load = ENTRY_POINT
    sol = solve_equilibrium(plants, load)
    low = sol.outputs.extremes[0][2]
    assert low == 0.0 and not np.signbit(low)
    assert sol.outputs["plant3"].min_power == 0.0
    assert settle_duration(sol).plants[2].revenue > 0.0


def test_a_row_of_both_zeros_settles_from_plus_zero():
    """Subnormal prices: plant b's row is [+0.0 (floored), -0.0].  Its
    ``min`` reads -0.0, the extreme at the lowest price +0.0, so the
    duration revenue of b is +0.0, not -0.0."""
    plants = [Plant("a", QuadraticCost(0.5, 0.0, 0.0)), Plant("b", QuadraticCost(1.0, 1.5e-323, 0.0))]
    sol = solve_equilibrium(plants, LoadCurve([(0.0, 0.0), (1.0, 5e-324)]))
    assert same_bits(sol.outputs["b"].powers, np.array([0.0, -0.0]))
    assert sol.outputs.extremes[0][1] == sol.outputs["b"].min_power
    revenue = settle_duration(sol).plants[1].revenue
    assert revenue == 0.0 and not math.copysign(1.0, revenue) < 0.0


def test_the_duration_domain_check_takes_empty_and_nan():
    """``price_times_duration`` takes an empty array and lets a NaN pass;
    a duration outside ``[0, T]`` beside a NaN is still refused."""
    price = duration_price(solve_equilibrium(*ENTRY_POINT))
    assert price.price_times_duration(np.array([])).shape == (0,)
    assert np.isnan(price.price_times_duration(np.array([math.nan, 0.5]))[0])
    assert np.isnan(price.price_times_duration(np.array([math.nan, math.nan]))).all()
    for bad in ([math.nan, 1.0 + 1e-9], [-1e-9, math.nan]):
        with pytest.raises(DomainError, match="duration must lie in"):
            price.price_times_duration(np.array(bad))
