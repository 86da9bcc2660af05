"""Both integral engines against a plain per-piece reference, bit for bit.

``riemann_integrate`` and ``lebesgue_integrate`` lay out the panels of every
piece between consecutive kinks at once and evaluate the integrand once.
The reference below is the straightforward form: one Python loop over the
pieces, each with its own ``np.linspace`` (or midpoint abscissae), its own
integrand call and its own weighted sum -- a Python running total of
``w[i] * vals[i]``, scaled by ``h / 3`` or ``h`` -- added to a running
total.  The engines compute the same abscissae and add the same terms in
the same order, so the results must be equal exactly, for both rules and
on any BLAS build.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_monotone_load, random_plants, random_wiggly_curve
from ctmarket import (
    NumericError,
    LoadCurve,
    MeasureFunction,
    QuadratureConfig,
    duration_curve,
    duration_price,
    lebesgue_integrate,
    riemann_integrate,
    solve_equilibrium,
)
from ctmarket.quadrature import EXACT_CONFIG
from test_geometry_reference import curves

# ----------------------------------------------------------------------
# Scalar reference: one piece at a time
# ----------------------------------------------------------------------


def ref_edges(a: float, b: float, breakpoints) -> list[float]:
    interior = sorted({float(x) for x in breakpoints if a < float(x) < b})
    return [a, *interior, b]


def ref_panels(edges: list[float], n_total: int, rule: str) -> list[int]:
    span = edges[-1] - edges[0]
    minimum = 2 if rule == "simpson" else 1
    counts = []
    for e0, e1 in zip(edges, edges[1:]):
        n = max(minimum, round(n_total * (e1 - e0) / span))
        if rule == "simpson" and n % 2 != 0:
            n += 1
        counts.append(int(n))
    return counts


def ref_panel_sum(vals: np.ndarray, h: float, rule: str) -> float:
    w = np.ones(vals.shape[0])
    if rule == "simpson":
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
    total = 0.0
    for i in range(vals.shape[0]):
        total += w[i] * vals[i]
    return (h / 3.0 if rule == "simpson" else h) * float(total)


def ref_pieces(a: float, b: float, breakpoints, cfg: QuadratureConfig):
    """(abscissae, panel width) of each piece, left to right; none if ``a == b``."""
    if a == b:
        return
    edges = ref_edges(a, b, breakpoints)
    for (e0, e1), n in zip(zip(edges, edges[1:]), ref_panels(edges, cfg.n_panels, cfg.rule)):
        h = (e1 - e0) / n
        if cfg.rule == "midpoint":
            yield e0 + (np.arange(n) + 0.5) * h, h
        else:
            yield np.linspace(e0, e1, n + 1), h


def ref_riemann(f, a: float, b: float, cfg: QuadratureConfig, breakpoints=()) -> float:
    total = 0.0
    for xs, h in ref_pieces(a, b, breakpoints, cfg):
        total += ref_panel_sum(np.asarray(f(xs), dtype=float), h, cfg.rule)
    return total


def ref_lebesgue(m: MeasureFunction, y_lo: float, y_hi: float, weight, cfg: QuadratureConfig) -> float:
    total = 0.0
    for ys, h in ref_pieces(y_lo, y_hi, m.levels, cfg):
        ms = m.sample(ys)
        if cfg.rule == "simpson":
            ms[-1] = m.limit_from_below(float(ys[-1]))
        total += ref_panel_sum(np.asarray(weight(ms), dtype=float), h, cfg.rule)
    return total


# ----------------------------------------------------------------------
# Inputs: panel counts, kinks with very short pieces, integrands
# ----------------------------------------------------------------------

CONFIGS = [
    QuadratureConfig(n_panels=n, rule=rule)
    for rule in ("simpson", "midpoint")
    for n in (2, 4, 10, 64, 10_000)
] + [QuadratureConfig(n_panels=7, rule="midpoint")]

INTEGRANDS = [
    lambda t: t**3 - 2.0 * t + 1.0,
    lambda t: np.abs(t - 0.37),
    np.sin,
    lambda t: np.full(np.shape(t), 2.5),
]

WEIGHTS = [lambda d: d, lambda d: d * d, lambda d: np.sqrt(d) + 1.0]


@st.composite
def kinked_intervals(draw):
    a = draw(st.floats(-50.0, 50.0))
    b = a + draw(st.sampled_from([1e-9, 1.0]) | st.floats(1e-6, 100.0))
    inside = draw(st.lists(st.floats(a, b), max_size=12))
    # A point and its neighbours a few ulps away make very short pieces.
    ulps = draw(st.lists(st.integers(1, 4), max_size=len(inside)))
    near = [float(np.nextafter(x, np.inf) + k * np.spacing(x)) for x, k in zip(inside, ulps)]
    outside = draw(st.lists(st.floats(-200.0, 200.0), max_size=3))
    return a, b, inside + near + outside


@settings(max_examples=200, deadline=None)
@given(
    interval=kinked_intervals(),
    cfg=st.sampled_from(CONFIGS),
    f=st.sampled_from(INTEGRANDS),
    as_array=st.booleans(),
)
def test_riemann_matches_reference(interval, cfg, f, as_array):
    a, b, kinks = interval
    breakpoints = np.array(kinks) if as_array else kinks
    assert riemann_integrate(f, a, b, cfg, breakpoints=breakpoints) == ref_riemann(f, a, b, cfg, kinks)


@settings(max_examples=200, deadline=None)
@given(
    curve=curves(),
    cfg=st.sampled_from(CONFIGS),
    weight=st.sampled_from(WEIGHTS),
    band=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
)
def test_lebesgue_matches_reference(curve, cfg, weight, band):
    m = MeasureFunction(curve)
    span = curve.max_power - curve.min_power
    lo, hi = sorted(band)
    y_lo, y_hi = curve.min_power + lo * span, curve.min_power + hi * span
    assert lebesgue_integrate(m, y_lo, y_hi, weight, cfg) == ref_lebesgue(m, y_lo, y_hi, weight, cfg)
    full = lebesgue_integrate(m, curve.min_power, curve.max_power, weight, cfg)
    assert full == ref_lebesgue(m, curve.min_power, curve.max_power, weight, cfg)


def seeded_settlements():
    """Plants, dispatch and duration price on seeded loads, as settlement sees them."""
    rng = np.random.default_rng(4)
    out = []
    for _ in range(6):
        plants = random_plants(rng)
        load = random_monotone_load(rng, plants)
        if rng.random() < 0.5:
            floor = load.min_power
            wig = random_wiggly_curve(rng)
            load = duration_curve(LoadCurve(times=wig.times, powers=floor + wig.powers))
        sol = solve_equilibrium(plants, load)
        out.append((plants, sol, duration_price(sol)))
    return out


@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: f"{c.rule}-{c.n_panels}")
def test_settlement_integrals_match_reference(cfg):
    for plants, sol, dprice in seeded_settlements():
        for p in plants:
            curve = sol.outputs[p.id]
            kinks = np.concatenate([sol.lambda_curve.times, curve.times])
            revenue = lambda ts, k=curve: sol.lambda_curve.sample(ts) * k.sample(ts)
            got = riemann_integrate(revenue, 0.0, sol.horizon, cfg, breakpoints=kinks)
            assert got == ref_riemann(revenue, 0.0, sol.horizon, cfg, kinks)
            cost = lambda ts, c=p.cost, k=curve: c.cost(k.sample(ts))
            got = riemann_integrate(cost, 0.0, sol.horizon, cfg, breakpoints=curve.times)
            assert got == ref_riemann(cost, 0.0, sol.horizon, cfg, curve.times)
            if curve.max_power > curve.min_power:
                m = MeasureFunction(curve)
                w = dprice.price_times_duration
                got = lebesgue_integrate(m, curve.min_power, curve.max_power, w, cfg)
                assert got == ref_lebesgue(m, curve.min_power, curve.max_power, w, cfg)


def test_flat_levels_take_the_limit_from_below():
    """A flat segment makes ``m`` jump at its level; every band's right edge
    is the left limit, in the layout as in the reference."""
    curve = LoadCurve([(0.0, 5.0), (1.0, 5.0), (2.0, 9.0), (3.0, 5.0), (4.0, 5.0), (5.0, 9.0), (6.0, 7.0)])
    m = MeasureFunction(curve)
    for cfg in CONFIGS:
        for weight in WEIGHTS:
            assert lebesgue_integrate(m, 0.0, 10.0, weight, cfg) == ref_lebesgue(m, 0.0, 10.0, weight, cfg)
    assert lebesgue_integrate(m, 5.0, 9.0, lambda d: d) == pytest.approx(9.0, rel=1e-14)


@pytest.mark.parametrize("rule, n_panels, small", [("simpson", 16, 1.0), ("midpoint", 9, 3.0)])
def test_piece_terms_are_added_left_to_right(rule, n_panels, small):
    """One piece of 17 Simpson or 9 midpoint points, ``1e17, small, ...,
    -1e17``: a running total loses every small term, while a pairwise sum,
    a BLAS dot and the exact sum keep some.  The engine must give the
    running total's float."""
    cfg = QuadratureConfig(n_panels=n_panels, rule=rule)
    vals = np.full(n_panels + 1 if rule == "simpson" else n_panels, small)
    vals[0], vals[-1] = 1e17, -1e17
    f = lambda xs: vals.copy()
    want = ref_riemann(f, 0.0, 1.0, cfg)
    terms = vals.copy()
    if rule == "simpson":
        terms[1:-1:2] *= 4.0
        terms[2:-1:2] *= 2.0
    scale = 1.0 / n_panels / (3.0 if rule == "simpson" else 1.0)
    assert want == 0.0
    assert scale * float(np.sum(terms)) != want and scale * math.fsum(terms) != want
    assert riemann_integrate(f, 0.0, 1.0, cfg) == want


# ----------------------------------------------------------------------
# Row-valued integrands: one layout, each row summed as if alone
# ----------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    interval=kinked_intervals(),
    cfg=st.sampled_from(CONFIGS),
    fs=st.lists(st.sampled_from(INTEGRANDS), min_size=1, max_size=4),
)
def test_row_valued_riemann_matches_reference_row_by_row(interval, cfg, fs):
    a, b, kinks = interval
    got = riemann_integrate(lambda xs: np.stack([f(xs) for f in fs]), a, b, cfg, breakpoints=kinks)
    assert got.shape == (len(fs),)
    for row, f in zip(got.tolist(), fs):
        assert row == ref_riemann(f, a, b, cfg, kinks)


@pytest.mark.parametrize("rule, n_panels, small", [("simpson", 16, 1.0), ("midpoint", 9, 3.0)])
def test_row_terms_are_added_left_to_right(rule, n_panels, small):
    """``test_piece_terms_are_added_left_to_right`` with a second row, the
    first reversed: each row must still be its own running total."""
    cfg = QuadratureConfig(n_panels=n_panels, rule=rule)
    vals = np.full(n_panels + 1 if rule == "simpson" else n_panels, small)
    vals[0], vals[-1] = 1e17, -1e17
    rows = np.stack([vals, vals[::-1]])
    want = [ref_riemann(lambda xs, r=r: r.copy(), 0.0, 1.0, cfg) for r in rows]
    assert want[0] == 0.0
    assert riemann_integrate(lambda xs: rows.copy(), 0.0, 1.0, cfg).tolist() == want


def test_row_valued_non_finite_reports_first_bad_row():
    """The first non-finite entry in row-major order is reported: the
    lowest bad row, at its leftmost bad abscissa, though a later row
    turns bad further left."""
    cfg = QuadratureConfig(n_panels=10)
    xs = np.linspace(0.0, 1.0, 11)  # the abscissae of one 10-panel Simpson piece

    def f(xs):
        return np.stack([xs, np.where(xs > 0.5, np.nan, xs), np.where(xs > 0.2, np.inf, xs)])

    with pytest.raises(NumericError, match=r"^integrand row 1 is not finite at t = ") as err:
        riemann_integrate(f, 0.0, 1.0, cfg)
    assert err.value.row == 1 and err.value.abscissa == xs[6]
    with pytest.raises(NumericError, match=r"^integrand is not finite at t = ") as err:
        riemann_integrate(lambda xs: f(xs)[2], 0.0, 1.0, cfg)
    assert err.value.row is None and err.value.abscissa == xs[3]


def test_row_valued_empty_interval_gives_a_zero_per_row():
    got = riemann_integrate(lambda xs: np.stack([xs, xs]), 2.0, 2.0)
    assert got.tolist() == [0.0, 0.0]
    assert riemann_integrate(lambda xs: xs, 2.0, 2.0) == 0.0


# ----------------------------------------------------------------------
# Both layouts: one point count for every piece, or mixed counts
# ----------------------------------------------------------------------

# 120 equal pieces over [0, 12]: every piece gets the rule's fewest points,
# three under Simpson and one under midpoint.
EVEN_KINKS = np.linspace(0.0, 12.0, 121)[1:-1].tolist()
# Pieces of widths 1, 2, 5 and 0.5 over [0, 8.5]: 64 panels give them 8,
# 16, 38 and 4 (Simpson) or 8, 15, 38 and 4 (midpoint).
UNEVEN_KINKS = [1.0, 3.0, 8.0]
# A strictly increasing curve on the 121 levels 0, 0.1, ..., 12 (120 level
# bands), and one on two levels (one band).
LEVELS_120 = LoadCurve(times=np.linspace(0.0, 24.0, 121), powers=np.linspace(0.0, 12.0, 121))
LEVELS_1 = LoadCurve([(0.0, 2.0), (3.0, 7.0)])
# Level bands of widths 1, 2, 5 and 0.5, with a flat stretch at 3 MW.
LEVELS_UNEVEN = LoadCurve([(0.0, 0.0), (1.0, 1.0), (2.0, 3.0), (3.0, 3.0), (7.0, 8.0), (8.0, 8.5)])


def piece_counts(a: float, b: float, kinks, cfg: QuadratureConfig) -> set[int]:
    return set(ref_panels(ref_edges(a, b, kinks), cfg.n_panels, cfg.rule))


def eight_rows(xs: np.ndarray) -> np.ndarray:
    return np.stack([np.sin(xs * (k + 1)) * (k - 3.5) + xs**3 for k in range(8)])


@pytest.mark.parametrize(
    "cfg", [EXACT_CONFIG, QuadratureConfig(n_panels=2, rule="midpoint")], ids=["simpson", "midpoint"]
)
def test_one_short_count_matches_reference(cfg):
    """EXACT_CONFIG's layout: 120 pieces of one short count, summed by
    explicit adds; an 8-row integrand and a 120-band Lebesgue integral."""
    assert piece_counts(0.0, 12.0, EVEN_KINKS, cfg) == {2 if cfg.rule == "simpson" else 1}
    got = riemann_integrate(eight_rows, 0.0, 12.0, cfg, breakpoints=EVEN_KINKS)
    assert got.shape == (8,)
    for k, row in enumerate(got.tolist()):
        assert row == ref_riemann(lambda xs: eight_rows(xs)[k], 0.0, 12.0, cfg, EVEN_KINKS)
    m = MeasureFunction(LEVELS_120)
    assert piece_counts(0.0, 12.0, m.levels, cfg) == piece_counts(0.0, 12.0, EVEN_KINKS, cfg)
    for weight in WEIGHTS:
        assert lebesgue_integrate(m, 0.0, 12.0, weight, cfg) == ref_lebesgue(m, 0.0, 12.0, weight, cfg)


@pytest.mark.parametrize("rule", ["simpson", "midpoint"])
def test_one_long_count_matches_reference(rule):
    """One piece of 11 Simpson or 10 midpoint points, summed by the
    sequential ``cumsum``.  The values are chosen so that numpy's pairwise
    ``add.reduce`` gives other bits than the running total."""
    cfg = QuadratureConfig(n_panels=10, rule=rule)
    vals = np.full(11, 1.0) if rule == "simpson" else np.full(10, 3.0)
    vals[0], vals[-1] = 1e17, -1e17
    f = lambda xs: vals.copy()
    want = ref_riemann(f, 0.0, 1.0, cfg)
    w = np.ones(len(vals))
    if rule == "simpson":
        w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    scale = 0.1 / (3.0 if rule == "simpson" else 1.0)
    assert scale * float(np.add.reduce(w * vals)) != want
    assert riemann_integrate(f, 0.0, 1.0, cfg) == want
    m = MeasureFunction(LEVELS_1)
    for weight in WEIGHTS:
        assert lebesgue_integrate(m, 2.0, 7.0, weight, cfg) == ref_lebesgue(m, 2.0, 7.0, weight, cfg)


@pytest.mark.parametrize("rule", ["simpson", "midpoint"])
def test_mixed_counts_match_reference(rule):
    """Pieces of four different counts, each group gathered and summed
    in order; rows and a Lebesgue integral over a flat level."""
    cfg = QuadratureConfig(n_panels=64, rule=rule)
    assert len(piece_counts(0.0, 8.5, UNEVEN_KINKS, cfg)) == 4
    got = riemann_integrate(eight_rows, 0.0, 8.5, cfg, breakpoints=UNEVEN_KINKS)
    for k, row in enumerate(got.tolist()):
        assert row == ref_riemann(lambda xs: eight_rows(xs)[k], 0.0, 8.5, cfg, UNEVEN_KINKS)
    m = MeasureFunction(LEVELS_UNEVEN)
    assert len(piece_counts(0.0, 8.5, m.levels, cfg)) == 4
    for weight in WEIGHTS:
        assert lebesgue_integrate(m, 0.0, 8.5, weight, cfg) == ref_lebesgue(m, 0.0, 8.5, weight, cfg)
