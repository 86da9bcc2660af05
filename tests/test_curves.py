"""Curve geometry: evaluation, level-set measures, rearrangement, inversion."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from ctmarket import (
    DomainError,
    LoadCurve,
    MeasureFunction,
    UnsupportedOperationError,
    duration_curve,
)

RAMP = LoadCurve([(0.0, 350.0), (1.0, 1050.0)])  # 350 * (1 + 2t)
PLANT1 = LoadCurve([(0.0, 250.0), (1.0, 650.0)])  # 250 + 400t
VEE = LoadCurve([(0.0, 100.0), (0.5, 0.0), (1.0, 100.0)])
STEPPED = LoadCurve([(0.0, 0.0), (0.4, 50.0), (0.6, 50.0), (1.0, 100.0)])


def brute_force_measure(curve: LoadCurve, y: float, n: int = 1_000_001) -> float:
    """Independent oracle: fraction of a uniform time grid strictly above y."""
    ts = np.linspace(0.0, curve.horizon, n)
    return float(np.mean(curve.sample(ts) > y) * curve.horizon)


class TestConstruction:
    def test_rejects_single_breakpoint(self):
        with pytest.raises(ValueError, match="at least 2"):
            LoadCurve([(0.0, 1.0)])

    def test_rejects_nonzero_start(self):
        with pytest.raises(ValueError, match="must be 0"):
            LoadCurve([(0.1, 1.0), (1.0, 2.0)])

    def test_rejects_duplicate_times(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            LoadCurve([(0.0, 1.0), (0.5, 2.0), (0.5, 3.0)])

    def test_rejects_negative_power(self):
        with pytest.raises(ValueError, match="non-negative"):
            LoadCurve([(0.0, 1.0), (1.0, -2.0)])

    def test_rejects_non_finite_power(self):
        with pytest.raises(ValueError, match="finite"):
            LoadCurve([(0.0, 1.0), (1.0, float("inf"))])

    def test_immutable(self):
        with pytest.raises(AttributeError):
            RAMP.breakpoints = ()


class TestEvaluate:
    def test_midpoint_of_ramp(self):
        assert RAMP.evaluate(0.5) == pytest.approx(700.0, abs=1e-12)

    def test_left_endpoint_identity(self):
        assert RAMP.evaluate(0.0) == 350.0
        assert VEE.evaluate(0.0) == 100.0

    def test_quarter_point(self):
        # 350 * (1 + 2 * 0.25)
        assert RAMP.evaluate(0.25) == pytest.approx(525.0, abs=1e-12)

    def test_exact_at_breakpoints(self):
        assert VEE.evaluate(0.5) == 0.0

    def test_domain_error_outside(self):
        with pytest.raises(DomainError):
            RAMP.evaluate(-0.01)
        with pytest.raises(DomainError):
            RAMP.evaluate(1.01)

    def test_domain_check_skips_nan_and_names_first_bad_time(self):
        assert RAMP.sample([]).size == 0
        assert np.isnan(RAMP.sample([np.nan, 0.5])[0])
        with pytest.raises(DomainError, match=r"time 2\.0 outside \[0, 1\.0\]"):
            RAMP.sample([np.nan, 0.5, 2.0, -1.0])

    def test_sample_matches_evaluate(self):
        ts = np.linspace(0.0, 1.0, 17)
        assert np.allclose(VEE.sample(ts), [VEE.evaluate(t) for t in ts], atol=0)


class TestMeasure:
    def test_ramp_half(self):
        # m(y) = (650 - y) / 400 for the 250 + 400t ramp
        assert PLANT1.measure_of(450.0) == pytest.approx(0.5, abs=1e-15)

    def test_below_minimum_gives_horizon(self):
        assert PLANT1.measure_of(100.0) == 1.0
        assert VEE.measure_of(-5.0) == 1.0

    def test_vee_at_fifty(self):
        assert VEE.measure_of(50.0) == pytest.approx(0.5, abs=1e-15)
        assert VEE.measure_of(50.0) == pytest.approx(
            brute_force_measure(VEE, 50.0), abs=1e-5
        )

    def test_above_maximum_gives_zero(self):
        assert PLANT1.measure_of(650.0) == 0.0
        assert PLANT1.measure_of(1e6) == 0.0

    def test_flat_segment_at_level_contributes_zero(self):
        # Strict inequality: the flat piece at 50 is excluded.
        assert STEPPED.measure_of(50.0) == pytest.approx(0.4, abs=1e-15)

    def test_left_limit_includes_flat_time(self):
        m = MeasureFunction(STEPPED)
        assert m.limit_from_below(50.0) == pytest.approx(0.6, abs=1e-15)
        assert m.limit_from_below(30.0) == pytest.approx(m(30.0), abs=1e-15)

    def test_matches_brute_force_scan(self):
        for curve in (RAMP, PLANT1, VEE, STEPPED):
            T = curve.horizon
            for y in np.linspace(curve.min_power, curve.max_power, 5):
                assert curve.measure_of(float(y)) == pytest.approx(
                    brute_force_measure(curve, float(y)), abs=T * 1e-5
                )

    def test_non_increasing_in_level(self):
        for curve in (RAMP, VEE, STEPPED):
            ys = np.linspace(curve.min_power - 1, curve.max_power + 1, 101)
            ms = MeasureFunction(curve).sample(ys)
            assert np.all(np.diff(ms) <= 1e-15)

    def test_tiny_segment_span_saturates_without_warning(self):
        # (h - y) / width overflows to inf on a ~1e-310 MW span; the clip
        # saturates it to the whole segment, with no RuntimeWarning.
        curve = LoadCurve(times=[0.0, 1.0, 2.0], powers=[0.0, 1e-310, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert MeasureFunction(curve).sample([-1.0]).tolist() == [2.0]

    def test_measure_function_bounds(self):
        m = MeasureFunction(VEE)
        assert m.y_lo == 0.0 and m.y_hi == 100.0
        assert m.horizon == 1.0
        assert m(50.0) == VEE.measure_of(50.0)


class TestDurationCurve:
    def test_monotone_input_unchanged(self):
        out = duration_curve(RAMP)
        assert out.breakpoints == RAMP.breakpoints

    def test_monotone_with_flat_unchanged(self):
        out = duration_curve(STEPPED)
        assert out.breakpoints == STEPPED.breakpoints

    def test_vee_rearranges_to_ramp(self):
        out = duration_curve(VEE)
        assert out.is_non_decreasing
        # Measure of the result: m(y) = 1 - y/100 on [0, 100].
        for y in (0.0, 25.0, 50.0, 99.0):
            assert out.measure_of(y) == pytest.approx(1.0 - y / 100.0, abs=1e-12)

    def test_vee_matches_sorted_samples(self):
        out = duration_curve(VEE)
        ts = np.linspace(0.0, 1.0, 1_000_001)
        sorted_samples = np.sort(VEE.sample(ts))
        assert np.max(np.abs(out.sample(ts) - sorted_samples)) < 1e-3

    def test_preserves_measure_and_energy_for_random_curves(self):
        from ctmarket import riemann_integrate
        from conftest import random_wiggly_curve

        rng = np.random.default_rng(7)
        for _ in range(10):
            curve = random_wiggly_curve(rng)
            out = duration_curve(curve)
            assert out.is_non_decreasing
            ys = np.linspace(curve.min_power, curve.max_power, 37)
            got = MeasureFunction(out).sample(ys)
            want = MeasureFunction(curve).sample(ys)
            assert np.max(np.abs(got - want)) <= curve.horizon * 1e-6
            e_in = riemann_integrate(
                curve.sample, 0.0, curve.horizon, breakpoints=curve.times
            )
            e_out = riemann_integrate(
                out.sample, 0.0, out.horizon, breakpoints=out.times
            )
            assert e_out == pytest.approx(e_in, rel=1e-8)

    def test_descending_input_is_time_reversed(self):
        down = LoadCurve([(0.0, 100.0), (1.0, 0.0)])
        out = duration_curve(down)
        assert out.breakpoints == ((0.0, 0.0), (1.0, 100.0))


class TestInverse:
    def test_plant_ramp_top(self):
        assert PLANT1.inverse(650.0) == pytest.approx(1.0, abs=0)

    def test_left_endpoint(self):
        assert PLANT1.inverse(250.0) == 0.0

    def test_affine_solve(self):
        assert RAMP.inverse(700.0) == pytest.approx(0.5, abs=1e-15)

    def test_non_monotone_unsupported(self):
        with pytest.raises(UnsupportedOperationError, match="strictly increasing"):
            VEE.inverse(50.0)
        with pytest.raises(UnsupportedOperationError):
            STEPPED.inverse(25.0)  # flat piece: not strictly increasing

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            PLANT1.inverse(200.0)
        with pytest.raises(DomainError):
            PLANT1.inverse(651.0)

    def test_nan_is_out_of_range(self):
        with pytest.raises(DomainError, match=r"^level nan outside output range \[0\.0, 1\.0\]$"):
            LoadCurve([(0, 0), (1, 1)]).inverse(float("nan"))
