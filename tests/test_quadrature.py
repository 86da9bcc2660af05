"""Quadrature engines: composite rules, level-set integration, convergence."""

from __future__ import annotations

import re

import numpy as np
import pytest

from ctmarket import (
    DomainError,
    LoadCurve,
    MeasureFunction,
    NumericError,
    QuadratureConfig,
    lebesgue_energy,
    lebesgue_integrate,
    riemann_integrate,
)
from ctmarket.quadrature import EXACT_CONFIG

PLANT1 = LoadCurve([(0.0, 250.0), (1.0, 650.0)])
PLANT3 = LoadCurve([(0.0, 10.0), (1.0, 110.0)])
STEPPED = LoadCurve([(0.0, 0.0), (0.4, 50.0), (0.6, 50.0), (1.0, 100.0)])
# Not monotone, with flat stretches at 20 and 60 MW.
DIP = LoadCurve([(0.0, 60.0), (0.2, 60.0), (0.5, 20.0), (0.7, 20.0), (1.0, 100.0)])


class TestConfig:
    def test_defaults(self):
        cfg = QuadratureConfig()
        assert cfg.n_panels == 10_000 and cfg.rule == "simpson"

    def test_rejects_odd_simpson(self):
        with pytest.raises(ValueError, match="even"):
            QuadratureConfig(n_panels=7)

    def test_rejects_tiny_panel_count(self):
        with pytest.raises(ValueError, match="at least 2"):
            QuadratureConfig(n_panels=1)

    def test_rejects_unknown_rule(self):
        with pytest.raises(ValueError, match="rule"):
            QuadratureConfig(rule="trapezoid")


class TestRiemann:
    def test_affine(self):
        # antiderivative 0.32 t + 0.2 t^2
        val = riemann_integrate(lambda t: 0.32 + 0.4 * t, 0.0, 1.0)
        assert val == pytest.approx(0.52, rel=1e-14)

    def test_zero_function(self):
        assert riemann_integrate(lambda t: 0.0 * t, 2.0, 5.0) == 0.0

    def test_price_times_output(self):
        # exact antiderivative gives 247.333...; a printed 247.32 is covered
        val = riemann_integrate(
            lambda t: (0.32 + 0.4 * t) * (250.0 + 400.0 * t), 0.0, 1.0
        )
        assert val == pytest.approx(80.0 + 114.0 + 160.0 / 3.0, rel=1e-13)
        assert val == pytest.approx(247.32, abs=0.1)

    def test_empty_interval(self):
        assert riemann_integrate(lambda t: t, 3.0, 3.0) == 0.0

    def test_reversed_bounds_rejected(self):
        with pytest.raises(DomainError, match="out of order"):
            riemann_integrate(lambda t: t, 1.0, 0.0)

    @pytest.mark.parametrize(
        "cfg, kinks",
        [(EXACT_CONFIG, ()), (EXACT_CONFIG, (0.0,)), (QuadratureConfig(), ())],
        ids=["exact", "exact-kink-at-0", "default"],
    )
    def test_interval_wider_than_the_float_range_is_named(self, cfg, kinks):
        """b - a overflows to inf; the panel count used to become NaN and
        fail as an IndexError after three RuntimeWarnings."""
        msg = r"^integration interval \[-1e\+308, 1e\+308\] is wider than the float range$"
        with pytest.raises(DomainError, match=msg):
            riemann_integrate(lambda x: 0 * x, -1e308, 1e308, cfg, breakpoints=kinks)

    def test_non_finite_value_reports_abscissa(self):
        def f(ts):
            ts = np.asarray(ts, dtype=float)
            return np.where(ts > 0.5, np.inf, 1.0)

        with pytest.raises(NumericError) as err:
            riemann_integrate(f, 0.0, 1.0)
        assert err.value.abscissa is not None
        assert err.value.abscissa > 0.5

    def test_scalar_only_callable(self):
        import math

        val = riemann_integrate(lambda t: math.sin(t), 0.0, np.pi)
        assert val == pytest.approx(2.0, rel=1e-10)

    def test_raising_integrand_is_called_once(self):
        """An error from the array call surfaces at once, not after a
        point-by-point retry."""
        calls = []

        def f(ts):
            calls.append(np.size(ts))
            raise DomainError("outside the integrand's domain")

        with pytest.raises(DomainError, match="outside"):
            riemann_integrate(f, 0.0, 1.0)
        assert calls == [10_001]

    @pytest.mark.parametrize(
        "block, shape", [(lambda rows: rows.T, (11, 2)), (lambda rows: rows[None], (1, 2, 11))],
        ids=["points-by-rows", "3-d"],
    )
    def test_wrong_shape_is_refused_after_one_call(self, block, shape):
        """An array that is neither ``(len(xs),)`` nor ``(rows, len(xs))``
        is refused at once, naming its shape, not retried point by point."""
        calls = []

        def f(ts):
            calls.append(np.size(ts))
            return block(np.stack([ts, 2.0 * ts]))

        want = f"integrand returned shape {shape}; expected (11,) or (rows, 11)"
        with pytest.raises(ValueError, match=re.escape(want)):
            riemann_integrate(f, 0.0, 1.0, QuadratureConfig(n_panels=10))
        assert calls == [11]

    def test_raising_weight_is_called_once(self):
        calls = []

        def weight(ds):
            calls.append(np.size(ds))
            raise ValueError("bad duration")

        with pytest.raises(ValueError, match="bad duration"):
            lebesgue_integrate(MeasureFunction(STEPPED), 0.0, 100.0, weight)
        assert len(calls) == 1

    def test_simpson_exact_for_cubic(self):
        cfg = QuadratureConfig(n_panels=16)
        val = riemann_integrate(lambda t: t**3 - 2 * t * t + 3, 0.0, 2.0, cfg)
        exact = 2.0**4 / 4 - 2 * 2.0**3 / 3 + 3 * 2.0
        assert abs(val - exact) <= 100 * np.finfo(float).eps * abs(exact)

    def test_breakpoint_alignment_makes_kinked_integrand_exact(self):
        # piecewise linear |t - 0.37| has a kink off every uniform panel edge
        f = lambda t: np.abs(np.asarray(t) - 0.37)
        exact = 0.37**2 / 2 + 0.63**2 / 2
        cfg = QuadratureConfig(n_panels=10)
        aligned = riemann_integrate(f, 0.0, 1.0, cfg, breakpoints=[0.37])
        free = riemann_integrate(f, 0.0, 1.0, cfg)
        assert abs(aligned - exact) <= 1e-14
        assert abs(free - exact) > 1e-6


class TestLebesgue:
    def test_measure_mass(self):
        m = MeasureFunction(PLANT1)
        val = lebesgue_integrate(m, 250.0, 650.0, lambda d: d)
        assert val == pytest.approx(200.0, rel=1e-13)

    def test_constant_weight(self):
        m = MeasureFunction(PLANT1)
        val = lebesgue_integrate(m, 300.0, 500.0, lambda d: np.ones_like(d))
        assert val == pytest.approx(200.0, rel=1e-13)

    def test_squared_measure(self):
        m = MeasureFunction(PLANT1)
        val = lebesgue_integrate(m, 250.0, 650.0, lambda d: d * d)
        assert val == pytest.approx(400.0 / 3.0, rel=1e-13)
        assert val == pytest.approx(133.33, abs=0.01)

    @pytest.mark.parametrize("curve", [STEPPED, DIP], ids=["non-decreasing", "dip"])
    @pytest.mark.parametrize(
        "cfg",
        [QuadratureConfig(n_panels=2), QuadratureConfig(n_panels=64), QuadratureConfig(n_panels=8, rule="midpoint")],
        ids=["simpson-2", "simpson-64", "midpoint-8"],
    )
    def test_measure_is_sampled_once(self, monkeypatch, curve, cfg):
        """One measure pass over every abscissa.  Under Simpson the flat
        time is then looked up at the pieces' right edges only, and no
        limit is taken anew; under midpoint it is not looked up."""
        from test_quadrature_reference import ref_lebesgue

        m = MeasureFunction(curve)
        want = ref_lebesgue(m, 0.0, 100.0, lambda d: d * d, cfg)  # m(y^-) at each right edge
        sample, flat_time = MeasureFunction.sample, MeasureFunction._at
        sampled, looked_up, points = [], [], []

        def counted_sample(self, ys):
            sampled.append(np.array(ys))
            return sample(self, ys)

        def counted_at(self, ys):
            looked_up.append(np.array(ys))
            return flat_time(self, ys)

        def refused(self, ys):
            raise AssertionError("limit_from_below called")

        monkeypatch.setattr(MeasureFunction, "sample", counted_sample)
        monkeypatch.setattr(MeasureFunction, "_at", counted_at)
        monkeypatch.setattr(MeasureFunction, "limit_from_below", refused)
        got = lebesgue_integrate(m, 0.0, 100.0, lambda d: points.append(d.size) or d * d, cfg)
        assert got == want
        assert len(sampled) == 1 and sampled[0].size == points[0]
        if cfg.rule == "midpoint":
            assert looked_up == []
            return
        # One right edge per piece, each also sampled as its piece's last point.
        assert len(looked_up) == 1
        edges = looked_up[0]
        assert edges.tolist() == sorted({*(y for y in m.levels if 0.0 < y < 100.0), 100.0})
        assert np.isin(edges, sampled[0]).all()

    def test_flat_level_jump_handled_exactly(self):
        # The measure jumps at the 50 MW flat level; band-edge limits keep
        # the rule exact: energy by levels equals the trapezoid value 50.
        assert lebesgue_energy(STEPPED) == pytest.approx(50.0, rel=1e-13)


class TestLebesgueEnergy:
    def test_plant1(self):
        assert lebesgue_energy(PLANT1) == pytest.approx(450.0, rel=1e-13)

    def test_constant_curve(self):
        flat = LoadCurve([(0.0, 42.0), (3.0, 42.0)])
        assert lebesgue_energy(flat) == pytest.approx(42.0 * 3.0, rel=0)

    def test_plant3(self):
        # 10 * 1 + integral of m, with integral of m = 50
        assert lebesgue_energy(PLANT3) == pytest.approx(60.0, rel=1e-13)

    def test_agrees_with_time_integral(self):
        for curve in (PLANT1, PLANT3, STEPPED):
            riemann = riemann_integrate(
                curve.sample, 0.0, curve.horizon, breakpoints=curve.times
            )
            assert lebesgue_energy(curve) == pytest.approx(riemann, rel=1e-10)


class TestConvergence:
    def test_midpoint_error_shrinks_as_panels_double(self):
        f = lambda t: (0.32 + 0.4 * t) * (250.0 + 400.0 * t)
        exact = 80.0 + 114.0 + 160.0 / 3.0
        errors = []
        n = 16
        while n <= 4096:
            cfg = QuadratureConfig(n_panels=n, rule="midpoint")
            errors.append(abs(riemann_integrate(f, 0.0, 1.0, cfg) - exact))
            n *= 2
        assert all(e2 < e1 for e1, e2 in zip(errors, errors[1:]))

    def test_simpson_error_shrinks_on_quartic(self):
        f = lambda t: np.asarray(t) ** 4
        errors = []
        for n in (16, 32, 64, 128, 256):
            cfg = QuadratureConfig(n_panels=n, rule="simpson")
            errors.append(abs(riemann_integrate(f, 0.0, 1.0, cfg) - 0.2))
        assert all(e2 < e1 for e1, e2 in zip(errors, errors[1:]))

    def test_level_partition_sum_converges_to_time_integral(self):
        """The level-axis partition sum sum_i xi_i * m(E_i), with lower tags,
        climbs monotonically to the time-axis energy as the partition is
        refined dyadically."""
        curve = PLANT1
        energy = riemann_integrate(curve.sample, 0.0, 1.0, breakpoints=curve.times)

        def lower_sum(n_bands: int) -> float:
            # sum_i xi_i * m(E_i) with lower tags; the bands E_i partition
            # the whole cycle, so their measures add up to the horizon.
            ys = np.linspace(curve.min_power, curve.max_power, n_bands + 1)
            total = 0.0
            for y0, y1 in zip(ys, ys[1:]):
                band_measure = curve.measure_of(float(y0)) - curve.measure_of(float(y1))
                total += y0 * band_measure
            return total

        sums = [lower_sum(n) for n in (4, 8, 16, 32, 64, 128, 256, 512, 1024)]
        assert all(s2 >= s1 for s1, s2 in zip(sums, sums[1:]))
        assert sums[-1] == pytest.approx(energy, rel=1e-3)
        assert sums[-1] <= energy
        assert lebesgue_energy(curve) == pytest.approx(energy, rel=1e-12)
