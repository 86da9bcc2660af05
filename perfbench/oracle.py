"""Independent correctness oracle for benchmark scenarios.

Recomputes dispatch, both prices and settlement from the scenario data with
exact per-segment formulas, and compares the engine's outputs against them.
It uses numpy only; none of ctmarket's code (quadrature included) runs here.

Every check returns a list of problems; an empty list means the scenario
passed.  All tolerances are named below and are relative to the stated
scale.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

TOL_BALANCE = 1e-9  # sum_j P_j - load, and each P_j, relative to the peak load
TOL_MARGINAL = 1e-9  # 2 q2 P_j + q1 - lambda on interior plants, relative to peak lambda
TOL_BOUND = 1e-9  # how far an output may pass a capacity bound, relative to max(1, bound)
TOL_VALUE = 1e-9  # cost, revenue, profit against the exact integrals, relative to the market total
TOL_PRICE = 1e-9  # lambda, pi and pi * m against closed form, relative to the value
TOL_TIME = 1e-11  # grid times closer than this, relative to the horizon, are one point

GRID_POINTS = 501  # uniform grid the CLI unites with every curve breakpoint
TIMESERIES_HEADER = ["t", "load", "lambda", "pi_time"]
DURATION_HEADER = ["m", "pi_measure"]
SETTLEMENT_HEADER = ["mechanism", "plant", "cost", "revenue", "profit", "profit_rate"]


class Market:
    """Scenario data as arrays: load breakpoints and plant coefficients."""

    def __init__(self, spec: dict) -> None:
        self.name = spec["name"]
        self.T = float(spec["horizon"])
        load = spec["load"]
        if "affine" in load:
            base, slope = load["affine"]["base"], load["affine"]["slope"]
            pts = [(0.0, base), (self.T, base + slope * self.T)]
        else:
            pts = load["breakpoints"]
        self.times = np.array([p[0] for p in pts], dtype=float)
        self.powers = np.array([p[1] for p in pts], dtype=float)
        plants = spec["plants"]
        self.ids = [p["id"] for p in plants]
        self.q2 = np.array([p["q2"] for p in plants], dtype=float)
        self.q1 = np.array([p["q1"] for p in plants], dtype=float)
        self.q0 = np.array([p["q0"] for p in plants], dtype=float)
        self.p_min = np.array([p.get("p_min", 0.0) for p in plants], dtype=float)
        self.p_max = np.array(
            [np.inf if p.get("p_max") is None else p["p_max"] for p in plants], dtype=float
        )
        self.inv = 1.0 / (2.0 * self.q2)
        m_floor = (spec.get("options") or {}).get("m_floor")
        self.m_floor = 1e-6 * self.T if m_floor is None else float(m_floor)

    def load_at(self, ts: np.ndarray) -> np.ndarray:
        return np.interp(ts, self.times, self.powers)

    # -- dispatch -------------------------------------------------------

    def interior_lambda(self, load: np.ndarray) -> np.ndarray:
        return (load + (self.q1 * self.inv).sum()) / self.inv.sum()

    def outputs(self, lam: np.ndarray) -> np.ndarray:
        """(plants x points) outputs at shadow prices ``lam``, bounds applied."""
        raw = (lam[None, :] - self.q1[:, None]) * self.inv[:, None]
        return np.clip(raw, self.p_min[:, None], self.p_max[:, None])

    def _thresholds(self) -> tuple[np.ndarray, np.ndarray]:
        """Marginal costs where a plant meets a bound, and total supply there."""
        tops = self.q1 + 2.0 * self.q2 * self.p_max
        thr = np.unique(np.concatenate([self.q1 + 2.0 * self.q2 * self.p_min, tops[np.isfinite(tops)]]))
        return thr, self.outputs(thr).sum(axis=0)

    def clamped_lambda(self, load: np.ndarray) -> np.ndarray:
        """Invert the clipped supply curve, which rises strictly on the thresholds."""
        thr, supply = self._thresholds()
        return np.interp(load, supply, thr)

    def clamped_knots(self) -> np.ndarray:
        """Load breakpoints plus every time the load crosses a threshold supply."""
        _, supply = self._thresholds()
        t0, t1 = self.times[:-1, None], self.times[1:, None]
        d0, d1 = self.powers[:-1, None], self.powers[1:, None]
        crosses = (supply[None, :] - d0) * (supply[None, :] - d1) < 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            tc = t0 + (supply[None, :] - d0) * (t1 - t0) / (d1 - d0)
        return np.unique(np.concatenate([self.times, tc[crosses]]))


def rearrange(times: np.ndarray, powers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Non-decreasing rearrangement of a piecewise-linear curve.

    Each breakpoint level ``y`` sits at time ``T - m(y)``, where ``m(y)`` is
    the time the curve spends strictly above ``y``; a level carrying flat
    segments of total length ``d`` occupies ``[T - m - d, T - m]``.
    """
    T = times[-1]
    levels = np.unique(powers)
    dt = np.diff(times)
    p0, p1 = powers[:-1], powers[1:]
    lo, hi = np.minimum(p0, p1), np.maximum(p0, p1)
    flat = p0 == p1
    y = levels[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = np.where(flat, (p0 > y).astype(float), np.clip((hi - y) / (hi - lo), 0.0, 1.0))
    m = (frac * dt).sum(axis=1)
    d = (np.where(flat & (p0 == y), 1.0, 0.0) * dt).sum(axis=1)
    pts = []
    for mk, dk, yk in zip(m, d, levels):
        pts.append((T - mk - dk, yk))
        if dk > 0.0:
            pts.append((T - mk, yk))
    pts[0], pts[-1] = (0.0, pts[0][1]), (T, pts[-1][1])
    keep = [pts[0]]
    for t, yk in pts[1:]:
        if t > keep[-1][0]:
            keep.append((t, yk))
    return np.array([t for t, _ in keep]), np.array([yk for _, yk in keep])


class DurationOracle:
    """Closed-form load-duration price on a non-decreasing shadow price.

    ``pi(t) (T - t) = lam(t) (T - t) + G(t)`` with
    ``G(t) = int_0^t lam'(s) (T - s) ds``, piecewise quadratic.
    """

    def __init__(self, tau: np.ndarray, lam: np.ndarray) -> None:
        self.tau, self.lam, self.T = tau, lam, tau[-1]
        dt = np.diff(tau)
        self.slope = np.diff(lam) / dt
        self.g0 = np.concatenate([[0.0], np.cumsum(self.slope * ((self.T - tau[:-1]) * dt - dt * dt / 2.0))])

    def correction(self, ts: np.ndarray) -> np.ndarray:
        i = np.clip(np.searchsorted(self.tau, ts, side="right") - 1, 0, len(self.tau) - 2)
        u = ts - self.tau[i]
        return self.g0[i] + self.slope[i] * ((self.T - self.tau[i]) * u - u * u / 2.0)

    def price_times_duration(self, ts: np.ndarray) -> np.ndarray:
        """``pi * m`` at clock times ``ts`` (duration ``m = T - t``)."""
        return np.interp(ts, self.tau, self.lam) * (self.T - ts) + self.correction(ts)

    def time_view(self, ts: np.ndarray) -> np.ndarray:
        return np.interp(ts, self.tau, self.lam) + self.correction(ts) / (self.T - ts)

    def measure_view(self, ms: np.ndarray) -> np.ndarray:
        ts = self.T - ms
        return np.interp(ts, self.tau, self.lam) + self.correction(ts) / ms

    def h_integral(self) -> float:
        """``H = int lam'(t) pi(t) (T - t) dt``: quadratic per segment, so Simpson is exact."""
        tau, lam, T = self.tau, self.lam, self.T
        dt = np.diff(tau)
        f_knots = lam * (T - tau) + self.g0
        h = dt / 2.0
        mid = tau[:-1] + h
        f_mid = (lam[:-1] + lam[1:]) / 2.0 * (T - mid) + self.g0[:-1] + self.slope * ((T - tau[:-1]) * h - h * h / 2.0)
        return float((self.slope * dt / 6.0 * (f_knots[:-1] + 4.0 * f_mid + f_knots[1:])).sum())


def _segment_product(dt, a0, a1, b0, b1) -> np.ndarray:
    """Exact integral of the product of two linear pieces, summed over segments."""
    return (dt * (2.0 * a0 * b0 + a0 * b1 + a1 * b0 + 2.0 * a1 * b1) / 6.0).sum(axis=-1)


def interior_settlement(mk: Market, times: np.ndarray, powers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-plant (cost, spot revenue) for interior dispatch, from lambda moments."""
    lam = mk.interior_lambda(powers)
    dt = np.diff(times)
    i1 = float((dt * (lam[:-1] + lam[1:]) / 2.0).sum())
    i2 = float(_segment_product(dt, lam[:-1], lam[1:], lam[:-1], lam[1:]))
    T = times[-1]
    energy = (i1 - mk.q1 * T) * mk.inv
    square = (i2 - 2.0 * mk.q1 * i1 + mk.q1**2 * T) * mk.inv**2
    cost = mk.q2 * square + mk.q1 * energy + mk.q0 * T
    return cost, (i2 - mk.q1 * i1) * mk.inv


def clamped_settlement(mk: Market) -> tuple[np.ndarray, np.ndarray]:
    """Per-plant (cost, spot revenue) for clamped dispatch, per knot segment."""
    knots = mk.clamped_knots()
    lam = mk.clamped_lambda(mk.load_at(knots))
    p = mk.outputs(lam)
    dt = np.diff(knots)
    p0, p1 = p[:, :-1], p[:, 1:]
    energy = (dt * (p0 + p1) / 2.0).sum(axis=1)
    cost = mk.q2 * _segment_product(dt, p0, p1, p0, p1) + mk.q1 * energy + mk.q0 * mk.T
    return cost, _segment_product(dt, p0, p1, lam[:-1], lam[1:])


def duration_revenue(mk: Market, dur: DurationOracle) -> np.ndarray:
    """``lam(0) P_j(0) T + H / (2 q2_j)`` on the rearranged timeline."""
    lam0 = dur.lam[0]
    return lam0 * (lam0 - mk.q1) * mk.inv * mk.T + dur.h_integral() * mk.inv


def _distinct(values: np.ndarray, tol: float) -> np.ndarray:
    """Sorted values with runs closer than ``tol`` collapsed to their first."""
    v = np.sort(values)
    return v[np.concatenate([[True], np.diff(v) > tol])]


def _same_grid(actual: np.ndarray, expected: np.ndarray, tol: float) -> bool:
    """Both grids hold the same points up to ``tol``.

    Mathematically equal times reached by different float paths (say, a
    rearranged knot landing on a load breakpoint) may appear twice in the
    engine's grid, a few ulps apart; they count as one point.
    """
    a, e = _distinct(actual, tol), _distinct(expected, tol)
    return a.size == e.size and bool(np.all(np.abs(a - e) <= tol))


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _worst(actual: np.ndarray, expected: np.ndarray) -> float:
    return float(np.max(np.abs(actual - expected))) if actual.size else 0.0


class _Problems(list):
    def expect(self, ok: bool, message: str) -> bool:
        if not ok:
            self.append(message)
        return ok

    def close(self, label: str, actual, expected, scale: float, tol: float) -> None:
        err = _worst(np.asarray(actual, dtype=float), np.asarray(expected, dtype=float))
        self.expect(err <= tol * scale, f"{label}: error {err:.3g} exceeds {tol:g} x {scale:.6g}")


def _check_dispatch(probs: _Problems, mk: Market, label: str, load, lam, outputs) -> None:
    """Power balance, equal marginal cost on interior plants, bounds."""
    load_scale = max(1.0, float(np.max(np.abs(load))))
    lam_scale = max(1.0, float(np.max(np.abs(lam))))
    probs.close(f"{label} power balance", outputs.sum(axis=0), load, load_scale, TOL_BALANCE)
    lo = mk.p_min[:, None]
    hi = mk.p_max[:, None]
    lo_slack = TOL_BOUND * np.maximum(1.0, lo)
    hi_slack = TOL_BOUND * np.maximum(1.0, np.where(np.isfinite(hi), hi, 1.0))
    inside = (outputs >= lo - lo_slack) & (outputs <= hi + hi_slack)
    probs.expect(bool(inside.all()), f"{label}: an output lies outside its bounds")
    interior = (outputs > lo + lo_slack) & (outputs < hi - hi_slack)
    marginal = 2.0 * mk.q2[:, None] * outputs + mk.q1[:, None]
    gap = np.where(interior, np.abs(marginal - lam[None, :]), 0.0)
    probs.expect(
        float(gap.max()) <= TOL_MARGINAL * lam_scale,
        f"{label}: interior marginal costs differ from lambda by {float(gap.max()):.3g}",
    )


def check_cli(
    spec: dict, out_dir: Path, *, mechanisms: tuple[str, ...], clamped: bool, exit_code: int, report: str
) -> list[str]:
    """Check one CLI run: exit code, report, and the three CSV files."""
    mk = Market(spec)
    probs = _Problems()
    if not probs.expect(exit_code == 0, f"exit code {exit_code}"):
        return probs
    probs.expect(report.startswith(f"scenario: {mk.name}\n"), "report does not start with the scenario line")
    for mech in mechanisms:
        probs.expect(f"[{mech}]" in report, f"report lacks the [{mech}] section")
    paths = {name: out_dir / f"{name}.csv" for name in ("timeseries", "duration", "settlement")}
    missing = [str(p.name) for p in paths.values() if not p.is_file()]
    if not probs.expect(not missing, f"missing output files: {missing}"):
        return probs

    T = mk.T
    if clamped:
        knots = mk.clamped_knots()
        lam_of = mk.clamped_lambda
    else:
        knots = mk.times
        lam_of = mk.interior_lambda
    dur = None
    if "duration" in mechanisms:
        tau, q = rearrange(mk.times, mk.powers)
        dur = DurationOracle(tau, mk.interior_lambda(q))

    # timeseries.csv
    rows = _read_csv(paths["timeseries"])
    probs.expect(rows[0] == TIMESERIES_HEADER + [f"P_{i}" for i in mk.ids], "timeseries.csv header")
    body = rows[1:]
    t = np.array([float(r[0]) for r in body])
    grid = [np.linspace(0.0, T, GRID_POINTS), knots] + ([dur.tau] if dur is not None else [])
    if not probs.expect(
        t.size > 1 and _same_grid(t, np.concatenate(grid), TOL_TIME * T), "timeseries.csv time grid"
    ):
        return probs
    probs.expect(bool(t[0] == 0.0 and t[-1] == T and np.all(np.diff(t) > 0.0)), "timeseries.csv times")
    load = np.array([float(r[1]) for r in body])
    lam = np.array([float(r[2]) for r in body])
    outputs = np.array([[float(v) for v in r[4:]] for r in body]).T
    load_scale = float(mk.powers.max())
    probs.close("timeseries load", load, mk.load_at(t), load_scale, TOL_BALANCE)
    expected_lam = lam_of(mk.load_at(t))
    probs.close("timeseries lambda", lam, expected_lam, float(np.abs(expected_lam).max()), TOL_PRICE)
    probs.close("timeseries outputs", outputs, mk.outputs(expected_lam), load_scale, TOL_BALANCE)
    _check_dispatch(probs, mk, "timeseries", load, lam, outputs)
    pi_cells = [r[3] for r in body]
    if dur is None:
        probs.expect(all(c == "" for c in pi_cells), "pi_time filled without duration pricing")
    else:
        cutoff = T - mk.m_floor
        sure = np.abs(t - cutoff) > TOL_TIME * T
        filled = np.array([c != "" for c in pi_cells])
        probs.expect(bool(np.all(filled[sure] == (t[sure] < cutoff))), "pi_time blank pattern")
        pi = np.array([float(c) if c else np.nan for c in pi_cells])
        want = dur.time_view(t[filled])
        probs.close("pi_time", pi[filled] / want, np.ones(want.size), 1.0, TOL_PRICE)

    # duration.csv
    rows = _read_csv(paths["duration"])
    probs.expect(rows[0] == DURATION_HEADER, "duration.csv header")
    body = rows[1:]
    if dur is None:
        probs.expect(not body, "duration.csv has rows without duration pricing")
    else:
        ms = T - dur.tau
        ms = np.concatenate([np.linspace(mk.m_floor, T, GRID_POINTS + 1)[1:], ms[(ms > mk.m_floor) & (ms <= T)], [T]])
        m = np.array([float(r[0]) for r in body])
        if probs.expect(m.size > 0 and _same_grid(m, ms, TOL_TIME * T), "duration.csv m grid"):
            pi = np.array([float(r[1]) for r in body])
            probs.expect(bool(np.all(np.diff(m) > 0.0) and m[0] > mk.m_floor and m[-1] == T), "duration.csv m column")
            probs.close("pi_measure", pi / dur.measure_view(m), np.ones(m.size), 1.0, TOL_PRICE)

    # settlement.csv
    rows = _read_csv(paths["settlement"])
    probs.expect(rows[0] == SETTLEMENT_HEADER, "settlement.csv header")
    body = rows[1:]
    order = [m for m in ("spot", "duration") if m in mechanisms]
    n = len(mk.ids)
    if not probs.expect(len(body) == len(order) * (n + 1), f"settlement.csv has {len(body)} rows"):
        return probs
    if clamped:
        cost, spot_rev = clamped_settlement(mk)
        knots_load = mk.load_at(knots)
        lam_knots = mk.clamped_lambda(knots_load)
    else:
        cost, spot_rev = interior_settlement(mk, mk.times, mk.powers)
        knots_load = mk.powers
        lam_knots = mk.interior_lambda(knots_load)
    market_spot = float(_segment_product(np.diff(knots), lam_knots[:-1], lam_knots[1:], knots_load[:-1], knots_load[1:]))
    revenue = {"spot": spot_rev}
    if dur is not None:
        revenue["duration"] = duration_revenue(mk, dur)
    for k, mech in enumerate(order):
        block = body[k * (n + 1):(k + 1) * (n + 1)]
        probs.expect(
            [r[:2] for r in block] == [[mech, i] for i in mk.ids] + [[mech, "total"]],
            f"settlement.csv {mech} rows",
        )
        vals = np.array([[float(v) for v in r[2:5]] for r in block])
        rates = [r[5] for r in block]
        c, rev, profit = vals[:, 0], vals[:, 1], vals[:, 2]
        scale = max(abs(float(rev[-1])), abs(float(c[-1])), 1.0)
        probs.close(f"{mech} cost", c[:-1], cost, scale, TOL_VALUE)
        probs.close(f"{mech} revenue", rev[:-1], revenue[mech], scale, TOL_VALUE)
        probs.close(f"{mech} profit", profit, rev - c, scale, TOL_VALUE)
        probs.close(f"{mech} totals", vals[-1], vals[:-1].sum(axis=0), scale, TOL_VALUE)
        if mech == "spot":
            probs.close("sum of spot revenue vs integral of lambda * load", rev[-1], market_spot, scale, TOL_VALUE)
        rate_ok = all(
            (r == "") if ci == 0.0 else abs(float(r) - pi / ci) <= TOL_VALUE * max(1.0, abs(pi / ci))
            for r, pi, ci in zip(rates, profit, c)
        )
        probs.expect(rate_ok, f"{mech} profit_rate column")
    return probs


def check_library(spec: dict, ts: np.ndarray, lam: np.ndarray, ptd: np.ndarray, outputs: list[np.ndarray]) -> list[str]:
    """Check an interior library-path run sampled at the load breakpoints ``ts``."""
    mk = Market(spec)
    probs = _Problems()
    if not probs.expect(np.array_equal(ts, mk.times), "sampling knots differ from the load breakpoints"):
        return probs
    expected_lam = mk.interior_lambda(mk.powers)
    lam_scale = float(np.abs(expected_lam).max())
    probs.close("lambda", lam, expected_lam, lam_scale, TOL_PRICE)
    load_scale = float(mk.powers.max())
    total = np.zeros_like(mk.powers)
    worst_output = worst_marginal = 0.0
    for j, p in enumerate(outputs):
        total += p
        worst_output = max(worst_output, _worst(p, (expected_lam - mk.q1[j]) * mk.inv[j]))
        worst_marginal = max(worst_marginal, _worst(2.0 * mk.q2[j] * p + mk.q1[j], lam))
    probs.expect(len(outputs) == len(mk.ids), f"{len(outputs)} output trajectories for {len(mk.ids)} plants")
    probs.expect(worst_output <= TOL_BALANCE * load_scale, f"outputs: error {worst_output:.3g}")
    probs.expect(worst_marginal <= TOL_MARGINAL * lam_scale, f"marginal costs differ from lambda by {worst_marginal:.3g}")
    probs.close("power balance", total, mk.powers, load_scale, TOL_BALANCE)
    dur = DurationOracle(mk.times, expected_lam)
    want = dur.price_times_duration(ts)
    probs.close("price_times_duration", ptd, want, float(np.abs(want).max()), TOL_PRICE)
    return probs
