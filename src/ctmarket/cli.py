"""Command-line entry point.

Loads a scenario (file or the built-in case study), runs dispatch, pricing
and settlement for the requested mechanisms, prints a human-readable report
and optionally writes machine-readable series files:

* ``timeseries.csv`` -- t, load, lambda, pi_time, P_<id>... on every load,
  lambda and output breakpoint, plus each duration-price knot and uniform
  grid point not within ``GRID_TOL * T`` of a time already kept; pi_time is
  left empty beyond ``T - m_floor`` to keep the singularity explicit.
* ``duration.csv`` -- m, pi_measure on (m_floor, T].
* ``settlement.csv`` -- one row per plant per mechanism plus a total row.

Report numbers carry 6 significant digits; series files carry full
round-trip precision: a float cell is its ``repr``.  The float series stay
columns from sampling to the writer, which reprs a column at a time and
joins rows once; ``csv`` writes the headers (plant ids may need quoting)
and ``settlement.csv``, whose rows come from the reports.  Exit codes: 0
success, 1 validation/input errors, 2 unsupported-mechanism errors (e.g.
duration pricing on clamped dispatch).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .curves import duration_curve
from .dispatch import DispatchSolution, solve_equilibrium
from .errors import (
    DomainError,
    InfeasibleDispatchError,
    NumericError,
    ScenarioValidationError,
    UndefinedPriceError,
    UnsupportedOperationError,
)
from .pricing import DurationPrice, duration_price, spot_price
from .scenario import Scenario, builtin_case_study, validate
from .settlement import SettlementReport, settle_duration, settle_spot

__all__ = ["RunOutput", "run_scenario", "render_report", "emit_series", "main", "entrypoint"]

TIMESERIES_FILE = "timeseries.csv"
DURATION_FILE = "duration.csv"
SETTLEMENT_FILE = "settlement.csv"
GRID_POINTS = 501
GRID_TOL = 1e-11  # times closer than this, relative to the horizon, are one row

_MECHANISM_FLAG = {"spot": ("spot",), "duration": ("duration",), "both": ("spot", "duration")}


@dataclass
class RunOutput:
    """Everything one run produces: reports, plot-ready series, diagnostics.

    A series is a list of float columns, one per CSV column.  pi_time holds
    only the priced prefix of the time grid; ``duration_series`` is empty
    without duration pricing.
    """

    scenario: Scenario
    reports: dict[str, SettlementReport]
    plant_ids: list[str]
    timeseries: list[np.ndarray]  # t, load, lambda, pi_time, *outputs
    duration_series: list[np.ndarray]  # m, pi_measure
    diagnostics: list[str]


@np.errstate(all="ignore")
def run_scenario(scenario: Scenario) -> RunOutput:
    """Run dispatch, pricing and settlement as ``scenario.options`` ask.

    The options alone choose the mechanisms and whether dispatch may clamp;
    to run otherwise, pass a scenario with other options
    (``dataclasses.replace``), as ``main`` does for its flags.

    A number beyond the float range is diagnosed, not warned about: numpy's
    floating-point warnings are off during the run, and it raises
    :class:`NumericError` unless every reported number and series cell is
    finite.
    """
    mechs, clamp_ok = scenario.options.mechanisms, scenario.options.allow_clamp
    load = scenario.load_curve()
    plants = scenario.plants
    diagnostics: list[str] = []

    sol = solve_equilibrium(plants, load, allow_clamp=clamp_ok)
    if sol.clamped:
        bound_plants = sorted({e.plant for e in sol.clamp_events})
        diagnostics.append(
            "capacity bounds engaged for "
            + ", ".join(bound_plants)
            + ": clamped dispatch (spot settlement only)"
        )

    reports: dict[str, SettlementReport] = {}
    if "spot" in mechs:
        reports["spot"] = settle_spot(sol, spot_price(sol), plants)

    dprice: DurationPrice | None = None
    dsol: DispatchSolution | None = None
    if "duration" in mechs:
        if load.is_non_decreasing:
            dsol = sol
        else:
            dsol = solve_equilibrium(plants, duration_curve(load), allow_clamp=clamp_ok)
            diagnostics.append(
                "load is not non-decreasing: duration pricing and settlement "
                "refer to the duration-rearranged timeline"
            )
        dprice = duration_price(dsol, m_floor=scenario.resolved_m_floor())
        reports["duration"] = settle_duration(dsol, dprice, plants)
        diagnostics.append(
            "duration revenues settle every plant at the single market duration price"
        )

    out = RunOutput(
        scenario=scenario,
        reports=reports,
        plant_ids=[p.id for p in plants],
        timeseries=_build_timeseries(sol, dsol, dprice),
        duration_series=_build_duration_series(dprice, dsol),
        diagnostics=diagnostics,
    )
    for mech, plant, *numbers in _report_rows(reports):
        _require_finite(f"the {mech} settlement of {plant}", [x for x in numbers if x is not None])
    return out


def _require_finite(where: str, values) -> None:
    if not np.isfinite(values).all():
        raise NumericError.out_of_range(where)


def _build_timeseries(
    sol: DispatchSolution,
    dsol: DispatchSolution | None,
    dprice: DurationPrice | None,
) -> list[np.ndarray]:
    T = sol.horizon
    grid = np.union1d(sol.load.times, sol.lambda_curve.times)  # every output shares lambda's times
    tol = GRID_TOL * T
    if dsol is not None:
        grid = _unite_apart(grid, dsol.lambda_curve.times, tol)  # duration-price kinks
    grid = _unite_apart(grid, np.linspace(0.0, T, GRID_POINTS), tol)
    # pi_time stops at T - m_floor: a prefix of the sorted grid.
    priced = 0 if dprice is None else int(np.searchsorted(grid, T - dprice.m_floor, side="right"))
    pi = dprice.time_view(grid[:priced]) if priced else np.empty(0)
    columns = [
        grid,
        sol.load.sample(grid),
        sol.lambda_curve.sample(grid),
        pi,
        *(curve.sample(grid) for curve in sol.outputs.values()),
    ]
    for column in columns:
        _require_finite(f"a {TIMESERIES_FILE} cell", column)
    return columns


def _unite_apart(kept: np.ndarray, extra: np.ndarray, tol: float) -> np.ndarray:
    """Sorted ``kept`` plus each ``extra`` time farther than ``tol`` from all of them."""
    above = np.searchsorted(kept, extra)
    below = np.abs(extra - kept[np.maximum(above - 1, 0)])
    apart = (below > tol) & (np.abs(kept[np.minimum(above, len(kept) - 1)] - extra) > tol)
    return np.union1d(kept, extra[apart])


def _build_duration_series(
    dprice: DurationPrice | None, dsol: DispatchSolution | None
) -> list[np.ndarray]:
    if dprice is None or dsol is None:
        return []
    T, m_floor = dprice.horizon, dprice.m_floor
    grid = np.linspace(m_floor, T, GRID_POINTS + 1)[1:]
    extras = T - dsol.lambda_curve.times
    extras = extras[(m_floor < extras) & (extras <= T)]
    ms = np.unique(np.concatenate([grid, extras, [T]]))
    pis = dprice.measure_view(ms)
    _require_finite(f"a {DURATION_FILE} cell", pis)
    return [ms, pis]


def _report_rows(reports: dict[str, SettlementReport]):
    """(mechanism, plant, cost, revenue, profit, profit_rate), plants then total."""
    for mech in ("spot", "duration"):
        rep = reports.get(mech)
        if rep is None:
            continue
        for r in rep.plants:
            yield (mech, r.plant, r.generation_cost, r.revenue, r.profit, r.profit_rate)
        yield (mech, "total", rep.total_cost, rep.total_revenue, rep.total_profit, rep.market_profit_rate)


def _fmt(x: float | None) -> str:
    return "n/a" if x is None else f"{x:.6g}"


def render_report(out: RunOutput) -> str:
    lines = [f"scenario: {out.scenario.name}"]
    for mech in ("spot", "duration"):
        rep = out.reports.get(mech)
        if rep is None:
            continue
        lines.append("")
        lines.append(f"[{mech}]")
        width = max(5, *(len(r.plant) for r in rep.plants))
        header = f"{'plant':<{width}} {'cost':>12} {'revenue':>12} {'profit':>12} {'profit_rate':>12}"
        lines.append(header)
        for r in rep.plants:
            lines.append(
                f"{r.plant:<{width}} {_fmt(r.generation_cost):>12} {_fmt(r.revenue):>12} "
                f"{_fmt(r.profit):>12} {_fmt(r.profit_rate):>12}"
            )
        lines.append(
            f"{'total':<{width}} {_fmt(rep.total_cost):>12} {_fmt(rep.total_revenue):>12} "
            f"{_fmt(rep.total_profit):>12} {_fmt(rep.market_profit_rate):>12}"
        )
    if out.diagnostics:
        lines.append("")
        lines.append("notes:")
        lines.extend(f"- {d}" for d in out.diagnostics)
    return "\n".join(lines)


def _write_floats(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    """A ``csv`` header row, then one row per cell of the longest column at
    one ``repr`` per cell; cells past the end of a shorter column are empty."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        n_rows = max(map(len, columns), default=0)
        if n_rows:
            text = [list(map(repr, c.tolist())) + [""] * (n_rows - len(c)) for c in columns]
            fh.write("\r\n".join(map(",".join, zip(*text))) + "\r\n")


def emit_series(out: RunOutput, directory) -> None:
    """Write the three series files with full round-trip precision."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    _write_floats(
        directory / TIMESERIES_FILE,
        ["t", "load", "lambda", "pi_time", *(f"P_{pid}" for pid in out.plant_ids)],
        out.timeseries,
    )
    _write_floats(directory / DURATION_FILE, ["m", "pi_measure"], out.duration_series)

    with open(directory / SETTLEMENT_FILE, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["mechanism", "plant", "cost", "revenue", "profit", "profit_rate"])
        for mech, plant, *numbers in _report_rows(out.reports):
            writer.writerow([mech, plant, *("" if x is None else repr(float(x)) for x in numbers)])


def _load_scenario_file(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return validate(data)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ctmarket",
        description="Continuous-time market dispatch, pricing and settlement.",
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--scenario", metavar="PATH", help="scenario file (JSON)")
    source.add_argument(
        "--case-study", action="store_true", help="run the built-in three-plant scenario"
    )
    parser.add_argument("--mechanism", choices=["spot", "duration", "both"], default=None)
    parser.add_argument("--out-dir", metavar="PATH", default=None, help="write series files here")
    parser.add_argument("--allow-clamp", action="store_true", help="permit clamped dispatch")
    parser.add_argument("--quiet", action="store_true", help="suppress the report")
    args = parser.parse_args(argv)

    try:
        scenario = builtin_case_study() if args.case_study else _load_scenario_file(args.scenario)
    except ScenarioValidationError as exc:
        for issue in exc.issues:
            print(f"error: {issue}", file=sys.stderr)
        return 1
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    options = scenario.options
    if args.mechanism is not None:
        options = replace(options, mechanisms=_MECHANISM_FLAG[args.mechanism])
    if args.allow_clamp:
        options = replace(options, allow_clamp=True)
    try:
        out = run_scenario(replace(scenario, options=options))
    except (UnsupportedOperationError, UndefinedPriceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InfeasibleDispatchError, DomainError, NumericError, OverflowError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if not args.quiet:
        print(render_report(out))
    if args.out_dir is not None:
        try:
            emit_series(out, args.out_dir)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
