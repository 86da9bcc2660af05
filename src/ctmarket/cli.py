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
round-trip precision: a float cell is its ``repr``.  ``csv`` writes the
headers (plant ids may need quoting) and ``settlement.csv``; the float
bodies of the other two files are built as text a column at a time and
written at once.  Exit codes: 0 success, 1 validation/input errors, 2
unsupported-mechanism errors (e.g. duration pricing on clamped dispatch).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass
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
    """Everything one run produces: reports, plot-ready series, diagnostics."""

    scenario: Scenario
    reports: dict[str, SettlementReport]
    plant_ids: list[str]
    timeseries: list[tuple]  # (t, load, lambda, pi_time | None, *outputs)
    duration_series: list[tuple[float, float]]
    settlement_rows: list[tuple]
    diagnostics: list[str]


@np.errstate(all="ignore")
def run_scenario(
    scenario: Scenario,
    *,
    mechanisms: tuple[str, ...] | None = None,
    allow_clamp: bool | None = None,
) -> RunOutput:
    """Run dispatch, pricing and settlement for the requested mechanisms.

    A number beyond the float range is diagnosed, not warned about: numpy's
    floating-point warnings are off during the run, and it raises
    :class:`NumericError` unless every reported number and series cell is
    finite.
    """
    opts = scenario.options
    mechs = tuple(mechanisms) if mechanisms is not None else opts.mechanisms
    clamp_ok = opts.allow_clamp if allow_clamp is None else allow_clamp
    load = scenario.load_curve()
    plants = scenario.plant_objects()
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

    return RunOutput(
        scenario=scenario,
        reports=reports,
        plant_ids=[p.id for p in plants],
        timeseries=_build_timeseries(sol, dsol, dprice),
        duration_series=_build_duration_series(dprice, dsol),
        settlement_rows=_build_settlement_rows(reports),
        diagnostics=diagnostics,
    )


def _require_finite(where: str, values) -> None:
    if not np.isfinite(values).all():
        raise NumericError(f"{where} is not finite: the scenario's numbers exceed the float range")


def _build_timeseries(
    sol: DispatchSolution,
    dsol: DispatchSolution | None,
    dprice: DurationPrice | None,
) -> list[tuple]:
    T = sol.horizon
    parts = [sol.load.times, sol.lambda_curve.times]
    parts.extend(curve.times for curve in sol.outputs.values())
    grid = np.unique(np.concatenate(parts))
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
    _require_finite(f"a {TIMESERIES_FILE} cell", np.concatenate(columns))
    columns = [c.tolist() for c in columns]
    columns[3] += [None] * (len(grid) - priced)
    return list(zip(*columns))


def _unite_apart(kept: np.ndarray, extra: np.ndarray, tol: float) -> np.ndarray:
    """Sorted ``kept`` plus each ``extra`` time farther than ``tol`` from all of them."""
    above = np.searchsorted(kept, extra)
    below = np.abs(extra - kept[np.maximum(above - 1, 0)])
    apart = (below > tol) & (np.abs(kept[np.minimum(above, len(kept) - 1)] - extra) > tol)
    return np.union1d(kept, extra[apart])


def _build_duration_series(
    dprice: DurationPrice | None, dsol: DispatchSolution | None
) -> list[tuple[float, float]]:
    if dprice is None or dsol is None:
        return []
    T, m_floor = dprice.horizon, dprice.m_floor
    grid = np.linspace(m_floor, T, GRID_POINTS + 1)[1:]
    extras = [T - t for t in dsol.lambda_curve.times if m_floor < T - t <= T]
    ms = np.unique(np.concatenate([grid, np.asarray(extras + [T])]))
    pis = dprice.measure_view(ms)
    _require_finite(f"a {DURATION_FILE} cell", pis)
    return list(zip(ms.tolist(), pis.tolist()))


def _build_settlement_rows(reports: dict[str, SettlementReport]) -> list[tuple]:
    rows: list[tuple] = []
    for mech in ("spot", "duration"):
        rep = reports.get(mech)
        if rep is None:
            continue
        for r in rep.plants:
            rows.append((mech, r.plant, r.generation_cost, r.revenue, r.profit, r.profit_rate))
        rows.append(
            (mech, "total", rep.total_cost, rep.total_revenue, rep.total_profit, rep.market_profit_rate)
        )
    for row in rows:
        _require_finite(
            f"the {row[0]} settlement of {row[1]}", [x for x in row[2:] if x is not None]
        )
    return rows


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


def _cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    return repr(float(x))


def _text_column(column) -> list[str]:
    if None in column:  # only pi_time has empty cells
        return ["" if x is None else repr(x) for x in column]
    return list(map(repr, column))


def _write_floats(path: Path, header: list[str], rows: list[tuple]) -> None:
    """A ``csv`` header row, then ``rows`` of floats (None for an empty
    cell) at one ``repr`` per cell."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        if rows:
            columns = [_text_column(c) for c in zip(*rows)]
            fh.write("\r\n".join(map(",".join, zip(*columns))) + "\r\n")


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
        for row in out.settlement_rows:
            writer.writerow([_cell(v) for v in row])


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
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        out = run_scenario(
            scenario,
            mechanisms=_MECHANISM_FLAG.get(args.mechanism),
            allow_clamp=True if args.allow_clamp else None,
        )
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
