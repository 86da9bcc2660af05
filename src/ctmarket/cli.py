"""Command-line entry point.

Loads a scenario (file or the built-in case study), runs dispatch, pricing
and settlement for the requested mechanisms, prints a human-readable report
and optionally writes machine-readable series files:

* ``timeseries.csv`` -- t, load, lambda, pi_time, P_<id>... on a uniform
  grid united with every curve breakpoint; pi_time is left empty beyond
  ``T - m_floor`` to keep the singularity explicit.
* ``duration.csv`` -- m, pi_measure on (m_floor, T].
* ``settlement.csv`` -- one row per plant per mechanism plus a total row.

Report numbers carry 6 significant digits; series files carry full
round-trip precision.  Exit codes: 0 success, 1 validation/input errors,
2 unsupported-mechanism errors (e.g. duration pricing on clamped dispatch).
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
from .quadrature import QuadratureConfig
from .scenario import Scenario, builtin_case_study, validate
from .settlement import SettlementReport, settle_duration, settle_spot

__all__ = ["RunOutput", "run_scenario", "render_report", "emit_series", "main", "entrypoint"]

TIMESERIES_FILE = "timeseries.csv"
DURATION_FILE = "duration.csv"
SETTLEMENT_FILE = "settlement.csv"
GRID_POINTS = 501

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


def run_scenario(
    scenario: Scenario,
    *,
    mechanisms: tuple[str, ...] | None = None,
    grid_n: int | None = None,
    allow_clamp: bool | None = None,
) -> RunOutput:
    """Run dispatch, pricing and settlement for the requested mechanisms."""
    opts = scenario.options
    mechs = tuple(mechanisms) if mechanisms is not None else opts.mechanisms
    cfg = QuadratureConfig(n_panels=grid_n if grid_n is not None else opts.grid_n)
    clamp_ok = opts.allow_clamp if allow_clamp is None else allow_clamp
    load = scenario.load_curve()
    plants = scenario.plant_objects()
    m_floor = scenario.resolved_m_floor()
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
        reports["spot"] = settle_spot(sol, spot_price(sol), plants, cfg)

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
        dprice = duration_price(dsol, m_floor=m_floor)
        reports["duration"] = settle_duration(dsol, dprice, plants, cfg)
        diagnostics.append(
            "duration revenues settle every plant at the single market duration price"
        )

    return RunOutput(
        scenario=scenario,
        reports=reports,
        plant_ids=[p.id for p in plants],
        timeseries=_build_timeseries(sol, dsol, dprice, m_floor),
        duration_series=_build_duration_series(dprice, dsol, m_floor),
        settlement_rows=_build_settlement_rows(reports),
        diagnostics=diagnostics,
    )


def _build_timeseries(
    sol: DispatchSolution,
    dsol: DispatchSolution | None,
    dprice: DurationPrice | None,
    m_floor: float,
) -> list[tuple]:
    T = sol.horizon
    parts = [np.linspace(0.0, T, GRID_POINTS), sol.load.times, sol.lambda_curve.times]
    parts.extend(curve.times for curve in sol.outputs.values())
    if dsol is not None:
        parts.append(dsol.lambda_curve.times)  # duration-price kinks
    grid = np.unique(np.concatenate(parts))
    # pi_time stops at T - m_floor: a prefix of the sorted grid.
    priced = 0 if dprice is None else int(np.searchsorted(grid, T - m_floor, side="right"))
    pi = dprice.time_view(grid[:priced]).tolist() if priced else []
    columns = [
        grid.tolist(),
        sol.load.sample(grid).tolist(),
        sol.lambda_curve.sample(grid).tolist(),
        pi + [None] * (len(grid) - priced),
        *(curve.sample(grid).tolist() for curve in sol.outputs.values()),
    ]
    return list(zip(*columns))


def _build_duration_series(
    dprice: DurationPrice | None, dsol: DispatchSolution | None, m_floor: float
) -> list[tuple[float, float]]:
    if dprice is None or dsol is None:
        return []
    T = dprice.horizon
    grid = np.linspace(m_floor, T, GRID_POINTS + 1)[1:]
    extras = [T - t for t in dsol.lambda_curve.times if m_floor < T - t <= T]
    ms = np.unique(np.concatenate([grid, np.asarray(extras + [T])]))
    return list(zip(ms.tolist(), dprice.measure_view(ms).tolist()))


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


def emit_series(out: RunOutput, directory) -> None:
    """Write the three series files with full round-trip precision."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    with open(directory / TIMESERIES_FILE, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "load", "lambda", "pi_time", *(f"P_{pid}" for pid in out.plant_ids)])
        for row in out.timeseries:
            writer.writerow([_cell(v) for v in row])

    with open(directory / DURATION_FILE, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["m", "pi_measure"])
        for m, pi in out.duration_series:
            writer.writerow([_cell(m), _cell(pi)])

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
    parser.add_argument("--grid-n", type=int, default=None, help="quadrature panel count")
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
            grid_n=args.grid_n,
            allow_clamp=True if args.allow_clamp else None,
        )
    except (UnsupportedOperationError, UndefinedPriceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InfeasibleDispatchError, DomainError, NumericError, ValueError) as exc:
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
