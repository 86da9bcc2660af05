"""Command-line entry point.

Loads a scenario (file or the built-in case study), runs dispatch, pricing
and settlement for the requested mechanisms, prints a human-readable report
and optionally writes machine-readable series files:

* ``timeseries.csv`` -- t, load, lambda, pi_time, P_<id>... on every load,
  lambda and output breakpoint, plus each duration-price knot and uniform
  grid point not within ``GRID_TOL * T`` of a time already kept; pi_time is
  left empty beyond ``T - m_floor`` to keep the singularity explicit.
* ``duration.csv`` -- m, pi_measure on (m_floor, T].

``m_floor`` is the scenario's ``resolved_m_floor()``; only these two series
use it, since the duration price is defined on all of ``[0, T)``.
* ``settlement.csv`` -- one row per plant per mechanism plus a total row.

Report numbers carry 6 significant digits; series files carry full
round-trip precision: a float cell is its ``repr``.  The float series stay
columns from sampling to the writer, which lays a file's columns out as one
row-major float block and writes it in binary, one ``orjson`` call per
chunk of rows (``repr``'s own text for ``REPR_FIXED_LO <= |x| <
REPR_FIXED_HI`` and zero), splitting into cells only the rows that hold a
cell outside that band, which takes ``repr`` itself; ``csv`` writes the
headers (plant ids may need quoting) and ``settlement.csv``, whose rows
come from the reports.  Exit codes: 0 success, 1 validation/input errors,
2 unsupported-mechanism errors (e.g. duration pricing on clamped dispatch).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import locale
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import orjson

from .curves import _interpolate, duration_curve
from .dispatch import DispatchSolution, solve_equilibrium
from .errors import (
    DomainError,
    InfeasibleDispatchError,
    NumericError,
    ScenarioValidationError,
    UndefinedPriceError,
    UnsupportedOperationError,
)
from .pricing import DurationPrice, duration_price
from .scenario import Scenario, builtin_case_study, validate
from .settlement import SettlementReport, settle_duration, settle_spot
from .tolerances import GRID_TOL

__all__ = ["RunOutput", "run_scenario", "render_report", "emit_series", "main", "entrypoint"]

TIMESERIES_FILE = "timeseries.csv"
DURATION_FILE = "duration.csv"
SETTLEMENT_FILE = "settlement.csv"
GRID_POINTS = 501
# CPython's float repr switches to exponent notation below 1e-4 and from
# 1e16 up, where orjson does not; between the two they write the same text.
REPR_FIXED_LO = 1e-4
REPR_FIXED_HI = 1e16
# Series rows are formatted this many cells at a time, so one orjson call
# covers many rows while a chunk's text stays small (tens of kB): with
# 4096-cell chunks a long benchmark run's peak RSS crept 0.2 MB higher.
CHUNK_CELLS = 2048

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
        reports["spot"] = settle_spot(sol)

    dprice: DurationPrice | None = None
    m_floor = 0.0
    if "duration" in mechs:
        if load.is_non_decreasing:
            dsol = sol
        else:
            dsol = solve_equilibrium(plants, duration_curve(load), allow_clamp=clamp_ok)
            diagnostics.append(
                "load is not non-decreasing: duration pricing and settlement "
                "refer to the duration-rearranged timeline"
            )
        m_floor = scenario.resolved_m_floor()
        dprice = duration_price(dsol)
        reports["duration"] = settle_duration(dsol)
        diagnostics.append(
            "duration revenues settle every plant at the single market duration price"
        )

    out = RunOutput(
        scenario=scenario,
        reports=reports,
        plant_ids=[p.id for p in plants],
        timeseries=_build_timeseries(sol, dprice, m_floor),
        duration_series=_build_duration_series(dprice, m_floor),
        diagnostics=diagnostics,
    )
    numbers = [x for _, _, *row in _report_rows(reports) for x in row if x is not None]
    if not np.isfinite(numbers).all():
        for mech, plant, *row in _report_rows(reports):
            _require_finite(f"the {mech} settlement of {plant}", [x for x in row if x is not None])
    return out


def _require_finite(where: str, values) -> None:
    if not np.isfinite(values).all():
        raise NumericError.out_of_range(where)


def _build_timeseries(
    sol: DispatchSolution, dprice: DurationPrice | None, m_floor: float
) -> list[np.ndarray]:
    T = sol.horizon
    grid = np.union1d(sol.load.times, sol.lambda_curve.times)  # every output shares lambda's times
    tol = GRID_TOL * T
    if dprice is not None:
        grid = _unite_apart(grid, dprice.lambda_curve.times, tol)  # duration-price kinks
    grid = _unite_apart(grid, np.linspace(0.0, T, GRID_POINTS), tol)
    # pi_time stops at T - m_floor: a prefix of the sorted grid.
    priced = 0 if dprice is None else int(np.searchsorted(grid, T - m_floor, side="right"))
    pi = dprice.time_view(grid[:priced]) if priced else np.empty(0)
    lam = sol.lambda_curve  # every output shares its times, so its domain check covers theirs
    columns = [grid, sol.load.sample(grid), lam.sample(grid), pi]
    outputs = np.empty((len(sol.plants), len(grid)))
    for rows, block in sol.outputs.row_blocks():
        for out, row in zip(outputs[rows], block):
            out[:] = _interpolate(grid, lam.times, row)
    for column in [*columns, outputs]:
        _require_finite(f"a {TIMESERIES_FILE} cell", column)
    return [*columns, *outputs]


def _unite_apart(kept: np.ndarray, extra: np.ndarray, tol: float) -> np.ndarray:
    """Sorted ``kept`` plus each ``extra`` time farther than ``tol`` from all of them."""
    above = np.searchsorted(kept, extra)
    below = np.abs(extra - kept[np.maximum(above - 1, 0)])
    apart = (below > tol) & (np.abs(kept[np.minimum(above, len(kept) - 1)] - extra) > tol)
    return np.union1d(kept, extra[apart])


def _build_duration_series(dprice: DurationPrice | None, m_floor: float) -> list[np.ndarray]:
    if dprice is None:
        return []
    T = dprice.horizon
    grid = np.linspace(m_floor, T, GRID_POINTS + 1)[1:]
    extras = T - dprice.lambda_curve.times
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
    """A ``csv`` header row, then one row per cell of the longest column,
    each float cell its ``repr``; cells past a shorter column's end are empty.

    The columns become one (rows x columns) float block, NaN past a short
    column's end, written ``CHUNK_CELLS`` cells of rows at a time with one
    ``orjson`` call per chunk, whose text equals ``repr`` on
    ``REPR_FIXED_LO <= |x| < REPR_FIXED_HI`` and on zero.  orjson writes NaN
    as ``null`` and no float with an ``n``, ``u`` or ``l``, so deleting those
    letters from a chunk that reaches past the shortest column's end empties
    exactly its NaN cells; a chunk above that row holds no padding and is
    left as it is.  A row with a nonzero cell outside the band (real NaN and
    +-inf included) is split into cells and each such cell set to its
    ``repr``; padding is never patched.
    """
    head = io.StringIO()
    csv.writer(head).writerow(header)
    with open(path, "wb") as fh:
        fh.write(head.getvalue().encode(locale.getpreferredencoding(False)))  # as text-mode open()
        n_rows = max(map(len, columns), default=0)
        if not n_rows:
            return
        block = np.full((n_rows, len(columns)), np.nan)  # float64, whatever the columns' dtype
        for j, c in enumerate(columns):
            block[: len(c), j] = c
        mag = np.abs(block)
        odd = (block != 0.0) & ~((mag >= REPR_FIXED_LO) & (mag < REPR_FIXED_HI))
        odd &= np.arange(n_rows)[:, None] < [len(c) for c in columns]
        odd_rows = np.flatnonzero(odd.any(axis=1))
        step = max(1, CHUNK_CELLS // len(columns))
        full = min(map(len, columns))  # rows before this one hold no padding
        for start in range(0, n_rows, step):
            text = orjson.dumps(block[start : start + step], option=orjson.OPT_SERIALIZE_NUMPY)[2:-2]
            if start + step > full:
                text = text.translate(None, b"nul")
            rows = text.split(b"],[")
            lo, hi = np.searchsorted(odd_rows, [start, start + step]).tolist()
            for i in odd_rows[lo:hi].tolist():
                cells = rows[i - start].split(b",")
                for j in np.flatnonzero(odd[i]).tolist():
                    cells[j] = repr(float(block[i, j])).encode()
                rows[i - start] = b",".join(cells)
            rows.append(b"")
            fh.write(b"\r\n".join(rows))


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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and kept for the process."""
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
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

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

    # A plant id the report's or the files' encoding cannot hold is an input error.
    try:
        if not args.quiet:
            print(render_report(out))
        if args.out_dir is not None:
            emit_series(out, args.out_dir)
    except (OSError, UnicodeEncodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
