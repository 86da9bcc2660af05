"""Per-call cost of dispatch, settlement, valuation and the CLI's run and
emit, before and after a change.

Usage, from the root of a checkout::

    python3 tools/bench_engine_overhead.py --before OLD/src --after src \
        --rounds 7 --out BENCH_engine_overhead.json

Times these items at four shapes (plants x load breakpoints):
``solve_equilibrium``, ``dispatch_cost``, one ``lebesgue_integrate`` call
of duration settlement (the mean over the plants), ``settle_duration``,
``settle_spot``, ``value_by_slice``, ``value_by_band`` (default edges), and
``cli.run_scenario``, ``cli._build_timeseries`` (``build_timeseries``: the
timeseries.csv columns, every output sampled on the series grid) and
``cli.emit_series`` with the CLI's flags for the shape (``--allow-clamp
--mechanism spot`` on ``clamped_spot``, ``--mechanism both`` elsewhere).
Two more items time the cost's segment sums on a (plants x knots) array
of every output in two summation orders, the same on either side:
``block_sums_dot`` (one ``np.dot`` per row, as ``dispatch_cost`` adds)
and ``block_sums_cumsum`` (a left-to-right ``np.cumsum`` along each row,
an order no BLAS build changes), with the largest relative difference
between the two.
The shapes are the built-in case study, one ``settle_deep`` and one
``clamped_spot`` scenario of ``perfbench/workloads.py`` (seed 1, index
0), and a seeded 50 x 2000 daily load built like ``settle_deep``.  A
fifth shape, ``dispatch_wide`` (300 x 10 000, monotone; seed 1, index
0), times one item, the benchmark's library path: ``solve_and_sample``
solves the dispatch and samples every output at a copy of the load's
knots.  The benchmark samples at times it reads from the scenario, an
array equal to the curves' own but not the same object, so the copy
times the same element-wise comparison that it pays.  A
sixth, ``clamped_wide`` (3000 x 200; ``clamped_spot``'s generator at that
size, seed 1, index 0), times one item, ``solve_equilibrium`` with
clamping allowed: a wide active-set solve, whose (plants x knots) array
of every output is far larger than anything the solve needs to hold.  Spot
settlement and slices take the dispatch of the load as given; duration
settlement and bands take the dispatch of its duration curve, as the CLI
does.  A solution caches its cost and energy sums, so every item that
takes a solution gets a fresh copy of it (``dataclasses.replace``) on
each call, as a run settles each solution once; the copy takes those
sums again in the first item that reads them.  A solution keeps no
output: every item that reads the outputs makes them from the shadow
price, a few rows at a time, so ``settle_spot`` makes them twice, once
for the cost sums and once for the revenue integrand.  ``clamped_spot``
binds capacity bounds, so it has no duration price and only the
dispatch, spot and CLI items are timed there.

Each round runs every side in a fresh process, alternating which side
runs first; a process times every item of every shape in an order
shuffled by the round's seed, the same on both sides of a round, so that
no item always runs after the same others.  An item is timed as the best
of 5 blocks of repeated calls under ``perfbench/speed.Stopwatch``, in
normalised seconds (CPU time scaled to a fixed host speed) and in wall
seconds.  An item slower than ``SLOW_CALL`` per call is timed in one
block of one call instead.  ``emit_series``, ``solve_and_sample``,
``solve_equilibrium``, ``settle_spot``, ``dispatch_cost`` and
``value_by_slice`` also record ``tracemalloc_peak_bytes``: the peak of
traced allocations during one untimed call, above what was held before
it.  The file reports, per item and side, the median and quartiles over
the rounds, and the change of the medians.  Numpy is held to one thread,
as the benchmark holds it.  Passing the same tree as ``--before`` and
``--after`` (an A/A run) shows how far two sides differ on identical
code.  Quartiles need at least two rounds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SHAPES = ("case_study", "settle_deep", "clamped_spot", "daily_50x2000", "dispatch_wide", "clamped_wide")
# Items whose tracemalloc peak is recorded.
PEAKED = ("emit_series", "solve_and_sample", "solve_equilibrium", "settle_spot", "dispatch_cost", "value_by_slice")
BLOCKS = 5  # timed blocks per item and process; the best one counts
BLOCK_SECONDS = 0.15  # rough length of one block
SLOW_CALL = 1.0  # seconds per call above which one block of one call is timed


def _daily_load(n_plants: int, n_bp: int, seed: int) -> dict:
    """A ``settle_deep``-shaped scenario of any size: interior plants under
    a non-monotone daily load."""
    import numpy as np

    rng = np.random.default_rng(seed)
    q2 = 10.0 ** rng.uniform(-3.5, -2.0, size=n_plants)
    q1 = rng.uniform(0.5, 5.0, size=n_plants)
    q0 = rng.uniform(0.0, 5.0, size=n_plants)
    times = 24.0 * np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, n_bp - 2)), [1.0]])
    day = 0.5 - 0.5 * np.cos(2.0 * np.pi * times / 24.0)
    # Demand at which every plant's marginal cost reaches the highest q1.
    floor = float((((q1.max() + 0.5) - q1) / (2.0 * q2)).sum())
    powers = floor + 200.0 + 250.0 * day + rng.uniform(0.0, 40.0, size=n_bp)
    return {
        "name": f"daily-{n_plants}x{n_bp}",
        "horizon": 24.0,
        "load": {"breakpoints": [[float(t), float(p)] for t, p in zip(times, powers)]},
        "plants": [
            {"id": f"g{j:03d}", "q2": float(q2[j]), "q1": float(q1[j]), "q0": float(q0[j])}
            for j in range(n_plants)
        ],
    }


def _scenario(shape: str):
    """The shape's scenario, its options set as the CLI's flags for it set them."""
    from dataclasses import replace
    from unittest import mock

    import ctmarket as ct
    import workloads

    if shape == "case_study":
        scenario = ct.builtin_case_study()
    elif shape == "daily_50x2000":
        scenario = ct.validate(_daily_load(50, 2000, seed=2000))
    elif shape == "clamped_wide":
        with mock.patch.dict(workloads.SIZES, clamped_spot=(3000, 200)):
            scenario = ct.validate(workloads.clamped_spot(1, 0))
    else:
        scenario = ct.validate(json.loads(workloads.scenario_text(shape, 1, 0)))
    clamp = shape in ("clamped_spot", "clamped_wide")
    mechanisms = ("spot",) if clamp else ("spot", "duration")
    return replace(scenario, options=replace(scenario.options, mechanisms=mechanisms, allow_clamp=clamp))


def _solutions(scenario):
    """(spot solution, duration solution or None) of a shape's scenario."""
    import ctmarket as ct

    load = scenario.load_curve()
    clamp = scenario.options.allow_clamp
    sol = ct.solve_equilibrium(scenario.plants, load, allow_clamp=clamp)
    if clamp:
        return sol, None
    if load.is_non_decreasing:
        return sol, sol
    return sol, ct.solve_equilibrium(scenario.plants, ct.duration_curve(load))


def _time(fn) -> dict[str, float]:
    """Seconds per call of ``fn``: the best of ``BLOCKS`` timed blocks."""
    from speed import Stopwatch

    fn()
    with Stopwatch(normalise=False) as probe:
        fn()
    reps = max(1, int(BLOCK_SECONDS / max(probe.wall, 1e-7)))
    best = None
    for _ in range(BLOCKS if probe.wall < SLOW_CALL else 1):
        with Stopwatch() as watch:
            for _ in range(reps):
                fn()
        if best is None or watch.normalised < best.normalised:
            best = watch
    return {"normalised_s": best.normalised / reps, "wall_s": best.wall / reps}


def _peak_bytes(fn) -> int:
    """Peak bytes of Python and numpy allocations during one call of ``fn``,
    above what was traced before it."""
    import tracemalloc

    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


def _block_sums(sol, order: str):
    """``int P^2 dt``'s segment sums of every output, on the stacked
    (plants x knots) block: one ``np.dot`` per row, or each row's terms
    added left to right by ``np.cumsum``."""
    import numpy as np

    block = np.array([sol.outputs[p.id].powers for p in sol.plants])
    t = sol.lambda_curve.times
    dt = t[1:] - t[:-1]
    b0, b1 = block[:, :-1], block[:, 1:]

    def sums() -> np.ndarray:
        terms = b0 * b0 + b0 * b1 + b1 * b1
        if order == "dot":
            return np.array([np.dot(dt, row) for row in terms])
        return np.cumsum(terms * dt, axis=1)[:, -1]

    return sums


def _wide_items(scenario) -> tuple[dict, dict]:
    """``dispatch_wide``'s description and its one item: the library path
    of the benchmark's workload, without validation and pricing."""
    import numpy as np

    import ctmarket as ct

    plants, load = scenario.plants, scenario.load_curve()
    ts = np.array(load.times)

    def solve_and_sample() -> list:
        sol = ct.solve_equilibrium(plants, load)
        return [sol.outputs[p.id].sample(ts) for p in plants]

    return {"plants": len(plants), "breakpoints": len(load.times)}, {"solve_and_sample": solve_and_sample}


def _shape_items(shape: str, directory: Path) -> tuple[dict, dict]:
    """A shape's description and its items, each a call to time."""
    from dataclasses import replace

    import numpy as np

    import ctmarket as ct
    from ctmarket.cli import _build_timeseries, emit_series, run_scenario
    from ctmarket.quadrature import EXACT_CONFIG

    scenario = _scenario(shape)
    if shape == "dispatch_wide":
        return _wide_items(scenario)
    if shape == "clamped_wide":
        plants, load = scenario.plants, scenario.load_curve()
        info = {"plants": len(plants), "breakpoints": len(load.times)}
        return info, {"solve_equilibrium": lambda: ct.solve_equilibrium(plants, load, allow_clamp=True)}
    sol, dsol = _solutions(scenario)
    run = run_scenario(scenario)
    load, clamp = scenario.load_curve(), scenario.options.allow_clamp
    dot, cumsum = _block_sums(sol, "dot"), _block_sums(sol, "cumsum")
    # As run_scenario: the duration price and m_floor only with duration pricing.
    dprice = None if dsol is None else ct.duration_price(dsol)
    m_floor = 0.0 if dsol is None else scenario.resolved_m_floor()
    items = {
        "solve_equilibrium": lambda: ct.solve_equilibrium(scenario.plants, load, allow_clamp=clamp),
        "dispatch_cost": lambda: ct.dispatch_cost(replace(sol)),
        "settle_spot": lambda: ct.settle_spot(replace(sol)),
        "value_by_slice": lambda: ct.value_by_slice(replace(sol)),
        "run_scenario": lambda: run_scenario(scenario),
        "build_timeseries": lambda: _build_timeseries(sol, dprice, m_floor),
        "emit_series": lambda: emit_series(run, directory),
        "block_sums_dot": dot,
        "block_sums_cumsum": cumsum,
    }
    with np.errstate(all="ignore"):
        a, b = dot(), cumsum()
        gap = float(np.max(np.abs(a - b) / np.maximum(np.abs(a), np.finfo(float).tiny)))
    info = {
        "plants": len(sol.plants),
        "breakpoints": len(sol.load.times),
        "duration_breakpoints": None if dsol is None else len(dsol.load.times),
        "block_sums_max_rel_diff": gap,
    }
    if dsol is not None:
        curves = [c for c in dsol.outputs.values() if c.max_power > c.min_power]
        measures = [ct.MeasureFunction(c) for c in curves]

        def lebesgue_calls() -> None:
            for c, m in zip(curves, measures):
                ct.lebesgue_integrate(m, c.min_power, c.max_power, dprice.price_times_duration, EXACT_CONFIG)

        items["lebesgue_call"] = lebesgue_calls
        items["settle_duration"] = lambda: ct.settle_duration(replace(dsol))
        items["value_by_band"] = lambda: ct.value_by_band(replace(dsol))
        info["lebesgue_calls_per_item"] = len(curves)
    return info, items


def measure(seed: int) -> dict:
    """Every item's seconds per call with the ``ctmarket`` on ``sys.path``,
    the items of all shapes timed in an order shuffled by ``seed``."""
    import random
    import tempfile

    out: dict = {}
    calls: list[tuple[str, str, object]] = []
    with tempfile.TemporaryDirectory() as root:
        for shape in SHAPES:
            info, items = _shape_items(shape, Path(root) / shape)
            out[shape] = info | {"items": {}}
            calls += [(shape, name, fn) for name, fn in items.items()]
        random.Random(seed).shuffle(calls)
        for shape, name, fn in calls:
            out[shape]["items"][name] = _time(fn)
        for shape, name, fn in calls:
            if name in PEAKED:
                out[shape]["items"][name]["tracemalloc_peak_bytes"] = _peak_bytes(fn)
    for info in out.values():
        times = info["items"]
        if "lebesgue_call" in times:
            n = info.pop("lebesgue_calls_per_item")
            times["lebesgue_call"] = {k: v / n for k, v in times["lebesgue_call"].items()}
        info["items"] = dict(sorted(times.items()))
    return out


def _run_side(src: Path, seed: int) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(PERFBENCH)]))
    env.update({var: "1" for var in THREAD_VARS})
    done = subprocess.run(
        [sys.executable, __file__, "--measure", "--seed", str(seed)],
        env=env, check=True, capture_output=True, text=True,
    )
    return json.loads(done.stdout)


def _quartiles(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(before: Path, after: Path, rounds: int, labels: dict[str, str]) -> dict:
    runs: dict[str, list[dict]] = {"before": [], "after": []}
    for r in range(rounds):
        order = ("before", "after") if r % 2 == 0 else ("after", "before")
        for side in order:
            runs[side].append(_run_side(before if side == "before" else after, seed=r))
    import numpy
    import orjson

    shapes = {}
    for shape, first in runs["after"][0].items():
        rows = {}
        for item in first["items"]:
            row = {}
            for side, side_runs in runs.items():
                row[side] = {
                    unit: _quartiles([run[shape]["items"][item][unit] for run in side_runs])
                    for unit in first["items"][item]
                }
            b, a = row["before"]["normalised_s"]["median"], row["after"]["normalised_s"]["median"]
            row["change_of_normalised_median"] = f"{100.0 * (a - b) / b:+.1f}%"
            rows[item] = row
        shapes[shape] = {k: v for k, v in first.items() if k != "items"} | {"items": rows}
    return {
        "what": "seconds per call of dispatch, settlement, valuation, run_scenario and "
        "emit_series, and some items' tracemalloc peak; see tools/bench_engine_overhead.py",
        "command": f"python3 tools/bench_engine_overhead.py --rounds {rounds}",
        "before": labels["before"],
        "after": labels["after"],
        "rounds": rounds,
        "host": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "numpy": numpy.__version__,
            "orjson": orjson.__version__,
            "blas": _blas(numpy),
            "cpu_count": os.cpu_count(),
            "machine": platform.machine(),
            "numpy_threads": 1,
        },
        "shapes": shapes,
    }


def _blas(numpy) -> str:
    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"
    except Exception:  # the config layout is not a stable API
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--measure", action="store_true", help="time the ctmarket on sys.path once")
    parser.add_argument("--seed", type=int, default=0, help="with --measure: the order's shuffle seed")
    parser.add_argument("--before", type=Path, help="src/ directory of the old tree")
    parser.add_argument("--after", type=Path, default=ROOT / "src", help="src/ directory of the new tree")
    parser.add_argument("--before-label", default="before", help="what the old tree is, for the file")
    parser.add_argument("--after-label", default="after", help="what the new tree is, for the file")
    parser.add_argument("--rounds", type=int, default=7)
    parser.add_argument("--out", type=Path, help="write the JSON here instead of stdout")
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2: quartiles need two rounds")
    if args.measure:
        sys.path.insert(0, str(PERFBENCH))
        print(json.dumps(measure(args.seed)))
        return 0
    if args.before is None:
        parser.error("--before is required")
    result = json.dumps(compare(
        args.before.resolve(),
        args.after.resolve(),
        args.rounds,
        {"before": args.before_label, "after": args.after_label},
    ), indent=2)
    if args.out is None:
        print(result)
    else:
        args.out.write_text(result + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
