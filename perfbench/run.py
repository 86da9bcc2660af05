"""ctmarket benchmark: closed-loop scenario runs with an independent oracle.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload settle_deep --seed 1 --seconds 35 --trace 0

One client runs one scenario at a time (a closed loop) for ``--seconds``
seconds, each scenario generated from ``--seed`` and its index (see
``workloads.py``).  Every scenario is checked by ``oracle.py``; one that
raises, exits non-zero or fails the oracle counts as failed.

``--trace 0`` prints the end-to-end metrics: median and tail seconds per
scenario, scenarios per second, set-up time (a fresh-process ``import
ctmarket``, median of probes spread over the run) and peak resident memory.
``--trace 1`` runs every scenario twice, untraced and then under
``tracer.Tracer``, and prints per-layer self times and counts per traced
scenario, with the unattributed remainder and the tracing overhead.

The end-to-end times are normalised to a fixed host speed by
``speed.Stopwatch``; the plain wall-clock medians are on the details line.
The traced run, untraced and traced scenarios alike, times wall clock only.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds run details (sample count, tail percentile, environment).  The engine
is imported from ``src/`` of the checkout; without it the benchmark exits
with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from speed import Stopwatch

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PROBE_EVERY = 3.0  # seconds between fresh-process import probes in a run
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
IMPORT_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import speed\n"
    "with speed.Stopwatch() as watch: import ctmarket\n"
    "print(watch.wall); print(watch.normalised); print(ctmarket.__file__)"
)

# workload -> (CLI flags, mechanisms settled, clamped dispatch); the rest run on the library path
CLI_WORKLOADS = {
    "settle_deep": (["--mechanism", "both"], ("spot", "duration"), False),
    "clamped_spot": (["--mechanism", "spot", "--allow-clamp"], ("spot",), True),
}
WORKLOADS = ("settle_deep", "clamped_spot", "dispatch_wide")

# per-layer metric -> (source, key): self time of a span, span calls, or a counter
LAYER_METRICS = {
    "cli.main_s": ("self", "cli.main"),
    "cli.series_s": ("self", "cli.series"),
    "cli.report_s": ("self", "cli.report"),
    "cli.emit_s": ("self", "cli.emit"),
    "cli.csv_bytes": ("count", "cli.csv_bytes"),
    "scenario.validate_s": ("self", "scenario.validate"),
    "dispatch.solve_s": ("self", "dispatch.solve"),
    "dispatch.solve_calls": ("calls", "dispatch.solve"),
    "dispatch.knots": ("count", "dispatch.knots"),
    "dispatch.clamp_events": ("count", "dispatch.clamp_events"),
    "pricing.spot_price_s": ("self", "pricing.spot_price"),
    "pricing.duration_price_s": ("self", "pricing.duration_price"),
    "pricing.price_times_duration_s": ("self", "pricing.price_times_duration"),
    "settlement.settle_spot_s": ("self", "settlement.settle_spot"),
    "settlement.settle_duration_s": ("self", "settlement.settle_duration"),
    "settlement.dispatch_cost_s": ("self", "settlement.dispatch_cost"),
    "quadrature.riemann_s": ("self", "quadrature.riemann"),
    "quadrature.riemann_calls": ("calls", "quadrature.riemann"),
    "quadrature.riemann_points": ("count", "quadrature.riemann.points"),
    "quadrature.lebesgue_s": ("self", "quadrature.lebesgue"),
    "quadrature.lebesgue_calls": ("calls", "quadrature.lebesgue"),
    "quadrature.lebesgue_points": ("count", "quadrature.lebesgue.points"),
    "curves.loadcurve_s": ("self", "curves.loadcurve"),
    "curves.loadcurve_built": ("calls", "curves.loadcurve"),
    "curves.duration_curve_s": ("self", "curves.duration_curve"),
    "curves.measure_sample_s": ("self", "curves.measure_sample"),
    "curves.measure_sample_calls": ("calls", "curves.measure_sample"),
    "curves.sample_s": ("self", "curves.sample"),
}
LAYERS = ("cli", "scenario", "dispatch", "pricing", "settlement", "quadrature", "curves")


def _unit(metric: str) -> str:
    if metric.endswith(("_s", "_s_p50")):
        return "s"
    return "bytes" if metric.endswith("_bytes") else "count"


def _median(values: list[float]) -> float | None:
    """Median, or None (JSON null) when every scenario raised."""
    return statistics.median(values) if values else None


def _engine_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({var: "1" for var in THREAD_VARS})
    return env


def probe_setup() -> tuple[float, float]:
    """Wall and normalised seconds for ``import ctmarket`` in a fresh process."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(Path(__file__).resolve().parent)],
        env=_engine_env(), cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    wall, normalised, origin = proc.stdout.split("\n")[:3]
    if not Path(origin).resolve().is_relative_to(SRC):
        raise RuntimeError(f"probe imported ctmarket from {origin}")
    return float(wall), float(normalised)


@dataclass
class Loop:
    """What ``Runner.loop`` measured.

    ``wall`` and ``times`` hold, per tracer entry, the wall and normalised
    engine seconds of every scenario that passed; ``setup`` the (wall,
    normalised) seconds of each set-up probe.
    """

    wall: list[list[float]]
    times: list[list[float]]
    setup: list[tuple[float, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


class Runner:
    """Runs one workload's scenarios and checks each with the oracle."""

    def __init__(self, workload: str, seed: int, work: Path, normalise: bool = True) -> None:
        # Imported here, after main() has set the thread variables.
        import ctmarket
        import ctmarket.cli
        import numpy as np

        import oracle
        import tracer
        import workloads

        self.ctmarket, self.cli, self.np = ctmarket, ctmarket.cli, np
        self.oracle, self.root, self.span = oracle, tracer.ROOT_SPAN, tracer.span
        self.normalise = normalise
        self.generate = workloads.GENERATORS[workload]
        self.workload, self.seed, self.work = workload, seed, work
        self.problems: list[str] = []

    def run(self, index: int, tracer) -> tuple[tuple[float, float] | None, bool]:
        """Engine seconds on scenario ``index`` (wall, normalised), and whether it passed.

        The seconds are None when the scenario raised.
        """
        spec = self.generate(self.seed, index)
        if tracer is not None:
            tracer.scenario = index
        try:
            if self.workload in CLI_WORKLOADS:
                seconds, problems = self._run_cli(spec, tracer)
            else:
                seconds, problems = self._run_library(spec, tracer)
        except Exception as exc:  # a failed scenario is counted, not fatal
            seconds, problems = None, [f"{type(exc).__name__}: {exc}"]
        if problems and len(self.problems) < 20:
            self.problems.append(f"{spec['name']}: {'; '.join(problems)}")
        return seconds, not problems

    def _run_cli(self, spec, tracer):
        flags, mechanisms, clamped = CLI_WORKLOADS[self.workload]
        path, out = self.work / "scenario.json", self.work / "out"
        path.write_text(json.dumps(spec))
        shutil.rmtree(out, ignore_errors=True)
        argv = ["--scenario", str(path), "--out-dir", str(out), *flags]
        report, errors = io.StringIO(), io.StringIO()
        with redirect_stdout(report), redirect_stderr(errors):
            with Stopwatch(self.normalise) as watch, self.span(tracer, self.root):
                code = self.cli.main(argv)
        seconds = watch.wall, watch.normalised
        if tracer is not None:
            tracer.counts["cli.csv_bytes"] += sum(f.stat().st_size for f in out.glob("*.csv"))
        problems = self.oracle.check_cli(
            spec, out, mechanisms=mechanisms, clamped=clamped, exit_code=code, report=report.getvalue()
        )
        if errors.getvalue():
            problems.append(f"stderr: {errors.getvalue().strip()}")
        return seconds, problems

    def _run_library(self, spec, tracer):
        # validate(JSON text) -> solve -> spot and duration price, then sample
        # lambda, pi * m and every P_j at all knots, so a lazy representation
        # still pays for producing every trajectory.
        ct, np = self.ctmarket, self.np
        text = json.dumps(spec)
        ts = np.array([t for t, _ in spec["load"]["breakpoints"]])
        span = self.span
        with Stopwatch(self.normalise) as watch, span(tracer, self.root):
            scenario = ct.validate(json.loads(text))
            plants = scenario.plant_objects()
            sol = ct.solve_equilibrium(plants, scenario.load_curve())
            spot = ct.spot_price(sol)
            dprice = ct.duration_price(sol)
            with span(tracer, "curves.sample"):
                lam = spot.sample(ts)
                outputs = [sol.outputs[p.id].sample(ts) for p in plants]
            with span(tracer, "pricing.price_times_duration"):
                ptd = dprice.price_times_duration(scenario.horizon - ts)
        seconds = watch.wall, watch.normalised
        return seconds, self.oracle.check_library(spec, ts, lam, ptd, outputs)

    def loop(self, seconds: float, tracers=(None,), probe_every: float | None = None) -> Loop:
        """Run scenarios 0, 1, ... until ``seconds`` have passed.

        Each scenario runs once per entry of ``tracers``, installed for that
        run (None runs untraced).  With ``probe_every``, a set-up probe runs
        after one unmeasured warm-up probe, and again whenever that many
        seconds have passed since the last one.
        """
        result = Loop([[] for _ in tracers], [[] for _ in tracers])
        probed = -math.inf
        if probe_every is not None:
            probe_setup()
        index = 0
        start = perf_counter()
        while True:
            for k, tracer in enumerate(tracers):
                with tracer or nullcontext():
                    elapsed, ok = self.run(index, tracer)
                result.attempted += 1
                result.failed += not ok
                if ok:  # a wrong answer is not a speed
                    result.wall[k].append(elapsed[0])
                    result.times[k].append(elapsed[1])
            index += 1
            if probe_every is not None and perf_counter() - probed >= probe_every:
                probed = perf_counter()
                result.setup.append(probe_setup())
            if perf_counter() - start >= seconds:
                return result


def tail(times: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile, samples beyond); a run with too few samples
    reports its fastest one.
    """
    ordered = sorted(times)
    rank = max(1, len(ordered) - TAIL_BEYOND)
    return ordered[rank - 1], 100.0 * rank / len(ordered), len(ordered) - rank


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict, int, int]:
    measured = runner.loop(seconds, probe_every=PROBE_EVERY)
    (times,), (wall,) = measured.times, measured.wall
    value, pct, beyond = tail(times) if times else (None, 0.0, 0)
    metrics = {
        "scenario_s_p50": _median(times),
        "scenario_s_tail": value,
        "scenarios_per_s": len(times) / sum(times) if times else 0.0,
        "setup_s": statistics.median(s for _, s in measured.setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    units = {"scenario_s_p50": "s", "scenario_s_tail": "s", "scenarios_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
    details = {
        "samples": len(times),
        "tail_percentile": round(pct, 2),
        "samples_beyond_tail": beyond,
        "wall_scenario_s_p50": _median(wall),
        "wall_setup_s": _median([w for w, _ in measured.setup]),
        "setup_samples": len(measured.setup),
    }
    return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}, details, measured.attempted, measured.failed


def per_layer(runner: Runner, seconds: float) -> tuple[dict, dict, int, int]:
    from tracer import ROOT_SPAN, Tracer

    # Untraced and traced runs of each scenario alternate, so that drift in
    # machine speed falls on both sides of the overhead estimate alike.
    tracer = Tracer()
    measured = runner.loop(seconds, (None, tracer))
    plain, traced = measured.wall
    self_time, calls, roots = tracer.summary()
    per = 1.0 / max(len(roots), 1)
    values = {}
    for metric, (source, key) in LAYER_METRICS.items():
        raw = {"self": self_time, "calls": calls, "count": tracer.counts}[source].get(key, 0)
        values[metric] = raw * per
    for layer in LAYERS:
        values[f"{layer}.errors"] = tracer.errors.get(layer, 0) * per
    traced_p50, plain_p50 = _median(traced), _median(plain)
    values.update({
        "trace.scenarios": len(roots),
        "trace.wall_s": sum(roots) * per,
        "trace.unattributed_s": self_time.get(ROOT_SPAN, 0.0) * per,
        "trace.scenario_s_p50": traced_p50,
        "trace.untraced_scenario_s_p50": plain_p50,
        "trace.overhead_s": None if None in (traced_p50, plain_p50) else traced_p50 - plain_p50,
    })
    metrics = {k: {"value": v, "unit": _unit(k)} for k, v in values.items()}
    details = {"untraced_samples": len(plain), "traced_samples": len(traced)}
    return metrics, details, measured.attempted, measured.failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "ctmarket" / "__init__.py").is_file():
        print(f"error: no ctmarket sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    # Single-threaded BLAS, set before numpy is first imported.
    os.environ.update({var: "1" for var in THREAD_VARS})
    sys.path.insert(0, str(SRC))
    import ctmarket
    import numpy

    if not Path(ctmarket.__file__).resolve().is_relative_to(SRC):
        print(f"error: ctmarket imported from {ctmarket.__file__}, not {SRC}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(args.workload, args.seed, work, normalise=not args.trace)
        measure = per_layer if args.trace else end_to_end
        metrics, details, attempted, failed = measure(runner, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    for problem in runner.problems:
        print(f"failed: {problem}", file=sys.stderr)
    details.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            **{var: os.environ[var] for var in THREAD_VARS},
        },
    })
    print(json.dumps(details))
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
