"""Self-tests of the benchmark: oracle, generators and tracer."""

from __future__ import annotations

import csv
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import ctmarket
import ctmarket.cli
import oracle
import run
import speed
import tracer
import workloads
from ctmarket import builtin_case_study, solve_equilibrium, validate

BOTH = ("spot", "duration")


def _case_study_run(out_dir):
    report = io.StringIO()
    with redirect_stdout(report):
        code = ctmarket.cli.main(["--case-study", "--mechanism", "both", "--out-dir", str(out_dir)])
    return code, report.getvalue()


def test_oracle_agrees_with_engine_on_case_study(tmp_path):
    code, report = _case_study_run(tmp_path)
    spec = builtin_case_study().to_dict()
    assert oracle.check_cli(spec, tmp_path, mechanisms=BOTH, clamped=False, exit_code=code, report=report) == []


def test_oracle_agrees_with_library_path_on_case_study():
    spec = builtin_case_study().to_dict()
    scenario = validate(spec)
    plants = scenario.plant_objects()
    sol = solve_equilibrium(plants, scenario.load_curve())
    ts = np.array([0.0, scenario.horizon])
    lam = ctmarket.spot_price(sol).sample(ts)
    ptd = ctmarket.duration_price(sol).price_times_duration(scenario.horizon - ts)
    outputs = [sol.outputs[p.id].sample(ts) for p in plants]
    assert oracle.check_library(spec, ts, lam, ptd, outputs) == []
    outputs[1] = outputs[1] * (1.0 + 1e-6)
    assert any("power balance" in p for p in oracle.check_library(spec, ts, lam, ptd, outputs))


@pytest.mark.parametrize("file, row, col", [("settlement.csv", 1, 3), ("timeseries.csv", 5, 4)])
def test_oracle_rejects_a_perturbed_output(tmp_path, file, row, col):
    code, report = _case_study_run(tmp_path)
    path = tmp_path / file
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[row][col] = repr(float(rows[row][col]) * (1.0 + 1e-6))
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    spec = builtin_case_study().to_dict()
    assert oracle.check_cli(spec, tmp_path, mechanisms=BOTH, clamped=False, exit_code=code, report=report)


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_generators_are_deterministic_per_seed(workload):
    first = workloads.scenario_text(workload, 5, 3)
    assert workloads.scenario_text(workload, 5, 3) == first
    assert workloads.scenario_text(workload, 6, 3) != first
    assert workloads.scenario_text(workload, 5, 4) != first
    validate(workloads.GENERATORS[workload](5, 3))


@pytest.mark.parametrize("index", [0, 1])
def test_clamped_spot_binds_without_plateau(index):
    scenario = validate(workloads.clamped_spot(7, index))
    sol = solve_equilibrium(scenario.plant_objects(), scenario.load_curve(), allow_clamp=True)
    assert sol.clamped
    assert any(e.kind == "p_max" for e in sol.clamp_events)


def _snapshot():
    owners = [ctmarket, ctmarket.cli, ctmarket.settlement, ctmarket.dispatch, ctmarket.pricing,
              ctmarket.curves.LoadCurve, ctmarket.curves.MeasureFunction]
    return [(owner, dict(vars(owner))) for owner in owners]


def test_tracer_restores_every_attribute(tmp_path, monkeypatch):
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + [
        ("ctmarket.no_such_module", "f", "x.gone", None),
        ("ctmarket.cli", "no_such_function", "x.gone", None),
        ("ctmarket.curves:NoSuchClass", "sample", "x.gone", None),
    ])
    before = _snapshot()
    original_main = ctmarket.cli.main
    with tracer.Tracer() as tr:
        assert ctmarket.cli.main is not original_main
        with tr.span(tracer.ROOT_SPAN):
            code, _ = _case_study_run(tmp_path)
    assert code == 0
    for owner, attrs in before:
        now = vars(owner)
        assert now.keys() == attrs.keys(), owner
        assert all(now[k] is v for k, v in attrs.items()), owner

    self_time, calls, roots = tr.summary()
    assert len(roots) == 1
    assert sum(self_time.values()) == pytest.approx(roots[0], rel=1e-9)
    assert calls["dispatch.solve"] == 1 and calls["quadrature.lebesgue"] == 3
    assert tr.counts["quadrature.riemann.points"] > 0 and tr.counts["dispatch.knots"] == 2
    assert not tr.errors and "x.gone" not in calls


class _StubRunner:
    """Stands in for ``run.Runner``: one passing scenario and one probe per loop."""

    def loop(self, seconds, tracers=(None,), probe_every=None):
        return run.Loop([[0.5] for _ in tracers], [[0.4] for _ in tracers], [(0.2, 0.1)], len(tracers), 0)


def _benchmark():
    return json.loads((Path(run.__file__).parent.parent / "BENCHMARK.json").read_text())


def _declared(kind):
    return {m["name"]: m["unit"] for m in _benchmark()[kind]}


def test_end_to_end_run_reports_every_declared_metric():
    metrics, details, attempted, failed = run.end_to_end(_StubRunner(), 1.0)
    assert {k: v["unit"] for k, v in metrics.items()} == _declared("end_to_end")
    assert (attempted, failed, details["samples"]) == (1, 0, 1)
    assert metrics["scenario_s_p50"]["value"] == 0.4 and details["wall_scenario_s_p50"] == 0.5
    assert metrics["setup_s"]["value"] == 0.1 and details["wall_setup_s"] == 0.2


def test_stopwatch_scales_by_host_speed(monkeypatch):
    assert speed.micro() > 0.0
    loop = iter([1.0, 3.0, 1.0])  # loop CPU seconds at the three marks
    wall = iter([0.0, 1.0, 2000.0, 2003.0, 3000.0, 3001.0])  # mark start and end
    cpu = iter([0.0, 1000.0, 2003.0])  # mark start
    monkeypatch.setattr(speed, "REF_SECONDS", 1.0)
    monkeypatch.setattr(speed, "micro", lambda: next(loop))
    monkeypatch.setattr(speed, "perf_counter", lambda: next(wall))
    monkeypatch.setattr(speed, "thread_time", lambda: next(cpu))
    monkeypatch.setattr(speed.signal, "setitimer", lambda *args: None)
    with speed.Stopwatch() as watch:
        watch.mark()
    assert watch.wall == 1999.0 + 997.0  # less the marks' own time
    # 999 s of CPU at mean loop time 2 (half speed), then 1000 s at mean 2;
    # the rest of the wall time the process did not run
    assert watch.normalised == pytest.approx(999.0 / 2.0 + 1000.0 / 2.0)


def test_stopwatch_times_the_import_probe():
    wall, normalised = run.probe_setup()
    assert 0.0 < wall < 60.0 and 0.0 < normalised < 600.0


def test_traced_run_reports_every_declared_metric():
    metrics, _, attempted, failed = run.per_layer(_StubRunner(), 1.0)
    assert {k: v["unit"] for k, v in metrics.items()} == _declared("per_layer")
    assert (attempted, failed) == (2, 0)


def test_tail_has_ten_samples_beyond():
    times = [float(k) for k in range(1, 31)]
    assert run.tail(times) == (20.0, pytest.approx(200.0 / 3.0), 10)
    assert run.tail(times[:5]) == (1.0, 20.0, 4)


def test_declared_workloads_have_generators():
    names = [w["name"] for w in _benchmark()["workloads"]]
    assert names == list(run.WORKLOADS) == list(workloads.GENERATORS)


def test_tracer_counts_an_error_once_in_the_raising_layer(tmp_path):
    spec = builtin_case_study().to_dict()
    spec["plants"][0]["p_max"] = 200.0  # binds, so duration pricing refuses
    path = tmp_path / "clamped.json"
    path.write_text(json.dumps(spec))
    with tracer.Tracer() as tr, redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = ctmarket.cli.main(["--scenario", str(path), "--mechanism", "both", "--allow-clamp"])
    assert code == 2
    assert dict(tr.errors) == {"pricing": 1}
    assert tr.counts["dispatch.clamp_events"] >= 1
