"""CLI behaviour: report, series files, exit codes, determinism."""

from __future__ import annotations

import contextlib
import csv
import io
import json
import locale
import math
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings

from conftest import raw_scenarios
from ctmarket import cli
from ctmarket.cli import main

SETTLEMENT_HEADER = ["mechanism", "plant", "cost", "revenue", "profit", "profit_rate"]


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def write_scenario(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_case_study_report_totals(capsys):
    assert main(["--case-study", "--mechanism", "both"]) == 0
    out = capsys.readouterr().out
    assert "scenario: case-study" in out
    assert "387.333" in out  # spot market purchasing cost
    assert "364" in out  # duration market purchasing cost


def test_series_files_content(tmp_path, capsys):
    assert main(["--case-study", "--mechanism", "both", "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()

    ts = read_csv(tmp_path / "timeseries.csv")
    assert ts[0] == ["t", "load", "lambda", "pi_time", "P_plant1", "P_plant2", "P_plant3"]
    first = [float(v) for v in ts[1]]
    assert first == pytest.approx([0.0, 350.0, 0.32, 0.32, 250.0, 90.0, 10.0], abs=1e-9)
    # pi_time goes blank past T - m_floor; the last row is t = T
    assert ts[-1][3] == ""
    assert float(ts[-1][0]) == 1.0

    dur = read_csv(tmp_path / "duration.csv")
    assert dur[0] == ["m", "pi_measure"]
    last = [float(v) for v in dur[-1]]
    assert last == pytest.approx([1.0, 0.32], abs=1e-12)
    ms = [float(r[0]) for r in dur[1:]]
    assert all(m2 > m1 for m1, m2 in zip(ms, ms[1:]))
    assert ms[0] > 1e-6 / 2  # nothing at or below the singularity floor

    st = read_csv(tmp_path / "settlement.csv")
    assert st[0] == SETTLEMENT_HEADER
    spot_p1 = next(r for r in st[1:] if r[0] == "spot" and r[1] == "plant1")
    vals = [float(v) for v in spot_p1[2:]]
    assert vals == pytest.approx([139.6167, 247.3333, 107.7167, 0.771517], abs=1e-3)
    mechs = {r[0] for r in st[1:]}
    assert mechs == {"spot", "duration"}
    assert [r for r in st[1:] if r[1] == "total"]


def test_report_numbers_reappear_in_settlement_file(tmp_path, capsys):
    assert main(["--case-study", "--mechanism", "both", "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    rows = read_csv(tmp_path / "settlement.csv")[1:]
    by_key = {(r[0], r[1]): [float(v) for v in r[2:]] for r in rows}
    mech = None
    for line in out.splitlines():
        if line.startswith("["):
            mech = line.strip("[]")
            continue
        cells = line.split()
        if mech and cells and (mech, cells[0]) in by_key:
            full = by_key[(mech, cells[0])]
            assert [f"{v:.6g}" for v in full] == cells[1:]


def test_determinism_byte_identical(tmp_path, capsys):
    outs = []
    for sub in ("one", "two"):
        d = tmp_path / sub
        assert main(["--case-study", "--mechanism", "both", "--out-dir", str(d)]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    for name in ("timeseries.csv", "duration.csv", "settlement.csv"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()


def test_quiet_suppresses_report(tmp_path, capsys):
    assert main(["--case-study", "--quiet", "--out-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out == ""


def test_validation_failure_exits_1_and_names_plant(tmp_path, capsys):
    path = write_scenario(
        tmp_path,
        {
            "name": "bad",
            "horizon": 1.0,
            "load": {"affine": {"base": 100.0, "slope": 0.0}},
            "plants": [{"id": "brokenplant", "q2": 0.0, "q1": 0.1, "q0": 0.0}],
        },
    )
    assert main(["--scenario", path]) == 1
    err = capsys.readouterr().err
    assert "plants[0].q2" in err
    assert "brokenplant" in err


def test_missing_scenario_file_exits_1(capsys):
    assert main(["--scenario", "/nonexistent/path.json"]) == 1
    assert "error" in capsys.readouterr().err


def test_malformed_json_exits_1(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["--scenario", str(path)]) == 1
    assert "error" in capsys.readouterr().err


def test_non_utf8_scenario_file_exits_1_with_one_error_line(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"name": "caf\xe9"}')
    assert main(["--scenario", str(path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "utf-8" in err[0]


def test_deeply_nested_scenario_file_exits_1_with_one_error_line(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    assert main(["--scenario", str(path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "recursion" in err[0]


def test_huge_json_integer_exits_1_with_one_error_line(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(
        '{"name": "huge", "horizon": 1.0, "load": {"affine": {"base": 100.0, "slope": 0.0}}, '
        '"plants": [{"id": "a", "q2": 0.001, "q1": 0.1, "q0": ' + "9" * 400 + "}]}"
    )
    assert main(["--scenario", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: plants[0].q0: must be a finite number >= 0 (plant 'a')"]


def test_plant_id_with_newline_exits_1(tmp_path, capsys):
    path = write_scenario(
        tmp_path,
        {
            "name": "ids",
            "horizon": 1.0,
            "load": {"affine": {"base": 100.0, "slope": 0.0}},
            "plants": [{"id": "a\nb", "q2": 0.001, "q1": 0.1, "q0": 0.0}],
        },
    )
    assert main(["--scenario", path]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: plants[0].id:")


def _clamping_scenario(tmp_path, mechanisms, **options):
    return write_scenario(
        tmp_path,
        {
            "name": "tight",
            "horizon": 1.0,
            "load": {"affine": {"base": 100.0, "slope": 800.0}},
            "plants": [
                {"id": "small", "q2": 0.0005, "q1": 0.1, "q0": 0.0, "p_max": 300.0},
                {"id": "big", "q2": 0.001, "q1": 0.1, "q0": 0.0},
            ],
            "options": {"mechanisms": mechanisms, **options},
        },
    )


def test_infeasible_without_clamp_exits_1(tmp_path, capsys):
    path = _clamping_scenario(tmp_path, ["spot"])
    assert main(["--scenario", path]) == 1
    assert "small" in capsys.readouterr().err


def test_clamped_spot_succeeds_with_note(tmp_path, capsys):
    path = _clamping_scenario(tmp_path, ["spot"])
    assert main(["--scenario", path, "--allow-clamp"]) == 0
    out = capsys.readouterr().out
    assert "clamped dispatch" in out


def test_scenario_allow_clamp_runs_clamped_without_the_flag(tmp_path, capsys):
    path = _clamping_scenario(tmp_path, ["spot"], allow_clamp=True)
    assert main(["--scenario", path]) == 0
    out = capsys.readouterr().out
    assert "[spot]" in out and "clamped dispatch" in out


def test_duration_on_clamped_dispatch_exits_2(tmp_path, capsys):
    path = _clamping_scenario(tmp_path, ["spot", "duration"])
    assert main(["--scenario", path, "--allow-clamp"]) == 2
    assert "duration" in capsys.readouterr().err


def test_supply_plateau_exits_2_with_one_error_line(tmp_path, capsys):
    path = write_scenario(
        tmp_path,
        {
            "name": "plateau",
            "horizon": 1.0,
            "load": {"breakpoints": [[0.0, 50.0], [1.0, 150.0]]},
            "plants": [
                {"id": "a", "q2": 0.01, "q1": 1.0, "q0": 0.0, "p_max": 100.0},
                {"id": "b", "q2": 0.01, "q1": 10.0, "q0": 0.0},
            ],
        },
    )
    assert main(["--scenario", path, "--mechanism", "spot", "--allow-clamp"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: shadow price jumps")


def _top_plateau(breakpoints):
    """Total supply is 100 MW for every lam in [0.3, 0.5]: ``a`` reaches
    p_max at 0.3 and ``b`` leaves p_min at 0.5, the last threshold."""
    return {
        "name": "top-plateau",
        "horizon": 1.0,
        "load": {"breakpoints": breakpoints},
        "plants": [
            {"id": "a", "q2": 0.002, "q1": 0.1, "q0": 0.0, "p_max": 50.0},
            {"id": "b", "q2": 0.005, "q1": 0.0, "q0": 0.0, "p_min": 50.0},
        ],
    }


@pytest.mark.parametrize(
    "breakpoints", [[[0.0, 80.0], [1.0, 100.0]], [[0.0, 100.0], [1.0, 100.0]]], ids=["rising", "flat"]
)
def test_demand_on_the_top_plateau_prices_at_its_smallest_lambda(tmp_path, capsys, breakpoints):
    """A demand of 100 MW used to take the beyond-the-last-threshold branch
    and price at 0.5: the rising load was refused as a plateau jump, and
    the flat one settled at 0.5 instead of 0.3."""
    path = write_scenario(tmp_path, _top_plateau(breakpoints))
    out_dir = tmp_path / "out"
    args = ["--scenario", path, "--allow-clamp", "--mechanism", "spot", "--out-dir", str(out_dir), "--quiet"]
    assert main(args) == 0
    assert capsys.readouterr().err == ""
    rows = read_csv(out_dir / "timeseries.csv")
    assert float(rows[-1][rows[0].index("lambda")]) == pytest.approx(0.3, abs=1e-12)


def _case_study_variant(horizon, breakpoints, q0=(0.2, 0.4, 0.8), options=None):
    """The case-study fleet, with fixed costs ``q0``, on a breakpoint load."""
    plants = [
        {"id": f"plant{j + 1}", "q2": q2, "q1": q1, "q0": c}
        for j, (q2, q1, c) in enumerate(zip((0.0005, 0.001, 0.002), (0.07, 0.14, 0.28), q0))
    ]
    data = {"name": "variant", "horizon": horizon, "load": {"breakpoints": breakpoints}, "plants": plants}
    if options is not None:
        data["options"] = options
    return data


def _two_plants(horizon, breakpoints):
    """The case study's first two plants on a breakpoint load."""
    data = _case_study_variant(horizon, breakpoints)
    data["plants"] = data["plants"][:2]
    return data


DAY = [[0.0, 350.0], [6.0, 1050.0], [18.0, 700.0], [24.0, 350.0]]


@pytest.mark.parametrize(
    "data, message",
    [
        # a cost past the float range used to reach settlement.csv as inf/nan
        (
            _case_study_variant(24.0, DAY, q0=(1e308, 0.4, 0.8)),
            "error: the spot settlement of plant1 is not finite",
        ),
        # price times output overflows: spot revenue used to print the
        # engine's "integrand is not finite at t = 0.0", naming no plant
        (
            _case_study_variant(24.0, [[0.0, 1e306], [12.0, 1.5e306], [24.0, 1e306]]),
            "error: the spot settlement of plant1 is not finite: "
            "the scenario's numbers exceed the float range",
        ),
        # two finite costs whose sum overflows used to end in a traceback,
        # then in fsum's "intermediate overflow in fsum"
        (
            _case_study_variant(24.0, DAY, q0=(7e306, 7e306, 0.8)),
            "error: the total generation cost is not finite: "
            "the scenario's numbers exceed the float range",
        ),
        # the case study with three finite costs of 1e308 each: the same
        (
            _case_study_variant(1.0, [[0.0, 350.0], [1.0, 1050.0]], q0=(1e308, 1e308, 1e308)),
            "error: the total generation cost is not finite: ",
        ),
        # ten equal plants of spot revenue 2.5e307 each (and half that in
        # cost): the total revenue used to end in "intermediate overflow"
        (
            {
                "name": "ten", "horizon": 1.0, "load": {"breakpoints": [[0, 1.58e156], [1, 1.58e156]]},
                "plants": [{"id": f"g{j}", "q2": 0.0005, "q1": 0.0, "q0": 0.0} for j in range(10)],
            },
            "error: the spot total revenue is not finite: ",
        ),
        # T - m_floor == T used to put pi_time = inf at t = T
        (
            _case_study_variant(
                1.0, [[0.0, 350.0], [0.3, 700.0], [0.6, 900.0], [1.0, 1050.0]],
                options={"m_floor": 5e-324},
            ),
            "error: options.m_floor: ",
        ),
        # pi(m) * m overflows on plant1's level bands: duration revenue used
        # to print the engine's "integrand is not finite at y = 490.0"
        (
            _two_plants(1e300, [[0, 350], [1e300, 1050]]),
            "error: the duration settlement of plant1 is not finite: "
            "the scenario's numbers exceed the float range",
        ),
        # a flat load of 1e6 MW over 1e300 h: price * output * T overflows.
        # Spot settlement returned inf unchecked, and the run failed on the
        # duration base block (before that, on a series cell); spot now
        # names the plant first.  test_settlement.py checks the base block.
        (
            _two_plants(1e300, [[0, 1e6], [1e300, 1e6]]),
            "error: the spot settlement of plant1 is not finite: "
            "the scenario's numbers exceed the float range",
        ),
        # a flat load of 1000 MW over 1e300 h settles finitely, but pi_time
        # past t = 0 is NaN: caught as a series cell
        (
            _two_plants(1e300, [[0, 1000.0], [1e300, 1000.0]]),
            "error: a timeseries.csv cell is not finite: the scenario's numbers exceed the float range",
        ),
    ],
    ids=[
        "cost-overflow", "revenue-overflow", "total-overflow", "case-study-total-overflow",
        "revenue-total-overflow", "tiny-m-floor",
        "duration-revenue-overflow", "base-block-overflow", "series-overflow",
    ],
)
def test_non_finite_result_exits_1_with_one_error_line(tmp_path, capsys, data, message):
    path = write_scenario(tmp_path, data)
    out_dir = tmp_path / "out"
    assert main(["--scenario", path, "--mechanism", "both", "--out-dir", str(out_dir)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(message), err
    assert not out_dir.exists()


def test_horizon_near_the_float_limit_settles_spot(tmp_path, capsys):
    """Over a 1e308 h horizon, n_panels * (piece width) overflows to inf;
    the panel count used to cast to -2**63, and the run printed ``error:
    negative dimensions are not allowed``."""
    plants = [{"id": "a", "q2": 0.0005, "q1": 0.0, "q0": 0.0}]
    path = write_scenario(
        tmp_path, {"name": "long", "horizon": 1e308, "load": {"affine": {"base": 0, "slope": 0}}, "plants": plants}
    )
    out_dir = tmp_path / "out"
    assert main(["--scenario", path, "--mechanism", "spot", "--out-dir", str(out_dir), "--quiet"]) == 0
    assert capsys.readouterr().err == ""
    assert read_csv(out_dir / "settlement.csv")[1] == ["spot", "a", "0.0", "0.0", "0.0", ""]


INVALID = Path(__file__).parent / "data" / "invalid"


@pytest.mark.parametrize("case", ["items", "order"])
def test_invalid_load_exits_1_with_one_line_per_problem(capsys, case):
    """``data/invalid/<case>.json`` fails validation with exactly the lines
    of ``<case>.stderr``: item problems, or order problems once every item
    passes."""
    assert main(["--scenario", str(INVALID / f"{case}.json")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (INVALID / f"{case}.stderr").read_text()


NON_FINITE = Path(__file__).parent / "data" / "non_finite"


@pytest.mark.parametrize("mechanism", [[], ["--mechanism", "both"]], ids=["spot", "both"])
@pytest.mark.parametrize("case", ["profit_rate", "market_rate"])
def test_non_finite_profit_rate_exits_1_with_its_line(capsys, case, mechanism):
    """``data/non_finite/<case>.json`` settles to a plant's (``tiny``) or the
    market's profit rate of inf: settlement refuses it with exactly the line
    of ``<case>.stderr``.  Both scenarios clamp, and with ``--mechanism
    both`` the run used to exit 2 on the duration refusal; spot now names
    the number first."""
    assert main(["--scenario", str(NON_FINITE / f"{case}.json"), *mechanism]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (NON_FINITE / f"{case}.stderr").read_text()


def test_load_at_merit_order_entry_point_exits_0(tmp_path, capsys):
    """The load starts one ulp below 280 MW, where plant3 enters the merit
    order; its output of about -1e-16 used to end in ``error: power values
    must be non-negative``, naming nothing."""
    path = write_scenario(tmp_path, _case_study_variant(1.0, [[0.0, 279.99999999999994], [1.0, 1000.0]]))
    out_dir = tmp_path / "out"
    assert main(["--scenario", path, "--mechanism", "both", "--out-dir", str(out_dir), "--quiet"]) == 0
    assert capsys.readouterr().err == ""
    rows = read_csv(out_dir / "timeseries.csv")
    assert rows[1][rows[0].index("P_plant3")] == "0.0"


def test_nan_output_before_crossing_names_plant_and_bound(tmp_path, capsys):
    """lam is [NaN, 0]: load + offset overflows at t = 0 only.  A NaN
    output before the knot past p_min used to start no violation interval,
    and the refusal read ``error: min() arg is an empty sequence``."""
    plants = [{"id": f"g{j}", "q2": 3e-309, "q1": 0.5, "q0": 0} for j in range(2)]
    path = write_scenario(
        tmp_path,
        {"name": "nan", "horizon": 1, "load": {"breakpoints": [[0, 5e307], [1, 0]]}, "plants": plants},
    )
    assert main(["--scenario", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: unconstrained dispatch puts plant 'g0' below p_min = 0 MW on t in [0, 1] h; "
        "enable clamped dispatch to proceed (spot settlement only)"
    ]


def _numeric_cells(out_dir: Path) -> list[str]:
    """Every non-empty number cell of the three CSVs, headers and the
    settlement file's mechanism and plant columns left out."""
    cells = []
    for name, first in (("timeseries.csv", 0), ("duration.csv", 0), ("settlement.csv", 2)):
        for row in read_csv(out_dir / name)[1:]:
            cells.extend(cell for cell in row[first:] if cell)
    return cells


@settings(max_examples=150, deadline=None)
@given(raw_scenarios())
def test_any_raw_scenario_exits_0_1_or_2_with_error_lines_only(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(data))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["--scenario", str(path), "--quiet", "--out-dir", str(Path(tmp) / "out")])
        cells = [] if code else _numeric_cells(Path(tmp) / "out")
    assert code in (0, 1, 2)
    lines = err.getvalue().splitlines()
    assert all(line.startswith("error: ") for line in lines), lines
    assert bool(lines) == (code != 0)
    assert all(math.isfinite(float(cell)) for cell in cells), cells


def test_q2_whose_double_overflows_is_one_error_line(tmp_path, capsys):
    """2*q2 past the float range made the clamped solve's supply threshold
    ``inf * 0``, a NaN that changed its answer from call to call."""
    path = write_scenario(
        tmp_path,
        {
            "name": "huge-q2",
            "horizon": 1.0,
            "load": {"breakpoints": [[0.0, 5e307], [1.0, 1.7e308]]},
            "plants": [
                {"id": "a", "q2": 1e308, "q1": 0.0, "q0": 0.0},
                {"id": "b", "q2": 3e-309, "q1": 1.0, "q0": 0.0, "p_max": 5.0},
            ],
        },
    )
    assert main(["--scenario", path, "--mechanism", "spot", "--allow-clamp", "--quiet"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: plants[0].q2: too large: 2*q2 overflows the float range (plant 'a')"], err


def test_tiny_horizon_names_horizon_under_duration(tmp_path, capsys):
    """The default m_floor = 1e-6 * horizon underflows to 0 for this horizon;
    the diagnostic used to blame m_floor, an option the scenario never set."""
    path = write_scenario(
        tmp_path,
        {
            "name": "tiny",
            "horizon": 1e-320,
            "load": {"affine": {"base": 100.0, "slope": 0.0}},
            "plants": [{"id": "a", "q2": 0.001, "q1": 0.1, "q0": 0.1}],
        },
    )
    assert main(["--scenario", path, "--mechanism", "both", "--quiet"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: horizon: 1e-320 is too small"), err
    assert main(["--scenario", path, "--mechanism", "spot", "--quiet"]) == 0


def test_steep_load_segment_writes_a_finite_series(tmp_path, capsys):
    """A load rising by 100 MW over 1e-320 h has a slope past the float
    range; every series cell inside it used to interpolate to inf, and
    the run exited 1 naming the plant's spot settlement."""
    path = write_scenario(
        tmp_path,
        {
            "name": "steep",
            "horizon": 1e-320,
            "load": {"breakpoints": [[0.0, 100.0], [1e-320, 200.0]]},
            "plants": [{"id": "a", "q2": 0.001, "q1": 0.1, "q0": 0.1}],
        },
    )
    out_dir = tmp_path / "out"
    assert main(["--scenario", path, "--mechanism", "spot", "--out-dir", str(out_dir), "--quiet"]) == 0
    assert capsys.readouterr().err == ""
    header, *rows = read_csv(out_dir / "timeseries.csv")
    assert header == ["t", "load", "lambda", "pi_time", "P_a"] and len(rows) > 2
    for row in rows:
        load, lam, output = (float(row[k]) for k in (1, 2, 4))
        assert 100.0 <= load <= 200.0 and 0.3 <= lam <= 0.5 and math.isclose(output, load, rel_tol=1e-12)


def test_non_monotone_load_rearranged_for_duration(tmp_path, capsys):
    path = write_scenario(
        tmp_path,
        {
            "name": "valley",
            "horizon": 1.0,
            "load": {"breakpoints": [[0.0, 400.0], [0.5, 200.0], [1.0, 600.0]]},
            "plants": [
                {"id": "a", "q2": 0.001, "q1": 0.05, "q0": 0.0},
                {"id": "b", "q2": 0.002, "q1": 0.05, "q0": 0.0},
            ],
        },
    )
    assert main(["--scenario", path, "--mechanism", "both"]) == 0
    out = capsys.readouterr().out
    assert "rearranged" in out


def test_unwritable_out_dir_exits_1(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory")
    rc = main(["--case-study", "--quiet", "--out-dir", str(blocker / "sub")])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def _cafe_scenario(tmp_path):
    data = json.loads((Path(__file__).parent / "data" / "golden" / "valley" / "scenario.json").read_text())
    data["plants"][0]["id"] = "caf\u00e9"
    return write_scenario(tmp_path, data)


def test_plant_id_the_file_encoding_cannot_hold_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(locale, "getpreferredencoding", lambda do_setlocale=True: "ascii")
    rc = main(["--scenario", _cafe_scenario(tmp_path), "--mechanism", "both", "--quiet", "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "'ascii' codec can't encode" in err[0]


def test_plant_id_the_report_encoding_cannot_hold_exits_1(tmp_path, capsys, monkeypatch):
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="ascii")
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["--scenario", _cafe_scenario(tmp_path), "--mechanism", "both"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "'ascii' codec can't encode" in err[0]
    stdout.flush()
    assert stdout.buffer.getvalue() == b""


def test_parser_is_built_once_per_process(capsys):
    assert cli._parser() is cli._parser()
    with pytest.raises(SystemExit) as exc:
        main(["--mechanism", "spot"])
    assert exc.value.code == 2
    assert "one of the arguments --scenario --case-study is required" in capsys.readouterr().err
    assert main(["--case-study", "--quiet"]) == 0


def test_grid_n_option_is_an_unknown_field(tmp_path, capsys):
    path = write_scenario(
        tmp_path,
        {
            "name": "panels",
            "horizon": 1.0,
            "load": {"affine": {"base": 100.0, "slope": 0.0}},
            "plants": [{"id": "a", "q2": 0.001, "q1": 0.1, "q0": 0.0}],
            "options": {"grid_n": 10_000},
        },
    )
    assert main(["--scenario", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: options.grid_n: unknown field"]


def test_timeseries_has_no_near_duplicate_times(tmp_path, capsys):
    """Load breakpoints a few ulps off the uniform grid, and duration-price
    knots a few ulps off it, give one row per time, not two."""
    load = [[0, 400], [2.4000000000000004, 500], [7.199999999999999, 300],
            [16.799999999999997, 400], [24, 600]]
    path = write_scenario(
        tmp_path,
        {
            "name": "near-duplicates",
            "horizon": 24.0,
            "load": {"breakpoints": load},
            "plants": [
                {"id": "a", "q2": 0.001, "q1": 0.05, "q0": 1.0},
                {"id": "b", "q2": 0.002, "q1": 0.04, "q0": 2.0},
            ],
        },
    )
    assert main(["--scenario", path, "--mechanism", "both", "--quiet", "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    times = [float(r[0]) for r in read_csv(tmp_path / "timeseries.csv")[1:]]
    assert times == sorted(times)
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert min(gaps) > 1e-11 * 24.0
    for t, _ in load:  # every load breakpoint stays exactly
        assert float(t) in times


def test_scenario_mechanism_subset_respected(tmp_path, capsys):
    path = write_scenario(
        tmp_path,
        {
            "name": "spot-only",
            "horizon": 1.0,
            "load": {"affine": {"base": 100.0, "slope": 10.0}},
            "plants": [{"id": "a", "q2": 0.001, "q1": 0.05, "q0": 0.0}],
            "options": {"mechanisms": ["spot"]},
        },
    )
    assert main(["--scenario", path, "--out-dir", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    assert "[spot]" in out and "[duration]" not in out
    dur = read_csv(tmp_path / "out" / "duration.csv")
    assert dur == [["m", "pi_measure"]]  # header only when duration did not run
    ts = read_csv(tmp_path / "out" / "timeseries.csv")
    assert all(row[3] == "" for row in ts[1:])  # pi_time column stays empty


def test_mechanism_flag_replaces_the_scenario_mechanisms(tmp_path, capsys):
    path = write_scenario(
        tmp_path,
        {
            "name": "spot-only",
            "horizon": 1.0,
            "load": {"affine": {"base": 100.0, "slope": 10.0}},
            "plants": [{"id": "a", "q2": 0.001, "q1": 0.05, "q0": 0.0}],
            "options": {"mechanisms": ["spot"]},
        },
    )
    assert main(["--scenario", path, "--mechanism", "duration"]) == 0
    out = capsys.readouterr().out
    assert "[duration]" in out and "[spot]" not in out
