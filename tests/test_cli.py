"""CLI behaviour: report, series files, exit codes, determinism."""

from __future__ import annotations

import csv
import json

import pytest

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


def test_grid_resolution_does_not_move_totals(tmp_path, capsys):
    """Panel edges align with every kink, so totals are grid-independent."""
    totals = {}
    for n in (100, 100_000):
        out = tmp_path / f"g{n}"
        assert main(
            ["--case-study", "--mechanism", "spot", "--grid-n", str(n), "--out-dir", str(out)]
        ) == 0
        rows = read_csv(out / "settlement.csv")
        total = next(r for r in rows[1:] if r[1] == "total")
        totals[n] = [float(v) for v in total[2:]]
    capsys.readouterr()
    for a, b in zip(totals[100], totals[100_000]):
        assert a == pytest.approx(b, rel=1e-6)


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


def _clamping_scenario(tmp_path, mechanisms):
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
            "options": {"mechanisms": mechanisms},
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


def test_duration_on_clamped_dispatch_exits_2(tmp_path, capsys):
    path = _clamping_scenario(tmp_path, ["spot", "duration"])
    assert main(["--scenario", path, "--allow-clamp"]) == 2
    assert "duration" in capsys.readouterr().err


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


def test_odd_grid_n_exits_1(capsys):
    assert main(["--case-study", "--grid-n", "101"]) == 1
    assert "even" in capsys.readouterr().err


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
