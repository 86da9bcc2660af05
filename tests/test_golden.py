"""Byte-identity of CLI output against a saved output set.

Each directory under ``data/golden`` holds the report text and the three
series files that the CLI wrote for one scenario; rerunning it must give
exactly the same bytes.  Regenerate a case only for an intended change of
output, never to absorb a refactor's drift:

    ctmarket --scenario data/golden/<case>/scenario.json <flags> \\
        --out-dir data/golden/<case> > data/golden/<case>/report.txt
"""

from __future__ import annotations

from pathlib import Path

import pytest

from ctmarket.cli import DURATION_FILE, SETTLEMENT_FILE, TIMESERIES_FILE, main

GOLDEN = Path(__file__).parent / "data" / "golden"

CASES = {
    "case_study": ["--case-study", "--mechanism", "both"],
    "clamped": ["--scenario", str(GOLDEN / "clamped" / "scenario.json"), "--allow-clamp"],
    "valley": ["--scenario", str(GOLDEN / "valley" / "scenario.json"), "--mechanism", "both"],
    "plateaus": ["--scenario", str(GOLDEN / "plateaus" / "scenario.json"), "--mechanism", "both"],
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_saved_bytes(case, tmp_path, capsys):
    assert main([*CASES[case], "--out-dir", str(tmp_path)]) == 0
    report = capsys.readouterr().out
    assert report == (GOLDEN / case / "report.txt").read_text()
    for name in (TIMESERIES_FILE, DURATION_FILE, SETTLEMENT_FILE):
        assert (tmp_path / name).read_bytes() == (GOLDEN / case / name).read_bytes(), name
