"""Series CSVs against a ``csv.writer`` reference, byte for byte.

``cli.emit_series`` writes the float columns of ``timeseries.csv`` and
``duration.csv`` as text, one column at a time.  The reference below
turns the columns into rows (``None`` past the end of a short column)
and writes every row through ``csv.writer``, one cell at a time, as the
CLI once did.  Both must produce the same bytes.
"""

from __future__ import annotations

import csv
from itertools import zip_longest

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ctmarket import builtin_case_study
from ctmarket.cli import DURATION_FILE, TIMESERIES_FILE, RunOutput, emit_series

# ----------------------------------------------------------------------
# Reference: csv.writer, one cell at a time
# ----------------------------------------------------------------------


def _ref_cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    return repr(float(x))


def ref_series_files(out: RunOutput, directory) -> None:
    with open(directory / TIMESERIES_FILE, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "load", "lambda", "pi_time", *(f"P_{pid}" for pid in out.plant_ids)])
        for row in zip_longest(*out.timeseries):
            writer.writerow([_ref_cell(v) for v in row])

    with open(directory / DURATION_FILE, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["m", "pi_measure"])
        for m, pi in zip_longest(*out.duration_series):
            writer.writerow([_ref_cell(m), _ref_cell(pi)])


def _output(plant_ids, timeseries, duration_series) -> RunOutput:
    """A ``RunOutput`` of float columns, given each series as a list of columns."""
    return RunOutput(
        scenario=builtin_case_study(),
        reports={},
        plant_ids=list(plant_ids),
        timeseries=[np.asarray(c, dtype=float) for c in timeseries],
        duration_series=[np.asarray(c, dtype=float) for c in duration_series],
        diagnostics=[],
    )


def assert_same_bytes(out: RunOutput, tmp_path) -> None:
    got, want = tmp_path / "got", tmp_path / "want"
    want.mkdir()
    emit_series(out, got)
    ref_series_files(out, want)
    for name in (TIMESERIES_FILE, DURATION_FILE):
        assert (got / name).read_bytes() == (want / name).read_bytes(), name


# ----------------------------------------------------------------------
# Hand-made outputs
# ----------------------------------------------------------------------

AWKWARD = [-0.0, 5e-324, 1e-05, 1e16, 1e22, 0.1 + 0.2]


def test_awkward_cells_match_reference(tmp_path):
    timeseries = [  # t, load, lambda, pi_time (priced for two rows), two outputs
        [0.0, 1e-05, 0.5, 1.0],
        [350.0, 1e16, 0.1 + 0.2, 5e-324],
        [0.32, 1e22, -0.0, 1e16],
        [0.32, 0.1 + 0.2],
        [-0.0, 2.5, 1e22, -1e-05],
        [5e-324, 1e-300, 0.0, 123456789.125],
    ]
    duration = [AWKWARD, AWKWARD[::-1]]
    out = _output(['quote"d', "plain"], timeseries, duration)
    assert_same_bytes(out, tmp_path)
    header = (tmp_path / "got" / TIMESERIES_FILE).read_bytes().split(b"\r\n")[0]
    assert header == b't,load,lambda,pi_time,"P_quote""d",P_plain'


def test_empty_duration_series_writes_header_only(tmp_path):
    out = _output(["a"], [[0.0, 1.0], [1.0, 1.0], [2.0, 2.0], [], [1.0, 1.0]], [])
    assert_same_bytes(out, tmp_path)
    assert (tmp_path / "got" / DURATION_FILE).read_bytes() == b"m,pi_measure\r\n"


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def outputs(draw):
    n_plants = draw(st.integers(0, 4))
    n_rows = draw(st.integers(1, 20))
    priced = draw(st.integers(0, n_rows))  # pi_time is empty beyond a prefix
    sizes = [n_rows] * 3 + [priced] + [n_rows] * n_plants
    timeseries = [draw(st.lists(finite, min_size=n, max_size=n)) for n in sizes]
    n_durations = draw(st.integers(0, 10))
    duration = [draw(st.lists(finite, min_size=n_durations, max_size=n_durations)) for _ in range(2)]
    return _output([f"g{j}" for j in range(n_plants)], timeseries, duration)


@settings(max_examples=100, deadline=None)
@given(outputs())
def test_random_outputs_match_reference(tmp_path_factory, out):
    assert_same_bytes(out, tmp_path_factory.mktemp("emit"))
