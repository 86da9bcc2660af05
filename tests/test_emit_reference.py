"""Series CSVs against a ``csv.writer`` reference, byte for byte.

``cli.emit_series`` builds the float bodies of ``timeseries.csv`` and
``duration.csv`` as text, one column at a time.  The reference below
writes every row through ``csv.writer``, one cell at a time, as the CLI
did before.  Both must produce the same bytes.
"""

from __future__ import annotations

import csv

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
        for row in out.timeseries:
            writer.writerow([_ref_cell(v) for v in row])

    with open(directory / DURATION_FILE, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["m", "pi_measure"])
        for m, pi in out.duration_series:
            writer.writerow([_ref_cell(m), _ref_cell(pi)])


def _output(plant_ids, timeseries, duration_series) -> RunOutput:
    return RunOutput(
        scenario=builtin_case_study(),
        reports={},
        plant_ids=list(plant_ids),
        timeseries=list(timeseries),
        duration_series=list(duration_series),
        settlement_rows=[],
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
    timeseries = [
        (0.0, 350.0, 0.32, 0.32, -0.0, 5e-324),
        (1e-05, 1e16, 1e22, 0.1 + 0.2, 2.5, 1e-300),
        (0.5, 0.1 + 0.2, -0.0, None, 1e22, 0.0),
        (1.0, 5e-324, 1e16, None, -1e-05, 123456789.125),
    ]
    duration = [(m, pi) for m, pi in zip(AWKWARD, reversed(AWKWARD))]
    out = _output(['quote"d', "plain"], timeseries, duration)
    assert_same_bytes(out, tmp_path)
    header = (tmp_path / "got" / TIMESERIES_FILE).read_bytes().split(b"\r\n")[0]
    assert header == b't,load,lambda,pi_time,"P_quote""d",P_plain'


def test_empty_duration_series_writes_header_only(tmp_path):
    out = _output(["a"], [(0.0, 1.0, 2.0, None, 1.0), (1.0, 1.0, 2.0, None, 1.0)], [])
    assert_same_bytes(out, tmp_path)
    assert (tmp_path / "got" / DURATION_FILE).read_bytes() == b"m,pi_measure\r\n"


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def outputs(draw):
    n_plants = draw(st.integers(0, 4))
    n_rows = draw(st.integers(1, 20))
    priced = draw(st.integers(0, n_rows))  # pi_time is empty beyond a prefix
    timeseries = []
    for i in range(n_rows):
        t, load, lam, pi = draw(st.tuples(finite, finite, finite, finite))
        outputs_ = draw(st.lists(finite, min_size=n_plants, max_size=n_plants))
        timeseries.append((t, load, lam, pi if i < priced else None, *outputs_))
    duration = draw(st.lists(st.tuples(finite, finite), max_size=10))
    return _output([f"g{j}" for j in range(n_plants)], timeseries, duration)


@settings(max_examples=100, deadline=None)
@given(outputs())
def test_random_outputs_match_reference(tmp_path_factory, out):
    assert_same_bytes(out, tmp_path_factory.mktemp("emit"))
