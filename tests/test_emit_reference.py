"""Series CSVs against a ``csv.writer`` reference, byte for byte.

``cli.emit_series`` writes the float columns of ``timeseries.csv`` and
``duration.csv`` as text, one column at a time.  The reference below
turns the columns into rows (``None`` past the end of a short column)
and writes every row through ``csv.writer``, one cell at a time, as the
CLI once did.  Both must produce the same bytes.

The writer formats a column with orjson and falls back to ``repr`` only
outside the band where the two agree, so the cells are also checked
against ``repr`` one by one on a seeded corpus of over a million floats.
"""

from __future__ import annotations

import csv
from itertools import zip_longest

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ctmarket import builtin_case_study
from ctmarket.cli import (
    DURATION_FILE,
    REPR_FIXED_HI,
    REPR_FIXED_LO,
    TIMESERIES_FILE,
    RunOutput,
    _cells,
    emit_series,
)

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


def test_column_hazards_match_reference(tmp_path):
    """Columns as numpy may hand them over: float32, strided views, NaN and
    +-inf, and an empty duration series."""
    mixed = np.array([0.5, 1e-05, np.nan, 1e16, np.inf, -np.inf, -0.0, 2.5])
    out = RunOutput(
        scenario=builtin_case_study(),
        reports={},
        plant_ids=["f32", "view", "reversed"],
        timeseries=[
            (np.arange(16.0) / 3.0)[::2],
            mixed,
            np.array([1.1, 1e-7, 3e20, 0.1, np.nan, -np.inf, 2.0, 350.0], dtype=np.float32),
            mixed[:4],
            np.array([1.1, 0.2, 7e-5, 1e30, 3.0, 0.0, -1.5, 1e-300], dtype=np.float32),
            np.arange(32.0)[::4] * 1e-3,
            mixed[::-1],
        ],
        duration_series=[np.empty(0), np.empty(0)],
        diagnostics=[],
    )
    assert_same_bytes(out, tmp_path)
    assert (tmp_path / "got" / DURATION_FILE).read_bytes() == b"m,pi_measure\r\n"
    assert _cells(np.empty(0)) == []


def test_int_column_is_written_as_floats(tmp_path):
    """An int column's cells are the ``repr`` of its values as floats, as in
    the reference: ``-3.0``, not ``-3``."""
    out = _output([], [[0.0] * 8, [], [2.0] * 8, []], [])
    out.timeseries[1] = np.arange(-3, 5)
    assert_same_bytes(out, tmp_path)
    assert (tmp_path / "got" / TIMESERIES_FILE).read_bytes().split(b"\r\n")[1] == b"0.0,-3.0,2.0,"


floats = st.floats()  # NaN and +-inf included


@st.composite
def outputs(draw):
    n_plants = draw(st.integers(0, 4))
    n_rows = draw(st.integers(1, 20))
    priced = draw(st.integers(0, n_rows))  # pi_time is empty beyond a prefix
    sizes = [n_rows] * 3 + [priced] + [n_rows] * n_plants
    timeseries = [draw(st.lists(floats, min_size=n, max_size=n)) for n in sizes]
    n_durations = draw(st.integers(0, 10))
    duration = [draw(st.lists(floats, min_size=n_durations, max_size=n_durations)) for _ in range(2)]
    return _output([f"g{j}" for j in range(n_plants)], timeseries, duration)


@settings(max_examples=100, deadline=None)
@given(outputs())
def test_random_outputs_match_reference(tmp_path_factory, out):
    assert_same_bytes(out, tmp_path_factory.mktemp("emit"))


# ----------------------------------------------------------------------
# Cells against repr on a large corpus
# ----------------------------------------------------------------------


def _corpus() -> np.ndarray:
    """Over a million seeded floats, each a kind a series cell can be or
    one where two shortest-digit formatters could part."""
    rng, N = np.random.default_rng(20260), 60_000
    decades = np.array([f"1e{e}" for e in range(-320, 309)], dtype=float)  # 1e-320 .. 1e308
    edges = np.array([REPR_FIXED_LO, REPR_FIXED_HI, 5e-324, 2.0**-1022, np.finfo(float).max])
    with np.errstate(all="ignore"):
        parts = [
            # every decade, subnormals included: powers of ten, their neighbours
            # and random mantissas
            decades,
            np.nextafter(decades, 0.0),
            np.nextafter(decades, np.inf),
            (rng.uniform(1.0, 10.0, (20, decades.size)) * decades).ravel(),
            # the band edges and the float range's ends, a few steps either way
            np.concatenate([_steps(edges, k) for k in range(-3, 4)]),
            # zeros and integers up to 2**53
            np.array([0.0, -0.0]),
            rng.integers(0, 2**53, N, endpoint=True).astype(float),
            np.arange(-5000.0, 5000.0),
            2.0 ** np.arange(54.0),
            2.0 ** np.arange(54.0) - 1.0,
            # 17-digit decimals halfway between 16-digit ones
            np.array([f"{d}5e{e}" for d, e in zip(
                rng.integers(10**15, 10**16, N), rng.integers(-30, 30, N)
            )], dtype=float),
            # random bit patterns (NaN and +-inf among them)
            rng.integers(0, 2**64, N // 2, dtype=np.uint64).view(float),
            # arithmetic like the series cells': uniform draws, products,
            # interpolation, k / 3, and decimals rounded to 0-7 places
            (u := rng.uniform(0.0, 2000.0, N)),
            u * rng.uniform(0.0, 10.0, u.size),
            u[:-1] + (u[1:] - u[:-1]) * rng.uniform(0.0, 1.0, u.size - 1),
            np.arange(float(N)) / 3.0,
            *(np.round(u[k::8], k) for k in range(8)),
            10.0 ** rng.uniform(-6.0, 18.0, N),
        ]
    corpus = np.concatenate(parts)
    return np.concatenate([corpus, -corpus])


def _steps(x: np.ndarray, k: int) -> np.ndarray:
    """``x`` moved ``k`` floats up (``k > 0``) or down."""
    for _ in range(abs(k)):
        x = np.nextafter(x, np.inf if k > 0 else -np.inf)
    return x


def test_cells_equal_repr_on_a_large_corpus():
    corpus = _corpus()
    assert corpus.size >= 1_000_000
    got, want = _cells(corpus), list(map(repr, corpus.tolist()))
    assert len(got) == len(want)
    if got != want:
        first = next(i for i, (g, w) in enumerate(zip(got, want)) if g != w)
        raise AssertionError(f"cell {first}: written {got[first]!r}, repr {want[first]!r}")
