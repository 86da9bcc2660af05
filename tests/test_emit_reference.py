"""Series CSVs against a ``csv.writer`` reference, byte for byte.

``cli.emit_series`` writes the float columns of ``timeseries.csv`` and
``duration.csv`` as one row-major block, formatted a chunk of rows at a
time.  The reference below turns the columns into rows (``None`` past the
end of a short column) and writes every row through ``csv.writer``, one
cell at a time, as the CLI once did.  Both must produce the same bytes.

The writer formats a chunk with orjson and falls back to ``repr`` only
outside the band where the two agree, so its cells are also checked
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
    CHUNK_CELLS,
    DURATION_FILE,
    REPR_FIXED_HI,
    REPR_FIXED_LO,
    TIMESERIES_FILE,
    RunOutput,
    _write_floats,
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


def ref_floats(path, header, columns) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in zip_longest(*columns):
            writer.writerow([_ref_cell(v) for v in row])


def ref_series_files(out: RunOutput, directory) -> None:
    ref_floats(
        directory / TIMESERIES_FILE,
        ["t", "load", "lambda", "pi_time", *(f"P_{pid}" for pid in out.plant_ids)],
        out.timeseries,
    )
    ref_floats(directory / DURATION_FILE, ["m", "pi_measure"], out.duration_series)


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


def test_int_column_is_written_as_floats(tmp_path):
    """An int column's cells are the ``repr`` of its values as floats, as in
    the reference: ``-3.0``, not ``-3``."""
    out = _output([], [[0.0] * 8, [], [2.0] * 8, []], [])
    out.timeseries[1] = np.arange(-3, 5)
    assert_same_bytes(out, tmp_path)
    assert (tmp_path / "got" / TIMESERIES_FILE).read_bytes().split(b"\r\n")[1] == b"0.0,-3.0,2.0,"


def test_out_of_band_rows_on_both_sides_of_a_chunk_boundary(tmp_path):
    """The last row of one chunk and the first of the next each hold cells
    that orjson and ``repr`` write differently, NaN and +-inf among them."""
    step = CHUNK_CELLS // 5  # rows per chunk of t, load, lambda, pi_time and one output
    n_rows = 2 * step + 3
    timeseries = [np.linspace(0.0, 1.0, n_rows), np.full(n_rows, 2.5), np.full(n_rows, 0.5)]
    timeseries += [np.full(step + 1, 7.0), np.arange(float(n_rows))]
    patched = [
        (step - 1, 1, 1e-05), (step - 1, 4, np.nan),
        (step, 2, 1e22), (step, 3, -np.inf), (step, 4, 5e-324),
        (2 * step - 1, 0, np.inf), (2 * step, 1, -1e16),
    ]
    for i, j, x in patched:
        timeseries[j][i] = x
    out = _output(["g"], timeseries, [])
    assert_same_bytes(out, tmp_path)
    rows = (tmp_path / "got" / TIMESERIES_FILE).read_bytes().split(b"\r\n")[1:]
    assert rows[step - 1].split(b",")[1::3] == [b"1e-05", b"nan"]
    assert rows[step].split(b",")[2:] == [b"1e+22", b"-inf", b"5e-324"]
    assert rows[2 * step].split(b",")[1] == b"-1e+16"


def test_nan_in_a_short_column_is_nan_and_padding_is_empty(tmp_path):
    """A NaN a short column holds is written ``nan``; the padding after the
    column's end stays empty, also on a row whose other cells are patched."""
    timeseries = [
        [0.0, 0.5, 1.0, 1.5],
        [1.0, 2.0, 3.0, np.nan],
        [2.0] * 4,
        [0.25, np.nan],  # pi_time, priced for two rows
        [1e-7, 1.0, np.inf, 4.0],
    ]
    out = _output(["g"], timeseries, [[0.5, np.nan, 1.0], [np.nan]])
    assert_same_bytes(out, tmp_path)
    rows = (tmp_path / "got" / TIMESERIES_FILE).read_bytes().split(b"\r\n")[1:]
    assert rows == [
        b"0.0,1.0,2.0,0.25,1e-07",
        b"0.5,2.0,2.0,nan,1.0",
        b"1.0,3.0,2.0,,inf",
        b"1.5,nan,2.0,,4.0",
        b"",
    ]
    duration = (tmp_path / "got" / DURATION_FILE).read_bytes().split(b"\r\n")[1:]
    assert duration == [b"0.5,nan", b"nan,", b"1.0,", b""]


def test_chunk_ending_exactly_at_the_short_column_end(tmp_path):
    """pi_time stops exactly at a chunk boundary: the chunk before holds no
    padding and is written as it is, the one after is all padding there.
    A one-row-longer short column puts the first padded cell in the next
    chunk's first row."""
    step = CHUNK_CELLS // 5
    n_rows = 2 * step + 5
    for priced in (step, step + 1, 2 * step):
        timeseries = [np.linspace(0.0, 1.0, n_rows), np.full(n_rows, 2.5), np.full(n_rows, 0.5)]
        timeseries += [np.linspace(0.5, 0.25, priced), np.arange(float(n_rows))]
        timeseries[3][priced - 1] = np.nan
        timeseries[4][priced - 1] = 1e-9
        got = tmp_path / str(priced)
        got.mkdir()
        assert_same_bytes(_output(["g"], timeseries, []), got)
        rows = (got / "got" / TIMESERIES_FILE).read_bytes().split(b"\r\n")[1:]
        assert rows[priced - 1].split(b",")[3:] == [b"nan", b"1e-09"]
        assert rows[priced].split(b",")[3] == b""


def test_nan_and_inf_cells_in_a_chunk_without_padding(tmp_path):
    """Equal-length columns, as duration.csv always has: no chunk is padded,
    and a real NaN or +-inf cell is still written as its ``repr``."""
    step = CHUNK_CELLS // 2
    ms, pis = np.linspace(0.01, 1.0, 2 * step), np.full(2 * step, 0.5)
    for i, j, x in [(0, 1, np.nan), (step - 1, 0, np.inf), (step, 1, -np.inf), (2 * step - 1, 1, np.nan)]:
        (ms, pis)[j][i] = x
    out = _output([], [[0.0, 1.0], [1.0, 1.0], [2.0, 2.0], []], [ms, pis])
    assert_same_bytes(out, tmp_path)
    rows = (tmp_path / "got" / DURATION_FILE).read_bytes().split(b"\r\n")[1:]
    assert rows[0].split(b",")[1] == b"nan" and rows[step - 1].split(b",")[0] == b"inf"
    assert rows[step].split(b",")[1] == b"-inf" and rows[-2].split(b",")[1] == b"nan"
    assert all(b"null" not in row and row.count(b",") == 1 for row in rows[:-1])


def test_one_column_and_one_row_blocks(tmp_path):
    shapes = {
        "column": [np.array([1e-05, 0.5, np.nan, 1e16, -0.0, 3.0])],
        "row": [np.array([x]) for x in (0.5, 1e-05, np.nan, -np.inf, 2.0, 1e22)],
        "cell": [np.array([1e300])],
        "padded_row": [np.array([0.5]), np.empty(0), np.array([np.nan])],
    }
    for name, columns in shapes.items():
        header = [f"c{j}" for j in range(len(columns))]
        got, want = tmp_path / f"{name}.got", tmp_path / f"{name}.want"
        _write_floats(got, header, columns)
        ref_floats(want, header, columns)
        assert got.read_bytes() == want.read_bytes(), name
    assert (tmp_path / "row.got").read_bytes().split(b"\r\n")[1] == b"0.5,1e-05,nan,-inf,2.0,1e+22"


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


def test_cells_equal_repr_on_a_large_corpus(tmp_path):
    """The corpus as an eight-column block whose fourth column stops short,
    as pi_time does: every written cell is its float's ``repr`` and every
    cell past the short column's end is empty."""
    corpus = _corpus()
    assert corpus.size >= 1_000_000
    n_rows = -(-2 * corpus.size // 15)  # seven full columns and one about half as long
    ends = np.cumsum([n_rows] * 3 + [corpus.size - 7 * n_rows] + [n_rows] * 4)
    assert 0 < ends[3] - ends[2] < n_rows and ends[-1] == corpus.size
    columns = np.split(corpus, ends[:-1])
    path = tmp_path / "block.csv"
    _write_floats(path, [f"c{j}" for j in range(len(columns))], columns)
    got = path.read_bytes().decode().split("\r\n")
    assert got[0] == "c0,c1,c2,c3,c4,c5,c6,c7" and got[-1] == ""
    got = got[1:-1]
    text = [list(map(repr, c.tolist())) + [""] * (n_rows - len(c)) for c in columns]
    want = list(map(",".join, zip(*text)))
    assert len(got) == len(want) == n_rows
    if got != want:
        i = next(i for i, (g, w) in enumerate(zip(got, want)) if g != w)
        j = next(j for j, (g, w) in enumerate(zip(got[i].split(","), text)) if g != w[i])
        cell = got[i].split(",")[j]
        raise AssertionError(f"row {i}, column {j}: written {cell!r}, want {text[j][i]!r}")
