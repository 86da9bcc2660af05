"""Valuation tables against the per-segment loops they came from.

``value_by_slice`` and ``value_by_band`` return one ``ValueTable`` of
read-only columns, built by array masks a slice block or a plant at a time.
The reference below is the code they replaced: it checked every edge pair
one at a time, valued one segment at a time and kept a tuple of
``ValueSegment`` rows.  On every input the table must hold exactly the
reference's rows, bit for bit and in the same order, and refuse wherever
the reference refuses, with the same exception type, message and abscissa.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import pytest

from ctmarket import (
    DispatchSolution,
    DomainError,
    LoadCurve,
    MeasureFunction,
    NumericError,
    Plant,
    QuadraticCost,
    ValueTable,
    duration_price,
    solve_equilibrium,
    value_by_band,
    value_by_slice,
)
from ctmarket.settlement import _band_sums, _slice_sums
from ctmarket.tolerances import DOMAIN_TOL
from test_settlement import _clamped_solution, _seeded_interior_solutions, _wide_instance

# ----------------------------------------------------------------------
# Reference: the per-segment loops
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ValueSegment:
    mechanism: str
    plant: str
    lo: float
    hi: float
    energy: float
    unit_value: float


def _time_slice(T: float, t1: float, t2: float) -> tuple[float, float]:
    t1, t2 = float(t1), float(t2)
    if not (0.0 <= t1 < t2 <= T + DOMAIN_TOL * max(T, 1.0)):
        raise DomainError(f"need 0 <= t1 < t2 <= {T!r}, got [{t1!r}, {t2!r}]")
    return t1, t2


def _level_band(y1: float, y2: float) -> tuple[float, float]:
    y1, y2 = float(y1), float(y2)
    if not (0.0 <= y1 < y2 < math.inf):
        raise DomainError(f"need 0 <= y1 < y2 < inf, got [{y1!r}, {y2!r}]")
    return y1, y2


def ref_value_by_slice(
    sol: DispatchSolution, time_edges: Sequence[float] | None = None
) -> tuple[ValueSegment, ...]:
    lam = sol.lambda_curve
    edges = list(time_edges) if time_edges is not None else list(lam.times)
    slices = [_time_slice(lam.horizon, t1, t2) for t1, t2 in zip(edges, edges[1:])]
    if not slices:
        return ()
    energy, value = _slice_sums(lam, [sol.load, *sol.outputs.values()], np.array(edges, dtype=float))
    rows: list[ValueSegment] = []
    for (t1, t2), (load_energy, *energies), load_value in zip(slices, energy.T.tolist(), value[0]):
        if load_energy <= 0.0:
            continue
        unit = float(load_value) / load_energy
        for p, energy in zip(sol.plants, energies):
            if not math.isfinite(energy):
                raise NumericError.out_of_range(f"the energy on [{t1!r}, {t2!r}] h of {p.id}", t1)
            if energy > 0.0:
                rows.append(ValueSegment("spot", p.id, t1, t2, energy, unit))
        if not math.isfinite(unit):
            raise NumericError.out_of_range(f"the unit value on [{t1!r}, {t2!r}] h", t1)
    return tuple(rows)


def ref_value_by_band(
    sol: DispatchSolution, band_edges: Sequence[float] | None = None
) -> tuple[ValueSegment, ...]:
    price = duration_price(sol)
    given = None if band_edges is None else sorted(set(map(float, band_edges)))
    for y1, y2 in [] if given is None else zip(given, given[1:]):
        _level_band(y1, y2)
    rows: list[ValueSegment] = []
    for pid, curve in sol.outputs.items():
        edges = sorted({0.0, *curve.levels}) if given is None else given
        if len(edges) < 2:
            continue
        energies, values = _band_sums(price, MeasureFunction(curve), np.array(edges))
        for y1, y2, energy, value in zip(edges, edges[1:], energies.tolist(), values.tolist()):
            if not (math.isfinite(energy) and math.isfinite(value)):
                where = f"the duration value of {pid} on [{y1!r}, {y2!r}] MW"
                raise NumericError.out_of_range(where, y1)
            if energy > 0.0:
                rows.append(ValueSegment("duration", pid, y1, y2, energy, value / energy))
    return tuple(rows)


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------

_PAIRS = {"spot": (value_by_slice, ref_value_by_slice), "duration": (value_by_band, ref_value_by_band)}


def assert_same(mechanism: str, sol, edges=None) -> None:
    """The table of ``sol`` and ``edges`` holds the reference's rows bit for
    bit, or both refuse alike."""
    new, ref = _PAIRS[mechanism]
    try:
        rows = ref(sol, edges)
    except Exception as want:
        with pytest.raises(type(want)) as got:
            new(sol, edges)
        assert type(got.value) is type(want)
        assert str(got.value) == str(want)
        assert repr(getattr(got.value, "abscissa", None)) == repr(getattr(want, "abscissa", None))
        return
    table = new(sol, edges)
    assert isinstance(table, ValueTable) and table.mechanism == mechanism
    assert table.plant.dtype.kind == "U" and not table.plant.flags.writeable
    assert table.plant.tolist() == [r.plant for r in rows]
    for name in ("lo", "hi", "energy", "unit_value"):
        column = getattr(table, name)
        assert column.dtype == np.float64 and column.shape == (len(rows),)
        assert not column.flags.writeable
        assert column.tobytes() == np.array([getattr(r, name) for r in rows], dtype=float).tobytes(), name


def _slice_edges(rng, sol) -> list[float]:
    """0, the horizon, three uniform draws and two of the price's knots, sorted."""
    knots = rng.choice(sol.lambda_curve.times, 2)
    return np.unique(np.concatenate([[0.0, sol.horizon], rng.uniform(0.0, sol.horizon, 3), knots])).tolist()


def _band_edges(rng, sol) -> list[float]:
    """Unsorted band edges with repeats, a negative zero, two output levels
    of the largest plant and draws reaching 30% above its peak."""
    top = max(c.max_power for c in sol.outputs.values())
    levels = max(sol.outputs.values(), key=lambda c: c.max_power).powers
    edges = [-0.0, *rng.uniform(0.0, 1.3 * top, 5), *rng.choice(levels, 2)]
    edges += edges[1:3]
    rng.shuffle(edges)
    return edges


def _solutions(make: str) -> list:
    if make == "clamped":
        return [_clamped_solution()]
    if make == "wide":
        plants, load, _ = _wide_instance()
        return [solve_equilibrium(plants, load)]
    return _seeded_interior_solutions()


@pytest.mark.parametrize("mechanism", ["spot", "duration"])
def test_case_study_rows_are_the_reference_rows(mechanism, case_solution):
    rng = np.random.default_rng(27)
    assert_same(mechanism, case_solution)
    for _ in range(5):
        edges = _slice_edges(rng, case_solution) if mechanism == "spot" else _band_edges(rng, case_solution)
        assert_same(mechanism, case_solution, edges)
    if mechanism == "duration":
        assert_same(mechanism, case_solution, [0, 100, 1000])
        assert_same(mechanism, case_solution, [200, 300])


@pytest.mark.parametrize("make", ["clamped", "wide", "seeded"])
def test_seeded_rows_are_the_reference_rows(make):
    """Default and random edges on the clamped solution (slices only), the
    non-monotone wide instance and the seeded interior solutions."""
    rng = np.random.default_rng(2027)
    for sol in _solutions(make):
        for mechanism in ["spot"] if sol.clamped else ["spot", "duration"]:
            assert_same(mechanism, sol)
            for _ in range(3):
                edges = _slice_edges(rng, sol) if mechanism == "spot" else _band_edges(rng, sol)
                assert_same(mechanism, sol, edges)


@pytest.mark.parametrize("mechanism", ["spot", "duration"])
@pytest.mark.parametrize("edges", [[], [0.5], (0.5,), np.array([])], ids=repr)
def test_empty_and_single_edge_inputs_give_an_empty_table(mechanism, edges, case_solution):
    """Band edges are taken as a set, so a repeated edge is one edge too."""
    for given in [edges, *([[5.0, 5.0], [-0.0, 0.0]] if mechanism == "duration" else [])]:
        assert_same(mechanism, case_solution, given)
        table = _PAIRS[mechanism][0](case_solution, given)
        assert table.energy.size == table.plant.size == 0


def test_a_negative_zero_output_level_gives_a_positive_zero_edge():
    """Plant a's output at t = 0 is ``(0 - 1e-320) / 2e300``, which rounds
    to -0.0: its default band edges start at +0.0, as ``{0.0, *levels}``
    keeps the 0.0 put in first."""
    plants = [Plant("a", QuadraticCost(1e300, 1e-320, 0.0)), Plant("b", QuadraticCost(1.0, 0.0, 0.0))]
    sol = solve_equilibrium(plants, LoadCurve([(0.0, 0.0), (1.0, 10.0)]))
    assert np.signbit(sol.outputs["a"].powers[0])
    assert_same("duration", sol)
    assert_same("spot", sol)
    assert not np.signbit(value_by_band(sol).lo).any()


def test_a_plant_at_its_entry_point_has_no_row_where_it_is_idle():
    """On [0, 1] h the price sits at plant c's q1 = 5, so c runs at 0 MW
    while the load does not: that slice has a row for b alone."""
    plants = [Plant("b", QuadraticCost(1.0, 0.0, 0.0)), Plant("c", QuadraticCost(1.0, 5.0, 0.0))]
    sol = solve_equilibrium(plants, LoadCurve([(0.0, 2.5), (1.0, 2.5), (2.0, 10.0)]))
    assert_same("spot", sol)
    assert_same("duration", sol)
    assert value_by_slice(sol).plant.tolist() == ["b", "b", "c"]


def test_no_slice_with_load_gives_an_empty_table():
    """A zero load over the cycle: every slice is omitted."""
    sol = solve_equilibrium([Plant("a", QuadraticCost(0.001, 0.0, 0.0))], LoadCurve([(0.0, 0.0), (1.0, 0.0)]))
    assert_same("spot", sol)
    assert value_by_slice(sol).energy.size == 0


@pytest.mark.parametrize(
    "mechanism, edges",
    [
        ("spot", [0.0, 1.0 + DOMAIN_TOL]),
        ("spot", [0.0, 1.0 + 2.0 * DOMAIN_TOL]),
        ("spot", [0.0, 2.0]),
        ("spot", [0.5, 0.2]),
        ("spot", [0.0, 0.5, 0.5, 1.0]),
        ("spot", [0.0, math.nan, 1.0]),
        ("spot", [-0.1, 0.5]),
        ("duration", [0.0, 1.7976931348623157e308]),
        ("duration", [0.0, math.inf]),
        ("duration", [0.0, math.nan, 100.0]),
        ("duration", [-1.0, 100.0]),
        ("duration", [math.nan, math.nan, 3.0]),
    ],
)
def test_edge_checks_are_the_reference_checks(mechanism, edges, case_solution):
    """Each edge pair is refused, or accepted at the domain's top, alike."""
    assert_same(mechanism, case_solution, edges)


def test_clamped_band_refusal_is_the_reference_refusal():
    assert_same("duration", _clamped_solution())


def test_overflow_refusals_are_the_reference_refusals():
    """Every float-range case of ``tests/test_settlement.py``: the energy of
    a slice, the unit value of a slice and the value of a band.  Then a
    slice too narrow for its width to survive halving, under a load whose
    Simpson terms overflow: its load energy is ``0 * inf``, a NaN, which is
    not a slice without load, so its plant's energy is refused."""
    two = [
        Plant("plant1", QuadraticCost(0.0005, 0.07, 0.2)),
        Plant("plant2", QuadraticCost(0.001, 0.14, 0.4)),
    ]
    pricey = [
        Plant("plant1", QuadraticCost(1e289, 1e299, 0.0)),
        Plant("plant2", QuadraticCost(2e289, 1e299, 0.0)),
    ]
    with np.errstate(all="ignore"):
        cases = [
            ("spot", solve_equilibrium(two, LoadCurve([(0.0, 1e10), (1e300, 1e10)]))),
            ("spot", solve_equilibrium(pricey, LoadCurve([(0.0, 1e10), (1.0, 1e10)]))),
            ("duration", solve_equilibrium(
                [Plant("g1", QuadraticCost(0.001, 0.1, 0.1))], LoadCurve([(0.0, 100.0), (1e-320, 200.0)])
            )),
            ("spot", solve_equilibrium(
                [Plant("a", QuadraticCost(0.5, 0.0, 0.0))], LoadCurve([(0.0, 1e308), (5e-324, 1e308)])
            )),
        ]
        for mechanism, sol in cases:
            with pytest.raises(NumericError):
                _PAIRS[mechanism][1](sol)
            assert_same(mechanism, sol)
