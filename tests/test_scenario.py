"""Scenario schema: validation diagnostics, round-trips, the built-in case."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from ctmarket import (
    AffineLoad,
    Options,
    Plant,
    QuadraticCost,
    Scenario,
    ScenarioValidationError,
    builtin_case_study,
    validate,
)


def issues_of(data) -> list[str]:
    try:
        validate(data)
    except ScenarioValidationError as exc:
        return [str(i) for i in exc.issues]
    return []


class TestBuiltinCaseStudy:
    def test_three_plants(self, case_study):
        assert len(case_study.plants) == 3

    def test_plant1_coefficients(self, case_study):
        p1 = case_study.plants[0]
        assert (p1.cost.q2, p1.cost.q1, p1.cost.q0) == (0.0005, 0.07, 0.2)

    def test_load_at_horizon(self, case_study):
        assert case_study.load_curve().evaluate(1.0) == pytest.approx(1050.0, abs=1e-12)

    def test_validates_cleanly(self, case_study):
        again = validate(case_study.to_dict())
        assert again == case_study

    def test_defaults(self, case_study):
        assert case_study.options.mechanisms == ("spot", "duration")
        assert case_study.options.allow_clamp is False
        assert case_study.resolved_m_floor() == pytest.approx(1e-6)


# One bad field of a valid scenario: its path (empty: the whole scenario),
# the bad value, and the one diagnostic it must give.
_ONE_BAD_FIELD = [
    ((), [], ["$: scenario must be an object"]),
    (("name",), "", ["name: must be a non-empty string"]),
    (("load",), 5, ["load: must be an object with exactly one of 'affine' or 'breakpoints'"]),
    (("load", "peak"), 1.0, ["load.peak: unknown field"]),
    (("load", "affine"), 3, ["load.affine: must be an object with 'base' and 'slope'"]),
    (("load", "affine", "base"), math.inf, ["load.affine.base: must be a finite number"]),
    (("load", "affine", "slope"), math.nan, ["load.affine.slope: must be a finite number"]),
    (("load", "affine", "base"), -1.0, ["load.affine.base: must be >= 0 (power is non-negative)"]),
    (
        ("load",),
        {"breakpoints": [[0.0, 1.0]]},
        ["load.breakpoints: must be a list of at least 2 [time, power] pairs"],
    ),
    (("plants",), [5], ["plants[0]: must be an object"]),
    (("plants", 0, "id"), "", ["plants[0].id: must be a non-empty string"]),
    (("plants", 0, "p_min"), math.inf, ["plants[0].p_min: must be a finite number >= 0 (plant 'a')"]),
    (("plants", 0, "p_max"), math.nan, ["plants[0].p_max: must be a finite number (plant 'a')"]),
    (("options",), [], ["options: must be an object"]),
    (("options",), {"allow_clamp": "yes"}, ["options.allow_clamp: must be a boolean"]),
]


class TestValidationDiagnostics:
    def base(self) -> dict:
        return {
            "name": "demo",
            "horizon": 1.0,
            "load": {"affine": {"base": 100.0, "slope": 50.0}},
            "plants": [{"id": "a", "q2": 0.001, "q1": 0.1, "q0": 0.0}],
        }

    def test_valid_scenario_passes(self):
        sc = validate(self.base())
        assert sc.name == "demo"
        assert isinstance(sc.load, AffineLoad)

    def test_zero_q2_names_convexity_and_plant(self):
        data = self.base()
        data["plants"][0]["q2"] = 0.0
        msgs = issues_of(data)
        assert len(msgs) == 1
        assert "plants[0].q2" in msgs[0]
        assert "convexity" in msgs[0]
        assert "'a'" in msgs[0]

    def test_q2_whose_inverse_overflows_names_plant(self):
        """1/(2*q2) past the float range used to surface as an unnamed
        'power values must be finite' from the engine."""
        data = self.base()
        data["plants"] = [
            {"id": "a", "q2": 1e-310, "q1": 0.1, "q0": 0.0},
            {"id": "b", "q2": 1e-310, "q1": 0.1, "q0": 0.0},
        ]
        msgs = issues_of(data)
        assert len(msgs) == 2
        for j, (msg, pid) in enumerate(zip(msgs, "ab")):
            assert msg.startswith(f"plants[{j}].q2: ") and f"'{pid}'" in msg

    def test_duplicate_breakpoint_times(self):
        data = self.base()
        data["load"] = {"breakpoints": [[0.0, 10.0], [0.5, 20.0], [0.5, 30.0], [1.0, 40.0]]}
        msgs = issues_of(data)
        assert any("strictly increasing" in m for m in msgs)

    def test_collects_all_violations(self):
        data = self.base()
        data["horizon"] = -1.0
        data["plants"][0]["q2"] = 0.0
        data["plants"].append({"id": "a", "q2": 0.001, "q1": -0.5, "q0": 0.0})
        msgs = issues_of(data)
        assert len(msgs) >= 4  # horizon, q2, duplicate id, q1

    def test_unknown_fields_flagged(self):
        data = self.base()
        data["frequency"] = 50
        data["plants"][0]["ramp_rate"] = 10
        msgs = issues_of(data)
        assert any(m.startswith("frequency") for m in msgs)
        assert any("plants[0].ramp_rate" in m for m in msgs)

    def test_load_requires_exactly_one_form(self):
        data = self.base()
        data["load"] = {
            "affine": {"base": 1.0, "slope": 0.0},
            "breakpoints": [[0.0, 1.0], [1.0, 1.0]],
        }
        assert any("exactly one" in m for m in issues_of(data))

    def test_negative_load_end_rejected(self):
        data = self.base()
        data["load"] = {"affine": {"base": 10.0, "slope": -20.0}}
        assert any("negative" in m for m in issues_of(data))

    def test_last_breakpoint_must_match_horizon(self):
        data = self.base()
        data["load"] = {"breakpoints": [[0.0, 10.0], [0.8, 20.0]]}
        assert any("horizon" in m for m in issues_of(data))

    def test_bad_mechanisms_rejected(self):
        data = self.base()
        data["options"] = {"mechanisms": ["spot", "futures"]}
        assert any("options.mechanisms" in m for m in issues_of(data))

    def test_m_floor_bounds(self):
        data = self.base()
        data["options"] = {"m_floor": 2.0}
        assert any("options.m_floor" in m for m in issues_of(data))

    def test_m_floor_lost_in_rounding_rejected(self):
        """horizon - m_floor == horizon would let the price's t = T
        singularity into the time view."""
        data = self.base()
        data["options"] = {"m_floor": 5e-324}
        issues = issues_of(data)
        assert len(issues) == 1 and issues[0].startswith("options.m_floor: ")

    def test_p_max_below_p_min(self):
        data = self.base()
        data["plants"][0].update({"p_min": 50.0, "p_max": 10.0})
        assert any("p_max" in m for m in issues_of(data))

    def test_empty_plants_rejected(self):
        data = self.base()
        data["plants"] = []
        assert any(m.startswith("plants") for m in issues_of(data))

    def test_huge_integer_is_a_field_diagnostic(self):
        data = self.base()
        data["plants"][0]["q0"] = int("9" * 400)
        data["load"] = {"breakpoints": [[0, 10.0], [1, -int("9" * 400)]]}
        msgs = issues_of(data)
        assert len(msgs) == 2
        assert msgs[0].startswith("load.breakpoints[1]:")
        assert msgs[1].startswith("plants[0].q0:")

    @pytest.mark.parametrize("bad_id", ["a\nb", "tab\there", "x,y", "bell\x07", "del\x7f", "sep\u2028"])
    def test_unsafe_plant_id_rejected(self, bad_id):
        data = self.base()
        data["plants"][0]["id"] = bad_id
        msgs = issues_of(data)
        assert msgs == [
            f"plants[0].id: must not contain a comma or a control character (got {bad_id!r})"
        ]

    def test_total_plant_id_rejected(self):
        """A plant named "total" gave two spot,total rows in settlement.csv."""
        data = self.base()
        data["plants"][0]["id"] = "total"
        assert issues_of(data) == [
            "plants[0].id: must not be 'total', the name of the market total row"
        ]
        data["plants"][0]["id"] = "Total"
        assert issues_of(data) == []

    def test_one_diagnostic_per_unsafe_plant(self):
        data = self.base()
        plant = data["plants"][0]
        data["plants"] = [
            {**plant, "id": "ok"},
            {**plant, "id": "two\nlines,\tand a comma"},
            {**plant, "id": "trailing\r"},
        ]
        msgs = issues_of(data)
        assert [m.split(":")[0] for m in msgs] == ["plants[1].id", "plants[2].id"]
        assert all("\n" not in m and "\r" not in m for m in msgs)

    def test_unicode_plant_id_accepted(self):
        data = self.base()
        data["plants"][0]["id"] = "Kraftwerk Süd 2 (CCGT)"
        assert issues_of(data) == []

    @pytest.mark.parametrize("path, value, issues", _ONE_BAD_FIELD, ids=[c[2][0] for c in _ONE_BAD_FIELD])
    def test_each_diagnostic_names_its_field(self, path, value, issues):
        """One bad field of a valid scenario (at ``path``; the empty path
        replaces the whole scenario) gives exactly its one diagnostic."""
        data = self.base()
        if not path:
            data = value
        else:
            *parents, key = path
            node = data
            for k in parents:
                node = node[k]
            node[key] = value
        assert issues_of(data) == issues


def random_scenario(rng: np.random.Generator) -> Scenario:
    n_plants = int(rng.integers(1, 5))
    plants = tuple(
        Plant(
            id=f"unit{j}",
            cost=QuadraticCost(
                q2=float(rng.uniform(1e-4, 1e-2)),
                q1=float(rng.uniform(0.0, 1.0)),
                q0=float(rng.uniform(0.0, 2.0)),
            ),
            p_min=0.0,
            p_max=float(rng.uniform(500.0, 2000.0)) if rng.random() < 0.5 else None,
        )
        for j in range(n_plants)
    )
    T = float(rng.uniform(0.5, 24.0))
    if rng.random() < 0.5:
        load = AffineLoad(base=float(rng.uniform(10.0, 500.0)), slope=float(rng.uniform(0.0, 100.0)))
    else:
        k = int(rng.integers(2, 6))
        times = np.concatenate([[0.0], np.sort(rng.uniform(0.01 * T, 0.99 * T, k - 2)), [T]])
        times = np.unique(times)
        load = tuple((float(t), float(rng.uniform(0.0, 900.0))) for t in times)
    options = Options(
        m_floor=float(rng.uniform(1e-6, 1e-2) * T) if rng.random() < 0.3 else None,
        allow_clamp=bool(rng.random() < 0.3),
        mechanisms=("spot",) if rng.random() < 0.3 else ("spot", "duration"),
    )
    return Scenario(
        name=f"random-{rng.integers(1e6)}",
        horizon=T,
        load=load,
        plants=plants,
        options=options,
    )


def test_serialize_validate_round_trip():
    rng = np.random.default_rng(2026)
    for _ in range(25):
        scenario = random_scenario(rng)
        through_json = json.loads(json.dumps(scenario.to_dict()))
        assert validate(through_json) == scenario
