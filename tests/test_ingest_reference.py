"""Breakpoint-load validation as one array check, against the per-item loop.

``validate`` accepts a breakpoint load through one structural pass and one
float array, and only on a failure runs the per-item loop that names each
problem.  The reference below is the load check that loop came from: it
checked every load one pair at a time and kept a tuple of pairs.  On any
raw scenario the two must give the same ``ValidationIssue`` list, in the
same order, and on a valid one equal scenarios whose load curves hold the
same bits.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from unittest import mock

from hypothesis import example, given, settings

from conftest import raw_scenarios
from ctmarket import AffineLoad, ScenarioValidationError, scenario, validate
from ctmarket.scenario import _is_number

# ----------------------------------------------------------------------
# Reference: the per-item load check
# ----------------------------------------------------------------------


def ref_validate_load(raw, horizon, bad):
    if not isinstance(raw, Mapping):
        bad("load", "must be an object with exactly one of 'affine' or 'breakpoints'")
        return None
    for key in raw:
        if key not in ("affine", "breakpoints"):
            bad(f"load.{key}", "unknown field")
    has_affine = "affine" in raw
    has_bps = "breakpoints" in raw
    if has_affine == has_bps:
        bad("load", "exactly one of 'affine' or 'breakpoints' is required")
        return None

    if has_affine:
        aff = raw["affine"]
        if not isinstance(aff, Mapping):
            bad("load.affine", "must be an object with 'base' and 'slope'")
            return None
        base, slope = aff.get("base"), aff.get("slope")
        ok = True
        if not _is_number(base):
            bad("load.affine.base", "must be a finite number")
            ok = False
        if not _is_number(slope):
            bad("load.affine.slope", "must be a finite number")
            ok = False
        if not ok:
            return None
        if base < 0:
            bad("load.affine.base", "must be >= 0 (power is non-negative)")
        elif horizon is not None and base + slope * horizon < 0:
            bad("load.affine.slope", "load would go negative before the horizon")
        return AffineLoad(base=float(base), slope=float(slope))

    bps = raw["breakpoints"]
    if not isinstance(bps, (list, tuple)) or len(bps) < 2:
        bad("load.breakpoints", "must be a list of at least 2 [time, power] pairs")
        return None
    pts: list[tuple[float, float]] = []
    ok = True
    for i, item in enumerate(bps):
        if not isinstance(item, (list, tuple)) or len(item) != 2 or not all(_is_number(v) for v in item):
            bad(f"load.breakpoints[{i}]", "must be a [time, power] pair of finite numbers")
            ok = False
            continue
        t, p = float(item[0]), float(item[1])
        if p < 0:
            bad(f"load.breakpoints[{i}]", "power must be >= 0")
            ok = False
        pts.append((t, p))
    if not ok:
        return None
    times = [t for t, _ in pts]
    if times[0] != 0.0:
        bad("load.breakpoints[0]", "first time must be 0")
        ok = False
    for i in range(1, len(times)):
        if times[i] <= times[i - 1]:
            bad(
                f"load.breakpoints[{i}]",
                f"times must be strictly increasing (got {times[i]!r} after {times[i - 1]!r})",
            )
            ok = False
    if horizon is not None and times and not math.isclose(times[-1], horizon, rel_tol=1e-9, abs_tol=1e-12):
        bad("load.breakpoints[-1]", f"last time must equal the horizon {horizon!r}")
        ok = False
    return tuple(pts) if ok else None


def _outcome(data):
    """The validated scenario and no issues, or None and every issue."""
    try:
        return validate(data), []
    except ScenarioValidationError as exc:
        return None, list(exc.issues)


def _scenario(horizon, breakpoints) -> dict:
    return {
        "name": "s",
        "horizon": horizon,
        "load": {"breakpoints": breakpoints},
        "plants": [{"id": "a", "q2": 0.001, "q1": 0.1, "q0": 0.0}],
    }


@settings(max_examples=600, deadline=None)
@given(raw_scenarios())
@example(_scenario(1.0, [[0, 1.0], [1, True]]))
@example(_scenario(1.0, [[0, 1.0], [0, 2.0], [1, 3.0]]))
@example(_scenario(1.0, [[-0.0, -0.0], [1.0 + 0.99e-9, 2**64 + 1]]))
@example(_scenario(1.0, [[0, 10**400], [1, float("nan")], [1, "2"]]))
@example(_scenario(-1.0, [[0, 1.0], [5, 2.0]]))
@example(_scenario(1.0, [[0, 1.0], [1.0 + 1.01e-9, 2.0]]))
@example(_scenario(1.0, [[0, 1.0], [1, float("inf")]]))
@example(_scenario(1.0, [[5e-324, 1.0], [1, 2.0]]))
@example(_scenario(1.0, [[0, 1.0], [1, -5e-324]]))
def test_validate_matches_per_item_reference(data):
    got, got_issues = _outcome(data)
    with mock.patch.object(scenario, "_validate_load", ref_validate_load):
        want, want_issues = _outcome(data)
    assert got_issues == want_issues
    assert got == want
    if got is None or isinstance(got.load, AffineLoad):
        return
    curve, ref_curve = got.load_curve(), want.load_curve()
    assert curve.times.tobytes() == ref_curve.times.tobytes()
    assert curve.powers.tobytes() == ref_curve.powers.tobytes()
    assert not curve.times.flags.writeable and not curve.powers.flags.writeable
    assert hash(got) == hash(want)
