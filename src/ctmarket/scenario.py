"""Declarative scenario schema: validation and engine-input construction.

A scenario is plain structured data (the file format is JSON with the same
field names) describing the market cycle: the load trajectory, the plant
fleet and run options.  ``validate`` turns raw data into a checked
:class:`Scenario`, collecting every violation with its field path instead
of failing on the first.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Mapping

import numpy as np

from .cost import QuadraticCost
from .curves import LoadCurve
from .dispatch import Plant
from .errors import DomainError, ScenarioValidationError, ValidationIssue
from .pricing import DEFAULT_M_FLOOR_FRACTION
from .tolerances import HORIZON_ABS_TOL, HORIZON_REL_TOL

__all__ = [
    "AffineLoad",
    "Options",
    "Scenario",
    "validate",
    "builtin_case_study",
]

MECHANISMS = ("spot", "duration")


@dataclass(frozen=True)
class AffineLoad:
    base: float
    slope: float


@dataclass(frozen=True)
class Options:
    m_floor: float | None = None  # None -> DEFAULT_M_FLOOR_FRACTION * horizon
    allow_clamp: bool = False
    mechanisms: tuple[str, ...] = MECHANISMS


@dataclass(frozen=True)
class Scenario:
    """A validated scenario; immutable after construction.

    A breakpoint ``load`` is held as its :class:`LoadCurve`, the two
    read-only arrays of times and powers; ``(time, power)`` pairs passed in
    are made into one.  ``plants`` holds the engine's :class:`Plant`
    objects, built once by ``validate``.
    """

    name: str
    horizon: float
    load: AffineLoad | LoadCurve
    plants: tuple[Plant, ...]
    options: Options = field(default_factory=Options)

    def __post_init__(self) -> None:
        if not isinstance(self.load, (AffineLoad, LoadCurve)):
            object.__setattr__(self, "load", LoadCurve(self.load))

    def load_curve(self) -> LoadCurve:
        if isinstance(self.load, AffineLoad):
            return LoadCurve([
                (0.0, self.load.base),
                (self.horizon, self.load.base + self.load.slope * self.horizon),
            ])
        return self.load

    def plant_objects(self) -> list[Plant]:
        return list(self.plants)

    def resolved_m_floor(self) -> float:
        """``options.m_floor``, else ``DEFAULT_M_FLOOR_FRACTION * horizon``.

        Raises :class:`DomainError` naming the horizon when that default
        underflows to 0 (a horizon below about 1e-318).
        """
        if self.options.m_floor is not None:
            return self.options.m_floor
        m_floor = DEFAULT_M_FLOOR_FRACTION * self.horizon
        if m_floor == 0.0:
            raise DomainError(
                f"horizon: {self.horizon!r} is too small for duration pricing: the default "
                f"m_floor = {DEFAULT_M_FLOOR_FRACTION!r} * horizon underflows to 0; set options.m_floor"
            )
        return m_floor

    def to_dict(self) -> dict[str, Any]:
        """Serialize to the scenario file schema (inverse of ``validate``)."""
        if isinstance(self.load, AffineLoad):
            load: dict[str, Any] = {"affine": {"base": self.load.base, "slope": self.load.slope}}
        else:
            load = {"breakpoints": [[t, p] for t, p in self.load.breakpoints]}
        plants = []
        for p in self.plants:
            entry: dict[str, Any] = {"id": p.id, "q2": p.cost.q2, "q1": p.cost.q1, "q0": p.cost.q0}
            if p.p_min != 0.0:
                entry["p_min"] = p.p_min
            if p.p_max is not None:
                entry["p_max"] = p.p_max
            plants.append(entry)
        out: dict[str, Any] = {
            "name": self.name,
            "horizon": self.horizon,
            "load": load,
            "plants": plants,
        }
        opts: dict[str, Any] = {}
        if self.options.m_floor is not None:
            opts["m_floor"] = self.options.m_floor
        if self.options.allow_clamp:
            opts["allow_clamp"] = True
        if self.options.mechanisms != MECHANISMS:
            opts["mechanisms"] = list(self.options.mechanisms)
        if opts:
            out["options"] = opts
        return out


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------


# The exact types of a plain breakpoint load, made into an array at C speed;
# anything else, a bool or a float subclass included, goes item by item.
_PAIR_TYPES = frozenset({list, tuple})
_NUMBER_TYPES = frozenset({int, float})


def _is_number(x: Any) -> bool:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an int too large for a float
        return False


# Characters that break a report line or a CSV cell: the comma, the control
# characters (Unicode category Cc: newline, tab, ...) and the line and
# paragraph separators.
_UNSAFE_ID_CHARS = "[,\x00-\x1f\x7f-\x9f\u2028\u2029]"


def _is_safe_id(pid: str) -> bool:
    return re.search(_UNSAFE_ID_CHARS, pid) is None


def validate(data: Mapping[str, Any]) -> Scenario:
    """Validate raw scenario data; collect every violation before failing.

    Raises :class:`ScenarioValidationError` carrying one
    :class:`ValidationIssue` (field path + violated condition) per problem.

    A breakpoint load is checked in one pass: it becomes one float array
    (items that are not pairs of finite numbers as NaN rows), and each
    breakpoint rule runs once on that array and names its own problems.
    """
    issues: list[ValidationIssue] = []

    def bad(path: str, message: str) -> None:
        issues.append(ValidationIssue(path, message))

    if not isinstance(data, Mapping):
        raise ScenarioValidationError([ValidationIssue("$", "scenario must be an object")])

    known = {"name", "horizon", "load", "plants", "options"}
    for key in data:
        if key not in known:
            bad(str(key), "unknown field")

    name = data.get("name")
    if not isinstance(name, str) or not name:
        bad("name", "must be a non-empty string")
        name = ""

    horizon = data.get("horizon")
    if not _is_number(horizon) or horizon <= 0:
        bad("horizon", "must be a finite number > 0")
        horizon = None

    load = _validate_load(data.get("load"), horizon, bad)
    plants = _validate_plants(data.get("plants"), bad)
    options = _validate_options(data.get("options"), horizon, bad)

    if issues:
        raise ScenarioValidationError(issues)
    assert load is not None and horizon is not None
    return Scenario(
        name=name,
        horizon=float(horizon),
        load=load,
        plants=tuple(plants),
        options=options,
    )


def _validate_load(raw: Any, horizon: float | None, bad) -> AffineLoad | LoadCurve | None:
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
    return _check_breakpoints(bps, horizon, bad)


def _ends_at_horizon(t_last: float, horizon: float) -> bool:
    return math.isclose(t_last, horizon, rel_tol=HORIZON_REL_TOL, abs_tol=HORIZON_ABS_TOL)


def _pair(item: Any) -> tuple[float, float]:
    """``item`` as a ``(time, power)`` pair of finite floats, else NaNs."""
    if isinstance(item, (list, tuple)) and len(item) == 2 and all(_is_number(v) for v in item):
        return float(item[0]), float(item[1])
    return math.nan, math.nan


def _check_breakpoints(bps: list | tuple, horizon: float | None, bad) -> LoadCurve | None:
    """The load curve of ``bps``, or None after reporting every problem.

    A plain load becomes one float array in one ``np.fromiter``; any other
    goes item by item, an item that is not a pair of finite numbers as NaNs.
    Each rule then runs once on the array: the items first, at most one
    message each; only if all pass, the first, increasing and last times.
    """
    flat = None
    if (
        _PAIR_TYPES.issuperset(map(type, bps))
        and set(map(len, bps)) == {2}
        and _NUMBER_TYPES.issuperset(map(type, chain.from_iterable(bps)))
    ):
        try:
            flat = np.fromiter(chain.from_iterable(bps), dtype=float, count=2 * len(bps))
        except OverflowError:  # an int too large for a float
            pass
    if flat is None:
        flat = np.fromiter(chain.from_iterable(map(_pair, bps)), dtype=float, count=2 * len(bps))
    times, powers = flat[0::2], flat[1::2]
    not_pair = ~(np.isfinite(times) & np.isfinite(powers))
    failed = np.flatnonzero(not_pair | (powers < 0.0)).tolist()
    for i in failed:
        bad(
            f"load.breakpoints[{i}]",
            "must be a [time, power] pair of finite numbers" if not_pair[i] else "power must be >= 0",
        )
    if failed:
        return None
    ok = times[0] == 0.0
    if not ok:
        bad("load.breakpoints[0]", "first time must be 0")
    for i in (np.flatnonzero(times[1:] <= times[:-1]) + 1).tolist():
        got, after = float(times[i]), float(times[i - 1])
        bad(f"load.breakpoints[{i}]", f"times must be strictly increasing (got {got!r} after {after!r})")
        ok = False
    if horizon is not None and not _ends_at_horizon(float(times[-1]), horizon):
        bad("load.breakpoints[-1]", f"last time must equal the horizon {horizon!r}")
        ok = False
    return LoadCurve(times=times, powers=powers) if ok else None


def _validate_plants(raw: Any, bad) -> list[Plant]:
    """The plants of ``raw``; a :class:`Plant` is built only once every
    check on its fields has passed, so its constructors never raise."""
    if not isinstance(raw, (list, tuple)) or not raw:
        bad("plants", "must be a non-empty list")
        return []
    out: list[Plant] = []
    seen: set[str] = set()
    for i, item in enumerate(raw):
        path = f"plants[{i}]"
        if not isinstance(item, Mapping):
            bad(path, "must be an object")
            continue
        for key in item:
            if key not in ("id", "q2", "q1", "q0", "p_min", "p_max"):
                bad(f"{path}.{key}", "unknown field")
        pid = item.get("id")
        if not isinstance(pid, str) or not pid:
            bad(f"{path}.id", "must be a non-empty string")
            pid = f"<plants[{i}]>"
        elif pid in seen:
            bad(f"{path}.id", f"duplicate plant id {pid!r}")
        else:
            seen.add(pid)
            if not _is_safe_id(pid):
                bad(f"{path}.id", f"must not contain a comma or a control character (got {pid!r})")
        ok = True
        q2 = item.get("q2")
        if not _is_number(q2) or q2 <= 0:
            bad(f"{path}.q2", f"must be > 0 for strict convexity (plant {pid!r})")
            ok = False
        elif not math.isfinite(1.0 / (2.0 * q2)):
            bad(f"{path}.q2", f"too small: 1/(2*q2) overflows the float range (plant {pid!r})")
            ok = False
        q1 = item.get("q1")
        if not _is_number(q1) or q1 < 0:
            bad(f"{path}.q1", f"must be a finite number >= 0 (plant {pid!r})")
            ok = False
        q0 = item.get("q0")
        if not _is_number(q0) or q0 < 0:
            bad(f"{path}.q0", f"must be a finite number >= 0 (plant {pid!r})")
            ok = False
        p_min = item.get("p_min", 0.0)
        if not _is_number(p_min) or p_min < 0:
            bad(f"{path}.p_min", f"must be a finite number >= 0 (plant {pid!r})")
            ok = False
        p_max = item.get("p_max")
        if p_max is not None:
            if not _is_number(p_max):
                bad(f"{path}.p_max", f"must be a finite number (plant {pid!r})")
                ok = False
            elif _is_number(p_min) and p_max < p_min:
                bad(f"{path}.p_max", f"must be >= p_min (plant {pid!r})")
                ok = False
        if ok:
            out.append(
                Plant(
                    id=pid, cost=QuadraticCost(q2=float(q2), q1=float(q1), q0=float(q0)),
                    p_min=float(p_min), p_max=None if p_max is None else float(p_max),
                )
            )
    return out


def _validate_options(raw: Any, horizon: float | None, bad) -> Options:
    if raw is None:
        return Options()
    if not isinstance(raw, Mapping):
        bad("options", "must be an object")
        return Options()
    for key in raw:
        if key not in ("m_floor", "allow_clamp", "mechanisms"):
            bad(f"options.{key}", "unknown field")
    m_floor = raw.get("m_floor")
    if m_floor is not None:
        if not _is_number(m_floor) or m_floor <= 0 or (horizon is not None and m_floor >= horizon):
            bad("options.m_floor", "must be a number in (0, horizon)")
            m_floor = None
        elif horizon is not None and horizon - m_floor == horizon:
            bad("options.m_floor", f"too small: horizon - m_floor rounds to the horizon {horizon!r}")
            m_floor = None
    allow_clamp = raw.get("allow_clamp", False)
    if not isinstance(allow_clamp, bool):
        bad("options.allow_clamp", "must be a boolean")
        allow_clamp = False
    mechanisms = raw.get("mechanisms")
    if mechanisms is None:
        mechs = MECHANISMS
    elif (
        isinstance(mechanisms, (list, tuple))
        and mechanisms
        and all(m in MECHANISMS for m in mechanisms)
    ):
        mechs = tuple(dict.fromkeys(mechanisms))
    else:
        bad("options.mechanisms", f"must be a non-empty subset of {list(MECHANISMS)}")
        mechs = MECHANISMS
    return Options(
        m_floor=None if m_floor is None else float(m_floor),
        allow_clamp=allow_clamp,
        mechanisms=mechs,
    )


def builtin_case_study() -> Scenario:
    """Three-plant regression scenario: affine load, doubling cost tiers.

    Load 350 * (1 + 2t) MW over a 1 h cycle against low-, medium- and
    high-cost plants whose coefficients double down the merit order.
    """
    return Scenario(
        name="case-study",
        horizon=1.0,
        load=AffineLoad(base=350.0, slope=700.0),
        plants=(
            Plant(id="plant1", cost=QuadraticCost(q2=0.0005, q1=0.07, q0=0.2)),
            Plant(id="plant2", cost=QuadraticCost(q2=0.001, q1=0.14, q0=0.4)),
            Plant(id="plant3", cost=QuadraticCost(q2=0.002, q1=0.28, q0=0.8)),
        ),
    )
