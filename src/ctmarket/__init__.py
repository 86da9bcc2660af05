"""Continuous-time electricity market engine.

Solves quadratic-cost economic dispatch against a continuous piecewise-linear
load trajectory, derives prices under two mechanisms -- the instantaneous
marginal-cost (spot) price and the load-duration price obtained from a
first-order linear ODE -- and settles per-plant cost, revenue and profit
under both.
"""

from .cost import QuadraticCost
from .curves import LoadCurve, MeasureFunction, duration_curve
from .dispatch import (
    ClampEvent,
    DispatchCost,
    DispatchSolution,
    Plant,
    dispatch_cost,
    solve_equilibrium,
)
from .errors import (
    DomainError,
    InfeasibleDispatchError,
    NumericError,
    ScenarioValidationError,
    UndefinedPriceError,
    UnsupportedOperationError,
    ValidationIssue,
)
from .pricing import (
    DurationPrice,
    duration_price,
    duration_price_from_curve,
    spot_price,
    unit_energy_price_duration,
    unit_energy_price_spot,
)
from .quadrature import (
    DEFAULT_CONFIG,
    QuadratureConfig,
    lebesgue_energy,
    lebesgue_integrate,
    riemann_integrate,
)
from .scenario import (
    AffineLoad,
    Options,
    Scenario,
    builtin_case_study,
    validate,
)
from .settlement import (
    PlantSettlement,
    SettlementReport,
    ValueSegment,
    settle_duration,
    settle_spot,
    value_decomposition,
)

__version__ = "0.1.0"

__all__ = [
    "AffineLoad",
    "ClampEvent",
    "DEFAULT_CONFIG",
    "DispatchCost",
    "DispatchSolution",
    "DomainError",
    "DurationPrice",
    "InfeasibleDispatchError",
    "LoadCurve",
    "MeasureFunction",
    "NumericError",
    "Options",
    "Plant",
    "PlantSettlement",
    "QuadraticCost",
    "QuadratureConfig",
    "Scenario",
    "ScenarioValidationError",
    "SettlementReport",
    "UndefinedPriceError",
    "UnsupportedOperationError",
    "ValidationIssue",
    "ValueSegment",
    "builtin_case_study",
    "dispatch_cost",
    "duration_curve",
    "duration_price",
    "duration_price_from_curve",
    "lebesgue_energy",
    "lebesgue_integrate",
    "riemann_integrate",
    "settle_duration",
    "settle_spot",
    "solve_equilibrium",
    "spot_price",
    "unit_energy_price_duration",
    "unit_energy_price_spot",
    "validate",
    "value_decomposition",
]
