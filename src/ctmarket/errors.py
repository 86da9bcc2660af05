"""Exception types shared across the engine."""

from __future__ import annotations

from dataclasses import dataclass


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class UnsupportedOperationError(RuntimeError):
    """The operation is not defined for this input shape.

    Raised e.g. when inverting a non-monotone trajectory or requesting
    duration pricing for a bound-clamped dispatch.
    """


class NumericError(ArithmeticError):
    """A non-finite value was encountered during numerical evaluation.

    ``abscissa`` is where, when known; ``row`` is which row of a row-valued
    integrand, None for a single one.
    """

    def __init__(self, message: str, abscissa: float | None = None, row: int | None = None) -> None:
        super().__init__(message)
        self.abscissa = abscissa
        self.row = row

    @classmethod
    def out_of_range(cls, what: str, abscissa: float | None = None) -> NumericError:
        """``what`` is not finite because the inputs exceed the float range."""
        return cls(f"{what} is not finite: the scenario's numbers exceed the float range", abscissa)


class InfeasibleDispatchError(RuntimeError):
    """Unconstrained dispatch violates a capacity bound (or demand is unservable)."""

    def __init__(
        self,
        message: str,
        *,
        plant: str | None = None,
        interval: tuple[float, float] | None = None,
        bound: float | None = None,
        kind: str = "capacity",
    ) -> None:
        super().__init__(message)
        self.plant = plant
        self.interval = interval
        self.bound = bound
        self.kind = kind


class UndefinedPriceError(RuntimeError):
    """A unit energy price was requested for a block carrying no energy."""


@dataclass(frozen=True)
class ValidationIssue:
    """One scenario-validation diagnostic: a field path plus the violated condition."""

    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}: {self.message}"


class ScenarioValidationError(ValueError):
    """Scenario data violates one or more invariants; carries every diagnostic."""

    def __init__(self, issues) -> None:
        issues = tuple(issues)
        super().__init__("; ".join(str(i) for i in issues))
        self.issues = issues
