"""Exception hierarchy shared by all cosmos modules."""

from __future__ import annotations


class CosmosError(Exception):
    """Base class for every error raised by this package.

    ``exit_code`` is the command line's exit status for the error: 2 for
    invalid input, 3 for a failed computation, 4 for an infeasible
    optimization.
    """

    exit_code = 3


# --- catalog validation -------------------------------------------------

class SchemaError(CosmosError):
    """A document is missing required content or carries unknown fields."""

    exit_code = 2


class UnitError(CosmosError):
    """Illegal driver/unit pairing or unsupported rate scale."""

    exit_code = 2


class DuplicateIdError(CosmosError):
    """Two components in one catalog share an id."""

    exit_code = 2


class NegativeRateError(CosmosError, ValueError):
    """A price or quantity that must be nonnegative is negative."""

    exit_code = 2


# --- workflow validation ------------------------------------------------

class CycleError(CosmosError):
    """The workflow edge relation contains a cycle."""

    exit_code = 2


class UnknownFunctionError(CosmosError):
    """An edge, placement, latency entry or usage-log row names an undeclared function."""

    exit_code = 2


class UnknownPlatformError(CosmosError):
    """A placement or flag references a platform with no loaded catalog."""

    exit_code = 2


class MissingLatencyError(CosmosError):
    """A required (function, platform) latency entry is absent."""

    exit_code = 2

    def __init__(self, function_id: str, platform_id: str):
        self.function_id = function_id
        self.platform_id = platform_id
        super().__init__(f"no latency entry for ({function_id}, {platform_id})")


# --- cost computation ---------------------------------------------------

class DomainError(CosmosError):
    """A cost operation received an input outside its domain."""


class UnknownComponentError(CosmosError):
    """A profile references a component id absent from the active catalog."""

    exit_code = 2


class UnplacedFunctionError(CosmosError):
    """A placement does not assign a platform to every workflow function."""

    exit_code = 2


# --- optimization -------------------------------------------------------

class CapExceededError(CosmosError):
    """Exhaustive enumeration would exceed the configured cap."""

    def __init__(self, count: int, cap: int):
        self.count = count
        self.cap = cap
        super().__init__(f"enumeration would generate {count} placements (cap {cap})")


class DegenerateAnchorError(CosmosError):
    """An anchor minimum is zero, so its reciprocal weight is undefined."""


class InfeasibleError(CosmosError):
    """No placement satisfies both the budget and the latency constraint."""

    exit_code = 4

    def __init__(self, c_star, t_star, budget=None, latency_slo=None, diagnostics=None):
        self.c_star = c_star
        self.t_star = t_star
        self.budget = budget
        self.latency_slo = latency_slo
        self.diagnostics = dict(diagnostics or {})
        parts = [f"minimum achievable cost C*={c_star}", f"minimum achievable latency T*={t_star}"]
        if budget is not None:
            parts.append(f"budget={budget}")
        if latency_slo is not None:
            parts.append(f"latency_slo={latency_slo}")
        super().__init__("no feasible placement: " + ", ".join(parts))


# --- telemetry ----------------------------------------------------------

class HeaderError(CosmosError):
    """Usage-log header row does not match the declared schema."""

    exit_code = 2


class RowError(CosmosError):
    """One usage-log row is malformed."""

    exit_code = 2

    def __init__(self, line: int, cause: str):
        self.line = line
        self.cause = cause
        super().__init__(f"row {line}: {cause}")


class NoDataError(CosmosError):
    """A usage log has no data rows to aggregate."""
