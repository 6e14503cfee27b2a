"""The plain pricing kernel, kept as the oracle for the engine's fast one.

``component_charges``, ``money_product`` and ``fold`` below are the engine's
and the money module's kernel written the straightforward way: a frozen
dataclass per charge, every factor checked through ``_require_nonneg``,
``money_product`` as ``exact`` then ``quantize_money``, and one
``exact_sums`` block per fold. tests/test_engine.py requires the package's
kernel to return the same values, with the same reprs, and to raise the same
errors, with the same messages, on every drawn input. Its driver
primitives (``invocation_cost``, ``compute_cost``, ``state_cost``) are the
published per-driver formulas that tests/test_engine.py checks directly.

``validate_catalog`` lists every violation of a rate card's rules, in the
order they are checked; tests/test_catalog.py requires ``PlatformCatalog``
to raise the first of them, with its class and message, or to build when
there is none.
"""

from __future__ import annotations

import decimal
from dataclasses import dataclass
from decimal import Decimal
from typing import Iterable

from cosmos.catalog import (
    ALLOWED_UNITS,
    DriverCategory,
    Layer,
    PlatformCatalog,
    PriceComponent,
    RateUnit,
)
from cosmos.engine import CostBreakdown
from cosmos.errors import (
    DomainError,
    DuplicateIdError,
    MissingLatencyError,
    NegativeRateError,
    SchemaError,
    UnitError,
    UnknownComponentError,
)
from cosmos.money import CONTEXT, MONEY_LIMIT, dec, exact_sums, quantize_money
from cosmos.workflow import FunctionProfile, LatencyTable

ZERO = Decimal(0)
_FIELDS = ("invocation", "compute", "state", "transfer", "baas")


# --- catalog ----------------------------------------------------------------


@dataclass(frozen=True)
class ValidationIssue:
    """One rate-card rule violation found by validate_catalog."""

    kind: str  # "schema" | "unit" | "value" | "duplicate-id"
    component_id: str | None
    message: str


#: The error PlatformCatalog raises for each kind of issue.
ISSUE_EXC = {
    "schema": SchemaError,
    "unit": UnitError,
    "value": NegativeRateError,
    "duplicate-id": DuplicateIdError,
}


def validate_catalog(
    platform_id: str,
    layer: Layer,
    components: tuple[PriceComponent, ...],
    hypothetical: bool = False,
    currency: str = "USD",
) -> list[ValidationIssue]:
    """Every violation of a card with PlatformCatalog's arguments, in the
    order they are checked; an empty list means the card is valid."""
    issues: list[ValidationIssue] = []
    if not components:
        issues.append(ValidationIssue("schema", None, "catalog declares no components"))
    seen: set[str] = set()
    for comp in components:
        if comp.id in seen:
            issues.append(ValidationIssue("duplicate-id", comp.id, f"duplicate id {comp.id!r}"))
        seen.add(comp.id)
        if comp.unit not in ALLOWED_UNITS[comp.driver]:
            issues.append(
                ValidationIssue(
                    "unit",
                    comp.id,
                    f"driver {comp.driver.value} cannot be priced {comp.unit.value}",
                )
            )
        if comp.unit == RateUnit.PER_MS_PER_REQUEST and layer is not Layer.SPACE:
            issues.append(
                ValidationIssue(
                    "unit",
                    comp.id,
                    f"{comp.unit.value} is only legal on Space-layer platforms",
                )
            )
        if not comp.rate.is_finite():
            issues.append(
                ValidationIssue(
                    "schema", comp.id, f"component {comp.id!r}: rate must be finite, got {comp.rate}"
                )
            )
        elif comp.rate < 0:
            issues.append(ValidationIssue("value", comp.id, f"negative rate {comp.rate}"))
    if components:
        # A per-request-millisecond invocation rate folds compute into the
        # invocation price, so it satisfies both presence requirements.
        has_combined = any(
            c.driver is DriverCategory.INVOCATION and c.unit is RateUnit.PER_MS_PER_REQUEST
            for c in components
        )
        if not any(c.driver is DriverCategory.INVOCATION for c in components):
            issues.append(ValidationIssue("schema", None, "no Invocation component"))
        if not has_combined and not any(c.driver is DriverCategory.COMPUTE for c in components):
            issues.append(ValidationIssue("schema", None, "no Compute component"))
    if currency != "USD":
        issues.append(ValidationIssue("schema", None, f"unsupported currency {currency!r}"))
    return issues


# --- money ------------------------------------------------------------------


def exact(*factors: Decimal) -> Decimal:
    """Multiply factors under the high-precision context; DomainError when
    the product overflows it."""
    out = Decimal(1)
    try:
        for f in factors:
            out = CONTEXT.multiply(out, f)
    except decimal.Overflow:
        raise _out_of_range(" * ".join(map(str, factors))) from None
    return out


def _out_of_range(amount) -> DomainError:
    return DomainError(
        f"amount {amount} is out of range: money amounts must be below {MONEY_LIMIT}"
    )


def money_product(*factors: Decimal) -> Decimal:
    """Multiply factors and quantize the result to the money quantum."""
    return quantize_money(exact(*factors))


# --- engine -----------------------------------------------------------------


def _require_nonneg(**values: Decimal) -> None:
    for name, value in values.items():
        if value < 0:
            raise DomainError(f"{name} must be >= 0, got {value}")


def invocation_cost(n: Decimal, p_inv: Decimal) -> Decimal:
    """Fixed price per request: n * p_inv."""
    _require_nonneg(n=n, p_inv=p_inv)
    return money_product(n, p_inv)


def compute_cost(n: Decimal, t: Decimal, mem: Decimal, p_gbs: Decimal) -> Decimal:
    """Duration-based price: n * t * mem * p_gbs (GB-seconds at a GB-second rate)."""
    _require_nonneg(n=n, t=t, mem=mem, p_gbs=p_gbs)
    return money_product(n, t, mem, p_gbs)


def state_cost(d: Decimal, p_state: Decimal) -> Decimal:
    """Storage retention for one billing month: d * p_state."""
    _require_nonneg(d=d, p_state=p_state)
    return money_product(d, p_state)


def fold(charges: Iterable["ComponentCharge"]) -> CostBreakdown:
    """One function's breakdown: its charges summed exactly per driver,
    each subtotal quantized, and their exact total, in one exact_sums
    block (build would open a second)."""
    cls = CostBreakdown
    subtotal = dict.fromkeys(_FIELDS, ZERO)
    with exact_sums("a function's cost"):
        for item in charges:
            subtotal[_DRIVER_FIELD[item.driver]] += item.amount
        parts = [quantize_money(subtotal[name]) for name in _FIELDS]
        return cls(*parts, total=sum(parts, ZERO))


@dataclass(frozen=True)
class ComponentCharge:
    """One catalog component's contribution to a function's cost."""

    component_id: str
    driver: DriverCategory
    amount: Decimal
    #: A fixed BaaS charge's bill_fixed entry: ((platform_id, component_id), months, rate).
    fixed: tuple[tuple[str, str], Decimal, Decimal] | None = None


#: CostBreakdown field receiving each driver's charges.
_DRIVER_FIELD = {
    DriverCategory.INVOCATION: "invocation",
    DriverCategory.COMPUTE: "compute",
    DriverCategory.STATE_MANAGEMENT: "state",
    DriverCategory.DATA_TRANSFER: "transfer",
    DriverCategory.BAAS_FIXED: "baas",
    DriverCategory.BAAS_DYNAMIC: "baas",
}


def component_charges(
    profile: FunctionProfile,
    catalog: PlatformCatalog,
    *,
    latencies: LatencyTable | None = None,
    volume: Decimal | int | str | None = None,
) -> list[ComponentCharge]:
    """Itemize one function's cost per catalog component, in catalog order.

    ``volume`` overrides the profile's request count. A component priced per
    request-millisecond (space layer) also bills the function's mean latency
    on the platform, looked up in ``latencies``; that combined charge lands in
    the invocation driver. Raises MissingLatencyError for such a component
    when the table has no entry for the pair, or when no table is given.
    This is the one place that decides a BaaS usage is a fixed charge; such
    an item carries its bill_fixed entry.
    """
    n = profile.n if volume is None else dec(volume)
    _require_nonneg(n=n)
    charges: list[ComponentCharge] = []

    def charge(comp, amount: Decimal, fixed=None) -> None:
        charges.append(ComponentCharge(comp.id, comp.driver, amount, fixed))

    t = profile.compute_time_on(catalog.platform_id)
    stored = profile.stored_gb(n)
    for comp in catalog.components:
        if comp.driver is DriverCategory.INVOCATION:
            if comp.unit is RateUnit.PER_MS_PER_REQUEST:
                if latencies is None:
                    raise MissingLatencyError(profile.function_id, catalog.platform_id)
                latency_ms = latencies.get(profile.function_id, catalog.platform_id)
                charge(comp, money_product(n, latency_ms, comp.rate))
            else:
                charge(comp, invocation_cost(n, comp.rate))
        elif comp.driver is DriverCategory.COMPUTE:
            charge(comp, compute_cost(n, t, profile.mem, comp.rate))
        elif comp.driver is DriverCategory.STATE_MANAGEMENT:
            charge(comp, state_cost(stored, comp.rate))
        elif comp.driver is DriverCategory.DATA_TRANSFER:
            if comp.unit is RateUnit.PER_GB_IN:
                charge(comp, money_product(n, profile.r_in, comp.rate))
            elif comp.unit is RateUnit.PER_GB_OUT:
                charge(comp, money_product(n, profile.r_out, comp.rate))
            else:
                # Per-operation read/retrieval charges: one unit per request.
                charge(comp, money_product(n, comp.rate))

    for usage in profile.baas_usage:
        if not usage.applies_to(catalog.platform_id):
            continue
        comp = catalog.component(usage.component_id)
        if comp.driver is DriverCategory.BAAS_FIXED:
            fixed = ((catalog.platform_id, comp.id), usage.quantity, comp.rate)
            charge(comp, money_product(usage.quantity, comp.rate), fixed)
        elif comp.driver is DriverCategory.BAAS_DYNAMIC:
            charge(comp, money_product(n, usage.quantity, comp.rate))
        else:
            raise UnknownComponentError(
                f"component {comp.id!r} has driver {comp.driver.value}; "
                "baas_usage may only reference BaaS components"
            )
    return charges
