"""Per-driver cost computation, affine cost curves, and crossover points.

Every function's cost on a platform decomposes into five driver subtotals
(invocation, compute, state, data transfer, BaaS) that add up exactly to the
total. Costs are affine in request volume, which makes break-even analysis
between two platforms a closed-form intersection of two lines.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from typing import Iterable, Mapping

from .catalog import DriverCategory, PlatformCatalog, RateUnit
from .errors import DomainError, MissingLatencyError, UnknownComponentError, UnknownPlatformError
from .money import CONTEXT, dec, div, money_product, quantize_money
from .workflow import FunctionProfile, LatencyTable, Placement, WorkflowSpec

ZERO = Decimal(0)

#: Column order of breakdown reports.
DRIVER_FIELDS = ("invocation", "compute", "baas", "transfer", "state")


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


def transfer_cost(
    n: Decimal, r_in: Decimal, p_in: Decimal, r_out: Decimal, p_out: Decimal
) -> Decimal:
    """Volume-based transfer price: n * (r_in * p_in + r_out * p_out)."""
    _require_nonneg(n=n, r_in=r_in, p_in=p_in, r_out=r_out, p_out=p_out)
    inbound = CONTEXT.multiply(r_in, p_in)
    outbound = CONTEXT.multiply(r_out, p_out)
    return money_product(n, inbound + outbound)


def baas_cost(
    t_fixed: Decimal, p_fixed: Decimal, n: Decimal, r: Decimal, p_dynamic: Decimal
) -> Decimal:
    """Backing services: t_fixed * p_fixed + n * r * p_dynamic."""
    _require_nonneg(t_fixed=t_fixed, p_fixed=p_fixed, n=n, r=r, p_dynamic=p_dynamic)
    return quantize_money(money_product(t_fixed, p_fixed) + money_product(n, r, p_dynamic))


@dataclass(frozen=True)
class CostBreakdown:
    """Driver subtotals plus exact total for one costed entity."""

    invocation: Decimal
    compute: Decimal
    state: Decimal
    transfer: Decimal
    baas: Decimal
    total: Decimal

    @classmethod
    def build(cls, invocation, compute, state, transfer, baas) -> "CostBreakdown":
        return cls(
            invocation=invocation,
            compute=compute,
            state=state,
            transfer=transfer,
            baas=baas,
            total=invocation + compute + state + transfer + baas,
        )

    @classmethod
    def zero(cls) -> "CostBreakdown":
        return cls.build(ZERO, ZERO, ZERO, ZERO, ZERO)

    def __add__(self, other: "CostBreakdown") -> "CostBreakdown":
        return CostBreakdown.build(
            self.invocation + other.invocation,
            self.compute + other.compute,
            self.state + other.state,
            self.transfer + other.transfer,
            self.baas + other.baas,
        )

    def as_dict(self) -> dict[str, Decimal]:
        return {
            "invocation": self.invocation,
            "compute": self.compute,
            "baas": self.baas,
            "transfer": self.transfer,
            "state": self.state,
            "total": self.total,
        }


_SHARE_QUANTUM = Decimal("0.000001")


def driver_shares(breakdown: CostBreakdown) -> dict[str, Decimal]:
    """Each driver's share of the total, as a percentage."""
    if breakdown.total == 0:
        return {name: ZERO for name in DRIVER_FIELDS}
    hundred = Decimal(100)
    return {
        name: CONTEXT.quantize(
            div(CONTEXT.multiply(getattr(breakdown, name), hundred), breakdown.total),
            _SHARE_QUANTUM,
        )
        for name in DRIVER_FIELDS
    }


@dataclass(frozen=True)
class ComponentCharge:
    """One catalog component's contribution to a function's cost."""

    component_id: str
    driver: DriverCategory
    description: str
    amount: Decimal


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
    latency_ms: Decimal | None = None,
    volume: Decimal | int | str | None = None,
) -> list[ComponentCharge]:
    """Itemize one function's cost per catalog component, in catalog order.

    ``volume`` overrides the profile's request count. Platforms priced per
    request-millisecond (space layer) additionally need the function's mean
    latency; that combined charge lands in the invocation driver.
    """
    n = profile.n if volume is None else dec(volume)
    _require_nonneg(n=n)
    charges: list[ComponentCharge] = []

    def charge(comp, amount: Decimal) -> None:
        charges.append(ComponentCharge(comp.id, comp.driver, comp.description, amount))

    t = profile.compute_time_on(catalog.platform_id)
    stored = profile.stored_gb(n)
    for comp in catalog.components:
        if comp.driver is DriverCategory.INVOCATION:
            if comp.unit is RateUnit.PER_MS_PER_REQUEST:
                if latency_ms is None:
                    raise MissingLatencyError(profile.function_id, catalog.platform_id)
                _require_nonneg(latency_ms=latency_ms)
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
            charge(comp, money_product(usage.quantity, comp.rate))
        elif comp.driver is DriverCategory.BAAS_DYNAMIC:
            charge(comp, money_product(n, usage.quantity, comp.rate))
        else:
            raise UnknownComponentError(
                f"component {comp.id!r} has driver {comp.driver.value}; "
                "baas_usage may only reference BaaS components"
            )
    return charges


def function_cost(
    profile: FunctionProfile,
    catalog: PlatformCatalog,
    *,
    latency_ms: Decimal | None = None,
    volume: Decimal | int | str | None = None,
) -> CostBreakdown:
    """Cost of one function on one platform for one billing month."""
    subtotal = {"invocation": ZERO, "compute": ZERO, "state": ZERO, "transfer": ZERO, "baas": ZERO}
    for item in component_charges(profile, catalog, latency_ms=latency_ms, volume=volume):
        subtotal[_DRIVER_FIELD[item.driver]] += item.amount
    return CostBreakdown.build(
        quantize_money(subtotal["invocation"]),
        quantize_money(subtotal["compute"]),
        quantize_money(subtotal["state"]),
        quantize_money(subtotal["transfer"]),
        quantize_money(subtotal["baas"]),
    )


def _resolve_catalog(catalogs: Mapping[str, PlatformCatalog], platform_id: str) -> PlatformCatalog:
    try:
        return catalogs[platform_id]
    except KeyError:
        raise UnknownPlatformError(f"no catalog loaded for platform {platform_id!r}") from None


def function_latency(
    profile: FunctionProfile, catalog: PlatformCatalog, latencies: LatencyTable | None
) -> Decimal | None:
    if not catalog.per_ms_priced:
        return None
    if latencies is None:
        raise MissingLatencyError(profile.function_id, catalog.platform_id)
    return latencies.get(profile.function_id, catalog.platform_id)


def per_function_costs(
    workflow: WorkflowSpec,
    placement: Placement,
    catalogs: Mapping[str, PlatformCatalog],
    *,
    latencies: LatencyTable | None = None,
    volume: Decimal | int | str | None = None,
) -> dict[str, CostBreakdown]:
    """Breakdown per function under a placement, in declaration order."""
    out: dict[str, CostBreakdown] = {}
    for profile in workflow.functions:
        catalog = _resolve_catalog(catalogs, placement.platform_for(profile.function_id))
        latency_ms = function_latency(profile, catalog, latencies)
        out[profile.function_id] = function_cost(
            profile, catalog, latency_ms=latency_ms, volume=volume
        )
    return out


def fixed_charges(
    profile: FunctionProfile, catalog: PlatformCatalog
) -> list[tuple[tuple[str, str], Decimal, Decimal]]:
    """((platform_id, component_id), months, rate) for each fixed BaaS entry the profile uses."""
    charges = []
    for usage in profile.baas_usage:
        if not usage.applies_to(catalog.platform_id):
            continue
        comp = catalog.component(usage.component_id)
        if comp.driver is DriverCategory.BAAS_FIXED:
            charges.append(((catalog.platform_id, comp.id), usage.quantity, comp.rate))
    return charges


def shared_fixed_credit(
    charges: Iterable[tuple[tuple[str, str], Decimal, Decimal]],
) -> Decimal:
    """What per-function pricing over-bills for fixed charges shared on one platform.

    Each function is priced as if it paid a fixed monthly charge alone. When
    several functions on the same platform use one, it is billed once, for
    the longest availability window any of them asks for; the rest is credited.
    """
    months_used: dict[tuple[str, str], list[Decimal]] = {}
    rates: dict[tuple[str, str], Decimal] = {}
    for key, months, rate in charges:
        months_used.setdefault(key, []).append(months)
        rates[key] = rate
    credit = ZERO
    for key, months in months_used.items():
        if len(months) > 1:
            credit += money_product(sum(months) - max(months), rates[key])
    return credit


def workflow_cost(
    workflow: WorkflowSpec,
    placement: Placement,
    catalogs: Mapping[str, PlatformCatalog],
    *,
    latencies: LatencyTable | None = None,
    volume: Decimal | int | str | None = None,
) -> CostBreakdown:
    """Element-wise sum of per-function breakdowns, less the shared fixed-charge credit."""
    parts = per_function_costs(
        workflow, placement, catalogs, latencies=latencies, volume=volume
    )
    total = CostBreakdown.zero()
    for piece in parts.values():
        total = total + piece

    charges = []
    for profile in workflow.functions:
        catalog = _resolve_catalog(catalogs, placement.platform_for(profile.function_id))
        charges += fixed_charges(profile, catalog)
    credit = shared_fixed_credit(charges)
    if credit:
        total = CostBreakdown.build(
            total.invocation, total.compute, total.state, total.transfer, total.baas - credit
        )
    return total


@dataclass(frozen=True)
class CostCurve:
    """Affine cost in request volume: evaluate(n) = fixed + slope * n."""

    fixed: Decimal
    slope: Decimal  # USD per request

    def __post_init__(self):
        _require_nonneg(fixed=self.fixed, slope=self.slope)

    def evaluate(self, n: Decimal | int | str) -> Decimal:
        n = dec(n)
        _require_nonneg(n=n)
        return quantize_money(self.fixed + CONTEXT.multiply(self.slope, n))


def function_cost_curve(
    profile: FunctionProfile,
    catalog: PlatformCatalog,
    *,
    latency_ms: Decimal | None = None,
) -> CostCurve:
    """Cost-vs-volume line for one function on one platform."""
    fixed = function_cost(profile, catalog, latency_ms=latency_ms, volume=0).total
    at_one = function_cost(profile, catalog, latency_ms=latency_ms, volume=1).total
    return CostCurve(fixed=fixed, slope=at_one - fixed)


def workflow_cost_curve(
    workflow: WorkflowSpec,
    placement: Placement,
    catalogs: Mapping[str, PlatformCatalog],
    *,
    latencies: LatencyTable | None = None,
) -> CostCurve:
    """Cost-vs-volume line for a whole placement."""
    fixed = workflow_cost(workflow, placement, catalogs, latencies=latencies, volume=0).total
    at_one = workflow_cost(workflow, placement, catalogs, latencies=latencies, volume=1).total
    return CostCurve(fixed=fixed, slope=at_one - fixed)


@dataclass(frozen=True)
class CrossoverPoint:
    """Volume where two cost lines intersect, and the cost there."""

    n_star: Decimal  # requests
    cost: Decimal

    @property
    def n_star_millions(self) -> Decimal:
        return div(self.n_star, Decimal(10**6))


#: Sentinel crossover result: the two curves are the same line (every volume ties).
COINCIDENT_CURVES = object()


def crossover(a: CostCurve, b: CostCurve) -> CrossoverPoint | object | None:
    """Intersection of two cost lines at nonnegative volume.

    Parallel distinct lines never meet (None); identical lines meet
    everywhere (COINCIDENT_CURVES); an intersection in negative volume lies
    outside the domain and also yields None.
    """
    if a.slope == b.slope:
        return COINCIDENT_CURVES if a.fixed == b.fixed else None
    n_star = div(b.fixed - a.fixed, a.slope - b.slope)
    if n_star < 0:
        return None
    return CrossoverPoint(n_star=n_star, cost=a.evaluate(n_star))
