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
#: Argument order of CostBreakdown.build.
_FIELDS = ("invocation", "compute", "state", "transfer", "baas")


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
    def fold(cls, charges: Iterable["ComponentCharge"]) -> "CostBreakdown":
        """One function's breakdown: its charges summed per driver, each subtotal quantized."""
        subtotal = dict.fromkeys(_FIELDS, ZERO)
        for item in charges:
            subtotal[_DRIVER_FIELD[item.driver]] += item.amount
        return cls.build(*[quantize_money(subtotal[name]) for name in _FIELDS])

    @classmethod
    def combine(cls, parts: Iterable["CostBreakdown"], credit: Decimal = ZERO) -> "CostBreakdown":
        """A workflow's breakdown: its functions' breakdowns summed per driver,
        less the shared fixed-charge credit on BaaS."""
        parts = list(parts)
        sums = [sum((getattr(part, name) for part in parts), ZERO) for name in _FIELDS]
        if credit:
            sums[-1] -= credit  # baas
        return cls.build(*sums)

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
        charges.append(ComponentCharge(comp.id, comp.driver, comp.description, amount, fixed))

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


def function_cost(
    profile: FunctionProfile,
    catalog: PlatformCatalog,
    *,
    latencies: LatencyTable | None = None,
    volume: Decimal | int | str | None = None,
) -> CostBreakdown:
    """Cost of one function on one platform for one billing month."""
    return CostBreakdown.fold(
        component_charges(profile, catalog, latencies=latencies, volume=volume)
    )


def bill_fixed(
    ledger: Mapping, credit: Decimal, fixed: Iterable[tuple[tuple[str, str], Decimal, Decimal]]
) -> tuple[dict, Decimal]:
    """The shared fixed-charge ledger and credit after billing ``fixed`` entries.

    Each function is priced as if it paid its fixed monthly charges alone.
    When several functions on one platform use one, it is billed once, for
    the longest availability window any of them asks for; the rest is
    credited. ``ledger`` maps each (platform, component) key to the sum and
    the first maximum of its months, its last rate and, once billed twice,
    its money_product(sum - max, rate) credit term, in first-billed order.
    The credit is those terms summed in that order; it changes only when a
    key is billed again. Fold from ({}, ZERO); ``ledger`` is not modified.
    """
    ledger = dict(ledger)
    shared = False
    for key, months, rate in fixed:
        held = ledger.get(key)
        if held is None:
            ledger[key] = (0 + months, months, rate, None)
        else:
            total, most = held[0] + months, max(held[1], months)
            ledger[key] = (total, most, rate, money_product(total - most, rate))
            shared = True
    if shared:
        credit = ZERO
        for _, _, _, term in ledger.values():
            if term is not None:
                credit += term
    return ledger, credit


def placement_costs(
    workflow: WorkflowSpec,
    placement: Placement,
    catalogs: Mapping[str, PlatformCatalog],
    *,
    latencies: LatencyTable | None = None,
    volume: Decimal | int | str | None = None,
) -> tuple[dict[str, CostBreakdown], Decimal]:
    """Each function's breakdown under a placement, in declaration order, and
    the shared fixed-charge credit the placement earns. Each function is
    itemized once."""
    parts: dict[str, CostBreakdown] = {}
    ledger, credit = {}, ZERO
    for profile in workflow.functions:
        pid = placement.platform_for(profile.function_id)
        try:
            catalog = catalogs[pid]
        except KeyError:
            raise UnknownPlatformError(f"no catalog loaded for platform {pid!r}") from None
        charges = component_charges(profile, catalog, latencies=latencies, volume=volume)
        parts[profile.function_id] = CostBreakdown.fold(charges)
        ledger, credit = bill_fixed(ledger, credit, [c.fixed for c in charges if c.fixed])
    return parts, credit


def workflow_cost(
    workflow: WorkflowSpec,
    placement: Placement,
    catalogs: Mapping[str, PlatformCatalog],
    *,
    latencies: LatencyTable | None = None,
    volume: Decimal | int | str | None = None,
) -> CostBreakdown:
    """Element-wise sum of per-function breakdowns, less the shared fixed-charge credit."""
    parts, credit = placement_costs(
        workflow, placement, catalogs, latencies=latencies, volume=volume
    )
    return CostBreakdown.combine(parts.values(), credit)


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
    latencies: LatencyTable | None = None,
) -> CostCurve:
    """Cost-vs-volume line for one function on one platform."""
    fixed = function_cost(profile, catalog, latencies=latencies, volume=0).total
    at_one = function_cost(profile, catalog, latencies=latencies, volume=1).total
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
