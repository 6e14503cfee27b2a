"""Per-driver cost computation, affine cost curves, and crossover points.

Every function's cost on a platform decomposes into five driver subtotals
(invocation, compute, state, data transfer, BaaS) that add up exactly to the
total. Costs are affine in request volume, which makes break-even analysis
between two platforms a closed-form intersection of two lines.
"""

from __future__ import annotations

import decimal
from dataclasses import dataclass
from decimal import Decimal
from typing import Iterable, Mapping, NamedTuple

from .catalog import DriverCategory, PlatformCatalog, RateUnit
from .errors import DomainError, MissingLatencyError, UnknownComponentError, UnknownPlatformError
from .money import (
    CONTEXT,
    dec,
    div,
    exact_add,
    exact_sum_error,
    exact_sums,
    money_product,
    quantize_money,
)
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
        """The subtotals and their exact total; DomainError when the total
        needs more digits than money.CONTEXT carries."""
        with exact_sums("a cost total"):
            total = invocation + compute + state + transfer + baas
        return cls(
            invocation=invocation,
            compute=compute,
            state=state,
            transfer=transfer,
            baas=baas,
            total=total,
        )

    @classmethod
    def fold(cls, charges: Iterable["ComponentCharge"]) -> "CostBreakdown":
        """One function's breakdown: its charges summed exactly per driver,
        each subtotal quantized, and their exact total; DomainError when a
        sum needs more digits than money.CONTEXT carries. It runs once per
        itemized function, so it adds through money.exact_add rather than
        entering exact_sums, which copies a context."""
        subtotals = [ZERO] * len(_FIELDS)
        add = exact_add
        try:
            for item in charges:
                slot = _DRIVER_SLOT[item.driver]
                subtotals[slot] = add(subtotals[slot], item.amount)
            parts = [quantize_money(subtotal) for subtotal in subtotals]
            total = ZERO
            for part in parts:
                total = add(total, part)
        except decimal.Inexact:
            raise exact_sum_error("a function's cost") from None
        # What the frozen __init__ would store, written to the instance
        # dict rather than through one object.__setattr__ per field.
        self = object.__new__(cls)
        fields = self.__dict__
        (fields["invocation"], fields["compute"], fields["state"],
         fields["transfer"], fields["baas"]) = parts
        fields["total"] = total
        return self

    @classmethod
    def combine(cls, parts: Iterable["CostBreakdown"], credit: Decimal = ZERO) -> "CostBreakdown":
        """A workflow's breakdown: its functions' breakdowns summed exactly
        per driver, less the shared fixed-charge credit on BaaS."""
        parts = list(parts)
        with exact_sums("a workflow's driver subtotal"):
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


class ComponentCharge(NamedTuple):
    """One catalog component's contribution to a function's cost. A named
    tuple, not a dataclass: the engine builds one per charge."""

    component_id: str
    driver: DriverCategory
    amount: Decimal
    #: A fixed BaaS charge's bill_fixed entry: ((platform_id, component_id), months, rate).
    fixed: tuple[tuple[str, str], Decimal, Decimal] | None = None


#: Position in _FIELDS of the CostBreakdown field receiving each driver's charges.
_DRIVER_SLOT = {
    DriverCategory.INVOCATION: 0,
    DriverCategory.COMPUTE: 1,
    DriverCategory.STATE_MANAGEMENT: 2,
    DriverCategory.DATA_TRANSFER: 3,
    DriverCategory.BAAS_FIXED: 4,
    DriverCategory.BAAS_DYNAMIC: 4,
}

# Enum members that component_charges compares against, bound once: an
# Enum attribute lookup costs several times the compare.
_INVOCATION = DriverCategory.INVOCATION
_COMPUTE = DriverCategory.COMPUTE
_STATE = DriverCategory.STATE_MANAGEMENT
_TRANSFER = DriverCategory.DATA_TRANSFER
_BAAS_FIXED = DriverCategory.BAAS_FIXED
_BAAS_DYNAMIC = DriverCategory.BAAS_DYNAMIC
_PER_MS = RateUnit.PER_MS_PER_REQUEST
_PER_GB_IN = RateUnit.PER_GB_IN
_PER_GB_OUT = RateUnit.PER_GB_OUT


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
    an item carries its bill_fixed entry. Rates and workload quantities are
    nonnegative by construction, so only ``volume`` is checked here.
    """
    n = profile.n if volume is None else dec(volume)
    if n < 0:
        _require_nonneg(n=n)
    pid = catalog.platform_id
    t = profile.compute_time_on(pid)
    mem = profile.mem
    stored = profile.stored_gb(n)
    charges: list[ComponentCharge] = []
    for comp in catalog.components:
        driver, unit, rate = comp.driver, comp.unit, comp.rate
        if driver is _INVOCATION:
            if unit is _PER_MS:
                if latencies is None:
                    raise MissingLatencyError(profile.function_id, pid)
                amount = money_product(n, latencies.get(profile.function_id, pid), rate)
            else:
                amount = money_product(n, rate)
        elif driver is _COMPUTE:
            amount = money_product(n, t, mem, rate)
        elif driver is _STATE:
            amount = money_product(stored, rate)
        elif driver is _TRANSFER:
            if unit is _PER_GB_IN:
                amount = money_product(n, profile.r_in, rate)
            elif unit is _PER_GB_OUT:
                amount = money_product(n, profile.r_out, rate)
            else:
                # Per-operation read/retrieval charges: one unit per request.
                amount = money_product(n, rate)
        else:
            continue
        charges.append(ComponentCharge(comp.id, driver, amount))

    for usage in profile.baas_usage:
        if not usage.applies_to(pid):
            continue
        comp = catalog.component(usage.component_id)
        driver = comp.driver
        if driver is _BAAS_FIXED:
            fixed = ((pid, comp.id), usage.quantity, comp.rate)
            charges.append(
                ComponentCharge(comp.id, driver, money_product(usage.quantity, comp.rate), fixed)
            )
        elif driver is _BAAS_DYNAMIC:
            charges.append(
                ComponentCharge(comp.id, driver, money_product(n, usage.quantity, comp.rate))
            )
        else:
            raise UnknownComponentError(
                f"component {comp.id!r} has driver {driver.value}; "
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


def bill_key(held: tuple | None, months: Decimal, rate: Decimal) -> tuple:
    """One (platform, component) key's ledger entry (see bill_fixed), (sum of
    months, their first maximum, credit term), after billing ``months`` at
    ``rate`` on ``held``, its entry so far or None; the term is None until
    the key's second billing. The one rule for a fixed charge's credit term."""
    if held is None:
        return (0 + months, months, None)
    total, most = held[0] + months, max(held[1], months)
    return (total, most, money_product(total - most, rate))


def bill_fixed(
    ledger: Mapping, credit: Decimal, fixed: Iterable[tuple[tuple[str, str], Decimal, Decimal]]
) -> tuple[dict, Decimal]:
    """The shared fixed-charge ledger and credit after billing ``fixed`` entries.

    Each function is priced as if it paid its fixed monthly charges alone.
    When several functions on one platform use one, it is billed once, for
    the longest availability window any of them asks for; the rest is
    credited. ``ledger`` maps each (platform, component) key, billed at one
    rate, to the sum and the first maximum of its months and, once billed
    twice, its money_product(sum - max, rate) credit term, in first-billed
    order (see bill_key). The credit is those terms summed in that order; it
    changes only when a key is billed again. Fold from ({}, ZERO);
    ``ledger`` is not modified. Callers sum under money.exact_sums.
    """
    ledger = dict(ledger)
    shared = False
    for key, months, rate in fixed:
        held = ledger.get(key)
        ledger[key] = bill_key(held, months, rate)
        if held is not None:
            shared = True
    if shared:
        credit = ZERO
        for _, _, term in ledger.values():
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
        fixed = [c.fixed for c in charges if c.fixed]
        if fixed:
            with exact_sums("a shared fixed-charge credit"):
                ledger, credit = bill_fixed(ledger, credit, fixed)
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
        """The cost at volume n: one fused multiply-add under CONTEXT, so
        rounded at most once at 50 digits, then quantized to money."""
        n = dec(n)
        _require_nonneg(n=n)
        return quantize_money(CONTEXT.fma(self.slope, n, self.fixed))


def function_cost_curve(
    profile: FunctionProfile,
    catalog: PlatformCatalog,
    *,
    latencies: LatencyTable | None = None,
) -> CostCurve:
    """Cost-vs-volume line for one function on one platform."""
    fixed = function_cost(profile, catalog, latencies=latencies, volume=0).total
    at_one = function_cost(profile, catalog, latencies=latencies, volume=1).total
    return CostCurve(fixed=fixed, slope=CONTEXT.subtract(at_one, fixed))


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
    return CostCurve(fixed=fixed, slope=CONTEXT.subtract(at_one, fixed))


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
    # Both lines are money-quantized, so their differences are exact in CONTEXT.
    n_star = div(CONTEXT.subtract(b.fixed, a.fixed), CONTEXT.subtract(a.slope, b.slope))
    if n_star < 0:
        return None
    return CrossoverPoint(n_star=n_star, cost=a.evaluate(n_star))
