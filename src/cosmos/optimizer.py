"""Placement search: anchors, auto-derived weights, and constrained optimization.

The search is exhaustive over all |platforms|^|functions| assignments (capped),
which keeps results exact and reproducible at the instance sizes this tool
targets. A placement is named by its enumeration index, whose base-|platforms|
digits are its platforms in argument order, one per function in declaration
order, the last function's lowest; equal (cost, latency) pairs keep the first.

One depth-first odometer (_combos) enumerates both blocks of functions: the
tail, the longest trailing run of at most half the functions (the one function
of a one-function workflow) that the rest of the workflow enters through one
function, priced once per solve into a table; and the head, the functions
before it. Each head prefix is answered from the table meet-in-the-middle
style, one add per axis per placement, unless an earlier prefix with the
same fixed-charge entries costs, takes and reaches the tail in no more: then
none of its placements can change an answer, and the walk only counts its
feasible ones. A prefix's shared fixed-charge credit
and each table group's change in it come from one memo of engine.bill_key,
the rule engine.bill_fixed applies, once per run of prefixes with the same
fixed-charge entries. The table adds sums in another order than enumeration
does, so a tail is used only when every sum of the search fits
money.CONTEXT's precision; otherwise, or with no tail, the head is every
function and the table holds one empty combination. The same digit guard
picks the walk's number type: when it passes, every sum is exact, so the
walk adds and compares Python ints, each axis scaled to its finest
exponent; otherwise it adds the model's Decimals, so that a sum past
CONTEXT's precision raises in enumeration order. The scope bounds either
each pair or the sums, so one test decides feasibility under both. The walk
compares values only: the model writes the digits reported for the chosen
placements, and when the walk raises, the model prices the failing prefix's
first placement, cost then latency, and its error, if any, is raised instead.

Weights default to the reciprocals of the two unconstrained anchors:
alpha = 1/C* (cheapest achievable cost) and beta = 1/T* (fastest achievable
latency), so cost and latency enter the objective equally normalized.
"""

from __future__ import annotations

import decimal
import math
from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass
from decimal import Decimal, localcontext
from operator import attrgetter
from pathlib import Path
from typing import IO, Iterable, Iterator, NamedTuple, Sequence

from .catalog import PlatformCatalog
from .engine import ZERO, CostBreakdown, bill_fixed, bill_key, component_charges
from .errors import (
    CapExceededError,
    DegenerateAnchorError,
    DomainError,
    InfeasibleError,
    MissingLatencyError,
    SchemaError,
)
from .money import CONTEXT, MONEY_LIMIT, MONEY_PLACES, div, exact_sums, money_product
from .workflow import (
    _ARRAY,
    LATENCY_LIMIT,
    LatencyTable,
    Placement,
    WorkflowSpec,
    _parse_quantity,
    _read_json,
    _typed,
    critical_path,
)

INFINITY = Decimal("Infinity")

_COST = attrgetter("cost")
_LATENCY = attrgetter("latency")

DEFAULT_ENUMERATION_CAP = 10**7


@dataclass(frozen=True, slots=True)
class ParetoPoint:
    """A labeled (cost, latency) alternative."""

    label: str
    cost: Decimal
    latency: Decimal

    def __post_init__(self):
        if self.cost < 0 or self.latency < 0:
            raise DomainError(f"point {self.label!r} has negative cost or latency")


def pareto_front(points: Iterable[ParetoPoint]) -> list[ParetoPoint]:
    """Points not weakly dominated by any other point, latency ascending.

    Duplicate (cost, latency) pairs collapse to the first by input order.
    The front is kept as parallel lists of latencies, costs and points
    (_slot, _insert), as the optimize walk keeps its own.
    """
    latencies: list = []
    costs: list = []
    front: list[ParetoPoint] = []
    for p in points:
        i = _slot(latencies, costs, p.cost, p.latency)
        if i >= 0:
            _insert(latencies, costs, front, i, p.cost, p.latency, p)
    return front


def _slot(latencies: list, costs: list, cost, latency) -> int:
    """Where (cost, latency) enters a front of parallel latencies (ascending)
    and costs (strictly descending), or -1 when a kept point weakly
    dominates it."""
    i = bisect_left(latencies, latency)
    # Only the cheapest kept point at or below the latency can dominate it:
    # the one at i when it ties on latency, else its lower-latency neighbour.
    rival = i if i < len(latencies) and latencies[i] == latency else i - 1
    if rival >= 0 and costs[rival] <= cost:
        return -1
    return i


def _insert(latencies: list, costs: list, items: list, i: int, cost, latency, item) -> None:
    """Put an undominated point at its slot i, replacing every kept point it
    dominates."""
    end = i
    while end < len(costs) and costs[end] >= cost:
        end += 1
    del latencies[i:end], costs[i:end], items[i:end]
    latencies.insert(i, latency)
    costs.insert(i, cost)
    items.insert(i, item)


def optimal_line(points: Iterable[ParetoPoint]) -> list[ParetoPoint]:
    """The efficient trade-off line: the lower convex frontier of the points.

    Stricter than pareto_front: a point additionally drops out when a convex
    mix of two other alternatives beats it on both axes (the line one would
    draw under the cloud of points). Always a subset of the front.
    """
    front = pareto_front(points)
    hull: list[ParetoPoint] = []
    for p in front:
        while len(hull) >= 2 and _turns_right(hull[-2], hull[-1], p):
            hull.pop()
        hull.append(p)
    return hull


#: CONTEXT wide enough that no product or difference of its results rounds.
_EXACT = CONTEXT.copy()
_EXACT.prec, _EXACT.Emax, _EXACT.Emin = decimal.MAX_PREC, decimal.MAX_EMAX, decimal.MIN_EMIN


def _turns_right(o: ParetoPoint, a: ParetoPoint, b: ParetoPoint) -> bool:
    """Whether o -> a -> b turns clockwise in the (latency, cost) plane, so
    that a lies above the segment from o to b: the cross product's sign,
    decided exactly by comparing its two products. DomainError when a
    coordinate difference is not exact in money.CONTEXT's precision."""
    with exact_sums("a trade-off line test"):
        run_a, rise_a = a.latency - o.latency, a.cost - o.cost
        run_b, rise_b = b.latency - o.latency, b.cost - o.cost
    return _EXACT.multiply(run_a, rise_b) < _EXACT.multiply(rise_a, run_b)


# --- placement evaluation models -------------------------------------------


class PairEntry(NamedTuple):
    """One function on one platform: cost, latency and the ledger entries of the
    fixed BaaS charges it bills (see engine.bill_fixed)."""

    cost: Decimal
    latency: Decimal
    fixed: tuple = ()


class PlacementModel:
    """A table of (function, platform) pairs, each priced once when built.

    A placement costs the sum of its pairs' costs less the shared
    fixed-charge credit, exactly as ``workflow_cost`` bills it; its latency
    is the critical path over its pairs' latencies. A pair not in the table
    raises MissingLatencyError.
    """

    def __init__(self, workflow: WorkflowSpec, table: Mapping[tuple[str, str], PairEntry]):
        self.workflow = workflow
        self.table = dict(table)

    def entry(self, function_id: str, platform_id: str) -> PairEntry:
        try:
            return self.table[(function_id, platform_id)]
        except KeyError:
            raise MissingLatencyError(function_id, platform_id) from None

    def cost_of(self, placement: Placement) -> Decimal:
        return _cost(self.entry(*pair) for pair in placement.resolve(self.workflow.function_ids))

    def latency_of(self, placement: Placement) -> Decimal:
        pairs = placement.resolve(self.workflow.function_ids)
        return critical_path(self.workflow, [self.entry(*pair).latency for pair in pairs])


def _cost(entries: Iterable[PairEntry]) -> Decimal:
    """Workflow cost of one pair per function: their exact sum less the shared
    fixed-charge credit."""
    total, ledger, credit = ZERO, {}, ZERO
    with exact_sums("a workflow cost"):
        for entry in entries:
            total += entry.cost
            if entry.fixed:
                ledger, credit = bill_fixed(ledger, credit, entry.fixed)
        return total - credit


class CatalogModel(PlacementModel):
    """Costs from rate cards; latencies from a measured latency table. Every
    pair is priced in function order, then sorted platform id; the first
    that cannot be priced raises."""

    def __init__(
        self,
        workflow: WorkflowSpec,
        catalogs: Mapping[str, PlatformCatalog],
        latencies: LatencyTable,
        volume: Decimal | int | str | None = None,
    ):
        table = {}
        for profile in workflow.functions:
            for pid in sorted(catalogs):
                charges = component_charges(
                    profile, catalogs[pid], latencies=latencies, volume=volume
                )
                table[(profile.function_id, pid)] = PairEntry(
                    CostBreakdown.fold(charges).total,
                    latencies.get(profile.function_id, pid),
                    tuple(c.fixed for c in charges if c.fixed),
                )
        super().__init__(workflow, table)


class PointTableModel(PlacementModel):
    """Direct per-(function, platform) cost and latency measurements."""

    def __init__(
        self, workflow: WorkflowSpec, table: Mapping[tuple[str, str], tuple[Decimal, Decimal]]
    ):
        super().__init__(
            workflow, {key: PairEntry(cost, latency) for key, (cost, latency) in table.items()}
        )


def load_point_table(
    source: str | Path | IO[str] | Mapping,
) -> dict[tuple[str, str], tuple[Decimal, Decimal]]:
    """Read a (function, platform) -> (cost, latency_ms) table document; a
    pair listed twice raises SchemaError naming it."""
    doc = _read_json(source)
    if not isinstance(doc, Mapping) or "points" not in doc:
        raise SchemaError("point table document must be an object with a points array")
    table: dict[tuple[str, str], tuple[Decimal, Decimal]] = {}
    for entry in _typed(doc["points"], _ARRAY, "points"):
        _typed(entry, Mapping, "points entries")
        for key in ("function_id", "platform_id", "cost", "latency_ms"):
            if key not in entry:
                raise SchemaError(f"point entry missing required field {key!r}")
        owner = f"point ({entry['function_id']}, {entry['platform_id']})"
        pair = (str(entry["function_id"]), str(entry["platform_id"]))
        if pair in table:
            raise SchemaError(f"{owner} is listed twice")
        cost = _parse_quantity(entry, "cost", owner)
        latency = _parse_quantity(entry, "latency_ms", owner)
        if cost < 0 or latency < 0:
            raise SchemaError(f"{owner} must be nonnegative")
        if cost >= MONEY_LIMIT:
            raise SchemaError(f"{owner}: cost must be below {MONEY_LIMIT} USD, got {cost}")
        if latency >= LATENCY_LIMIT:
            raise SchemaError(f"{owner}: latency_ms must be below {LATENCY_LIMIT} ms, got {latency}")
        table[pair] = (cost, latency)
    return table


# --- search rows and weights ------------------------------------------------


def _rows(workflow: WorkflowSpec, platforms: Sequence[str], pick) -> list[list]:
    """One row per function, in declaration order, of ``pick(function_id,
    platform_id)`` over the platforms in argument order. Raises DomainError
    for no platforms and CapExceededError past DEFAULT_ENUMERATION_CAP
    placements before any pick is made."""
    platforms = list(platforms)
    if not platforms:
        raise DomainError("at least one platform is required")
    total = len(platforms) ** len(workflow.functions)
    if total > DEFAULT_ENUMERATION_CAP:
        raise CapExceededError(total, DEFAULT_ENUMERATION_CAP)
    return [[pick(fid, pid) for pid in platforms] for fid in workflow.function_ids]


def auto_weights(c_star: Decimal, t_star: Decimal) -> tuple[Decimal, Decimal]:
    """alpha = 1/C*, beta = 1/T*; undefined when an anchor is zero."""
    if c_star == 0 or t_star == 0:
        raise DegenerateAnchorError(
            f"anchors must be positive to derive weights (C*={c_star}, T*={t_star})"
        )
    return div(Decimal(1), c_star), div(Decimal(1), t_star)


# --- constrained weighted optimization ---------------------------------------

SCOPES = ("workflow", "per_function")


@dataclass(frozen=True)
class OptimizationConfig:
    """Budget/latency constraints, constraint scope, and the weights: alpha
    and beta when given, else auto_weights of the anchors."""

    budget: Decimal | None = None
    latency_slo: Decimal | None = None
    alpha: Decimal | None = None
    beta: Decimal | None = None
    scope: str = "workflow"

    def __post_init__(self):
        if self.budget is not None and self.budget <= 0:
            raise DomainError("budget must be > 0")
        if self.latency_slo is not None and self.latency_slo <= 0:
            raise DomainError("latency_slo must be > 0")
        if self.scope not in SCOPES:
            raise DomainError(f"scope must be one of {SCOPES}")
        if self.alpha is not None or self.beta is not None:
            if self.alpha is None or self.beta is None:
                raise DomainError("manual weighting requires alpha and beta")
            if self.alpha < 0 or self.beta < 0:
                raise DomainError("manual weights must be >= 0")
            if self.alpha == 0 and self.beta == 0:
                raise DomainError("manual weights must not both be zero")


@dataclass(frozen=True)
class OptimizationResult:
    best: Placement
    cost: Decimal
    latency: Decimal
    objective: float
    alpha: float
    beta: float
    c_star: Decimal
    t_star: Decimal
    c_star_placement: Placement
    t_star_placement: Placement
    feasible_count: int
    total_count: int
    counters: SearchCounters


def optimize(
    workflow: WorkflowSpec,
    platforms: Sequence[str],
    model: PlacementModel,
    config: OptimizationConfig | None = None,
) -> OptimizationResult:
    """Minimize alpha*cost + beta*latency over feasible placements.

    One depth-first walk over the model's rows (one per function in
    declaration order, its pairs in platform order) covers every placement
    once, in enumeration index order (see _placement and _walk): it
    enumerates the head prefixes and answers each from the tail table. The
    walk finds the anchors, the cheapest and the fastest placement, the
    first enumerated winning ties, and folds each feasible placement that
    can be on the front into a Pareto front of bare (cost, latency,
    enumeration index) points; only the chosen placements get a Placement.
    The walk compares values only, in scaled ints when the digit guard
    passes (see _walk); the reported cost, latency, C* and T* are the
    model's cost_of and latency_of of the chosen placements, so they keep
    the digits of each placement priced whole. Under the per_function
    scope a placement is feasible when each of its pairs is within the
    budget and SLO. The best is the front member with the least
    (a*cost + b*latency, cost), compared exactly, where a, b = alpha, beta,
    or T*, C* for auto weights (cost/C* + latency/T* times C*·T*, so no
    division); a and b are scaled by the front's exponents, so that its
    ints weigh as the amounts they stand for. The key never rises when
    cost or latency falls, so a front member minimizes it over all feasible
    placements; equal pairs keep the first enumerated placement. The
    result's counters say what the walk did. Raises DomainError when a
    sum is not exact in money.CONTEXT's precision or a credit passes the
    money limit, with the error of enumeration's first failing cost_of or
    latency_of, then DegenerateAnchorError for auto weights with a zero
    anchor, then InfeasibleError carrying the anchors when no placement is
    feasible.
    """
    config = config or OptimizationConfig()
    platforms = list(platforms)
    rows = _rows(workflow, platforms, model.entry)
    with exact_sums("a cost or latency sum of the search"):
        found = _walk(workflow, rows, platforms, config)
    c_arg = _placement(workflow, platforms, found.c_arg)
    t_arg = _placement(workflow, platforms, found.t_arg)
    c_star, t_star = model.cost_of(c_arg), model.latency_of(t_arg)
    costs, latencies = found.costs, found.latencies

    if config.alpha is None:
        alpha, beta = auto_weights(c_star, t_star)
        a, b = t_star, c_star
    else:
        alpha, beta = a, b = config.alpha, config.beta
    if not costs:
        diagnostics = {
            "min_cost_placement": str(c_arg),
            "min_time_placement": str(t_arg),
        }
        if config.budget is not None:
            diagnostics["cost_gap"] = max(ZERO, c_star - config.budget)
        if config.latency_slo is not None:
            diagnostics["latency_gap"] = max(ZERO, t_star - config.latency_slo)
        raise InfeasibleError(
            c_star, t_star, config.budget, config.latency_slo, diagnostics
        )

    # The front is latency ascending and cost strictly descending, so each
    # later member is slower and cheaper than the best so far: it takes
    # over when its key is no higher, that is when the latency it adds
    # weighs no more than the cost it saves, compared exactly. Scaling the
    # weights by the front's exponents weighs its ints as the amounts they
    # stand for.
    best = 0
    with localcontext(_EXACT):
        a, b = a.scaleb(found.cost_exponent), b.scaleb(found.latency_exponent)
        for k in range(1, len(costs)):
            if b * (latencies[k] - latencies[best]) <= a * (costs[best] - costs[k]):
                best = k
    best_arg = _placement(workflow, platforms, found.indices[best])
    cost, latency = model.cost_of(best_arg), model.latency_of(best_arg)
    objective = CONTEXT.multiply(alpha, cost) + CONTEXT.multiply(beta, latency)
    return OptimizationResult(
        best=best_arg,
        cost=cost,
        latency=latency,
        objective=float(objective),
        alpha=float(alpha),
        beta=float(beta),
        c_star=c_star,
        t_star=t_star,
        c_star_placement=c_arg,
        t_star_placement=t_arg,
        feasible_count=found.counters.feasible,
        total_count=len(platforms) ** len(rows),
        counters=found.counters,
    )


class SearchCounters(NamedTuple):
    """What one optimize walk did: the placements it visited and the feasible
    ones, the head prefixes and tail table entries that make them up, the
    table's fixed-charge groups, how many prefix ledgers it priced (a run of
    prefixes with the same fixed-charge entries is priced once), whether it
    searched in scaled ints (see _exact_in_any_order), and how many head
    prefixes an earlier prefix dominated, so that the walk only counted
    their feasible placements (see _walk)."""

    placements: int
    feasible: int
    head_prefixes: int
    tail_entries: int
    groups: int
    ledgers_priced: int
    integer_search: bool
    dominated_prefixes: int


class _Found(NamedTuple):
    """What one walk finds: the enumeration indices of both anchors (the
    first enumerated winning ties), the feasible Pareto front as parallel
    lists of costs, latencies (ascending) and enumeration indices, whose
    costs and latencies are ints times 10 to cost_exponent and
    latency_exponent when the walk searched in ints (else Decimals, and
    both exponents 0), and its counters. Only the chosen placements get a
    Placement."""

    c_arg: int
    t_arg: int
    costs: list
    latencies: list
    indices: list[int]
    cost_exponent: int
    latency_exponent: int
    counters: SearchCounters


def _placement(workflow: WorkflowSpec, platforms: list[str], index: int) -> Placement:
    """The placement of enumeration index ``index``: its base-|platforms|
    digits, one per function in declaration order, the last function's
    lowest, pick its platforms in argument order. The walk visits the
    indices in ascending order, so this is the search's enumeration order."""
    digits = _digits(index, len(workflow.functions), len(platforms))
    return Placement(tuple((fid, platforms[c]) for fid, c in zip(workflow.function_ids, digits)))


def _digits(index: int, count: int, width: int) -> list[int]:
    """The count lowest base-width digits of index, the lowest last."""
    digits = [0] * count
    for k in range(count - 1, -1, -1):
        index, digits[k] = divmod(index, width)
    return digits


#: How many earlier head prefixes the walk keeps to test a prefix's
#: dominance against (see _walk).
_KEPT = 8


def _walk(
    workflow: WorkflowSpec,
    rows: list[list[PairEntry]],
    platforms: list[str],
    config: OptimizationConfig,
) -> _Found:
    """Visit every placement once, in enumeration index order (_placement).

    The tail (see _tail_size) is enumerated once per solve by _combos into a
    table, one _Entry (cost sum, longest path from the tail's entry function
    s, whether every pair is within the pair bounds, group) per combination:
    combinations whose pairs bill equal fixed-charge entries, concatenated
    in declaration order, share a group, and () is one too. The head, the
    functions before the tail, is enumerated by the same odometer. Each head
    prefix bills its fixed-charge entries through the solve's _Billed memo,
    as engine.bill_fixed bills them, for its ledger and credit, and each
    group's credit is that credit plus the group's change in it on top of
    the prefix's ledger (change); a group billing no key of the ledger
    keeps its change on an empty ledger, computed once per solve.
    Prefixes in a row with the same entries share one pricing of their
    ledger. Each group's paid sum is the prefix's cost sum less the group's
    credit. A placement costs its group's paid sum plus its entry's cost;
    its latency is the longer of the prefix's critical path and the
    distance into s plus the entry's path. Each is an anchor candidate and,
    when feasible, counted and offered to the front, under its enumeration
    index: the prefix's first index plus the entry's. The front is parallel
    lists of latencies, costs and indices (_slot, _insert).

    A prefix whose cost sum, critical path (top) and distance into s (base)
    are each at least those of a prefix the walk keeps is dominated: with
    the same ledger, so the same credits, each of its placements costs and
    takes no less than the kept prefix's with the same entry, which is
    feasible whenever it is and enumerated first. Neither anchor changes on
    a tie, and the front keeps the first of equal points, so the dominated
    prefix only counts its feasible placements (when it is within the pair
    bounds with top <= slo). The walk keeps up to _KEPT prefixes of the
    current ledger run, most recently used first, each within the pair
    bounds with top <= slo, and drops those a newly kept one dominates; a
    new ledger empties it. A skipped placement is never the first negative
    point: the kept prefix's placement with its entry is feasible, no
    dearer and enumerated first. Nor can a skipped sum raise: only the
    Decimal search's can, and there the table is one empty combination,
    whose adds are exact, while the prefix's own sums still run.

    When _exact_in_any_order passes, every sum of the search is an exact
    integer add: each axis is scaled to its _exponent, each credit term
    when _Billed prices it, and the budget and SLO become the floor of the
    scaled bound, so the front holds ints. Otherwise the same loop runs on
    the model's Decimals. When no tail qualifies, which needs a
    declaration order that is not topological, or when the guard fails,
    the head is every function, so each sum is formed in enumeration order,
    and the table holds one empty combination: cost zero, path -Infinity
    (zero in a workflow of no functions), within the bounds, group ().
    """
    budget = INFINITY if config.budget is None else config.budget
    slo = INFINITY if config.latency_slo is None else config.latency_slo
    # The scope decides what the budget and SLO bound, each pair or the
    # sums; the other is bounded by Infinity.
    pair_budget = pair_slo = INFINITY
    if config.scope == "per_function":
        pair_budget, pair_slo, budget, slo = budget, slo, INFINITY, INFINITY

    def change(ledger: dict, fixed: tuple) -> Decimal | int:
        """The change in ledger's credit when fixed is billed on top of it
        (engine.bill_key). A key that fixed bills twice is chained through
        its first billing, which is priced only then."""
        delta, chained = zero, {}
        for key, months, rate in fixed:
            prior = chained.get(key)
            held = ledger.get(key) if prior is None else billed[prior]
            memo = chained[key] = (held, months, rate)
            if held is not None:
                after = billed[memo]
                delta += after[3] if held[3] is None else after[3] - held[3]
        return delta

    exact = _exact_in_any_order(rows)
    head = len(rows) - _tail_size(workflow) if exact else len(rows)
    money = duration = _same
    zero, infinity, ec, el = ZERO, INFINITY, 0, 0
    if exact:
        ec, el = _exponent(rows, _COST), _exponent(rows, _LATENCY)
        zero, infinity = 0, math.inf
        budget, slo = _floor(budget, ec), _floor(slo, el)

        def money(amount: Decimal) -> int:
            return _scaled(amount, ec)

        def duration(amount: Decimal) -> int:
            return _scaled(amount, el)

    billed = _Billed(money)
    # Each entry becomes its _Pair in place: one row structure per solve.
    for row in rows:
        for j, e in enumerate(row):
            within = e.cost <= pair_budget and e.latency <= pair_slo
            row[j] = _Pair(money(e.cost), duration(e.latency), e.fixed, within, e)
    # Every tail function is reached from s, so s comes first in topological
    # order.
    preds = next((preds for i, preds in workflow._topology if i >= head), ())
    index: dict = {}
    table = [
        _Entry(cost, top, within, index.setdefault(fixed, len(index)))
        for cost, fixed, within, top, _ in _combos(
            workflow, rows, head, len(rows), zero, infinity
        )
    ]
    groups = list(index)
    # A group's change on top of a ledger that holds none of its keys is its
    # change on an empty ledger, its own: only the groups billing a key of a
    # prefix's ledger are repriced for it.
    own = [change({}, group) for group in groups]
    billing: dict = {}
    for g, group in enumerate(groups):
        for key, _, _ in group:
            billing.setdefault(key, []).append(g)
    paid_of = [zero] * len(groups)
    costs: list = []
    latencies: list = []
    indices: list[int] = []
    # Earlier prefixes of the ledger run that were within the pair bounds
    # with top <= slo, most recently used first.
    kept: list[_Held] = []
    # Anchors start at the first placement, so one is found even when every
    # placement is infinite on an axis.
    c_star = t_star = infinity
    c_arg = t_arg = feasible = first = priced = dominated = 0
    last = credits = None
    try:
        for prefix_cost, fixed, within, top, dist in _combos(
            workflow, rows, 0, head, zero, infinity
        ):
            if fixed is not last:
                # Emptied first, so that the kept prefixes are not held
                # while the new ledger is priced.
                kept.clear()
                # The credit is the ledger's terms summed in first-billed
                # order.
                ledger, credit = {}, zero
                for key, months, rate in fixed:
                    ledger[key] = billed[(ledger.get(key), months, rate)]
                for _, _, _, term in ledger.values():
                    if term is not None:
                        credit += term
                credits = [credit + d if d else credit for d in own]
                for g in {g for key in ledger for g in billing.get(key, ())}:
                    d = change(ledger, groups[g])
                    credits[g] = credit + d if d else credit
                last = fixed
                priced += 1
            for g, c in enumerate(credits):
                paid_of[g] = prefix_cost - c
            base = max([dist[q] for q in preds], default=zero)
            useful = within and top <= slo
            for k, held in enumerate(kept):
                if held.cost <= prefix_cost and held.top <= top and held.base <= base:
                    # Each placement of this prefix costs and takes at least
                    # its kept prefix's with the same entry, which is
                    # feasible whenever it is and enumerated first: it can
                    # change neither anchor nor the front, only the count.
                    if k:
                        kept.insert(0, kept.pop(k))
                    dominated += 1
                    if useful:
                        for e in table:
                            if e.inside and paid_of[e.group] + e.cost <= budget and base + e.path <= slo:
                                feasible += 1
                    break
            else:
                for j, e in enumerate(table):
                    cost, latency = paid_of[e.group] + e.cost, base + e.path
                    if latency < top:
                        latency = top
                    if cost < c_star:
                        c_star, c_arg = cost, first + j
                    if latency < t_star:
                        t_star, t_arg = latency, first + j
                    if within and e.inside and cost <= budget and latency <= slo:
                        feasible += 1
                        i = _slot(latencies, costs, cost, latency)
                        if i >= 0:
                            # Checked as ParetoPoint checks a point.
                            if cost < 0 or latency < 0:
                                label = str(_placement(workflow, platforms, first + j))
                                raise DomainError(f"point {label!r} has negative cost or latency")
                            _insert(latencies, costs, indices, i, cost, latency, first + j)
                if useful:
                    # A kept prefix that this one dominates dominates no
                    # prefix that this one does not.
                    for k in range(len(kept) - 1, -1, -1):
                        held = kept[k]
                        if prefix_cost <= held.cost and top <= held.top and base <= held.base:
                            del kept[k]
                    kept.insert(0, _Held(prefix_cost, top, base))
                    del kept[_KEPT:]
            first += len(table)
    except (DomainError, decimal.Inexact):
        # The walk forms its sums in another order than the model, which
        # prices a placement's cost (_cost), then its latency: priced so, the
        # failing prefix's first placement raises the error enumeration meets
        # first. When it raises none, the walk's error stands.
        entries = [row[c].entry for row, c in zip(rows, _digits(first, len(rows), len(platforms)))]
        _cost(entries)
        critical_path(workflow, [e.latency for e in entries])
        raise
    counters = SearchCounters(
        first, feasible, first // len(table), len(table), len(groups), priced, exact, dominated
    )
    return _Found(c_arg, t_arg, costs, latencies, indices, ec, el, counters)


class _Entry:
    """A tail table entry: its cost sum, longest path from the tail's entry
    function, whether every pair is within the pair bounds, and its group.
    A slotted class, not a tuple: a freed tuple stays on CPython's free
    list, so the table would stay on the heap after the walk."""

    __slots__ = ("cost", "path", "inside", "group")

    def __init__(self, cost: Decimal | int, path: Decimal | int, inside: bool, group: int):
        self.cost, self.path, self.inside, self.group = cost, path, inside, group


class _Held:
    """A head prefix the walk keeps to test later prefixes' dominance: its
    cost sum, critical path and distance into the tail's entry function,
    slotted as _Entry is."""

    __slots__ = ("cost", "top", "base")

    def __init__(self, cost: Decimal | int, top: Decimal | int, base: Decimal | int):
        self.cost, self.top, self.base = cost, top, base


class _Pair(NamedTuple):
    """A pair as the walk searches it: its cost and latency in the search's
    number type, its fixed-charge entries, whether it is within the pair
    bounds, and the model's entry."""

    cost: Decimal | int
    latency: Decimal | int
    fixed: tuple
    within: bool
    entry: PairEntry


def _same(amount: Decimal) -> Decimal:
    """The Decimal search's scaling: none."""
    return amount


def _scaled(value: Decimal, exponent: int) -> int:
    """value·10^-exponent as an int, for a value whose exponent is at least
    exponent. The shift runs in the walk's exact_sums context: the digit
    guard keeps every value of the search within its precision, and a value
    past it, which only a bypassed guard lets in, raises as a search sum
    that needs more digits."""
    return int(value.scaleb(-exponent))


def _floor(bound: Decimal, exponent: int) -> int | float:
    """The greatest int n with n·10^exponent <= bound: an int sum of the
    search scaled to exponent is within bound exactly when it is within n.
    Infinity, or a bound beyond every such sum, is math.inf, so that no
    huge int is built."""
    if bound == INFINITY or bound.adjusted() - exponent >= CONTEXT.prec:
        return math.inf
    return int(_EXACT.scaleb(bound, -exponent).to_integral_value(decimal.ROUND_FLOOR, _EXACT))


class _Billed(dict):
    """(held ledger entry or None, months, rate) -> the key's ledger entry
    after billing months at rate (engine.bill_key), computed once per solve,
    its credit term converted by money to the search's number type."""

    __slots__ = ("money",)

    def __init__(self, money):
        self.money = money

    def __missing__(self, memo: tuple) -> tuple:
        total, most, rate, term = bill_key(*memo)
        after = self[memo] = (total, most, rate, None if term is None else self.money(term))
        return after


def _combos(
    workflow: WorkflowSpec, rows: list[list[_Pair]], start: int, stop: int, zero, infinity
) -> Iterator[tuple]:
    """Every platform combination of the block of functions start..stop-1
    (declaration order), in enumeration order, as (cost sum, fixed-charge
    entries concatenated in declaration order, whether every pair is within
    the bounds, longest path inside the block, distances): the distances
    are indexed by topological position, and a predecessor outside the
    block counts as no path. A depth-first odometer: level k places the
    block's function k on each platform in turn, and slot k + 1 of each
    state list holds the current combination of the first k + 1 functions,
    so combinations sharing a prefix share its sums. Every sum starts from
    zero, the zero of the rows' number type, so that it keeps that type.
    The longest path of no functions is -infinity, which any path beats,
    except in a workflow of no functions, whose critical path is zero. The
    distances list is reused: read it before the next combination."""
    rows = rows[start:stop]
    size, width = len(rows), len(rows[0]) if rows else 0
    schedule = _schedule(workflow, start, stop)
    choice = [0] * size
    dist: list = [None] * len(workflow.functions)
    cost_at = [zero] + [None] * size
    fixed_at = [()] + [None] * size
    within_at = [True] + [None] * size
    top_at = [zero if not workflow.functions else -infinity] + [None] * size
    depth = 0
    while True:
        for k in range(depth, size):
            j = choice[k]
            entry = rows[k][j]
            cost_at[k + 1] = cost_at[k] + entry.cost
            # () + t is t itself: no tuple is built unless two pairs bill.
            fixed_at[k + 1] = fixed_at[k] + entry.fixed
            within_at[k + 1] = within_at[k] and entry.within
            top = top_at[k]
            for p, preds, i in schedule[k]:
                d = dist[p] = max([dist[q] for q in preds], default=zero) + rows[i][choice[i]].latency
                if d > top:
                    top = d
            top_at[k + 1] = top
        yield cost_at[size], fixed_at[size], within_at[size], top_at[size], dist
        k = size - 1
        while k >= 0 and choice[k] == width - 1:
            choice[k] = 0
            k -= 1
        if k < 0:
            return
        choice[k] += 1
        depth = k


def _schedule(workflow: WorkflowSpec, start: int, stop: int) -> list[list[tuple]]:
    """Per level k of the block of functions start..stop-1 (declaration
    order), the block's functions whose distance is known once its
    functions 0..k are placed: each as (topological position, positions of
    its predecessors inside the block, index in the block), in topological
    order. That level is the deepest index in the block among the function
    and its ancestors inside it."""
    schedule: list[list] = [[] for _ in range(start, stop)]
    levels: dict[int, int] = {}
    for p, (i, preds) in enumerate(workflow._topology):
        if start <= i < stop:
            inside = tuple(q for q in preds if q in levels)
            level = levels[p] = max([i - start, *(levels[q] for q in inside)])
            schedule[level].append((p, inside, i - start))
    return schedule


def _tail_size(workflow: WorkflowSpec) -> int:
    """How many trailing functions, in declaration order, the walk prices as
    one table per solve (see _walk); 0 for none. The tail is the
    longest trailing run of at most half the functions, or of the one
    function of a one-function workflow, in which:

    - no edge runs from it into the functions before it, so the head's
      distances are all known once the head is placed;
    - exactly one function s has predecessors outside it, or none at all,
      and every other one has predecessors inside it only, so each tail
      distance is s's plus a path inside the tail.
    """
    n, topology = len(workflow.functions), workflow._topology
    for size in range(n // 2 or n, 0, -1):
        start = n - size
        if any(i < start <= topology[q][0] for i, preds in topology for q in preds):
            continue
        entries = [
            i for i, preds in topology
            if i >= start and (not preds or any(topology[q][0] < start for q in preds))
        ]
        if len(entries) == 1:
            return size
    return 0


#: Rounds up and traps nothing: an upper bound of a sum that never raises.
_CEILING = decimal.Context(prec=CONTEXT.prec, rounding=decimal.ROUND_CEILING, traps=[])


def _exact_in_any_order(rows: list[list[PairEntry]]) -> bool:
    """Whether every cost and latency sum the walk can form keeps all its
    digits in money.CONTEXT, so that the tail table, which adds in another
    order than enumeration does, never raises where enumeration would not,
    nor the reverse, and so that the walk can search in ints scaled to each
    axis's _exponent, each sum an exact int add equal in value to the
    Decimal sum. A sum of the search is at most the sum of the row maxima,
    and its last digit is no finer than _exponent; the digits between must
    fit in CONTEXT.prec. A credit is at most the fixed charges it credits
    plus a few quanta when each pair's cost includes
    the money_product of each fixed entry it bills and each key is billed
    at one rate, as in a CatalogModel; a model breaking either fails. So a
    group's change in credit, and a prefix's paid sum less it, negative
    when the tail credits more than the head paid, stay below 10 times the
    bound and no finer than the money quantum: with fixed charges the cost
    bound gets one more digit. A non-finite or negative entry fails too, so
    that infinite sums and the negative-point error of the first admitted
    point come in enumeration order. An exponent is read as that of the
    entry times zero: as_tuple() would build a digit tuple per entry, and
    freed tuples stay on CPython's free lists.
    """
    fixed = any(e.fixed for row in rows for e in row)
    for axis in (_COST, _LATENCY):
        bound = ZERO
        for row in rows:
            values = [axis(e) for e in row]
            if not all(v.is_finite() and v >= 0 for v in values):
                return False
            bound = _CEILING.add(bound, max(values))
        if axis is _COST and fixed:
            bound = _CEILING.multiply(bound, 10)
        if bound.adjusted() + 1 - _exponent(rows, axis) > CONTEXT.prec:
            return False
    rates: dict = {}
    for row in rows:
        for e in row:
            charges = ZERO
            for key, months, rate in e.fixed:
                if rates.setdefault(key, rate) != rate:
                    return False
                try:
                    charges = _EXACT.add(charges, money_product(months, rate))
                except (DomainError, ArithmeticError):
                    return False
            if e.cost < charges:
                return False
    return True


def _exponent(rows: list[list[PairEntry]], axis) -> int:
    """The finest exponent of an axis's sums: that of its finest entry, or
    ZERO's, which starts every sum, and for cost the money quantum's when a
    pair bills a fixed charge, since a credit is a multiple of it. Each
    exponent is read as that of the finite entry times zero (see
    _exact_in_any_order)."""
    finest = 0
    for row in rows:
        for e in row:
            finest = min(finest, _EXACT.multiply(axis(e), 0).adjusted())
            if e.fixed and axis is _COST:
                finest = min(finest, -MONEY_PLACES)
    return finest
