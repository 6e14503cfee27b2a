"""Placement search: anchors, auto-derived weights, and constrained optimization.

The search is exhaustive over all |platforms|^|functions| assignments (capped),
which keeps results exact and reproducible at the instance sizes this tool
targets. A placement is named by its enumeration index, whose base-|platforms|
digits are its platforms in argument order, one per function in declaration
order, the last function's lowest; equal (cost, latency) pairs keep the first.

_problem prepares a search in one place: it scales each axis to its finest
exponent, so that the walk adds and compares Python ints and no sum rounds;
floors the budget and SLO, which bound each pair or the sums as the scope
says, so one test decides feasibility under both; and refuses any input
whose sums could reach 10^CONTEXT.prec units (_refuse_wide) with the error
enumeration raises summing in money.CONTEXT, so that no placement of an
accepted one raises. _walk then enumerates the head, the leading functions,
with a depth-first odometer (_combos), and answers each prefix from a table
of the tail that the same odometer prices once per solve, one add per axis
per placement, or only counts its feasible placements (_Ranks) when an
earlier prefix dominates it. _pick weighs the front the walk keeps, and the
model writes the digits reported for the chosen placements.

Weights default to the reciprocals of the two unconstrained anchors:
alpha = 1/C* (cheapest achievable cost) and beta = 1/T* (fastest achievable
latency), so cost and latency enter the objective equally normalized.
"""

from __future__ import annotations

import decimal
import math
from bisect import bisect_left, bisect_right
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
from .money import (
    _EXACT, CONTEXT, MONEY_LIMIT, MONEY_PLACES, div, exact_sum_error, exact_sums, money_product,
)
from .workflow import (
    _ARRAY,
    LATENCY_LIMIT,
    LatencyTable,
    Placement,
    WorkflowSpec,
    _parse_quantity,
    _read_json,
    _string,
    _typed,
    critical_path,
)

INFINITY = Decimal("Infinity")

_COST = attrgetter("cost")
_LATENCY = attrgetter("latency")
_PATH = attrgetter("path")
_GROUP = attrgetter("group")

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


#: The finest exponent of a placement model entry's digits: no entry then
#: has more than about 140 digits at it, nor an int of the search many more.
_FINEST = -2 * CONTEXT.prec


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
    """One function on one platform: cost, latency and the ledger entries,
    ((platform, component), months, rate), of the fixed BaaS charges it bills
    (see engine.bill_fixed). A PlacementModel checks its values when built."""

    cost: Decimal
    latency: Decimal
    fixed: tuple = ()


class PlacementModel:
    """A table of (function, platform) pairs, each priced once when built.

    A placement costs the sum of its pairs' costs less the shared
    fixed-charge credit, exactly as ``workflow_cost`` bills it; its latency
    is the critical path over its pairs' latencies. A pair not in the table
    raises MissingLatencyError. An entry whose cost or latency is not a
    Decimal, is not finite, is negative, is not below MONEY_LIMIT or
    LATENCY_LIMIT, or has a digit finer than 10^_FINEST raises SchemaError
    naming its pair; so does a fixed charge whose months or rate is not a
    Decimal, is not finite or is negative, or whose key is billed at two
    rates, naming the key: each credit term then only grows as its key is
    billed (see _refuse_wide). The model keeps its own copy of the table,
    so that a caller changing theirs later cannot undo the check.
    """

    def __init__(self, workflow: WorkflowSpec, table: Mapping[tuple[str, str], PairEntry]):
        self.workflow = workflow
        self.table = dict(table)
        rates: dict = {}
        for (fid, pid), entry in self.table.items():
            for axis, value, limit, unit in (("cost", entry.cost, MONEY_LIMIT, "USD"),
                                             ("latency", entry.latency, LATENCY_LIMIT, "ms")):
                if not isinstance(value, Decimal):
                    rule = f"be a Decimal, not {type(value).__name__}"
                elif not (value.is_finite() and value >= 0):
                    rule = "be finite and nonnegative"
                elif value >= limit:
                    rule = f"be below {limit} {unit}"
                elif _EXACT.multiply(value, 0).adjusted() < _FINEST:
                    rule = f"have no digit finer than 1E{_FINEST}"
                else:
                    continue
                raise SchemaError(f"pair ({fid}, {pid}): {axis} must {rule}, got {value}")
            for key, months, rate in entry.fixed:
                if not (isinstance(months, Decimal) and isinstance(rate, Decimal)):
                    rule = f"have Decimal months and rate, got {months!r} and {rate!r}"
                elif not (months.is_finite() and months >= 0 and rate.is_finite() and rate >= 0):
                    rule = f"have finite and nonnegative months and rate, got {months} and {rate}"
                elif rates.setdefault(key, rate) != rate:
                    rule = f"have one rate, got {rate} and {rates[key]}"
                else:
                    continue
                raise SchemaError(f"pair ({fid}, {pid}): fixed charge ({key[0]}, {key[1]}) must {rule}")

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


def load_point_table(source: str | Path | IO[str] | Mapping) -> dict[tuple[str, str], PairEntry]:
    """Read a (function, platform) -> (cost, latency_ms) table document into
    PairEntry values. Only the document is checked: its shape, its decimal
    strings and no pair listed twice; PlacementModel checks the values."""
    doc = _read_json(source)
    if not isinstance(doc, Mapping) or "points" not in doc:
        raise SchemaError("point table document must be an object with a points array")
    table: dict[tuple[str, str], PairEntry] = {}
    for entry in _typed(doc["points"], _ARRAY, "points"):
        _typed(entry, Mapping, "points entries")
        for key in ("function_id", "platform_id", "cost", "latency_ms"):
            if key not in entry:
                raise SchemaError(f"point entry missing required field {key!r}")
        fid = _string(entry["function_id"], "point entry function_id")
        pid = _string(entry["platform_id"], "point entry platform_id")
        owner = f"point ({fid}, {pid})"
        if (fid, pid) in table:
            raise SchemaError(f"{owner} is listed twice")
        table[fid, pid] = PairEntry(_parse_quantity(entry["cost"], "cost", owner),
                                    _parse_quantity(entry["latency_ms"], "latency_ms", owner))
    return table


# --- constrained weighted optimization ---------------------------------------


def auto_weights(c_star: Decimal, t_star: Decimal) -> tuple[Decimal, Decimal]:
    """alpha = 1/C*, beta = 1/T*; undefined when an anchor is zero."""
    if c_star == 0 or t_star == 0:
        raise DegenerateAnchorError(
            f"anchors must be positive to derive weights (C*={c_star}, T*={t_star})"
        )
    return div(Decimal(1), c_star), div(Decimal(1), t_star)


SCOPES = ("workflow", "per_function")


@dataclass(frozen=True)
class OptimizationConfig:
    """Budget/latency constraints, constraint scope, and the weights: alpha
    and beta when given, else auto_weights of the anchors. Each bound and
    weight given must be a finite Decimal."""

    budget: Decimal | None = None
    latency_slo: Decimal | None = None
    alpha: Decimal | None = None
    beta: Decimal | None = None
    scope: str = "workflow"

    def __post_init__(self):
        for name in ("budget", "latency_slo", "alpha", "beta"):
            value = getattr(self, name)
            if value is not None and not (isinstance(value, Decimal) and value.is_finite()):
                raise DomainError(f"{name} must be a finite Decimal, got {value!r}")
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

    _problem prepares the search once, in scaled ints, and _walk visits
    every placement once, in enumeration index order (see _placement), for
    the anchors and the feasible Pareto front (_Found). The walk compares
    values only; the reported cost, latency, C* and T* are the model's
    cost_of and latency_of of the chosen placements, so they keep the
    digits of each placement priced whole. Under the per_function scope a
    placement is feasible when each of its pairs is within the budget and
    SLO. The best is the front member with the least (a*cost + b*latency,
    cost) (_pick), where a, b = alpha, beta, or T*, C* for auto weights
    (cost/C* + latency/T* times C*·T*, so no division). The key never rises
    when cost or latency falls, so a front member minimizes it over all
    feasible placements; equal pairs keep the first enumerated placement.
    Raises _problem's errors, after which no cost_of or latency_of raises;
    then the DomainError of the first enumerated placement that the front
    admits with a negative cost, as a ParetoPoint checks it; then
    DegenerateAnchorError for auto weights with a zero anchor; then
    InfeasibleError carrying the anchors when no placement is feasible,
    whose diagnostics name the functions with no pair within both bounds
    under the per_function scope (unplaceable), else each anchor's gap.
    """
    config = config or OptimizationConfig()
    problem = _problem(workflow, platforms, model, config)
    found = _walk(problem)
    c_arg = _placement(workflow, problem.platforms, found.c_arg)
    t_arg = _placement(workflow, problem.platforms, found.t_arg)
    c_star, t_star = model.cost_of(c_arg), model.latency_of(t_arg)

    if config.alpha is None:
        alpha, beta = auto_weights(c_star, t_star)
        a, b = t_star, c_star
    else:
        alpha, beta = a, b = config.alpha, config.beta
    if not found.costs:
        diagnostics = {"min_cost_placement": str(c_arg), "min_time_placement": str(t_arg)}
        # Only the per_function scope leaves a pair out of bounds, and a
        # search under it is infeasible exactly when a row has no pair in.
        unplaceable = [fid for fid, row in zip(workflow.function_ids, problem.rows)
                       if not any(pair.within for pair in row)]
        if unplaceable:
            diagnostics["unplaceable"] = ",".join(unplaceable)
        else:
            if config.budget is not None:
                diagnostics["cost_gap"] = max(ZERO, c_star - config.budget)
            if config.latency_slo is not None:
                diagnostics["latency_gap"] = max(ZERO, t_star - config.latency_slo)
        raise InfeasibleError(c_star, t_star, config.budget, config.latency_slo, diagnostics)

    best_arg = _placement(workflow, problem.platforms, found.indices[_pick(problem, found, a, b)])
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
        total_count=found.counters.placements,
        counters=found.counters,
    )


def _pick(problem: _Problem, found: _Found, a: Decimal, b: Decimal) -> int:
    """The position in found's front of the least (a*cost + b*latency, cost)."""
    # The front is latency ascending and cost strictly descending, so each
    # later member is slower and cheaper than the best so far: it takes
    # over when its key is no higher, that is when the latency it adds
    # weighs no more than the cost it saves, compared exactly. Scaling the
    # weights by the front's exponents weighs its ints as the amounts they
    # stand for.
    costs, latencies = found.costs, found.latencies
    best = 0
    with localcontext(_EXACT):
        a, b = a.scaleb(problem.cost_exponent), b.scaleb(problem.latency_exponent)
        for k in range(1, len(costs)):
            if b * (latencies[k] - latencies[best]) <= a * (costs[best] - costs[k]):
                best = k
    return best


class SearchCounters(NamedTuple):
    """What one optimize walk did: the placements it visited and the feasible
    ones, the head prefixes and tail table entries that make them up, the
    table's fixed-charge groups, how many prefix ledgers it priced (a run of
    prefixes with the same fixed-charge entries is priced once), and how
    many head prefixes an earlier prefix dominated, so that the walk only
    counted their feasible placements (see _walk)."""

    placements: int
    feasible: int
    head_prefixes: int
    tail_entries: int
    groups: int
    ledgers_priced: int
    dominated_prefixes: int


class _Found(NamedTuple):
    """What one walk finds: the enumeration indices of both anchors (the
    first enumerated winning ties), the feasible Pareto front as parallel
    lists of costs, latencies (ascending) and enumeration indices, in its
    _Problem's ints, and its counters. Only the chosen placements get a
    Placement."""

    c_arg: int
    t_arg: int
    costs: list[int]
    latencies: list[int]
    indices: list[int]
    counters: SearchCounters


def _placement(workflow: WorkflowSpec, platforms: list[str], index: int) -> Placement:
    """The placement of enumeration index ``index``: its base-|platforms|
    digits, one per function in declaration order, the last function's
    lowest, pick its platforms in argument order. The walk visits the
    indices in ascending order, so this is the search's enumeration order."""
    digits = [0] * len(workflow.functions)
    for k in range(len(digits) - 1, -1, -1):
        index, digits[k] = divmod(index, len(platforms))
    return Placement(tuple((fid, platforms[c]) for fid, c in zip(workflow.function_ids, digits)))


#: How many earlier head prefixes the walk keeps to test a prefix's
#: dominance against (see _walk).
_KEPT = 8

#: The walk's magnitude limit, in units of an axis's exponent: a sum below
#: it has at most CONTEXT.prec digits at that exponent, so it is exact.
_LIMIT = 10**CONTEXT.prec


class _Problem(NamedTuple):
    """A search as _problem prepares it: the workflow, the platforms, one row
    of _Pairs per function in declaration order, the head size (see _walk),
    each axis's exponent, and the floored budget and SLO on the sums."""

    workflow: WorkflowSpec
    platforms: list[str]
    rows: list[list[_Pair]]
    head: int
    cost_exponent: int
    latency_exponent: int
    budget: int | float
    slo: int | float


def _problem(workflow: WorkflowSpec, platforms: Sequence[str], model: PlacementModel,
             config: OptimizationConfig) -> _Problem:
    """The one place that prepares a search. DomainError for no platforms
    and CapExceededError past DEFAULT_ENUMERATION_CAP placements come
    before any entry is read. The scope bounds each pair (_Pair.within) or
    the sums by the budget and SLO, the other by Infinity. The search runs
    in exact ints: each axis is scaled to its _exponent, each entry
    becoming its _Pair in place and each credit term scaled when _Billed
    prices it, and the budget and SLO become the floor of the scaled bound
    (_floor). Then _refuse_wide raises when a sum that enumeration forms
    could need more than CONTEXT.prec digits, so that no placement of an
    accepted search fails to price."""
    platforms = list(platforms)
    if not platforms:
        raise DomainError("at least one platform is required")
    total = len(platforms) ** len(workflow.functions)
    if total > DEFAULT_ENUMERATION_CAP:
        raise CapExceededError(total, DEFAULT_ENUMERATION_CAP)
    rows = [[model.entry(fid, pid) for pid in platforms] for fid in workflow.function_ids]
    budget = INFINITY if config.budget is None else config.budget
    slo = INFINITY if config.latency_slo is None else config.latency_slo
    pair_budget = pair_slo = INFINITY
    if config.scope == "per_function":
        pair_budget, pair_slo, budget, slo = budget, slo, INFINITY, INFINITY
    ec, el = _exponent(rows, _COST), _exponent(rows, _LATENCY)
    # Each entry becomes its _Pair in place: one row structure per solve.
    for row in rows:
        for j, e in enumerate(row):
            within = e.cost <= pair_budget and e.latency <= pair_slo
            row[j] = _Pair(_scaled(e.cost, ec), _scaled(e.latency, el), e.fixed, within)
    # No placement's gross cost or critical path passes these sums.
    most_cost = sum(max(p.cost for p in row) for row in rows)
    most_latency = sum(max(p.latency for p in row) for row in rows)
    _refuse_wide(rows, ec, most_cost, most_latency)
    return _Problem(workflow, platforms, rows, len(rows) - _tail_size(workflow), ec, el,
                    _floor(budget, ec, most_cost), _floor(slo, el, most_latency))


def _walk(problem: _Problem) -> _Found:
    """Visit every placement of problem once, in index order (_placement).

    The tail (see _tail_size) is enumerated once per solve by _combos into a
    table, one _Entry (cost sum, longest path from the tail's entry function
    s, whether every pair is within the pair bounds, group) per combination:
    combinations whose pairs bill equal fixed-charge entries, concatenated
    in declaration order, share a group. With no tail, which needs a
    declaration order that is not topological, the head is every function
    and the table holds one empty combination (cost 0, path 0, group ()).
    The head, the functions before the tail, is enumerated by the same
    odometer. Each head prefix bills its entries through the _Billed memo,
    as engine.bill_fixed bills them, for its ledger and credit; each group's
    credit is that credit plus the group's change in it on top of the
    prefix's ledger (change), and a group billing no key of the ledger keeps
    its change on an empty one, computed once per solve. Prefixes in a row
    with the same entries share one pricing of their ledger. A placement
    costs the prefix's cost sum less its group's credit plus its entry's
    cost; its latency is the longer of the prefix's critical path and the
    distance into s plus the entry's path. Each is an anchor candidate and,
    when feasible, counted and offered to the front (_slot, _insert) under
    its enumeration index: the prefix's first index plus the entry's. The
    first feasible placement with a negative cost that the front admits
    raises DomainError, as ParetoPoint does.

    A prefix whose cost sum, critical path (top) and distance into s (base)
    are each at least those of a prefix the walk keeps is dominated: with
    the same ledger, so the same credits, each of its placements costs and
    takes no less than the kept prefix's with the same entry, which is
    feasible whenever it is and enumerated first. Neither anchor changes on
    a tie, and the front keeps the first of equal points, so the dominated
    prefix only counts its feasible placements (when it is within the pair
    bounds with top <= slo): per group, the entries within the pair bounds
    that cost at most the budget less the group's paid sum and whose path is
    at most the SLO less base, read from the table's _Ranks without visiting
    them. The _Ranks is built at the solve's first such count, so a solve
    that dominates no prefix builds none. The walk keeps up to _KEPT
    prefixes of the current ledger run, most recently used first, each
    within the pair bounds with top <= slo, and drops those a newly kept one
    dominates; a new ledger empties it. A skipped placement is never the
    first negative point: the kept prefix's placement with its entry is
    feasible, no dearer and enumerated first.
    """
    workflow, platforms, rows, head, ec, _, budget, slo = problem

    def change(ledger: dict, fixed: tuple) -> int:
        """The change in ledger's credit when fixed is billed on top of it
        (engine.bill_key). A key that fixed bills twice is chained through
        its first billing. A first billing credits nothing."""
        delta, chained = 0, {}
        for key, months, rate in fixed:
            prior = chained.get(key)
            held = ledger.get(key) if prior is None else billed[prior]
            memo = chained[key] = (held, months, rate)
            term = billed[memo][2]
            if term is not None:
                delta += term if held[2] is None else term - held[2]
        return delta

    billed = _Billed(ec)
    # s reaches every tail function, so it comes first in topological order.
    preds = next((preds for i, preds in workflow._topology if i >= head), ())
    index: dict = {}
    table = [
        _Entry(cost, top, within, index.setdefault(fixed, len(index)))
        for cost, fixed, within, top, _ in _combos(workflow, rows[head:], head, len(rows))
    ]
    groups = tuple(index)
    del index  # not held through the walk
    # A group's change on top of a ledger that holds none of its keys is its
    # change on an empty ledger, its own: only the groups billing a key of a
    # prefix's ledger are repriced for it.
    own = [change({}, group) for group in groups]
    billing: dict = {}
    for g, group in enumerate(groups):
        for key, _, _ in group:
            billing.setdefault(key, []).append(g)
    paid_of = [0] * len(groups)
    costs: list[int] = []
    latencies: list[int] = []
    indices: list[int] = []
    # Earlier prefixes of the ledger run that were within the pair bounds
    # with top <= slo, most recently used first.
    kept: list[_Held] = []
    c_star = t_star = math.inf
    c_arg = t_arg = feasible = first = priced = dominated = 0
    last = credits = ranks = None
    for prefix_cost, fixed, within, top, dist in _combos(workflow, rows, 0, head):
        if fixed is not last:
            # Emptied first, so that the kept prefixes are not held while the
            # new ledger is priced.
            kept.clear()
            # The credit is the ledger's terms summed in first-billed order.
            ledger, credit = {}, 0
            for key, months, rate in fixed:
                ledger[key] = billed[(ledger.get(key), months, rate)]
            for _, _, term in ledger.values():
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
        base = 0
        for q in preds:
            if dist[q] > base:
                base = dist[q]
        useful = within and top <= slo
        for k, held in enumerate(kept):
            if held.cost <= prefix_cost and held.top <= top and held.base <= base:
                # Each placement of this prefix costs and takes at least its
                # kept prefix's with the same entry, which is feasible
                # whenever it is and enumerated first: it can change neither
                # anchor nor the front, only the count.
                if k:
                    kept.insert(0, kept.pop(k))
                dominated += 1
                if useful:
                    if ranks is None:
                        ranks = _Ranks(table, len(groups))
                    slack, lo = slo - base, 0
                    for g, hi in enumerate(ranks.ends):
                        cheap = bisect_right(ranks.costs, budget - paid_of[g], lo, hi) - lo
                        fast = ranks.masks[bisect_right(ranks.paths, slack, lo, hi) + g]
                        feasible += (fast & ((1 << cheap) - 1)).bit_count()
                        lo = hi
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
                        # Checked as ParetoPoint checks a point; only a
                        # credit above the gross cost makes one negative.
                        if cost < 0:
                            label = str(_placement(workflow, platforms, first + j))
                            raise DomainError(f"point {label!r} has negative cost or latency")
                        _insert(latencies, costs, indices, i, cost, latency, first + j)
            if useful:
                # A kept prefix that this one dominates dominates no prefix
                # that this one does not.
                for k in range(len(kept) - 1, -1, -1):
                    held = kept[k]
                    if prefix_cost <= held.cost and top <= held.top and base <= held.base:
                        del kept[k]
                kept.insert(0, _Held(prefix_cost, top, base))
                del kept[_KEPT:]
        first += len(table)
    counters = SearchCounters(first, feasible, first // len(table), len(table), len(groups),
                              priced, dominated)
    return _Found(c_arg, t_arg, costs, latencies, indices, counters)


def _refuse_wide(rows: list[list[_Pair]], exponent: int, most_cost: int, most_latency: int) -> None:
    """DomainError, in money.exact_sum_error's words, naming the first sum
    of enumeration whose bound reaches _LIMIT units of its exponent. Entries
    are nonnegative and each key bills nonnegative months at one rate
    (PlacementModel), so no partial sum passes its bound: a gross cost, the
    row maxima of cost (most_cost, at the cost exponent); a key's months,
    the sum of every month that can bill it, at the finest of their
    exponents; a credit, the sum over keys of money_product of that sum and
    the key's rate, at the cost exponent (a product past the money limit is
    past it too); a critical path, the row maxima of latency. So an input
    that spans more digits is refused even when each placement is exact."""
    if most_cost >= _LIMIT:
        raise exact_sum_error("a workflow cost")
    months: dict = {}
    rates: dict = {}
    for row in rows:
        for pair in row:
            for key, m, rate in pair.fixed:
                months[key] = _EXACT.add(months[key], m) if key in months else m
                rates[key] = rate
    credit = 0
    for key, total in months.items():
        # An exact sum's exponent is its finest operand's.
        if total.adjusted() - _EXACT.multiply(total, 0).adjusted() >= CONTEXT.prec:
            raise exact_sum_error(f"a sum of the months of fixed charge ({key[0]}, {key[1]})")
        try:
            credit += _scaled(money_product(total, rates[key]), exponent)
        except DomainError:
            credit += _LIMIT
    if credit >= _LIMIT:
        raise exact_sum_error("a fixed-charge credit")
    if most_latency >= _LIMIT:
        raise exact_sum_error("a critical-path latency sum")


class _Entry:
    """A tail table entry: its cost sum, longest path from the tail's entry
    function, whether every pair is within the pair bounds, and its group.
    A slotted class, not a tuple: a freed tuple stays on CPython's free
    list, so the table would stay on the heap after the walk."""

    __slots__ = ("cost", "path", "inside", "group")

    def __init__(self, cost: int, path: int, inside: bool, group: int):
        self.cost, self.path, self.inside, self.group = cost, path, inside, group


class _Ranks:
    """The table's entries within the pair bounds, for counting per group
    those that fit a cost bound c and a path bound t without visiting them
    (a 2-D dominance count). Group g's entries take slots lo = ends[g - 1]
    (0 for group 0) to hi = ends[g] - 1 of costs and of paths, each holding
    them by group and then ascending, and its masks take slots lo + g to
    hi + g of masks: its j-th is the set of its j entries with the shortest
    paths, as bits by cost rank. Its entries costing at most c with a path
    at most t are the bits of masks[bisect_right(paths, t, lo, hi) + g]
    below bit bisect_right(costs, c, lo, hi) - lo; this is exact for int
    bounds and for math.inf. A group of m entries holds m + 1 masks of at
    most m bits, about m²/8 bytes; the four lists have one slot per entry
    and one per group, one more for masks."""

    __slots__ = ("costs", "paths", "masks", "ends")

    def __init__(self, table: list[_Entry], groups: int):
        self.paths = paths = [e for e in table if e.inside]
        paths.sort(key=_PATH)
        paths.sort(key=_GROUP)
        self.costs = costs = sorted(paths, key=_COST)
        costs.sort(key=_GROUP)
        for k, e in enumerate(costs):
            costs[k] = e.cost
        self.ends = ends = [0] * groups
        for e in paths:
            ends[e.group] += 1
        self.masks = masks = []
        hi = 0
        for g in range(groups):
            lo, hi = hi, hi + ends[g]
            ends[g] = hi
            mask = 0
            masks.append(mask)
            for k in range(lo, hi):
                e = paths[k]
                # Equal costs share a run of ranks, which a cost bound takes
                # whole: the entry takes the lowest free rank of its cost's run.
                low = bisect_left(costs, e.cost, lo, hi) - lo
                free = ~mask >> low
                mask |= (free & -free) << low
                masks.append(mask)
                paths[k] = e.path


class _Held:
    """A head prefix the walk keeps to test later prefixes' dominance: its
    cost sum, critical path and distance into the tail's entry function,
    slotted as _Entry is."""

    __slots__ = ("cost", "top", "base")

    def __init__(self, cost: int, top: int, base: int):
        self.cost, self.top, self.base = cost, top, base


class _Pair(NamedTuple):
    """A pair as the walk searches it: its cost and latency as scaled ints,
    its fixed-charge entries, and whether it is within the pair bounds."""

    cost: int
    latency: int
    fixed: tuple
    within: bool


def _scaled(value: Decimal, exponent: int) -> int:
    """value·10^-exponent, exactly, for a value whose exponent is at least exponent."""
    return int(_EXACT.scaleb(value, -exponent))


def _floor(bound: Decimal, exponent: int, most: int) -> int | float:
    """The greatest int n with n·10^exponent <= bound: an int sum of the
    search scaled to exponent is within bound exactly when it is within n.
    Infinity, or a bound at or above most·10^exponent, where most is the
    largest sum, is math.inf, so that no huge int is built."""
    if bound == INFINITY or bound >= _EXACT.scaleb(most, exponent):
        return math.inf
    return int(_EXACT.scaleb(bound, -exponent).to_integral_value(decimal.ROUND_FLOOR, _EXACT))


class _Billed(dict):
    """(held ledger entry or None, months, rate) -> the key's ledger entry
    after billing months at rate (engine.bill_key) with exact sums, computed
    once per solve, its credit term scaled to the cost exponent. Within the
    bounds of _refuse_wide no billing raises."""

    __slots__ = ("exponent",)

    def __init__(self, exponent: int):
        self.exponent = exponent

    def __missing__(self, memo: tuple) -> tuple:
        with exact_sums("a fixed-charge credit"):
            total, most, term = bill_key(*memo)
        after = self[memo] = (total, most, None if term is None else _scaled(term, self.exponent))
        return after


def _combos(workflow: WorkflowSpec, rows: list[list[_Pair]], start: int,
            stop: int) -> Iterator[tuple]:
    """Every platform combination of the block of functions start..stop-1
    (declaration order), whose rows are rows[0..stop-start-1], in
    enumeration order, as (cost sum, fixed-charge entries concatenated in
    declaration order, whether every pair is within the bounds, longest path
    inside the block, distances): the distances are indexed by topological
    position, and a predecessor outside the block counts as no path. A
    depth-first odometer: level k places the block's function k on each
    platform in turn, and slot k + 1 of each state list holds the current
    combination of the first k + 1 functions, so combinations sharing a
    prefix share its sums. The longest path of no functions is 0, which no
    path of nonnegative latencies falls short of. The distances list is
    reused: read it before the next combination."""
    size = stop - start
    width = len(rows[0]) if size else 0
    schedule = _schedule(workflow, start, stop)
    choice = [0] * size
    dist: list = [None] * len(workflow.functions)
    cost_at = [0] + [None] * size
    fixed_at = [()] + [None] * size
    within_at = [True] + [None] * size
    top_at = [0] + [None] * size
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
                d = 0
                for q in preds:
                    if dist[q] > d:
                        d = dist[q]
                d = dist[p] = d + rows[i][choice[i]].latency
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


def _schedule(workflow: WorkflowSpec, start: int, stop: int) -> list[tuple[tuple, ...]]:
    """Per level k of the block of functions start..stop-1 (declaration
    order), the block's functions whose distance is known once its
    functions 0..k are placed: each as (topological position, positions of
    its predecessors inside the block, index in the block), in topological
    order. That level is the deepest index in the block among the function
    and its ancestors inside it. Each level is a tuple, so that no list
    per level is held while the block is walked."""
    schedule: list[list] = [[] for _ in range(start, stop)]
    levels: dict[int, int] = {}
    for p, (i, preds) in enumerate(workflow._topology):
        if start <= i < stop:
            inside = tuple(q for q in preds if q in levels)
            level = levels[p] = max([i - start, *(levels[q] for q in inside)])
            schedule[level].append((p, inside, i - start))
    for k, level in enumerate(schedule):
        schedule[k] = tuple(level)
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


def _exponent(rows: list[list[PairEntry]], axis) -> int:
    """The finest exponent of an axis's sums: that of its finest entry, or
    0, and for cost the money quantum's when a pair bills a fixed charge,
    since a credit is a multiple of it. An exponent is read as that of the
    entry times zero: as_tuple() would build a digit tuple per entry, and
    freed tuples stay on CPython's free lists."""
    finest = 0
    for row in rows:
        for e in row:
            finest = min(finest, _EXACT.multiply(axis(e), 0).adjusted())
            if e.fixed and axis is _COST:
                finest = min(finest, -MONEY_PLACES)
    return finest
