"""Placement search: anchors, auto-derived weights, and constrained optimization.

The search is exhaustive over all |platforms|^|functions| assignments (capped),
which keeps results exact and reproducible at the instance sizes this tool
targets. It walks the pair table depth first: function k, in declaration
order, takes each platform in argument order at level k, so placements come
in enumerate_placements order and equal (cost, latency) pairs keep the first.
Placements that share a prefix share its state, kept once per level: the cost
sum, the shared fixed-charge ledger and credit of engine.bill_fixed (updated
only when a pair bills a fixed charge), the critical-path distances and
whether each pair is within the bounds. A placement then costs one step from
its parent.
enumerate_placements, min_cost and min_time enumerate and price each
placement whole, and the tests use them as oracles.

Weights default to the reciprocals of the two unconstrained anchors:
alpha = 1/C* (cheapest achievable cost) and beta = 1/T* (fastest achievable
latency), so cost and latency enter the objective equally normalized.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from decimal import Decimal
from operator import attrgetter
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .catalog import PlatformCatalog
from .engine import ZERO, CostBreakdown, bill_fixed, component_charges
from .errors import (
    CapExceededError,
    DegenerateAnchorError,
    DomainError,
    InfeasibleError,
    MissingLatencyError,
    SchemaError,
)
from .money import CONTEXT, div
from .workflow import (
    _ARRAY,
    LatencyTable,
    Placement,
    WorkflowSpec,
    _parse_quantity,
    _read_json,
    _typed,
    critical_path,
)

INFINITY = Decimal("Infinity")

DEFAULT_ENUMERATION_CAP = 10**7


@dataclass(frozen=True)
class ParetoPoint:
    """A labeled (cost, latency) alternative, optionally tied to a placement."""

    label: str
    cost: Decimal
    latency: Decimal
    placement: Placement | None = None

    def __post_init__(self):
        if self.cost < 0 or self.latency < 0:
            raise DomainError(f"point {self.label!r} has negative cost or latency")


def pareto_front(points: Iterable[ParetoPoint]) -> list[ParetoPoint]:
    """Points not weakly dominated by any other point, latency ascending.

    Duplicate (cost, latency) pairs collapse to the first by input order.
    """
    front: list[ParetoPoint] = []
    for p in points:
        _admit(front, p)
    return front


def _admit(front: list[ParetoPoint], point: ParetoPoint) -> None:
    """Fold a point into a front kept latency ascending, cost strictly descending.

    Drops the point when a kept point weakly dominates it (an equal pair seen
    earlier counts); otherwise it replaces every kept point it dominates.
    """
    i = _slot(front, point.cost, point.latency)
    if i >= 0:
        _insert(front, i, point)


_LATENCY = attrgetter("latency")


def _slot(front: list[ParetoPoint], cost: Decimal, latency: Decimal) -> int:
    """Where (cost, latency) enters the front, or -1 when a kept point weakly dominates it."""
    i = bisect_left(front, latency, key=_LATENCY)
    # Only the cheapest kept point at or below the latency can dominate it:
    # front[i] when it ties on latency, else its lower-latency neighbour.
    rival = i if i < len(front) and front[i].latency == latency else i - 1
    if rival >= 0 and front[rival].cost <= cost:
        return -1
    return i


def _insert(front: list[ParetoPoint], i: int, point: ParetoPoint) -> None:
    """Put an undominated point at its slot i, replacing every kept point it dominates."""
    end = i
    while end < len(front) and front[end].cost >= point.cost:
        end += 1
    front[i:end] = [point]


def optimal_line(points: Iterable[ParetoPoint]) -> list[ParetoPoint]:
    """The efficient trade-off line: the lower convex frontier of the points.

    Stricter than pareto_front: a point additionally drops out when a convex
    mix of two other alternatives beats it on both axes (the line one would
    draw under the cloud of points). Always a subset of the front.
    """
    front = pareto_front(points)
    hull: list[ParetoPoint] = []
    for p in front:
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], p) < 0:
            hull.pop()
        hull.append(p)
    return hull


def _cross(o: ParetoPoint, a: ParetoPoint, b: ParetoPoint) -> Decimal:
    return (a.latency - o.latency) * (b.cost - o.cost) - (a.cost - o.cost) * (
        b.latency - o.latency
    )


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
    """Workflow cost of one pair per function: their sum less the shared fixed-charge credit."""
    total, ledger, credit = ZERO, {}, ZERO
    for entry in entries:
        total += entry.cost
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
    """Read a (function, platform) -> (cost, latency_ms) table document."""
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
        cost = _parse_quantity(entry, "cost", owner)
        latency = _parse_quantity(entry, "latency_ms", owner)
        if cost < 0 or latency < 0:
            raise SchemaError(f"{owner} must be nonnegative")
        table[(str(entry["function_id"]), str(entry["platform_id"]))] = (cost, latency)
    return table


# --- enumeration and anchor solves ------------------------------------------


def _rows(workflow: WorkflowSpec, platforms: Sequence[str], cap: int, pick) -> list[list]:
    """One row per function, in declaration order, of ``pick(function_id,
    platform_id)`` over the platforms in argument order. Raises DomainError
    for no platforms and CapExceededError past the cap before any pick is made."""
    platforms = list(platforms)
    if not platforms:
        raise DomainError("at least one platform is required")
    total = len(platforms) ** len(workflow.functions)
    if total > cap:
        raise CapExceededError(total, cap)
    return [[pick(fid, pid) for pid in platforms] for fid in workflow.function_ids]


def enumerate_placements(
    workflow: WorkflowSpec,
    platforms: Sequence[str],
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> Iterator[Placement]:
    """Every total assignment exactly once, in deterministic lexicographic order.

    Order is by (function declaration order, platform argument order); the
    last function's platform varies fastest. Raises CapExceededError up front
    when the full count would exceed the cap.
    """
    rows = _rows(workflow, platforms, cap, lambda fid, pid: (fid, pid))
    return map(Placement, itertools.product(*rows))


def _argmin(workflow, platforms, measure, cap) -> tuple[Decimal, Placement]:
    """Lowest measure over every placement; the first in enumeration order wins ties."""
    best: tuple[Decimal, Placement] | None = None
    for placement in enumerate_placements(workflow, platforms, cap):
        value = measure(placement)
        if best is None or value < best[0]:
            best = (value, placement)
    assert best is not None
    return best


def min_cost(
    workflow: WorkflowSpec,
    platforms: Sequence[str],
    model: PlacementModel,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> tuple[Decimal, Placement]:
    """C*: cheapest achievable workflow cost, ignoring latency entirely."""
    return _argmin(workflow, platforms, model.cost_of, cap)


def min_time(
    workflow: WorkflowSpec,
    platforms: Sequence[str],
    model: PlacementModel,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> tuple[Decimal, Placement]:
    """T*: fastest achievable workflow latency, ignoring cost entirely."""
    return _argmin(workflow, platforms, model.latency_of, cap)


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


def optimize(
    workflow: WorkflowSpec,
    platforms: Sequence[str],
    model: PlacementModel,
    config: OptimizationConfig | None = None,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> OptimizationResult:
    """Minimize alpha*cost + beta*latency over feasible placements.

    One depth-first walk over the model's rows (one per function in
    declaration order, its pairs in platform order) visits every placement
    once, in the order of enumerate_placements. Each level of the walk keeps
    its prefix's cost sum, shared fixed-charge credit, critical-path
    distances and within-bounds flag, so a placement costs one step from
    its parent. The walk finds the anchors as min_cost and min_time do, and
    folds each feasible placement into a Pareto front, building a Placement
    only for one the front admits. Under the per_function scope a placement
    is feasible when each of its pairs is within the budget and SLO. The
    best is the front member with the least
    (a*cost + b*latency, cost, latency), where a, b = alpha, beta, or T*, C*
    for auto weights (cost/C* + latency/T* times C*·T*, so no division). The
    key strictly orders (cost, latency) pairs and never rises when either
    falls, so a front member minimizes it over all feasible placements;
    equal pairs keep the first enumerated placement. Raises
    DegenerateAnchorError for auto weights with a zero anchor, then
    InfeasibleError carrying the anchors when no placement is feasible.
    """
    config = config or OptimizationConfig()
    platforms = list(platforms)
    rows = _rows(workflow, platforms, cap, model.entry)
    found = _walk(workflow, rows, platforms, config)
    c_star, c_arg = found.c_star, Placement(found.c_arg)
    t_star, t_arg = found.t_star, Placement(found.t_arg)
    front = found.front

    if config.alpha is None:
        alpha, beta = auto_weights(c_star, t_star)
        a, b = t_star, c_star
    else:
        alpha, beta = a, b = config.alpha, config.beta
    if not front:
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

    def rank(p: ParetoPoint) -> tuple[Decimal, Decimal, Decimal]:
        return CONTEXT.fma(a, p.cost, CONTEXT.multiply(b, p.latency)), p.cost, p.latency

    best = min(front, key=rank)
    objective = CONTEXT.multiply(alpha, best.cost) + CONTEXT.multiply(beta, best.latency)
    return OptimizationResult(
        best=best.placement,
        cost=best.cost,
        latency=best.latency,
        objective=float(objective),
        alpha=float(alpha),
        beta=float(beta),
        c_star=c_star,
        t_star=t_star,
        c_star_placement=c_arg,
        t_star_placement=t_arg,
        feasible_count=found.feasible_count,
        total_count=len(platforms) ** len(rows),
    )


class _Found(NamedTuple):
    """What one walk finds: both anchors with their assignments (the first
    enumerated winning ties), the feasible Pareto front and its count."""

    c_star: Decimal
    c_arg: tuple
    t_star: Decimal
    t_arg: tuple
    front: list[ParetoPoint]
    feasible_count: int


def _walk(
    workflow: WorkflowSpec,
    rows: list[list[PairEntry]],
    platforms: list[str],
    config: OptimizationConfig,
) -> _Found:
    """Visit every placement once, depth first over the rows, as an odometer.

    Level k places function k (declaration order) on each platform in turn,
    so placements come in enumerate_placements order. Slot d of each state
    list holds the current prefix of d functions: its cost sum, its
    fixed-charge ledger and the shared credit it earns (engine.bill_fixed),
    whether each pair is within the bounds, and the longest critical-path
    distance known so far with its topological position. A function's
    distance is computed at the level of the deepest function among itself
    and its ancestors: its own level when declaration order is topological.
    The last level runs as one loop over its row.
    """
    budget = INFINITY if config.budget is None else config.budget
    slo = INFINITY if config.latency_slo is None else config.latency_slo
    per_function = config.scope == "per_function"
    n, last, width = len(rows), len(rows) - 1, len(platforms)
    within_pair = [[e.cost <= budget and e.latency <= slo for e in row] for row in rows]
    pairs = [[(fid, pid) for pid in platforms] for fid in workflow.function_ids]
    schedule = _schedule(workflow)
    choice = [0] * n
    dist: list = [None] * n
    cost_at = [ZERO] + [None] * n
    ledger_at: list = [{}] + [None] * n
    credit_at = [ZERO] + [None] * n
    within_at = [True] + [None] * n
    # The critical path of no functions is ZERO; any distance beats -inf.
    top_at = [ZERO if n == 0 else -INFINITY] + [None] * n
    top_pos_at = [n] + [None] * n

    def step(k: int) -> None:
        """Fill slot k + 1 from slot k and function k's chosen pair."""
        j = choice[k]
        entry = rows[k][j]
        cost_at[k + 1] = cost_at[k] + entry.cost
        if entry.fixed:
            ledger_at[k + 1], credit_at[k + 1] = bill_fixed(
                ledger_at[k], credit_at[k], entry.fixed
            )
        else:
            ledger_at[k + 1], credit_at[k + 1] = ledger_at[k], credit_at[k]
        within_at[k + 1] = within_at[k] and within_pair[k][j]
        top, top_pos = top_at[k], top_pos_at[k]
        for p, preds, i in schedule[k]:
            d = max([dist[q] for q in preds], default=ZERO) + rows[i][choice[i]].latency
            dist[p] = d
            # max() over topological order keeps the first of equal distances.
            if d > top or (d == top and p < top_pos):
                top, top_pos = d, p
        top_at[k + 1], top_pos_at[k + 1] = top, top_pos

    if n:
        row, within_last = rows[last], within_pair[last]
        tails = [(pair,) for pair in pairs[last]]
        # When no descendant of the last function is declared before it, the
        # last level computes its distance alone, from its parent's distances.
        fast = len(schedule[last]) == 1
        if fast:
            ((p, preds, _),) = schedule[last]
    else:
        width, tails, fast = 1, [()], False
    # Anchors start at the first placement, so one is found even when every
    # placement is infinite on an axis.
    c_star = t_star = INFINITY
    c_arg = t_arg = tuple([row[0] for row in pairs])
    front: list[ParetoPoint] = []
    feasible = depth = 0
    while True:
        for k in range(depth, last):
            step(k)
        # From a list: tuple() of a generator over-allocates and shrinks, which
        # leaves a free-listed tuple behind per prefix and raises the peak heap.
        prefix = tuple([pairs[k][choice[k]] for k in range(last)])
        if fast:
            base = max([dist[q] for q in preds], default=ZERO)
            # Of equal distances the first in topological order is the path's.
            top, first = top_at[last], p < top_pos_at[last]
            total, ledger, credit = cost_at[last], ledger_at[last], credit_at[last]
            within = within_at[last]
        for j in range(width):
            if fast:
                entry = row[j]
                cost = total + entry.cost - (
                    bill_fixed(ledger, credit, entry.fixed)[1] if entry.fixed else credit
                )
                latency = base + entry.latency
                if latency < top or (latency == top and not first):
                    latency = top
                ok = within and within_last[j]
            else:
                if n:
                    choice[last] = j
                    step(last)
                cost = cost_at[n] - credit_at[n]
                latency, ok = top_at[n], within_at[n]
            if cost < c_star:
                c_star, c_arg = cost, prefix + tails[j]
            if latency < t_star:
                t_star, t_arg = latency, prefix + tails[j]
            if ok if per_function else (cost <= budget and latency <= slo):
                feasible += 1
                i = _slot(front, cost, latency)
                if i >= 0:
                    placement = Placement(prefix + tails[j])
                    _insert(front, i, ParetoPoint(str(placement), cost, latency, placement))
        k = last - 1
        while k >= 0 and choice[k] == width - 1:
            choice[k] = 0
            k -= 1
        if k < 0:
            return _Found(c_star, c_arg, t_star, t_arg, front, feasible)
        choice[k] += 1
        depth = k


def _schedule(workflow: WorkflowSpec) -> list[list[tuple[int, tuple[int, ...], int]]]:
    """Per declaration index k, the functions whose critical-path distance
    is known once functions 0..k are placed: each as (topological position,
    predecessors' positions, declaration index), in topological order. That
    level is the deepest declaration index among the function and its
    ancestors."""
    schedule: list[list] = [[] for _ in workflow.functions]
    levels: list[int] = []
    for p, (i, preds) in enumerate(workflow._topology):
        level = max([i, *(levels[q] for q in preds)])
        levels.append(level)
        schedule[level].append((p, preds, i))
    return schedule

