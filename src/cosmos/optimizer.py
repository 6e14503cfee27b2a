"""Placement search: anchors, auto-derived weights, and constrained optimization.

The search is exhaustive over all |platforms|^|functions| assignments (capped),
which keeps results exact and reproducible at the instance sizes this tool
targets. Weights default to the reciprocals of the two unconstrained anchors:
alpha = 1/C* (cheapest achievable cost) and beta = 1/T* (fastest achievable
latency), so cost and latency enter the objective equally normalized.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping, Sequence

from .catalog import PlatformCatalog
from .engine import (
    _resolve_catalog,
    fixed_charges,
    function_cost,
    function_latency,
    shared_fixed_credit,
)
from .errors import (
    CapExceededError,
    DegenerateAnchorError,
    DomainError,
    InfeasibleError,
    MissingLatencyError,
    SchemaError,
)
from .money import CONTEXT, dec, div
from .workflow import (
    _ARRAY,
    LatencyTable,
    Placement,
    WorkflowSpec,
    _parse_quantity,
    _read_json,
    _typed,
    workflow_latency,
)

ZERO = Decimal(0)

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
    i = bisect_left(front, point.latency, key=lambda p: p.latency)
    # Only the cheapest kept point at or below the point's latency can dominate
    # it: front[i] when it ties on latency, else its lower-latency neighbour.
    rival = i if i < len(front) and front[i].latency == point.latency else i - 1
    if rival >= 0 and front[rival].cost <= point.cost:
        return
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


class PlacementModel:
    """Maps placements to (cost, latency) from per-(function, platform) prices.

    Each pair is priced once, on first use, and kept with the fixed BaaS
    charges it bills. A placement costs the sum of its pairs' prices less the
    shared fixed-charge credit, exactly as ``workflow_cost`` bills it; its
    latency is the critical path over the model's latency table.
    """

    def __init__(self, workflow: WorkflowSpec, latencies: LatencyTable | None = None):
        self.workflow = workflow
        self.latencies = latencies if latencies is not None else LatencyTable({})
        self._prices: dict[tuple[str, str], tuple[Decimal, tuple]] = {}

    def _price(self, function_id: str, platform_id: str) -> tuple[Decimal, tuple]:
        """(cost, fixed charges) of one pair; the base model has no prices of its own."""
        raise MissingLatencyError(function_id, platform_id)

    def _pair(self, function_id: str, platform_id: str) -> tuple[Decimal, tuple]:
        key = (function_id, platform_id)
        if key not in self._prices:
            self._prices[key] = self._price(function_id, platform_id)
        return self._prices[key]

    def function_cost_of(self, function_id: str, platform_id: str) -> Decimal:
        return self._pair(function_id, platform_id)[0]

    def function_latency_of(self, function_id: str, platform_id: str) -> Decimal:
        return self.latencies.get(function_id, platform_id)

    def cost_of(self, placement: Placement) -> Decimal:
        assigned = dict(reversed(placement.assignments))  # first entry wins, as in platform_for
        total = ZERO
        charges = []
        for fid in self.workflow.function_ids:
            cost, fixed = self._pair(fid, assigned.get(fid) or placement.platform_for(fid))
            total += cost
            charges += fixed
        return total - shared_fixed_credit(charges)

    def latency_of(self, placement: Placement) -> Decimal:
        return workflow_latency(self.workflow, placement, self.latencies)

    def points(self, platforms: Sequence[str]) -> list[ParetoPoint]:
        """Per-(function, platform) alternatives, for front extraction."""
        return [
            ParetoPoint(
                label=f"{fid}@{pid}",
                cost=self.function_cost_of(fid, pid),
                latency=self.function_latency_of(fid, pid),
            )
            for fid in self.workflow.function_ids
            for pid in platforms
        ]


class CatalogModel(PlacementModel):
    """Costs from rate cards; latencies from a measured latency table."""

    def __init__(
        self,
        workflow: WorkflowSpec,
        catalogs: Mapping[str, PlatformCatalog],
        latencies: LatencyTable | None = None,
        volume: Decimal | int | str | None = None,
    ):
        super().__init__(workflow, latencies)
        self.catalogs = catalogs
        self.volume = None if volume is None else dec(volume)

    def _price(self, function_id: str, platform_id: str) -> tuple[Decimal, tuple]:
        profile = self.workflow.function(function_id)
        catalog = _resolve_catalog(self.catalogs, platform_id)
        latency_ms = function_latency(profile, catalog, self.latencies)
        cost = function_cost(profile, catalog, latency_ms=latency_ms, volume=self.volume).total
        return cost, tuple(fixed_charges(profile, catalog))


class PointTableModel(PlacementModel):
    """Direct per-(function, platform) cost and latency measurements."""

    def __init__(
        self, workflow: WorkflowSpec, table: Mapping[tuple[str, str], tuple[Decimal, Decimal]]
    ):
        super().__init__(
            workflow, LatencyTable({key: latency for key, (_, latency) in table.items()})
        )
        self._prices.update({key: (cost, ()) for key, (cost, _) in table.items()})


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
    platforms = list(platforms)
    if not platforms:
        raise DomainError("at least one platform is required")
    total = len(platforms) ** len(workflow.functions)
    if total > cap:
        raise CapExceededError(total, cap)
    fids = workflow.function_ids

    def generate() -> Iterator[Placement]:
        for combo in itertools.product(platforms, repeat=len(fids)):
            yield Placement(tuple(zip(fids, combo)))

    return generate()


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

WEIGHT_MODES = ("auto_pareto", "manual")
SCOPES = ("workflow", "per_function")


@dataclass(frozen=True)
class OptimizationConfig:
    """Budget/latency constraints plus weighting and constraint scope."""

    budget: Decimal | None = None
    latency_slo: Decimal | None = None
    weight_mode: str = "auto_pareto"
    alpha: Decimal | None = None
    beta: Decimal | None = None
    scope: str = "workflow"

    def __post_init__(self):
        if self.budget is not None and self.budget <= 0:
            raise DomainError("budget must be > 0")
        if self.latency_slo is not None and self.latency_slo <= 0:
            raise DomainError("latency_slo must be > 0")
        if self.weight_mode not in WEIGHT_MODES:
            raise DomainError(f"weight_mode must be one of {WEIGHT_MODES}")
        if self.scope not in SCOPES:
            raise DomainError(f"scope must be one of {SCOPES}")
        if self.weight_mode == "manual":
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


def _is_feasible(
    model: PlacementModel,
    placement: Placement,
    cost: Decimal,
    latency: Decimal,
    config: OptimizationConfig,
) -> bool:
    if config.scope == "workflow":
        if config.budget is not None and cost > config.budget:
            return False
        if config.latency_slo is not None and latency > config.latency_slo:
            return False
        return True
    for fid in model.workflow.function_ids:
        pid = placement.platform_for(fid)
        if config.budget is not None and model.function_cost_of(fid, pid) > config.budget:
            return False
        if (
            config.latency_slo is not None
            and model.function_latency_of(fid, pid) > config.latency_slo
        ):
            return False
    return True


def optimize(
    workflow: WorkflowSpec,
    platforms: Sequence[str],
    model: PlacementModel,
    config: OptimizationConfig | None = None,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> OptimizationResult:
    """Minimize alpha*cost + beta*latency over feasible placements.

    One enumeration prices each placement once, finds the anchors as min_cost
    and min_time do, and folds each feasible placement into a Pareto front. The
    best is the front member with the least (a*cost + b*latency, cost, latency),
    where a, b = alpha, beta, or T*, C* for auto weights (cost/C* + latency/T*
    times C*·T*, so no division). The key strictly orders (cost, latency) pairs
    and never rises when either falls, so a front member minimizes it over all
    feasible placements; equal pairs keep the first enumerated placement.
    Raises DegenerateAnchorError for auto weights with a zero anchor, then
    InfeasibleError carrying the anchors when no placement is feasible.
    """
    config = config or OptimizationConfig()
    c_star = t_star = None
    front: list[ParetoPoint] = []
    feasible_count = 0
    total_count = 0
    for placement in enumerate_placements(workflow, platforms, cap):
        total_count += 1
        cost = model.cost_of(placement)
        latency = model.latency_of(placement)
        if c_star is None or cost < c_star:
            c_star, c_arg = cost, placement
        if t_star is None or latency < t_star:
            t_star, t_arg = latency, placement
        if _is_feasible(model, placement, cost, latency, config):
            feasible_count += 1
            _admit(front, ParetoPoint(str(placement), cost, latency, placement))

    if config.weight_mode == "auto_pareto":
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
        feasible_count=feasible_count,
        total_count=total_count,
    )
