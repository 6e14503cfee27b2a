"""Plain oracles of the placement search: every placement enumerated and
priced whole.

``walk_order`` is the order the search walks the functions in, found
from the edges and the declaration order alone: the topological order that
always takes the ready function declared first. ``enumerate_placements``
lists each total assignment once with ``itertools.product``: functions in
walk order, platforms in argument order, the last function varying
fastest, each placement listing the functions in declaration order.
``min_cost`` and
``min_time`` price each placement with the model's ``cost_of`` or
``latency_of``, in that order, so the first placement that fails raises its
error, and take the builtin ``min``, which keeps the first of equal values.
``walk_oracle`` enumerates a prepared search's int rows the same way.
Nothing here calls the search in ``cosmos.optimizer``; the tests require
``optimize`` and its walk to agree with these.
"""

from __future__ import annotations

import itertools
from decimal import Decimal, localcontext
from operator import itemgetter
from typing import Iterator, NamedTuple, Sequence

from cosmos.engine import ZERO, bill_fixed
from cosmos.money import exact_sums
from cosmos.optimizer import PlacementModel
from cosmos.workflow import Placement, WorkflowSpec


def walk_order(workflow: WorkflowSpec) -> list[int]:
    """The declaration indices of the functions in walk order: repeatedly
    the least index whose predecessors are all taken."""
    ids = workflow.function_ids
    preds = [{ids.index(src) for src, dst in workflow.edges if dst == fid} for fid in ids]
    order: list[int] = []
    while len(order) < len(ids):
        order.append(min(i for i in range(len(ids)) if i not in order and preds[i] <= set(order)))
    return order


def enumerate_placements(workflow: WorkflowSpec, platforms: Sequence[str]) -> Iterator[Placement]:
    """Every total assignment exactly once, in enumeration order."""
    order = walk_order(workflow)
    for combo in itertools.product(platforms, repeat=len(order)):
        chosen = dict(zip(order, combo))
        yield Placement(tuple((fid, chosen[i]) for i, fid in enumerate(workflow.function_ids)))


def _argmin(workflow, platforms, measure) -> tuple[Decimal, Placement]:
    """The lowest measure and its placement; the first enumerated wins ties."""
    return min(((measure(p), p) for p in enumerate_placements(workflow, platforms)), key=itemgetter(0))


def min_cost(
    workflow: WorkflowSpec, platforms: Sequence[str], model: PlacementModel
) -> tuple[Decimal, Placement]:
    """C*: the cheapest workflow cost and its placement."""
    return _argmin(workflow, platforms, model.cost_of)


def min_time(
    workflow: WorkflowSpec, platforms: Sequence[str], model: PlacementModel
) -> tuple[Decimal, Placement]:
    """T*: the fastest workflow latency and its placement."""
    return _argmin(workflow, platforms, model.latency_of)


class WalkOracle(NamedTuple):
    """What walk_oracle finds, named as the walk's _Found and its counters
    name it."""

    c_arg: int
    t_arg: int
    costs: list[int]
    latencies: list[int]
    indices: list[int]
    feasible: int
    placements: int


def walk_oracle(problem) -> WalkOracle:
    """Every placement of a search that optimizer._problem prepared, in int
    units, listed with ``itertools.product`` over its rows, one per
    function in walk order. A placement costs its pairs' int cost sum less
    the credit engine.bill_fixed bills for their fixed charges, scaled to
    the cost exponent; its latency is the longest path over the workflow's
    edges of its pairs' int latencies.
    It is feasible when every pair is within the pair bounds and both sums
    are within the floored budget and SLO. Returns the indices of the first
    cheapest and the first fastest placement, the feasible front (latency
    ascending, each member cheaper than every feasible placement before it
    in (latency, cost, index) order) as parallel lists, and both counts."""
    wf = problem.workflow
    position = {wf.function_ids[i]: k for k, i in enumerate(walk_order(wf))}
    preds = [[] for _ in position]
    for src, dst in wf.edges:
        preds[position[dst]].append(position[src])
    points = []
    for pairs in itertools.product(*problem.rows):
        ledger, credit = {}, ZERO
        with exact_sums("a fixed-charge credit"):
            for pair in pairs:
                if pair.fixed:
                    ledger, credit = bill_fixed(ledger, credit, pair.fixed)
        with localcontext(prec=200):
            cost = sum(pair.cost for pair in pairs) - int(credit.scaleb(-problem.cost_exponent))
        dist = []
        for k, pair in enumerate(pairs):
            dist.append(max((dist[q] for q in preds[k]), default=0) + pair.latency)
        latency = max(dist, default=0)
        feasible = (all(pair.within for pair in pairs)
                    and cost <= problem.budget and latency <= problem.slo)
        points.append((cost, latency, feasible))
    front = []
    for latency, cost, i in sorted((t, c, i) for i, (c, t, ok) in enumerate(points) if ok):
        if not front or cost < front[-1][0]:
            front.append((cost, latency, i))
    return WalkOracle(
        c_arg=min(range(len(points)), key=lambda i: points[i][0]),
        t_arg=min(range(len(points)), key=lambda i: points[i][1]),
        costs=[c for c, _, _ in front],
        latencies=[t for _, t, _ in front],
        indices=[i for _, _, i in front],
        feasible=sum(ok for _, _, ok in points),
        placements=len(points),
    )
