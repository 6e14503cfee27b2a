"""Plain oracles of the placement search: every placement enumerated and
priced whole.

``enumerate_placements`` lists each total assignment once with
``itertools.product``: functions in declaration order, platforms in
argument order, the last function varying fastest. ``min_cost`` and
``min_time`` price each placement with the model's ``cost_of`` or
``latency_of``, in that order, so the first placement that fails raises its
error, and take the builtin ``min``, which keeps the first of equal values.
Nothing here calls the search in ``cosmos.optimizer``; the tests require
``optimize`` to agree with these.
"""

from __future__ import annotations

import itertools
from decimal import Decimal
from operator import itemgetter
from typing import Iterator, Sequence

from cosmos.optimizer import PlacementModel
from cosmos.workflow import Placement, WorkflowSpec


def enumerate_placements(workflow: WorkflowSpec, platforms: Sequence[str]) -> Iterator[Placement]:
    """Every total assignment exactly once, in enumeration order."""
    for combo in itertools.product(platforms, repeat=len(workflow.functions)):
        yield Placement(tuple(zip(workflow.function_ids, combo)))


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
