"""Workflow DAG, per-function workload quantities, and latency lookup.

A workflow document carries the function profiles (all quantities as decimal
strings), the precedence edges, and an optional latency block that maps each
(function, platform) pair to a mean end-to-end latency in milliseconds. The
latency block may give explicit entries, or derive a platform's latencies by
multiplying a reference platform's entries by a factor; explicit entries win.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from decimal import Decimal
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping, Sequence

from .errors import (
    CycleError,
    DomainError,
    MissingLatencyError,
    SchemaError,
    UnknownFunctionError,
    UnplacedFunctionError,
)
from .money import CONTEXT, dec, fmt_full

ZERO = Decimal(0)


@dataclass(frozen=True)
class BaasUsage:
    """One backing-service consumption entry of a function.

    ``quantity`` is months of availability for fixed-priced components, GB
    processed per request for per-GB components, and 1 for plain per-request
    pricing. ``platforms`` optionally restricts the entry to the named
    platforms (services consumed on one provider only).
    """

    component_id: str
    quantity: Decimal
    platforms: frozenset[str] | None = None

    def applies_to(self, platform_id: str) -> bool:
        return self.platforms is None or platform_id in self.platforms


@dataclass(frozen=True)
class FunctionProfile:
    """Workload quantities of one serverless function.

    ``t`` is the billed compute time per request in seconds; platform-specific
    measurements go in ``t_overrides`` (the same code runs faster or slower on
    different hardware). ``d`` is state retained per billing month regardless
    of traffic; ``d_per_request`` adds state that accrues with request volume.
    """

    function_id: str
    n: Decimal = ZERO
    t: Decimal = ZERO
    mem: Decimal = ZERO
    d: Decimal = ZERO
    d_per_request: Decimal = ZERO
    r_in: Decimal = ZERO
    r_out: Decimal = ZERO
    baas_usage: tuple[BaasUsage, ...] = ()
    workload_class: str | None = None
    t_overrides: Mapping[str, Decimal] = field(default_factory=dict)

    def __post_init__(self):
        for name in ("n", "t", "mem", "d", "d_per_request", "r_in", "r_out"):
            if getattr(self, name) < 0:
                raise SchemaError(f"function {self.function_id!r}: {name} must be >= 0")
        for usage in self.baas_usage:
            if usage.quantity < 0:
                raise SchemaError(
                    f"function {self.function_id!r}: negative quantity for "
                    f"component {usage.component_id!r}"
                )
        for platform, t in self.t_overrides.items():
            if t < 0:
                raise SchemaError(
                    f"function {self.function_id!r}: negative compute time for {platform!r}"
                )

    def compute_time_on(self, platform_id: str) -> Decimal:
        return self.t_overrides.get(platform_id, self.t)

    def stored_gb(self, n: Decimal) -> Decimal:
        return self.d + CONTEXT.multiply(self.d_per_request, n)


@dataclass(frozen=True)
class WorkflowSpec:
    """A validated workflow: unique functions and an acyclic edge relation."""

    workflow_id: str
    functions: tuple[FunctionProfile, ...]
    edges: tuple[tuple[str, str], ...] = ()
    #: Function ids in declaration order.
    function_ids: tuple[str, ...] = field(init=False, repr=False, compare=False)
    #: Per function in topological order (ties in declaration order): its
    #: declaration index and the positions of its predecessors in this tuple.
    _topology: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ids = tuple(f.function_id for f in self.functions)
        object.__setattr__(self, "function_ids", ids)
        if len(set(ids)) != len(ids):
            raise SchemaError(f"workflow {self.workflow_id!r}: duplicate function ids")
        known = set(ids)
        for src, dst in self.edges:
            for endpoint in (src, dst):
                if endpoint not in known:
                    raise UnknownFunctionError(
                        f"edge ({src!r}, {dst!r}) references unknown function {endpoint!r}"
                    )
        succs: dict[str, list[str]] = {fid: [] for fid in ids}
        preds: dict[str, list[str]] = {fid: [] for fid in ids}
        for src, dst in self.edges:
            succs[src].append(dst)
            preds[dst].append(src)
        indeg = {fid: len(preds[fid]) for fid in ids}
        # Deterministic: ties resolve in declaration order.
        order: list[str] = []
        ready = [fid for fid in ids if indeg[fid] == 0]
        while ready:
            fid = ready.pop(0)
            order.append(fid)
            for nxt in succs[fid]:
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    ready.append(nxt)
        if len(order) != len(self.functions):
            raise CycleError(f"workflow {self.workflow_id!r}: edge relation contains a cycle")
        index = {fid: i for i, fid in enumerate(ids)}
        position = {fid: k for k, fid in enumerate(order)}
        topology = tuple((index[fid], tuple(position[p] for p in preds[fid])) for fid in order)
        object.__setattr__(self, "_topology", topology)

    def function(self, function_id: str) -> FunctionProfile:
        for f in self.functions:
            if f.function_id == function_id:
                return f
        raise UnknownFunctionError(f"unknown function {function_id!r}")


@dataclass(frozen=True)
class Placement:
    """Total assignment of workflow functions to platforms."""

    assignments: tuple[tuple[str, str], ...]

    @classmethod
    def uniform(cls, workflow: WorkflowSpec, platform_id: str) -> "Placement":
        return cls(tuple((fid, platform_id) for fid in workflow.function_ids))

    @classmethod
    def of(cls, mapping: Mapping[str, str] | Iterable[tuple[str, str]]) -> "Placement":
        pairs = mapping.items() if isinstance(mapping, Mapping) else mapping
        return cls(tuple(pairs))

    def platform_for(self, function_id: str) -> str:
        for fid, pid in self.assignments:
            if fid == function_id:
                return pid
        raise UnplacedFunctionError(f"placement does not assign function {function_id!r}")

    def platforms(self) -> tuple[str, ...]:
        return tuple(pid for _, pid in self.assignments)

    def resolve(self, function_ids: Iterable[str]) -> Iterator[tuple[str, str]]:
        """(function, platform) for each function in turn, the first entry per
        function winning; platform_for raises for a function not assigned."""
        assigned = dict(reversed(self.assignments))
        for fid in function_ids:
            yield fid, assigned.get(fid) or self.platform_for(fid)

    def as_dict(self) -> dict[str, str]:
        """Function to platform, the first entry per function winning, as in platform_for."""
        return dict(self.resolve(fid for fid, _ in self.assignments))

    def __str__(self) -> str:
        return ",".join(f"{fid}={pid}" for fid, pid in self.assignments)


@dataclass(frozen=True)
class LatencyTable:
    """Mean end-to-end latency (ms) per (function, platform) pair. An entry
    that is not finite or is negative raises SchemaError naming its pair."""

    entries: Mapping[tuple[str, str], Decimal]

    def __post_init__(self):
        for (fid, pid), ms in self.entries.items():
            if not (Decimal(ms).is_finite() and ms >= 0):
                raise SchemaError(
                    f"latency ({fid}, {pid}) must be finite and nonnegative, got {ms}"
                )

    def get(self, function_id: str, platform_id: str) -> Decimal:
        try:
            return self.entries[(function_id, platform_id)]
        except KeyError:
            raise MissingLatencyError(function_id, platform_id) from None


def critical_path(workflow: WorkflowSpec, weights: Sequence[Decimal]) -> Decimal:
    """Longest path through the workflow DAG, weighting each function, in
    declaration order, by ``weights``. On a chain this is the plain sum."""
    dist: list[Decimal] = []
    for i, preds in workflow._topology:
        dist.append(max((dist[k] for k in preds), default=ZERO) + weights[i])
    return max(dist, default=ZERO)


def workflow_latency(
    workflow: WorkflowSpec, placement: Placement, latencies: LatencyTable
) -> Decimal:
    """End-to-end latency of a placement: the DAG critical path.

    Node weight is the function's latency on its assigned platform.
    """
    weights = [latencies.get(fid, pid) for fid, pid in placement.resolve(workflow.function_ids)]
    return critical_path(workflow, weights)


# --- document loading -------------------------------------------------------

_FN_KEYS = {
    "function_id", "n", "t", "mem", "d", "d_per_request", "r_in", "r_out",
    "baas_usage", "workload_class", "t_overrides",
}
_WF_KEYS = {"workflow_id", "functions", "edges", "latency"}
_USAGE_KEYS = {"component_id", "quantity", "platforms"}
_LATENCY_KEYS = {"reference_platform", "entries", "factors"}


def _parse_quantity(obj: Mapping, key: str, owner: str, default: str = "0") -> Decimal:
    raw = obj.get(key, default)
    if isinstance(raw, float):
        raise SchemaError(f"{owner}: {key} must be a decimal string, not a float")
    if isinstance(raw, (str, int)):
        try:
            return dec(raw)
        except DomainError as exc:
            raise SchemaError(f"{owner}: {key}: {exc}") from exc
    raise SchemaError(f"{owner}: {key} must be a decimal string")


_ARRAY = (list, tuple)


def _typed(value, kind, what: str):
    """value itself, or a SchemaError naming the field when it is not an array or object."""
    if not isinstance(value, kind):
        expected = "an object" if kind is Mapping else "an array"
        raise SchemaError(f"{what} must be {expected}, got {type(value).__name__}")
    return value


def _parse_usage(obj: Mapping, owner: str) -> BaasUsage:
    if not isinstance(obj, Mapping):
        raise SchemaError(f"{owner}: baas_usage entries must be objects")
    unknown = set(obj) - _USAGE_KEYS
    if unknown:
        raise SchemaError(f"{owner}: unknown baas_usage field(s): {sorted(unknown)}")
    if "component_id" not in obj:
        raise SchemaError(f"{owner}: baas_usage entry missing component_id")
    platforms = obj.get("platforms")
    if platforms is not None:
        platforms = frozenset(
            str(p) for p in _typed(platforms, _ARRAY, f"{owner}: baas_usage platforms")
        )
    return BaasUsage(
        component_id=str(obj["component_id"]),
        quantity=_parse_quantity(obj, "quantity", owner, default="1"),
        platforms=platforms,
    )


def _parse_function(obj: Mapping) -> FunctionProfile:
    if not isinstance(obj, Mapping):
        raise SchemaError("functions array entries must be objects")
    unknown = set(obj) - _FN_KEYS
    if unknown:
        raise SchemaError(f"unknown function field(s): {sorted(unknown)}")
    if "function_id" not in obj:
        raise SchemaError("function entry missing function_id")
    fid = str(obj["function_id"])
    t_overrides = _typed(obj.get("t_overrides") or {}, Mapping, f"{fid}: t_overrides")
    overrides = {
        str(platform): _parse_quantity({"t": raw}, "t", fid)
        for platform, raw in t_overrides.items()
    }
    return FunctionProfile(
        function_id=fid,
        n=_parse_quantity(obj, "n", fid),
        t=_parse_quantity(obj, "t", fid),
        mem=_parse_quantity(obj, "mem", fid),
        d=_parse_quantity(obj, "d", fid),
        d_per_request=_parse_quantity(obj, "d_per_request", fid),
        r_in=_parse_quantity(obj, "r_in", fid),
        r_out=_parse_quantity(obj, "r_out", fid),
        baas_usage=tuple(
            _parse_usage(u, fid)
            for u in _typed(obj.get("baas_usage", []), _ARRAY, f"{fid}: baas_usage")
        ),
        workload_class=obj.get("workload_class"),
        t_overrides=overrides,
    )


def _parse_latency_block(block: Mapping, functions: tuple[FunctionProfile, ...]) -> LatencyTable:
    _typed(block, Mapping, "latency")
    unknown = set(block) - _LATENCY_KEYS
    if unknown:
        raise SchemaError(f"unknown latency field(s): {sorted(unknown)}")
    entries: dict[tuple[str, str], Decimal] = {}
    for fid, per_platform in _typed(block.get("entries") or {}, Mapping, "latency entries").items():
        if not isinstance(per_platform, Mapping):
            raise SchemaError(f"latency entries for {fid!r} must map platform to ms")
        for pid, raw in per_platform.items():
            entries[(str(fid), str(pid))] = _parse_quantity({"ms": raw}, "ms", f"latency {fid}")
    reference = block.get("reference_platform")
    factors = _typed(block.get("factors") or {}, Mapping, "latency factors")
    if factors and reference is None:
        raise SchemaError("latency factors require a reference_platform")
    for pid, raw in factors.items():
        factor = _parse_quantity({"factor": raw}, "factor", f"latency factor {pid}")
        if factor < 0:
            raise SchemaError(f"latency factor {pid} must be nonnegative, got {raw}")
        for f in functions:
            key = (f.function_id, str(pid))
            ref_key = (f.function_id, str(reference))
            if key not in entries and ref_key in entries:
                entries[key] = CONTEXT.multiply(entries[ref_key], factor)
    return LatencyTable(entries=entries)


def load_workflow_document(source: str | Path | IO[str] | Mapping) -> tuple[WorkflowSpec, LatencyTable | None]:
    """Load a workflow document; returns the workflow and its latency table, if any."""
    doc = _read_json(source)
    if not isinstance(doc, Mapping):
        raise SchemaError("workflow document must be a JSON object")
    unknown = set(doc) - _WF_KEYS
    if unknown:
        raise SchemaError(f"unknown workflow field(s): {sorted(unknown)}")
    for key in ("workflow_id", "functions"):
        if key not in doc:
            raise SchemaError(f"workflow missing required field {key!r}")
    functions = tuple(_parse_function(f) for f in _typed(doc["functions"], _ARRAY, "functions"))
    edges = []
    for edge in _typed(doc.get("edges", []), _ARRAY, "edges"):
        if not isinstance(edge, (list, tuple)) or len(edge) != 2:
            raise SchemaError(f"edges must be [from, to] pairs, got {edge!r}")
        edges.append((str(edge[0]), str(edge[1])))
    workflow = WorkflowSpec(
        workflow_id=str(doc["workflow_id"]), functions=functions, edges=tuple(edges)
    )
    latency = None
    if "latency" in doc and doc["latency"] is not None:
        latency = _parse_latency_block(doc["latency"], functions)
    return workflow, latency


def load_workflow(source: str | Path | IO[str] | Mapping) -> WorkflowSpec:
    """Load and validate a workflow document, rejecting cycles and dangling edges."""
    workflow, _ = load_workflow_document(source)
    return workflow


def serialize_workflow(workflow: WorkflowSpec, latencies: LatencyTable | None = None) -> dict:
    """Render a workflow, and its latency table if given, back to document form.

    Quantities become full-precision decimal strings, so the document loads
    back to an equal workflow and table.
    """
    doc: dict = {
        "workflow_id": workflow.workflow_id,
        "functions": [
            {
                "function_id": f.function_id,
                "n": fmt_full(f.n),
                "t": fmt_full(f.t),
                "mem": fmt_full(f.mem),
                "d": fmt_full(f.d),
                "d_per_request": fmt_full(f.d_per_request),
                "r_in": fmt_full(f.r_in),
                "r_out": fmt_full(f.r_out),
                "workload_class": f.workload_class,
                "baas_usage": [
                    {
                        "component_id": u.component_id,
                        "quantity": fmt_full(u.quantity),
                        **({"platforms": sorted(u.platforms)} if u.platforms is not None else {}),
                    }
                    for u in f.baas_usage
                ],
                "t_overrides": {p: fmt_full(t) for p, t in sorted(f.t_overrides.items())},
            }
            for f in workflow.functions
        ],
        "edges": [list(e) for e in workflow.edges],
    }
    if latencies is not None:
        entries: dict[str, dict[str, str]] = {}
        for (fid, pid), ms in sorted(latencies.entries.items()):
            entries.setdefault(fid, {})[pid] = fmt_full(ms)
        doc["latency"] = {"entries": entries}
    return doc


def _read_json(source):
    if isinstance(source, Mapping):
        return source
    try:
        if hasattr(source, "read"):
            return json.load(source)
        with open(source, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except UnicodeDecodeError as exc:
        raise _not_utf8(source, exc) from None


def _not_utf8(source, exc: UnicodeDecodeError) -> SchemaError:
    """The error for an input that is not UTF-8 text, naming its file."""
    return SchemaError(f"{getattr(source, 'name', source)} is not UTF-8 text: {exc.reason}")


def bundled_fixture_dir() -> Path:
    return Path(__file__).parent / "fixtures"
