"""Workflow DAG, per-function workload quantities, and latency lookup.

A workflow document carries the function profiles (all quantities as decimal
strings), the precedence edges, and an optional latency block that maps each
(function, platform) pair to a mean end-to-end latency in milliseconds. The
latency block may give explicit entries, or derive a platform's latencies by
multiplying a reference platform's entries by a factor; explicit entries win.
"""

from __future__ import annotations

import heapq
import json
from collections.abc import Mapping
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation, Overflow
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

from .errors import (
    CycleError,
    MissingLatencyError,
    SchemaError,
    UnknownFunctionError,
    UnplacedFunctionError,
)
from .money import CONTEXT, exact_sums, fmt_full

ZERO = Decimal(0)

#: Latency entries, in ms, must be below this. Below it a latency carried to
#: nine fractional digits (telemetry.MEAN_QUANTUM) fits money.CONTEXT's
#: precision, and every mean that calibration takes from a usage log, of
#: durations below telemetry's tenfold smaller bound, passes.
LATENCY_LIMIT = Decimal(1).scaleb(CONTEXT.prec - 9)


def _require_finite(value: Decimal, kind: str, name: str, field: str) -> None:
    """SchemaError naming the field of the named object when value is not a
    Decimal, or is a NaN or an infinity: the rule of a loaded quantity,
    which _parse_quantity always makes a finite Decimal."""
    if not isinstance(value, Decimal):
        raise SchemaError(f"{kind} {name!r}: {field} must be a Decimal, got {type(value).__name__}")
    if not value.is_finite():
        raise SchemaError(f"{kind} {name!r}: {field} must be finite, got {value}")


@dataclass(frozen=True)
class BaasUsage:
    """One backing-service consumption entry of a function.

    ``quantity`` is months of availability for fixed-priced components, GB
    processed per request for per-GB components, and 1 for plain per-request
    pricing. ``platforms`` optionally restricts the entry to the named
    platforms (services consumed on one provider only). A quantity that is
    not a Decimal, or is not finite, raises SchemaError.
    """

    component_id: str
    quantity: Decimal
    platforms: frozenset[str] | None = None

    def __post_init__(self):
        _require_finite(self.quantity, "baas_usage", self.component_id, "quantity")

    def applies_to(self, platform_id: str) -> bool:
        return self.platforms is None or platform_id in self.platforms


_QUANTITIES = ("n", "t", "mem", "d", "d_per_request", "r_in", "r_out")


@dataclass(frozen=True)
class FunctionProfile:
    """Workload quantities of one serverless function.

    ``t`` is the billed compute time per request in seconds; platform-specific
    measurements go in ``t_overrides`` (the same code runs faster or slower on
    different hardware). ``d`` is state retained per billing month regardless
    of traffic; ``d_per_request`` adds state that accrues with request volume.
    A quantity or compute time that is not a Decimal, is not finite, or is
    negative, raises SchemaError naming it; so does a ``baas_usage`` entry
    that is not a BaasUsage, or ``t_overrides`` that is not a mapping. The
    profile checks and keeps its own copy of ``t_overrides``, so a caller
    changing theirs later cannot undo the check. Unhashable:
    ``t_overrides`` is a mapping.
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

    __hash__ = None

    def __post_init__(self):
        fid = self.function_id
        quantities = (self.n, self.t, self.mem, self.d, self.d_per_request, self.r_in, self.r_out)
        for name, value in zip(_QUANTITIES, quantities):
            if not (isinstance(value, Decimal) and value.is_finite() and value >= 0):
                _require_finite(value, "function", fid, name)
                raise SchemaError(f"function {fid!r}: {name} must be >= 0")
        for usage in self.baas_usage:
            if not isinstance(usage, BaasUsage):
                raise SchemaError(
                    f"function {fid!r}: baas_usage entries must be BaasUsage, got {type(usage).__name__}"
                )
            if usage.quantity < 0:
                raise SchemaError(
                    f"function {self.function_id!r}: negative quantity for "
                    f"component {usage.component_id!r}"
                )
        if not isinstance(self.t_overrides, Mapping):
            raise SchemaError(
                f"function {fid!r}: t_overrides must be a mapping, got {type(self.t_overrides).__name__}"
            )
        overrides = dict(self.t_overrides)
        object.__setattr__(self, "t_overrides", overrides)
        for platform, t in overrides.items():
            _require_finite(t, "function", self.function_id, f"t_overrides[{platform!r}]")
            if t < 0:
                raise SchemaError(
                    f"function {self.function_id!r}: negative compute time for {platform!r}"
                )

    def compute_time_on(self, platform_id: str) -> Decimal:
        return self.t_overrides.get(platform_id, self.t)

    def stored_gb(self, n: Decimal) -> Decimal:
        """State retained at volume ``n``: d plus d_per_request per request,
        one fused multiply-add under CONTEXT, so rounded at most once at 50
        digits, as every product is."""
        return CONTEXT.fma(self.d_per_request, n, self.d)


@dataclass(frozen=True)
class WorkflowSpec:
    """A validated workflow: unique functions and an acyclic edge relation.
    A function that is not a FunctionProfile, or an edge that is not a
    (from, to) pair, raises SchemaError naming the field. Unhashable, as
    its function profiles are."""

    workflow_id: str
    functions: tuple[FunctionProfile, ...]
    edges: tuple[tuple[str, str], ...] = ()
    #: Function ids in declaration order.
    function_ids: tuple[str, ...] = field(init=False, repr=False, compare=False)
    #: Per function in walk order, the topological order that always takes
    #: the ready function declared first (so the declaration order whenever
    #: that is topological): its declaration index and the positions of its
    #: predecessors in this tuple.
    _topology: tuple = field(init=False, repr=False, compare=False)

    __hash__ = None

    def __post_init__(self):
        for f in self.functions:
            if not isinstance(f, FunctionProfile):
                raise SchemaError(f"workflow {self.workflow_id!r}: functions must be "
                                  f"FunctionProfile values, got {type(f).__name__}")
        ids = tuple(f.function_id for f in self.functions)
        object.__setattr__(self, "function_ids", ids)
        if len(set(ids)) != len(ids):
            raise SchemaError(f"workflow {self.workflow_id!r}: duplicate function ids")
        known = set(ids)
        for edge in self.edges:
            if not (isinstance(edge, _ARRAY) and len(edge) == 2):
                raise SchemaError(
                    f"workflow {self.workflow_id!r}: edges must be (from, to) pairs, got {edge!r}"
                )
            src, dst = edge
            for endpoint in edge:
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
        index = {fid: i for i, fid in enumerate(ids)}
        # Each step takes the ready function declared first, so a topological
        # declaration order is kept as it is.
        order: list[str] = []
        ready = [i for i, fid in enumerate(ids) if indeg[fid] == 0]
        while ready:
            fid = ids[heapq.heappop(ready)]
            order.append(fid)
            for nxt in succs[fid]:
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    heapq.heappush(ready, index[nxt])
        if len(order) != len(self.functions):
            raise CycleError(f"workflow {self.workflow_id!r}: edge relation contains a cycle")
        position = {fid: k for k, fid in enumerate(order)}
        topology = tuple((index[fid], tuple(position[p] for p in preds[fid])) for fid in order)
        object.__setattr__(self, "_topology", topology)

    def function(self, function_id: str) -> FunctionProfile:
        for f in self.functions:
            if f.function_id == function_id:
                return f
        raise UnknownFunctionError(f"unknown function {function_id!r}")


@dataclass(frozen=True, slots=True)
class Placement:
    """Total assignment of workflow functions to platforms, one entry per
    function: a function assigned twice raises SchemaError, as a repeated
    ``--assign`` does."""

    assignments: tuple[tuple[str, str], ...]

    def __post_init__(self):
        assigned = set()
        for fid, _ in self.assignments:
            if fid in assigned:
                raise SchemaError(f"placement assigns function {fid!r} twice")
            assigned.add(fid)

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
        """(function, platform) for each function in turn; platform_for
        raises for a function not assigned."""
        assigned = dict(self.assignments)
        for fid in function_ids:
            yield fid, assigned.get(fid) or self.platform_for(fid)

    def as_dict(self) -> dict[str, str]:
        """Function to platform, in assignment order."""
        return dict(self.assignments)

    def __str__(self) -> str:
        return ",".join(f"{fid}={pid}" for fid, pid in self.assignments)


@dataclass(frozen=True)
class LatencyTable:
    """Mean end-to-end latency (ms) per (function, platform) pair. An entry
    that is not a Decimal, is not finite, is negative or is not below
    LATENCY_LIMIT raises SchemaError naming its pair, and ``entries`` that
    is not a mapping raises it naming the field. The table checks and keeps
    its own copy of ``entries``, so a caller changing theirs later cannot
    undo the check. Unhashable: ``entries`` is a mapping."""

    entries: Mapping[tuple[str, str], Decimal]

    __hash__ = None

    def __post_init__(self):
        if not isinstance(self.entries, Mapping):
            raise SchemaError(f"latency entries must be a mapping, got {type(self.entries).__name__}")
        entries = dict(self.entries)
        object.__setattr__(self, "entries", entries)
        for (fid, pid), ms in entries.items():
            if not (isinstance(ms, Decimal) and ms.is_finite() and ms >= 0):
                if not isinstance(ms, Decimal):
                    raise SchemaError(f"latency ({fid}, {pid}) must be a Decimal, got {type(ms).__name__}")
                raise SchemaError(f"latency ({fid}, {pid}) must be finite and nonnegative, got {ms}")
            if ms >= LATENCY_LIMIT:
                raise SchemaError(f"latency ({fid}, {pid}) must be below {LATENCY_LIMIT} ms, got {ms}")

    def get(self, function_id: str, platform_id: str) -> Decimal:
        try:
            return self.entries[(function_id, platform_id)]
        except KeyError:
            raise MissingLatencyError(function_id, platform_id) from None


def critical_path(workflow: WorkflowSpec, weights: Sequence[Decimal]) -> Decimal:
    """Longest path through the workflow DAG, weighting each function, in
    declaration order, by ``weights``. On a chain this is the plain sum.
    DomainError when a path sum is not exact in money.CONTEXT's precision."""
    dist: list[Decimal] = []
    with exact_sums("a critical-path latency sum"):
        for i, preds in workflow._topology:
            # max() of the predecessors' distances, the first of equal ones,
            # without building a generator per function.
            longest = dist[preds[0]] if preds else ZERO
            for k in preds:
                if dist[k] > longest:
                    longest = dist[k]
            dist.append(longest + weights[i])
    return max(dist, default=ZERO)


# --- document loading -------------------------------------------------------

_FN_KEYS = {
    "function_id", "n", "t", "mem", "d", "d_per_request", "r_in", "r_out",
    "baas_usage", "workload_class", "t_overrides",
}
_WF_KEYS = {"workflow_id", "functions", "edges", "latency"}
_USAGE_KEYS = {"component_id", "quantity", "platforms"}
_LATENCY_KEYS = {"reference_platform", "entries", "factors"}


def _parse_quantity(raw, key: str, owner: str) -> Decimal:
    """raw as a finite Decimal, or a SchemaError naming ``key`` of ``owner``."""
    if isinstance(raw, str):
        try:
            value = Decimal(raw)
        except InvalidOperation:
            raise SchemaError(f"{owner}: {key}: not a decimal quantity: {raw!r}") from None
        if not value.is_finite():
            raise SchemaError(f"{owner}: {key}: quantity must be finite, got {raw!r}")
        return value
    if isinstance(raw, (bool, float)):  # a JSON true or false is an int to Python
        raise SchemaError(f"{owner}: {key} must be a decimal string, not a {type(raw).__name__}")
    if isinstance(raw, int):
        return Decimal(raw)
    raise SchemaError(f"{owner}: {key} must be a decimal string")


def _string(value, what: str) -> str:
    """value itself, or a SchemaError naming the field when it is not a string."""
    if not isinstance(value, str):
        raise SchemaError(f"{what} must be a string, got {type(value).__name__}")
    return value


_ARRAY = (list, tuple)


def _typed(value, kind, what: str):
    """value itself, or a SchemaError naming the field when it is not an array or object."""
    if not isinstance(value, kind):
        expected = "an array" if kind is _ARRAY else "an object"
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
            _string(p, f"{owner}: baas_usage platforms entry")
            for p in _typed(platforms, _ARRAY, f"{owner}: baas_usage platforms")
        )
    return BaasUsage(
        component_id=_string(obj["component_id"], f"{owner}: baas_usage component_id"),
        quantity=_parse_quantity(obj.get("quantity", "1"), "quantity", owner),
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
    fid = _string(obj["function_id"], "function_id")
    workload_class = obj.get("workload_class")
    if workload_class is not None and not isinstance(workload_class, str):
        raise SchemaError(f"{fid}: workload_class must be a string, got {type(workload_class).__name__}")
    t_overrides = _typed(obj.get("t_overrides") or {}, Mapping, f"{fid}: t_overrides")
    overrides = {str(platform): _parse_quantity(raw, "t", fid) for platform, raw in t_overrides.items()}
    return FunctionProfile(
        function_id=fid,
        n=_parse_quantity(obj.get("n", "0"), "n", fid),
        t=_parse_quantity(obj.get("t", "0"), "t", fid),
        mem=_parse_quantity(obj.get("mem", "0"), "mem", fid),
        d=_parse_quantity(obj.get("d", "0"), "d", fid),
        d_per_request=_parse_quantity(obj.get("d_per_request", "0"), "d_per_request", fid),
        r_in=_parse_quantity(obj.get("r_in", "0"), "r_in", fid),
        r_out=_parse_quantity(obj.get("r_out", "0"), "r_out", fid),
        baas_usage=tuple(
            _parse_usage(u, fid)
            for u in _typed(obj.get("baas_usage", []), _ARRAY, f"{fid}: baas_usage")
        ),
        workload_class=workload_class,
        t_overrides=overrides,
    )


def _parse_latency_block(block: Mapping, functions: tuple[FunctionProfile, ...]) -> LatencyTable:
    _typed(block, Mapping, "latency")
    unknown = set(block) - _LATENCY_KEYS
    if unknown:
        raise SchemaError(f"unknown latency field(s): {sorted(unknown)}")
    entries: dict[tuple[str, str], Decimal] = {}
    declared = {f.function_id for f in functions}
    for fid, per_platform in _typed(block.get("entries") or {}, Mapping, "latency entries").items():
        if str(fid) not in declared:
            raise UnknownFunctionError(f"latency entries name unknown function {fid!r}")
        if not isinstance(per_platform, Mapping):
            raise SchemaError(f"latency entries for {fid!r} must map platform to ms")
        owner = f"latency {fid}"
        for pid, raw in per_platform.items():
            entries[(str(fid), str(pid))] = _parse_quantity(raw, "ms", owner)
    reference = block.get("reference_platform")
    if reference is not None:
        _string(reference, "latency reference_platform")
    factors = _typed(block.get("factors") or {}, Mapping, "latency factors")
    if factors and reference is None:
        raise SchemaError("latency factors require a reference_platform")
    for pid, raw in factors.items():
        factor = _parse_quantity(raw, "factor", f"latency factor {pid}")
        if factor < 0:
            raise SchemaError(f"latency factor {pid} must be nonnegative, got {raw}")
        for f in functions:
            key = (f.function_id, str(pid))
            ref_key = (f.function_id, reference)
            if key not in entries and ref_key in entries:
                try:
                    entries[key] = CONTEXT.multiply(entries[ref_key], factor)
                except Overflow:
                    raise SchemaError(
                        f"latency factor {pid} ({raw}) times the latency of "
                        f"({f.function_id}, {reference}) is out of range for ({f.function_id}, {pid})"
                    ) from None
    return LatencyTable(entries=entries)


def load_workflow_document(source: str | Path | IO[str] | Mapping) -> tuple[WorkflowSpec, LatencyTable | None]:
    """Load a workflow document; returns the workflow and its latency table, if any.
    Every id in it (workflow, function, component, platform, edge endpoint) must be
    a string."""
    doc = _read_json(source)
    if not isinstance(doc, Mapping):
        raise SchemaError("workflow document must be a JSON object")
    unknown = set(doc) - _WF_KEYS
    if unknown:
        raise SchemaError(f"unknown workflow field(s): {sorted(unknown)}")
    for key in ("workflow_id", "functions"):
        if key not in doc:
            raise SchemaError(f"workflow missing required field {key!r}")
    workflow_id = _string(doc["workflow_id"], "workflow_id")
    functions = tuple(_parse_function(f) for f in _typed(doc["functions"], _ARRAY, "functions"))
    edges = []
    for edge in _typed(doc.get("edges", []), _ARRAY, "edges"):
        if not isinstance(edge, (list, tuple)) or len(edge) != 2:
            raise SchemaError(f"edges must be [from, to] pairs, got {edge!r}")
        src, dst = edge
        if not (isinstance(src, str) and isinstance(dst, str)):
            raise SchemaError(f"edge endpoints must be strings, got {edge!r}")
        edges.append((src, dst))
    workflow = WorkflowSpec(workflow_id=workflow_id, functions=functions, edges=tuple(edges))
    latency = None
    if "latency" in doc and doc["latency"] is not None:
        latency = _parse_latency_block(doc["latency"], functions)
    return workflow, latency


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
    except ValueError as exc:  # a JSONDecodeError, or an integer too long to convert
        raise SchemaError(f"{_name(source)} is not valid JSON: {exc}") from None
    except RecursionError:
        raise SchemaError(f"{_name(source)} is not valid JSON: nested too deeply") from None


def _name(source) -> str:
    """The file name of a path or an open file, for an error message."""
    return str(getattr(source, "name", source))


def _not_utf8(source, exc: UnicodeDecodeError) -> SchemaError:
    """The error for an input that is not UTF-8 text, naming its file."""
    return SchemaError(f"{_name(source)} is not UTF-8 text: {exc.reason}")


def bundled_fixture_dir() -> Path:
    return Path(__file__).parent / "fixtures"
