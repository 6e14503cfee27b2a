import itertools
import json
import random
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from cosmos.errors import (
    CycleError,
    DomainError,
    MissingLatencyError,
    SchemaError,
    UnknownFunctionError,
    UnplacedFunctionError,
)
from cosmos.optimizer import PairEntry, PlacementModel
from cosmos.workflow import (
    LATENCY_LIMIT,
    BaasUsage,
    FunctionProfile,
    LatencyTable,
    Placement,
    WorkflowSpec,
    critical_path,
    load_workflow_document,
    serialize_workflow,
)


def _wf_doc(functions, edges):
    return {
        "workflow_id": "t",
        "functions": [{"function_id": f} for f in functions],
        "edges": edges,
    }


def _chain(fids):
    return WorkflowSpec(
        workflow_id="chain",
        functions=tuple(FunctionProfile(function_id=f) for f in fids),
        edges=tuple(zip(fids, fids[1:])),
    )


# --- loading ----------------------------------------------------------------


def test_bundled_pipeline_shape(pipeline):
    wf, latencies = pipeline
    assert len(wf.functions) == 3
    assert len(wf.edges) == 2
    assert wf.function_ids == ("data-retrieval", "data-processing", "ai-inference")
    assert latencies is not None


def test_latency_factors_expand_from_reference(pipeline):
    _, latencies = pipeline
    assert latencies.get("data-retrieval", "aws-lambda-edge") == Decimal("125.28")
    assert latencies.get("data-processing", "aws-lambda-edge") == Decimal("88.56")
    assert latencies.get("ai-inference", "aws-lambda-edge") == Decimal("45.36")


def test_explicit_latency_entries_override_factors():
    doc = {
        "workflow_id": "t",
        "functions": [{"function_id": "a"}],
        "latency": {
            "reference_platform": "base",
            "entries": {"a": {"base": "100", "fast": "37"}},
            "factors": {"fast": "0.5"},
        },
    }
    _, latencies = load_workflow_document(doc)
    assert latencies.get("a", "fast") == Decimal("37")


def test_single_function_no_edges_is_valid():
    wf, _ = load_workflow_document(_wf_doc(["only"], []))
    assert wf.function_ids == ("only",)


def test_two_cycle_rejected():
    with pytest.raises(CycleError):
        load_workflow_document(_wf_doc(["a", "b"], [["a", "b"], ["b", "a"]]))


def test_self_loop_rejected():
    with pytest.raises(CycleError):
        load_workflow_document(_wf_doc(["a"], [["a", "a"]]))


def test_dangling_edge_rejected():
    with pytest.raises(UnknownFunctionError):
        load_workflow_document(_wf_doc(["a"], [["a", "ghost"]]))


def test_latency_entries_for_an_undeclared_function_rejected():
    doc = _wf_doc(["a"], [])
    doc["latency"] = {"entries": {"a": {"p": "1"}, "ghost": {"p": "100"}}}
    with pytest.raises(UnknownFunctionError, match="'ghost'"):
        load_workflow_document(doc)


def test_duplicate_function_ids_rejected():
    with pytest.raises(SchemaError):
        load_workflow_document(_wf_doc(["a", "a"], []))


def test_negative_quantity_rejected():
    doc = _wf_doc(["a"], [])
    doc["functions"][0]["n"] = "-1"
    with pytest.raises(SchemaError):
        load_workflow_document(doc)


def test_float_quantity_rejected():
    doc = _wf_doc(["a"], [])
    doc["functions"][0]["t"] = 0.1
    with pytest.raises(SchemaError):
        load_workflow_document(doc)


def test_unknown_function_field_rejected():
    doc = _wf_doc(["a"], [])
    doc["functions"][0]["memory"] = "1"
    with pytest.raises(SchemaError):
        load_workflow_document(doc)


_MISTYPED = {
    "functions": lambda doc: doc.update(functions=5),
    "edges": lambda doc: doc.update(edges=5),
    "latency": lambda doc: doc.update(latency=[]),
    "entries": lambda doc: doc.update(latency={"entries": ["a"]}),
    "factors": lambda doc: doc.update(latency={"reference_platform": "p", "factors": ["x"]}),
    "t_overrides": lambda doc: doc["functions"][0].update(t_overrides=["x"]),
    "baas_usage": lambda doc: doc["functions"][0].update(baas_usage=5),
    "platforms": lambda doc: doc["functions"][0].update(
        baas_usage=[{"component_id": "ml-provisioning", "platforms": "aws-x86"}]
    ),
    "n": lambda doc: doc["functions"][0].update(n="abc"),
    "mem": lambda doc: doc["functions"][0].update(mem="NaN"),
    "quantity": lambda doc: doc["functions"][0].update(
        baas_usage=[{"component_id": "ml-provisioning", "quantity": "Infinity"}]
    ),
}


@pytest.mark.parametrize("field", sorted(_MISTYPED))
def test_mistyped_field_is_schema_error_naming_it(field):
    doc = _wf_doc(["a"], [])
    _MISTYPED[field](doc)
    with pytest.raises(SchemaError, match=field):
        load_workflow_document(doc)


_NOT_FINITE = ["NaN", "sNaN", "Infinity", "-Infinity"]

# Profiles built in code with one quantity not finite, and the field each names.
_BUILT_WITH = {
    "t": (lambda q: FunctionProfile("f", t=q), "function 'f': t"),
    "mem": (lambda q: FunctionProfile("f", mem=q), "function 'f': mem"),
    "t_overrides": (lambda q: FunctionProfile("f", t_overrides={"gcp": q}), "function 'f': t_overrides['gcp']"),
    "quantity": (lambda q: FunctionProfile("f", baas_usage=(BaasUsage("svc", q),)), "baas_usage 'svc': quantity"),
}


@pytest.mark.parametrize("field", sorted(_BUILT_WITH))
@pytest.mark.parametrize("value", _NOT_FINITE)
def test_a_quantity_built_in_code_that_is_not_finite_is_a_schema_error(field, value):
    build, what = _BUILT_WITH[field]
    with pytest.raises(SchemaError) as exc:
        build(Decimal(value))
    assert str(exc.value) == f"{what} must be finite, got {value}"


_QUANTITY = st.decimals(min_value=0, max_value=10**9, places=6, allow_nan=False, allow_infinity=False)
_NAME = st.text(min_size=1, max_size=8)
_QUANTITY_FIELDS = ("n", "t", "mem", "d", "d_per_request", "r_in", "r_out")


@st.composite
def _documents(draw):
    fids = draw(st.lists(_NAME, min_size=1, max_size=5, unique=True))
    usage = st.builds(
        BaasUsage,
        component_id=_NAME,
        quantity=_QUANTITY,
        platforms=st.none() | st.frozensets(_NAME, max_size=3),
    )
    functions = tuple(
        FunctionProfile(
            function_id=fid,
            **{name: draw(_QUANTITY) for name in _QUANTITY_FIELDS},
            baas_usage=tuple(draw(st.lists(usage, max_size=3))),
            workload_class=draw(st.none() | _NAME),
            t_overrides=draw(st.dictionaries(_NAME, _QUANTITY, max_size=3)),
        )
        for fid in fids
    )
    # Edges only run forward in declaration order, so the graph stays acyclic.
    forward = list(itertools.combinations(fids, 2))
    edges = tuple(draw(st.lists(st.sampled_from(forward), unique=True))) if forward else ()
    workflow = WorkflowSpec(workflow_id=draw(_NAME), functions=functions, edges=edges)
    entries = st.dictionaries(st.tuples(st.sampled_from(fids), _NAME), _QUANTITY, max_size=6)
    latencies = draw(st.none() | st.builds(LatencyTable, entries))
    return workflow, latencies


@settings(max_examples=50, deadline=None)
@given(_documents())
def test_serialized_workflow_loads_back_equal(document):
    workflow, latencies = document
    text = json.dumps(serialize_workflow(workflow, latencies))
    assert load_workflow_document(json.loads(text)) == (workflow, latencies)


# --- latency aggregation ------------------------------------------------------


def _latency(wf, placement, latencies):
    """The placement's critical path over a latency table, as optimize's
    model prices it."""
    model = PlacementModel(wf, {pair: PairEntry(Decimal(0), ms) for pair, ms in latencies.entries.items()})
    return model.latency_of(placement)


def test_chain_latency_sums_hand_added_values():
    wf = _chain(["r", "p", "i"])
    placement = Placement.uniform(wf, "x86")
    latencies = LatencyTable(
        {("r", "x86"): Decimal(232), ("p", "x86"): Decimal(164), ("i", "x86"): Decimal(84)}
    )
    assert _latency(wf, placement, latencies) == Decimal(480)


def test_single_function_latency():
    wf = _chain(["r"])
    latencies = LatencyTable({("r", "gcp"): Decimal(215)})
    assert _latency(wf, Placement.uniform(wf, "gcp"), latencies) == Decimal(215)


def test_parallel_branches_use_critical_path():
    wf = WorkflowSpec(
        workflow_id="par",
        functions=(FunctionProfile(function_id="a"), FunctionProfile(function_id="b")),
        edges=(),
    )
    latencies = LatencyTable({("a", "p"): Decimal(100), ("b", "p"): Decimal(300)})
    assert _latency(wf, Placement.uniform(wf, "p"), latencies) == Decimal(300)


def test_missing_latency_entry_names_pair():
    wf = _chain(["r"])
    with pytest.raises(MissingLatencyError) as exc:
        _latency(wf, Placement.uniform(wf, "gcp"), LatencyTable({}))
    assert exc.value.function_id == "r"
    assert exc.value.platform_id == "gcp"


@pytest.mark.parametrize("ms", ["-5", "-0.001", "NaN", "Infinity"])
def test_latency_table_rejects_a_bad_entry_naming_its_pair(ms):
    with pytest.raises(SchemaError, match=r"latency \(data-retrieval, leo\) must be finite and nonnegative"):
        LatencyTable({("data-processing", "leo"): Decimal(1), ("data-retrieval", "leo"): Decimal(ms)})


@pytest.mark.parametrize("ms", ["1e41", "9e999999"])
def test_latency_table_rejects_an_entry_at_or_over_the_bound(ms):
    below = Decimal("9" * 41 + ".999999999")
    assert below < LATENCY_LIMIT
    LatencyTable({("data-retrieval", "leo"): below})
    with pytest.raises(SchemaError) as exc:
        LatencyTable({("data-processing", "leo"): below, ("data-retrieval", "leo"): Decimal(ms)})
    assert str(exc.value) == f"latency (data-retrieval, leo) must be below 1E+41 ms, got {Decimal(ms)}"


@given(st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=12))
def test_chain_latency_equals_sum(values):
    fids = [f"f{i}" for i in range(len(values))]
    wf = _chain(fids)
    latencies = LatencyTable({(fid, "p"): Decimal(v) for fid, v in zip(fids, values)})
    assert _latency(wf, Placement.uniform(wf, "p"), latencies) == sum(
        (Decimal(v) for v in values), Decimal(0)
    )


def test_latency_sums_are_exact_to_50_digits_or_raise():
    wf = _chain(["a", "b", "c"])
    placement = Placement.uniform(wf, "p")
    exact = LatencyTable({(fid, "p"): Decimal("1234567890123456789012345.123456789") for fid in "abc"})
    assert _latency(wf, placement, exact) == Decimal("3703703670370370367037035.370370367")
    near = Decimal("9" * 41 + ".999999999")
    with pytest.raises(DomainError, match="^a critical-path latency sum needs more than 50 significant digits"):
        _latency(wf, placement, LatencyTable({(fid, "p"): near for fid in "abc"}))


def _brute_force_critical_path(n_nodes, edges, weights):
    """Oracle: enumerate every path and take the heaviest."""
    succs = {i: [j for (a, j) in edges if a == i] for i in range(n_nodes)}
    best = Decimal(0)

    def walk(node, acc):
        nonlocal best
        acc = acc + weights[node]
        if not succs[node]:
            best = max(best, acc)
        for nxt in succs[node]:
            walk(nxt, acc)

    for start in range(n_nodes):
        if not any(dst == start for _, dst in edges):
            walk(start, Decimal(0))
    return best


@pytest.mark.parametrize(
    "edges, weights, expected",
    [
        # c's predecessors a and b are both 0 away; the first, by edge order,
        # gives its digits to c's distance 0.0 + 1 or 0 + 1.
        ((("a", "c"), ("b", "c")), ("0.0", "0", "1"), "1.0"),
        ((("b", "c"), ("a", "c")), ("0.0", "0", "1"), "1"),
        # Equal nonzero distances 1 and 1.0: the first is kept.
        ((("a", "c"), ("b", "c")), ("1", "1.0", "1"), "2"),
        ((("b", "c"), ("a", "c")), ("1", "1.0", "1"), "2.0"),
    ],
)
def test_critical_path_keeps_the_digits_of_the_first_longest_predecessor(edges, weights, expected):
    wf = WorkflowSpec(
        workflow_id="digits", functions=tuple(FunctionProfile(f) for f in "abc"), edges=edges
    )
    assert str(critical_path(wf, [Decimal(w) for w in weights])) == expected


@given(st.data())
def test_dag_latency_matches_path_enumeration(data):
    n = data.draw(st.integers(min_value=1, max_value=8))
    # Upper-triangular adjacency keeps the graph acyclic by construction.
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if data.draw(st.booleans(), label=f"edge{i}-{j}")
    ]
    weights = {i: Decimal(data.draw(st.integers(0, 1000), label=f"w{i}")) for i in range(n)}
    fids = [f"f{i}" for i in range(n)]
    wf = WorkflowSpec(
        workflow_id="g",
        functions=tuple(FunctionProfile(function_id=f) for f in fids),
        edges=tuple((fids[a], fids[b]) for a, b in edges),
    )
    latencies = LatencyTable({(fids[i], "p"): weights[i] for i in range(n)})
    got = _latency(wf, Placement.uniform(wf, "p"), latencies)
    assert got == _brute_force_critical_path(n, edges, weights)


def test_zero_latency_function_never_changes_result():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 7)
        fids = [f"f{i}" for i in range(n)]
        edges = [
            (fids[i], fids[j]) for i, j in itertools.combinations(range(n), 2) if rng.random() < 0.4
        ]
        weights = {fid: Decimal(rng.randint(0, 500)) for fid in fids}
        wf = WorkflowSpec(
            workflow_id="g",
            functions=tuple(FunctionProfile(function_id=f) for f in fids),
            edges=tuple(edges),
        )
        latencies = LatencyTable({(fid, "p"): weights[fid] for fid in fids})
        base = _latency(wf, Placement.uniform(wf, "p"), latencies)

        # Splice a zero-weight function onto an arbitrary attachment point.
        anchor = rng.choice(fids)
        wf2 = WorkflowSpec(
            workflow_id="g2",
            functions=wf.functions + (FunctionProfile(function_id="zero"),),
            edges=wf.edges + ((anchor, "zero"),),
        )
        latencies2 = LatencyTable({**dict(latencies.entries), ("zero", "p"): Decimal(0)})
        assert _latency(wf2, Placement.uniform(wf2, "p"), latencies2) == base


def test_placement_helpers():
    wf = _chain(["a", "b"])
    placement = Placement.of({"a": "x", "b": "y"})
    assert placement.platform_for("a") == "x"
    with pytest.raises(UnplacedFunctionError):
        placement.platform_for("ghost")
    assert str(placement) == "a=x,b=y"


def test_as_dict_keeps_the_first_entry_per_function_like_platform_for():
    placement = Placement((("f0", "a"), ("f1", "c"), ("f0", "b")))
    assert placement.as_dict() == {"f0": "a", "f1": "c"}
    assert list(placement.as_dict()) == ["f0", "f1"]
    assert Placement((("f0", "a"), ("f0", "b"))).as_dict() == {"f0": "a"}
    assert placement.as_dict()["f0"] == placement.platform_for("f0")


def test_function_ids_are_computed_once_in_declaration_order():
    wf = WorkflowSpec(
        workflow_id="w",
        functions=tuple(FunctionProfile(function_id=f) for f in ("c", "a", "b")),
        edges=(("b", "c"),),
    )
    assert wf.function_ids == ("c", "a", "b")
    assert wf.function_ids is wf.function_ids
    assert "function_ids" not in repr(wf)
