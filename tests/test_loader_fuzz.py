"""Every loader either loads its input or raises a CosmosError that exits 2.

One property drives the catalog, workflow and point-table loaders and the
usage-log fold; a loaded point table is also built into a placement model,
which checks its values. Their inputs are bundled documents with a few values
replaced, deleted or added, arbitrary JSON, text cut short or holding a
byte that is not UTF-8, and usage logs of malformed headers and rows. Any
other exception would reach the catch-all in cli.main and exit 3.
"""

import copy
import csv
import io
import json

from hypothesis import example, given, settings, strategies as st

from cosmos.catalog import BUNDLED_PLATFORMS, SCALES, bundled_catalog_dir, load_catalog
from cosmos.errors import CosmosError
from cosmos.optimizer import PlacementModel, load_point_table
from cosmos.telemetry import USAGE_FIELDS, UsageLog, summarize_usage
from cosmos.workflow import bundled_fixture_dir, load_workflow_document

FIXTURES = bundled_fixture_dir()


def _summarize(source):
    return summarize_usage(UsageLog(source))


PIPELINE, _ = load_workflow_document(FIXTURES / "imagery-pipeline.json")


def _points(source):
    return PlacementModel(PIPELINE, load_point_table(source))


LOADERS = {
    "catalog": load_catalog,
    "workflow": load_workflow_document,
    "points": _points,
    "usage": _summarize,
}


def _json(path):
    return json.loads(path.read_text(encoding="utf-8"))


DOCUMENTS = {
    "catalog": [_json(bundled_catalog_dir() / f"{pid}.json") for pid in BUNDLED_PLATFORMS],
    "workflow": [_json(FIXTURES / name) for name in
                 ("imagery-pipeline.json", "imagery-pipeline-curve-study.json")],
    "points": [_json(FIXTURES / "tradeoff-points.json")],
}


def _words(node):
    """Every object key and every string value in a document."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield key
            yield from _words(value)
    elif isinstance(node, list):
        for value in node:
            yield from _words(value)
    elif isinstance(node, str):
        yield node


# Field names, ids, enum values and rate scales the loaders know, so that an
# added key or a replaced value is sometimes a real one.
_WORD = st.sampled_from(sorted(
    {w for docs in DOCUMENTS.values() for doc in docs for w in _words(doc)} | set(SCALES)
))

# Decimal strings at and beyond the edges of what the loaders and
# money.CONTEXT accept, next to plain ones.
_QUANTITY = st.sampled_from([
    "0", "1", "0.1", "-1", "-0", "1e45", "1e600000", "1e999999", "-1e999999", "1e-999999",
    "NaN", "sNaN", "Infinity", "abc", "", " 1", "1_0", "0x10",
])
_SCALAR = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8) | _QUANTITY | _WORD
)
_VALUE = st.recursive(
    _SCALAR,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_WORD | st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def _mutated(draw, docs):
    """A bundled document with one to three values replaced, deleted or added."""
    doc = copy.deepcopy(draw(st.sampled_from(docs)))
    for _ in range(draw(st.integers(1, 3))):
        node = doc
        while node:
            key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
            child = node[key]
            if isinstance(child, (dict, list)) and child and draw(st.integers(0, 3)):
                node = child
                continue
            action = draw(st.sampled_from(("replace", "delete", "add")))
            if action == "replace":
                node[key] = draw(_VALUE)
            elif action == "delete":
                del node[key]
            elif isinstance(node, dict):
                node[draw(_WORD)] = draw(_VALUE)
            else:
                node.insert(key, draw(_VALUE))
            break
    return doc


@st.composite
def _damaged(draw, text):
    """text as UTF-8 bytes, whole, cut short or with a byte that is not UTF-8."""
    data = text.encode("utf-8", "surrogatepass")
    at = draw(st.integers(0, len(data)))
    damage = draw(st.sampled_from(("none", "none", "cut", "byte")))
    if damage == "cut":
        return data[:at]
    if damage == "byte":
        return data[:at] + b"\xff" + data[at:]
    return data


@st.composite
def _documents(draw, docs):
    return draw(_damaged(json.dumps(draw(st.one_of(_mutated(docs), _mutated(docs), _VALUE)))))


_LOG_FIELDS = {
    "timestamp": st.sampled_from(["2024-11-04T09:00:00Z", "2024-11-04T09:00:00Z", "2024-11-04", "2024-13-01T00:00:00Z"]),
    "function_id": st.sampled_from(["f", "g"]),
    "platform_id": st.sampled_from(["p", "q"]),
    "duration_ms": _QUANTITY | st.decimals().map(str) | st.integers().map(str),
    "bytes_in": st.integers().map(str),
    "bytes_out": st.integers().map(str),
    "status": st.sampled_from(["ok", "ok", "error", "OK", ""]),
}
_LOG_ROW = st.one_of(
    st.tuples(*_LOG_FIELDS.values()),
    st.tuples(*(values | st.text(max_size=6) for values in _LOG_FIELDS.values())),
    st.lists(st.text(max_size=6), max_size=9),
)
_HEADER = st.one_of(
    st.just(list(USAGE_FIELDS)),
    st.just(list(USAGE_FIELDS)),
    st.lists(st.sampled_from(USAGE_FIELDS) | st.text(max_size=6), max_size=8),
)


@st.composite
def _usage_logs(draw):
    out = io.StringIO()
    csv.writer(out).writerows([draw(_HEADER), *draw(st.lists(_LOG_ROW, max_size=12))])
    return draw(_damaged(out.getvalue()))


@st.composite
def _inputs(draw):
    kind = draw(st.sampled_from(sorted(LOADERS)))
    return kind, draw(_usage_logs() if kind == "usage" else _documents(DOCUMENTS[kind]))


def _edited(kind, *edits):
    """The first bundled document of a kind, encoded, with each (key, ..., value) path set."""
    doc = copy.deepcopy(DOCUMENTS[kind][0])
    for *path, key, value in edits:
        node = doc
        for step in path:
            node = node[step]
        node[key] = value
    return kind, json.dumps(doc).encode()


def _log(*rows):
    return "\n".join([",".join(USAGE_FIELDS), *rows, ""]).encode()


# Mistyped and out-of-range inputs that the loader tests already cover, and
# the inputs that once reached the catch-all.
SEEDS = [
    ("points", b'{"points": 5}'),
    ("points", b'{"points": [5]}'),
    _edited("points", ("points", 0, "cost", [1])),
    _edited("points", ("points", 0, "cost", 1.5)),
    _edited("points", ("points", 0, "cost", True)),
    _edited("points", ("points", 0, "latency_ms", "abc")),
    _edited("points", ("points", 0, "cost", "-1")),
    _edited("points", ("points", 0, "latency_ms", "1e45")),
    _edited("points", ("points", 0, "cost", "1e-999999")),
    _edited("catalog", ("components", 0, "rate", "abc")),
    _edited("catalog", ("components", 0, "rate", 0.2)),
    _edited("catalog", ("components", 8, "rate", "1e999999"), ("components", 8, "scale", "per-hour")),
    _edited("workflow", ("functions", 5)),
    _edited("workflow", ("edges", 5)),
    _edited("workflow", ("latency", [])),
    _edited("workflow", ("latency", "entries", ["a"])),
    _edited("workflow", ("latency", "factors", ["x"])),
    _edited("workflow", ("functions", 0, "t_overrides", ["x"])),
    _edited("workflow", ("functions", 0, "baas_usage", 5)),
    _edited("workflow", ("functions", 0, "n", "abc")),
    _edited("workflow", ("functions", 0, "n", True)),
    _edited("workflow", ("functions", 0, "mem", "NaN")),
    _edited("workflow", ("functions", 0, "n", "1e600000"), ("functions", 0, "t", "1e600000")),
    _edited("workflow", ("latency", "entries", "data-retrieval", "leo", False)),
    _edited("workflow", ("latency", "factors", "aws-lambda-edge", True)),
    _edited("workflow", ("latency", "entries", "data-retrieval", "aws-x86", "1e999999"),
            ("latency", "factors", "aws-lambda-edge", "1e999999")),
    ("workflow", b'{"workflow_id": "w", '),
    ("workflow", b"[" * 100_000),
    ("workflow", b"1" * 5_000),
    ("catalog", b"\xff"),
    ("usage", _log("2024-11-04T09:00:00Z,f,p,1e100,0,0,ok")),
    ("usage", _log("2024-11-04T09:00:00Z,f,p,NaN,0,0,ok", "2024-11-04T09:00:00Z,f,p,-5,0,0,ok")),
    ("usage", _log(f"2024-11-04T09:00:00Z,{'f' * 200_000},p,1,0,0,ok")),
    ("usage", b"t" * 200_000 + b"\n"),
    ("usage", b""),
    ("usage", _log("2024-11-04T09:00:00Z,f,p,1,0,0,ok") + b"\xff\n"),
]


def _seeded(test):
    for seed in reversed(SEEDS):
        test = example(seed)(test)
    return test


@settings(max_examples=300, deadline=None)
@given(_inputs())
@_seeded
def test_every_loader_input_loads_or_exits_2(case):
    kind, data = case
    source = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="")
    try:
        LOADERS[kind](source)
    except CosmosError as exc:
        assert exc.exit_code == 2, f"{type(exc).__name__}: {exc}"
