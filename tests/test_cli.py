import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from decimal import Decimal, localcontext
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cosmos import cli, engine, optimizer
from cosmos.catalog import bundled_catalog_dir
from cosmos.cli import main
from cosmos.errors import (
    CapExceededError,
    CosmosError,
    CycleError,
    DegenerateAnchorError,
    DomainError,
    DuplicateIdError,
    HeaderError,
    InfeasibleError,
    MissingLatencyError,
    NegativeRateError,
    NoDataError,
    RowError,
    SchemaError,
    UnitError,
    UnknownComponentError,
    UnknownFunctionError,
    UnknownPlatformError,
    UnplacedFunctionError,
)
from cosmos.workflow import bundled_fixture_dir, load_workflow_document

D = Decimal
FIXTURES = bundled_fixture_dir()
PIPELINE = str(FIXTURES / "imagery-pipeline.json")
CURVE_STUDY = str(FIXTURES / "imagery-pipeline-curve-study.json")
POINTS = str(FIXTURES / "tradeoff-points.json")
USAGE = str(FIXTURES / "sample-usage.csv")

ALL_PLATFORMS = ["--platform", "aws-x86", "--platform", "aws-arm",
                 "--platform", "aws-lambda-edge", "--platform", "gcp"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _csv_rows(text):
    return list(csv.DictReader(io.StringIO(text)))


# --- cost ---------------------------------------------------------------------


def test_cost_uniform_x86(capsys):
    code, out, _ = run(
        capsys, "cost", "--workflow", PIPELINE, "--platform", "aws-x86", "--format", "csv"
    )
    assert code == 0
    rows = {r["function"]: r for r in _csv_rows(out)}
    assert D(rows["data-retrieval"]["total"]) == D("2.331")
    assert D(rows["data-processing"]["total"]) == D("3.211")
    assert D(rows["ai-inference"]["total"]) == D("17.3086")
    assert D(rows["workflow"]["total"]) == D("22.8506")


def test_cost_gcp_zero_volume_keeps_only_fixed_charges(capsys):
    code, out, _ = run(
        capsys, "cost", "--workflow", CURVE_STUDY, "--platform", "gcp",
        "--volume", "0", "--format", "csv",
    )
    assert code == 0
    rows = {r["function"]: r for r in _csv_rows(out)}
    assert D(rows["workflow"]["total"]) == D("61.056")


def test_cost_mixed_assignment(capsys):
    code, out, _ = run(
        capsys, "cost", "--workflow", PIPELINE,
        "--platform", "gcp", "--platform", "aws-arm",
        "--assign", "data-retrieval=gcp", "--assign", "data-processing=gcp",
        "--assign", "ai-inference=aws-arm", "--format", "csv",
    )
    assert code == 0
    rows = {r["function"]: r for r in _csv_rows(out)}
    assert D(rows["workflow"]["total"]) == D("20.06499")


def test_cost_unknown_platform_names_the_id(capsys):
    code, _, err = run(capsys, "cost", "--workflow", PIPELINE, "--platform", "azure-functions")
    assert code == 2
    assert "azure-functions" in err


def test_two_catalogs_of_one_platform_exit_2_naming_the_id_and_both_paths(capsys, tmp_path):
    # The second card bills nothing: taken silently, it would make the total 0.
    gcp = bundled_catalog_dir() / "gcp.json"
    card = json.loads(gcp.read_text(encoding="utf-8"))
    for component in card["components"]:
        component["rate"] = "0"
    free = tmp_path / "free-gcp.json"
    free.write_text(json.dumps(card), encoding="utf-8")
    code, out, err = run(capsys, "cost", "--workflow", PIPELINE, "--catalog", str(gcp),
                         "--catalog", str(free))
    assert (code, out) == (2, "")
    assert err == f"error: --catalog {gcp} and --catalog {free} both define platform 'gcp'\n"


def test_assign_naming_a_function_twice_exits_2_naming_it(capsys):
    code, out, err = run(
        capsys, "cost", "--workflow", PIPELINE,
        "--platform", "gcp", "--platform", "aws-arm",
        "--assign", "data-retrieval=gcp", "--assign", "data-processing=gcp",
        "--assign", "ai-inference=aws-arm", "--assign", "data-retrieval=aws-arm",
    )
    assert (code, out, err) == (2, "", "error: --assign names function 'data-retrieval' twice\n")


def test_cost_table_display_rounds_to_four_decimals(capsys):
    code, out, _ = run(capsys, "cost", "--workflow", PIPELINE, "--platform", "gcp")
    assert code == 0
    assert "1.4703" in out  # 1.47029 displayed half-even at 4 decimals
    assert "1.47029" not in out


def test_cost_shows_the_shared_credit_as_its_own_row(capsys, tmp_path):
    doc = json.loads(Path(PIPELINE).read_text(encoding="utf-8"))
    doc["functions"][1]["baas_usage"].append({"component_id": "ml-provisioning", "quantity": "1"})
    shared = tmp_path / "shared.json"
    shared.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run(capsys, "cost", "--workflow", str(shared), "--platform", "aws-x86")
    assert code == 0
    rows = {line.split()[0]: line.split()[2:] for line in out.splitlines()[1:]}
    assert list(rows) == ["data-retrieval", "data-processing", "ai-inference", "shared-credit", "workflow"]
    assert [r[2] for r in rows.values()] == ["1.0600", "15.6776", "16.0376", "-13.7376", "19.0376"]
    assert rows["shared-credit"] == ["0.0000", "0.0000", "-13.7376", "0.0000", "0.0000", "-13.7376"]


@settings(max_examples=40, deadline=None)
@given(
    months=st.tuples(st.integers(0, 12), st.integers(0, 12)),
    platforms=st.lists(st.sampled_from(["aws-x86", "aws-arm", "gcp", "leo"]), min_size=3, max_size=3),
)
def test_cost_function_rows_and_the_credit_row_add_up_to_the_workflow_row(tmp_path_factory, months, platforms):
    doc = json.loads(Path(PIPELINE).read_text(encoding="utf-8"))
    for fid, m in zip((0, 1), months):
        doc["functions"][fid]["baas_usage"].append(
            {"component_id": "ml-provisioning", "quantity": str(m)}
        )
    path = tmp_path_factory.mktemp("shared") / "wf.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    fids = [f["function_id"] for f in doc["functions"]]
    argv = ["cost", "--workflow", str(path),
            *(a for pid in sorted(set(platforms)) for a in ("--platform", pid)),
            *(a for fid, pid in zip(fids, platforms) for a in ("--assign", f"{fid}={pid}"))]
    views = {}
    for fmt in ("json", "csv"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main([*argv, "--format", fmt]) == 0
        views[fmt] = out.getvalue()

    report = json.loads(views["json"])
    credit = report.get("shared_credit")
    assert credit is None or D(credit["total"]) != 0
    csv_rows = {r["function"]: r for r in _csv_rows(views["csv"])}
    assert ("shared-credit" in csv_rows) == (credit is not None)
    for name in (*engine.DRIVER_FIELDS, "total"):
        rows = sum(D(report["functions"][fid][name]) for fid in fids)
        deduction = D(credit[name]) if credit else 0
        assert rows + deduction == D(report["workflow"][name])
        assert sum(D(r[name]) for r in csv_rows.values() if r["function"] != "workflow") == D(
            csv_rows["workflow"][name]
        )


_FUNCTIONS = ["data-retrieval", "data-processing", "ai-inference"]
_FIVE = sorted(["aws-x86", "aws-arm", "aws-lambda-edge", "gcp", "leo"])
#: Per report command: its arguments, and the (function, platform, volume)
#: of each itemization it makes, in order. curve and crossover itemize each
#: function of a line at volume 0 and again at volume 1.
_ITEMIZED = {
    "cost": (["--platform", "leo"], [(f, "leo", None) for f in _FUNCTIONS]),
    "breakdown": (["--platform", "leo"], [(f, "leo", None) for f in _FUNCTIONS]),
    "pareto": (
        [a for p in _FIVE for a in ("--platform", p)],
        [(f, p, None) for f in _FUNCTIONS for p in _FIVE],
    ),
    "curve": (["--platform", "gcp"], [(f, "gcp", v) for v in (0, 1) for f in _FUNCTIONS]),
    "crossover": (
        ["--platform", "gcp", "--platform", "leo", "--function", "ai-inference"],
        [("ai-inference", p, v) for p in ("gcp", "leo") for v in (0, 1)],
    ),
}


@pytest.mark.parametrize("command", list(_ITEMIZED))
def test_cost_and_breakdown_itemize_each_function_once(capsys, monkeypatch, command):
    """cost and breakdown itemize each function once; so do the other
    report commands, per pair and volume they price (see _ITEMIZED)."""
    calls = []
    itemize = engine.component_charges

    def counted(*args, **kwargs):
        calls.append((args[0].function_id, args[1].platform_id, kwargs.get("volume")))
        return itemize(*args, **kwargs)

    monkeypatch.setattr(engine, "component_charges", counted)
    monkeypatch.setattr(cli, "component_charges", counted)
    monkeypatch.setattr(optimizer, "component_charges", counted)
    argv, expected = _ITEMIZED[command]
    code, _, _ = run(capsys, command, "--workflow", PIPELINE, *argv)
    assert code == 0
    if command in ("cost", "breakdown"):
        assert [fid for fid, _, _ in calls] == ["data-retrieval", "data-processing", "ai-inference"]
    assert calls == expected


def test_breakdown_itemizes_components(capsys):
    code, out, _ = run(
        capsys, "breakdown", "--workflow", PIPELINE, "--platform", "aws-x86", "--format", "csv"
    )
    assert code == 0
    rows = _csv_rows(out)
    gateway = [r for r in rows if r["component"] == "http-gateway"]
    assert len(gateway) == 3  # every function pays the gateway on aws
    assert all(D(r["amount"]) == D("1.06") for r in gateway)


# --- curve and crossover ---------------------------------------------------------


def test_curve_reports_intercept_and_slope(capsys):
    code, out, _ = run(
        capsys, "curve", "--workflow", PIPELINE, "--platform", "aws-x86",
        "--function", "ai-inference", "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert D(report["fixed"]) == D("13.7376")
    assert D(report["slope_per_million"]) == D("3.571")


def test_curve_slope_per_million_past_28_digits_is_exact(capsys, tmp_path):
    # A 29-digit invocation rate: scaled under a 28-digit context, its
    # per-million slope lost the last digit that its own sample keeps.
    card = tmp_path / "x.json"
    card.write_text(json.dumps({"platform_id": "x", "layer": "Cloud", "components": [
        {"id": "inv", "driver": "Invocation", "unit": "PerRequest",
         "rate": "12345678901234567.123456789012", "scale": "base"},
        {"id": "cpu", "driver": "Compute", "unit": "PerGBSecond", "rate": "0", "scale": "base"},
    ]}), encoding="utf-8")
    workflow = tmp_path / "wf.json"
    workflow.write_text(json.dumps({"workflow_id": "w", "functions": [{"function_id": "f", "n": "1"}]}))
    code, out, _ = run(capsys, "curve", "--workflow", str(workflow), "--catalog", str(card),
                       "--sample", "1000000", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["slope_per_million"] == report["samples"][0]["cost"] == "12345678901234567123456.789012"


def test_curve_samples(capsys):
    code, out, _ = run(
        capsys, "curve", "--workflow", PIPELINE, "--platform", "gcp",
        "--function", "data-retrieval", "--sample", "0", "--sample", "1000000",
        "--format", "tsv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n_requests\tcost_usd"
    assert lines[1].split("\t") == ["0", "0"]
    assert D(lines[2].split("\t")[1]) == D("1.3324")


def test_crossover_workflow_star(capsys):
    code, out, _ = run(
        capsys, "crossover", "--workflow", CURVE_STUDY,
        "--platform", "aws-x86", "--platform", "gcp",
    )
    assert code == 0
    assert "9.5936M" in out
    assert "101.1637" in out


def test_crossover_inference_star(capsys):
    code, out, _ = run(
        capsys, "crossover", "--workflow", CURVE_STUDY,
        "--platform", "aws-lambda-edge", "--platform", "gcp", "--function", "ai-inference",
    )
    assert code == 0
    assert "15.7460M" in out
    assert "82.7540" in out


def test_crossover_same_platform_is_coincident(capsys):
    code, out, _ = run(
        capsys, "crossover", "--workflow", PIPELINE,
        "--platform", "aws-x86", "--platform", "aws-x86",
    )
    assert code == 0
    assert "coincident" in out


def test_crossover_without_nonnegative_intersection_reports_none(capsys, tmp_path):
    # One platform is cheaper in both the fixed and the variable part, so the
    # lines only met at negative volume.
    doc = {
        "workflow_id": "w",
        "functions": [{
            "function_id": "f", "n": "1000000", "t": "0.1", "mem": "0.125", "d": "1",
            "baas_usage": [{"component_id": "http-gateway", "quantity": "1"}],
        }],
        "edges": [],
    }
    path = tmp_path / "wf.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(
        capsys, "crossover", "--workflow", str(path),
        "--platform", "aws-x86", "--platform", "gcp",
    )
    assert code == 0
    assert "none" in out


# --- pareto and optimize ------------------------------------------------------------


def test_pareto_points_fixture(capsys):
    code, out, _ = run(capsys, "pareto", "--workflow", PIPELINE, "--points", POINTS,
                       "--format", "tsv")
    assert code == 0
    lines = out.strip().splitlines()
    rows = [dict(zip(lines[0].split("\t"), l.split("\t"))) for l in lines[1:]]
    assert len(rows) == 15
    assert sum(int(r["on_line"]) for r in rows) == 5
    assert sum(int(r["on_front"]) for r in rows) == 7
    on_line = [(D(r["latency_ms"]), D(r["cost_usd"])) for r in rows if r["on_line"] == "1"]
    assert sorted(on_line) == [
        (D("25"), D("1225")),
        (D("45.36"), D("23.36661")),
        (D("88.56"), D("4.33485")),
        (D("125.28"), D("3.14685")),
        (D("215"), D("1.3324")),
    ]


def test_pareto_line_decides_the_hull_test_exactly(capsys, tmp_path):
    # a lies 1e-30 above the segment from o to b: the exact cross product is
    # -1e-30, which rounds to 0 at 28 digits.
    workflow = tmp_path / "wf.json"
    workflow.write_text(json.dumps({"workflow_id": "one", "functions": [{"function_id": "f"}]}))
    points = tmp_path / "points.json"
    values = {"o": ("3", "0"), "a": ("2", "1"), "b": ("0." + "9" * 30, "2")}
    points.write_text(json.dumps({"points": [
        {"function_id": "f", "platform_id": p, "cost": c, "latency_ms": ms}
        for p, (c, ms) in values.items()
    ]}))
    code, out, _ = run(capsys, "pareto", "--workflow", str(workflow), "--points", str(points),
                       "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert [p["label"] for p in report["front"]] == ["f@o", "f@a", "f@b"]
    assert [p["label"] for p in report["optimal_line"]] == ["f@o", "f@b"]


def test_pareto_from_catalogs(capsys, tmp_path):
    code, out, _ = run(
        capsys, "pareto", "--workflow", PIPELINE, *ALL_PLATFORMS, "--format", "tsv"
    )
    assert code == 0
    assert len(out.strip().splitlines()) == 13  # header + 3 functions x 4 platforms


def test_pareto_single_platform(capsys):
    code, out, _ = run(
        capsys, "pareto", "--workflow", PIPELINE, "--platform", "gcp", "--format", "tsv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4  # header + one point per function
    assert all("gcp" in line for line in lines[1:])


def test_pareto_missing_latency_is_validation_error(capsys, tmp_path):
    doc = json.loads(Path(PIPELINE).read_text())
    del doc["latency"]["entries"]["ai-inference"]["gcp"]
    path = tmp_path / "wf.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "pareto", "--workflow", str(path), *ALL_PLATFORMS)
    assert code == 2
    assert "ai-inference" in err and "gcp" in err


def test_optimize_unconstrained(capsys):
    code, out, _ = run(
        capsys, "optimize", "--workflow", PIPELINE, "--points", POINTS, "--format", "json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["placement"] == {
        "data-retrieval": "aws-lambda-edge",
        "data-processing": "aws-lambda-edge",
        "ai-inference": "aws-x86",
    }
    assert D(report["cost"]) == D("24.79030")
    assert D(report["latency_ms"]) == D("297.84")
    assert abs(report["objective"] - 3.309595) < 1e-5
    assert report["feasible_count"] == 125


def test_optimize_infeasible_exits_4_with_anchors(capsys):
    code, _, err = run(
        capsys, "optimize", "--workflow", PIPELINE, "--points", POINTS,
        "--budget", "50", "--latency-slo", "75",
    )
    assert code == 4
    assert "143.6" in err
    assert "20.06499" in err


def test_optimize_per_function_infeasible_names_the_unplaceable_functions(capsys):
    # No data-retrieval or data-processing pair costs at most 50 and takes
    # at most 75 ms; no gap from T* = 143.6 to the SLO says so.
    code, out, err = run(
        capsys, "optimize", "--workflow", PIPELINE, "--points", POINTS,
        "--budget", "50", "--latency-slo", "75", "--scope", "per-function",
    )
    assert (code, out) == (4, "")
    assert err == (
        "error: no feasible placement: minimum achievable cost C*=20.06499,"
        " minimum achievable latency T*=143.6, budget=50, latency_slo=75\n"
        "  min_cost_placement: data-retrieval=gcp,data-processing=gcp,ai-inference=aws-arm\n"
        "  min_time_placement: data-retrieval=leo,data-processing=leo,ai-inference=leo\n"
        "  unplaceable: data-retrieval,data-processing\n"
    )


def test_optimize_manual_cost_only_weights(capsys):
    code, out, _ = run(
        capsys, "optimize", "--workflow", PIPELINE, "--points", POINTS,
        "--alpha", "1", "--beta", "0", "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["placement"] == {
        "data-retrieval": "gcp",
        "data-processing": "gcp",
        "ai-inference": "aws-arm",
    }


def test_optimize_latency_only_weights_pick_the_fastest_placement(capsys):
    # Every objective lies within 1e-9 of every other at this scale; the
    # latency weight must still decide, not the cost tie-break.
    code, out, _ = run(
        capsys, "optimize", "--workflow", PIPELINE, "--points", POINTS,
        "--alpha", "0", "--beta", "0.00000000001", "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert D(report["latency_ms"]) == D(report["t_star"]) == D("143.6")
    assert report["placement"] == {fid: "leo" for fid in report["placement"]}


@pytest.mark.parametrize("command", ["pareto", "optimize"])
def test_volume_with_points_exits_2_naming_both_flags(capsys, command):
    # A point table holds fixed measurements, so no volume can reprice it.
    code, out, err = run(capsys, command, "--workflow", PIPELINE, "--points", POINTS,
                         "--volume", "999999999")
    assert (code, out) == (2, "")
    assert err == "error: --volume is not read with --points: a point table holds fixed measurements\n"


def test_optimize_with_catalogs(capsys):
    code, out, _ = run(
        capsys, "optimize", "--workflow", PIPELINE, *ALL_PLATFORMS,
        "--platform", "leo", "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["placement"]["data-retrieval"] == "aws-lambda-edge"


def test_optimize_names_the_first_missing_pair_before_the_search(capsys, tmp_path):
    workflow = tmp_path / "wf.json"
    workflow.write_text(json.dumps({
        "workflow_id": "chain",
        "functions": [{"function_id": "f0"}, {"function_id": "f1"}],
        "edges": [["f0", "f1"]],
    }))
    missing = {("f0", "b"), ("f1", "c")}
    points = tmp_path / "points.json"
    points.write_text(json.dumps({"points": [
        {"function_id": f, "platform_id": p, "cost": "1", "latency_ms": "1"}
        for f in ("f0", "f1") for p in "abc" if (f, p) not in missing
    ]}))
    code, out, err = run(
        capsys, "optimize", "--workflow", str(workflow), "--points", str(points)
    )
    assert code == 2
    assert out == ""
    # In function declaration x platform argument order, (f0, b) comes first;
    # a search that priced placements lazily would meet (f1, c) first.
    assert err == "error: no latency entry for (f0, b)\n"


# --- ingest -----------------------------------------------------------------------


def test_ingest_sample_log(capsys):
    code, out, _ = run(capsys, "ingest", "--log", USAGE, "--format", "csv")
    assert code == 0
    rows = _csv_rows(out)
    by_key = {(r["function_id"], r["platform_id"]): r for r in rows}
    assert by_key[("data-retrieval", "aws-x86")]["count"] == "3"
    assert D(by_key[("data-retrieval", "aws-x86")]["mean_ms"]) == D("232")
    assert by_key[("data-retrieval", "gcp")]["errors"] == "1"


def test_ingest_reports_a_pair_with_error_rows_only(capsys, tmp_path):
    log = tmp_path / "log.csv"
    log.write_text(
        "timestamp,function_id,platform_id,duration_ms,bytes_in,bytes_out,status\n"
        "2024-11-04T09:00:00Z,f,p,5,0,0,ok\n"
        "2024-11-04T09:00:01Z,g,p,7,0,0,error\n"
        "2024-11-04T09:00:02Z,g,p,9,0,0,error\n"
    )
    for kind in ("csv", "tsv"):
        code, out, _ = run(capsys, "ingest", "--log", str(log), "--format", kind)
        assert code == 0
        assert out.splitlines()[1:] == [
            "f,p,1,5,5,5,5,0".replace(",", "," if kind == "csv" else "\t"),
            "g,p,0,,,,,2".replace(",", "," if kind == "csv" else "\t"),
        ]
    code, out, _ = run(capsys, "ingest", "--log", str(log), "--format", "json")
    assert json.loads(out)["g:p"] == {
        "count": 0, "mean_ms": None, "min_ms": None, "max_ms": None, "p90_ms": None, "errors": 2,
    }
    code, out, _ = run(capsys, "ingest", "--log", str(log))
    assert code == 0
    assert out.splitlines()[2].split() == ["g", "p", "0", "2"]


def test_ingest_prints_a_negative_zero_as_zero(capsys, tmp_path):
    # Statistics are values: -0, -0.00 and 0 are one zero, printed unsigned.
    log = tmp_path / "log.csv"
    log.write_text(
        "timestamp,function_id,platform_id,duration_ms,bytes_in,bytes_out,status\n"
        "2024-11-04T09:00:00Z,f,p,-0,0,0,ok\n"
        "2024-11-04T09:00:01Z,f,p,-0.00,0,0,ok\n"
    )
    code, out, _ = run(capsys, "ingest", "--log", str(log), "--format", "csv")
    assert (code, out.splitlines()[1]) == (0, "f,p,2,0,0,0,0,0")
    code, out, _ = run(capsys, "ingest", "--log", str(log), "--format", "json")
    assert json.loads(out)["f:p"] == {
        "count": 2, "mean_ms": "0", "min_ms": "0", "max_ms": "0", "p90_ms": "0", "errors": 0,
    }
    code, out, _ = run(capsys, "ingest", "--log", str(log))
    assert out.splitlines()[1].split() == ["f", "p", "2", "0.0000", "0.0", "0.0", "0.0", "0"]


def test_ingest_malformed_rows_exit_2_listing_lines(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text(
        "timestamp,function_id,platform_id,duration_ms,bytes_in,bytes_out,status\n"
        "2024-11-04T09:00:00Z,f,p,100,0,0,ok\n"
        "2024-11-04T09:00:01Z,f,p,-3,0,0,ok\n"
    )
    code, _, err = run(capsys, "ingest", "--log", str(bad))
    assert code == 2
    assert "row 3" in err


def test_ingest_lists_the_first_malformed_rows_then_the_total(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text(
        "timestamp,function_id,platform_id,duration_ms,bytes_in,bytes_out,status\n"
        + "".join(f"2024-11-04T09:00:{i:02d}Z,f,p,-{i + 1},0,0,ok\n" for i in range(25))
    )
    code, _, err = run(capsys, "ingest", "--log", str(bad))
    assert code == 2
    lines = err.splitlines()
    assert len(lines) == cli.ROW_ERRORS_SHOWN + 2 == 22
    assert lines[:20] == [
        f"error: row {i + 2}: duration_ms must be finite and >= 0, got '-{i + 1}'" for i in range(20)
    ]
    assert lines[20] == "… and 5 more"
    assert lines[21] == f"error: 25 malformed row(s) in {bad}"


def test_ingest_lists_malformed_rows_before_computing_any_statistic(capsys, tmp_path):
    # The mean of 1e100 would be beyond money.CONTEXT at 1e-9; the row is malformed.
    bad = tmp_path / "bad.csv"
    bad.write_text(
        "timestamp,function_id,platform_id,duration_ms,bytes_in,bytes_out,status\n"
        "2024-11-04T09:00:00Z,f,p,1e100,0,0,ok\n"
        "2024-11-04T09:00:01Z,f,p,-1,0,0,ok\n"
    )
    code, out, err = run(capsys, "ingest", "--log", str(bad))
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        "error: row 2: duration_ms must be < 1E+40, got '1e100'",
        "error: row 3: duration_ms must be finite and >= 0, got '-1'",
        f"error: 2 malformed row(s) in {bad}",
    ]


def test_ingest_oversized_field_exits_2_naming_the_row(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text(
        "timestamp,function_id,platform_id,duration_ms,bytes_in,bytes_out,status\n"
        "2024-11-04T09:00:00Z,f,p,1,0,0,ok\n"
        f"2024-11-04T09:00:01Z,{'f' * 200_000},p,1,0,0,ok\n"
    )
    code, out, err = run(capsys, "ingest", "--log", str(bad))
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        "error: row 3: field larger than field limit (131072)",
        f"error: 1 malformed row(s) in {bad}",
    ]


def test_ingest_reports_a_missing_workflow_before_reading_the_log(capsys, tmp_path, monkeypatch):
    def unread(_log):
        raise AssertionError("the log was read before the workflow was loaded")

    monkeypatch.setattr(cli, "summarize_usage", unread)
    missing = tmp_path / "missing.json"
    code, _, err = run(capsys, "ingest", "--log", USAGE, "--workflow", str(missing))
    assert code == 2
    assert str(missing) in err


def test_ingest_empty_body_is_computation_error(capsys, tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("timestamp,function_id,platform_id,duration_ms,bytes_in,bytes_out,status\n")
    code, _, err = run(capsys, "ingest", "--log", str(empty))
    assert code == 3
    assert "no data rows" in err


def test_ingest_calibrates_workflow(capsys, tmp_path):
    code, _, _ = run(
        capsys, "ingest", "--log", USAGE, "--workflow", PIPELINE, "--out", str(tmp_path)
    )
    assert code == 0
    doc = json.loads((tmp_path / "calibrated-workflow.json").read_text())
    assert doc["latency"]["entries"]["data-retrieval"]["aws-x86"] == "232"
    retrieval = [f for f in doc["functions"] if f["function_id"] == "data-retrieval"][0]
    assert D(retrieval["r_in"]) == D("0.001048576")  # 1 MiB in decimal GB

    # The emitted document re-ingests losslessly.
    reloaded, latencies = load_workflow_document(tmp_path / "calibrated-workflow.json")
    assert reloaded.function("data-retrieval").r_in == D("0.001048576")
    assert latencies.get("data-retrieval", "aws-x86") == D(232)
    assert reloaded.edges == (
        ("data-retrieval", "data-processing"),
        ("data-processing", "ai-inference"),
    )


def test_ingest_writes_quantities_past_the_context_exactly(capsys, tmp_path):
    # n and t have 60 and 56 significant digits: normalized under
    # money.CONTEXT, n lost its last 10 digits and t rounded to 0.0371.
    n, t = "1" + "0" * 58 + "1", "0.0371" + "0" * 49 + "1"
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(_pipeline(("functions", 0, "n", n), ("functions", 1, "t", t))))
    code, _, err = run(capsys, "ingest", "--log", USAGE, "--workflow", str(path), "--out", str(tmp_path))
    assert (code, err) == (0, "")
    reloaded, _ = load_workflow_document(tmp_path / "calibrated-workflow.json")
    assert (reloaded.functions[0].n, reloaded.functions[1].t) == (D(n), D(t))


def test_ingest_refuses_a_quantity_past_the_printable_range(capsys, tmp_path):
    # Normalized under money.CONTEXT, this n overflowed into the catch-all.
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(_pipeline(("functions", 0, "n", "1E+1000000"))))
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, "ingest", "--log", USAGE, "--workflow", str(path), "--out", str(out_dir))
    assert (code, out, err) == (3, "", "error: 1E+1000000 is out of range: a number prints in full"
                                       " only with an exponent from -999999 to 999999\n")
    assert not out_dir.exists()


def test_ingest_refuses_a_duration_past_the_printable_range(capsys, tmp_path):
    # A 13-byte duration whose fixed-point notation has a billion digits: a
    # duration finer than 1E-64 is a malformed row, refused before any
    # statistic is printed or written.
    log = tmp_path / "log.csv"
    log.write_text(
        "timestamp,function_id,platform_id,duration_ms,bytes_in,bytes_out,status\n"
        "2024-11-04T09:00:00Z,f,p,1E-999999999,0,0,ok\n"
        "2024-11-04T09:00:01Z,f,p,5,0,0,ok\n"
    )
    out_dir = tmp_path / "out"
    for view in ([], ["--format", "json"], ["--format", "csv"]):
        code, out, err = run(capsys, "ingest", "--log", str(log), *view, "--out", str(out_dir))
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            "error: row 2: duration_ms must be a multiple of 1E-64, got '1E-999999999'",
            f"error: 1 malformed row(s) in {log}",
        ]
        assert not out_dir.exists()


def _usage_log(path, *rows):
    path.write_text(
        "timestamp,function_id,platform_id,duration_ms,bytes_in,bytes_out,status\n"
        + "".join(f"2024-11-04T09:00:0{i}Z,{row},100,0,0,ok\n" for i, row in enumerate(rows))
    )
    return str(path)


def test_ingest_keeps_the_documents_latencies_for_pairs_the_log_lacks(capsys, tmp_path):
    log = _usage_log(tmp_path / "usage.csv", "data-retrieval,aws-x86", "data-retrieval,gcp")
    code, _, err = run(capsys, "ingest", "--log", log, "--workflow", PIPELINE, "--out", str(tmp_path))
    assert code == 0, err
    calibrated = str(tmp_path / "calibrated-workflow.json")
    entries = json.loads(Path(calibrated).read_text())["latency"]["entries"]
    assert entries["data-retrieval"]["aws-x86"] == "100"
    assert entries["data-processing"]["aws-x86"] == "164"
    for workflow in (PIPELINE, calibrated):
        code, _, err = run(
            capsys, "optimize", "--workflow", workflow, "--platform", "aws-x86", "--platform", "gcp"
        )
        assert code == 0, (workflow, err)


def test_ingest_rejects_a_log_row_of_an_undeclared_function(capsys, tmp_path):
    log = _usage_log(tmp_path / "usage.csv", "data-retrieval,aws-x86", "ghost,aws-x86")
    code, out, err = run(capsys, "ingest", "--log", log, "--workflow", PIPELINE, "--out", str(tmp_path))
    assert code == 2
    assert "'ghost'" in err
    assert out == ""
    assert not (tmp_path / "calibrated-workflow.json").exists()


# --- determinism, manifests, precision ----------------------------------------------


def test_reports_are_byte_identical_across_runs(capsys, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out_dir in (out_a, out_b):
        code, _, _ = run(
            capsys, "cost", "--workflow", PIPELINE, "--platform", "aws-x86",
            "--out", str(out_dir),
        )
        assert code == 0
    for name in ("cost.csv", "cost.json", "manifest.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_manifest_digest_tracks_inputs(capsys, tmp_path):
    code, _, _ = run(
        capsys, "cost", "--workflow", PIPELINE, "--platform", "aws-x86", "--out", str(tmp_path)
    )
    assert code == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["command"] == "cost"
    assert manifest["version"]
    assert len(manifest["input_digest"]) == 64
    assert {Path(i["path"]).name for i in manifest["inputs"]} == {
        "imagery-pipeline.json", "aws-x86.json",
    }


def test_ingest_manifest_counts_rows_and_pairs(capsys, tmp_path):
    log = tmp_path / "usage.csv"
    log.write_text(
        "timestamp,function_id,platform_id,duration_ms,bytes_in,bytes_out,status\n"
        "2024-11-04T09:00:00Z,f,p,1.5,0,0,ok\n"
        "2024-11-04T09:00:01Z,f,p,2,0,0,error\n"
        "\n"
        "2024-11-04T09:00:02Z,f,q,-0,0,0,ok\n"
        "2024-11-04T09:00:03Z,g,p,7,0,0,error\n"
        "2024-11-04T09:00:04Z,f,p,1.50,0,0,ok\n"
    )
    manifests = []
    for name in ("a", "b"):
        code, _, _ = run(capsys, "ingest", "--log", str(log), "--out", str(tmp_path / name))
        assert code == 0
        manifests.append((tmp_path / name / "manifest.json").read_bytes())
    assert manifests[0] == manifests[1]
    manifest = json.loads(manifests[0])
    assert manifest["counters"] == {"rows": 5, "rows_ok": 3, "rows_error": 2, "pairs": 3}
    digest = hashlib.sha256(log.read_bytes()).hexdigest()
    assert manifest["input_digest"] == hashlib.sha256(digest.encode()).hexdigest()


def test_optimize_manifest_counts_the_integer_search(capsys, tmp_path):
    # The pipeline over the five cards: head {data-retrieval,
    # data-processing}, 25 prefixes billing no fixed charge, so one ledger;
    # tail {ai-inference}, one group per card. 7 prefixes cost and take at
    # least an earlier one, so the walk only counts their placements.
    cards = [a for p in ("aws-x86", "aws-arm", "aws-lambda-edge", "gcp", "leo")
             for a in ("--platform", p)]
    manifests = []
    for name in ("a", "b"):
        code, _, _ = run(capsys, "optimize", "--workflow", PIPELINE, *cards,
                         "--out", str(tmp_path / name))
        assert code == 0
        manifests.append((tmp_path / name / "manifest.json").read_bytes())
    assert manifests[0] == manifests[1]
    manifest = json.loads(manifests[0])
    assert manifest["counters"] == {
        "placements": 125,
        "feasible": 125,
        "head_prefixes": 25,
        "tail_entries": 5,
        "groups": 5,
        "ledgers_priced": 1,
        "dominated_prefixes": 7,
    }
    paths = sorted(i["path"] for i in manifest["inputs"])
    digests = "".join(hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in paths)
    assert manifest["input_digest"] == hashlib.sha256(digests.encode()).hexdigest()


def test_manifest_lists_only_the_inputs_read(capsys, tmp_path):
    card = tmp_path / "my" / "gcp.json"
    card.parent.mkdir()
    card.write_bytes((bundled_catalog_dir() / "gcp.json").read_bytes())
    runs = {
        # --platform gcp is already loaded from --catalog: the bundled card is not read.
        "a": ["cost", "--catalog", str(card), "--platform", "gcp"],
        # Catalogs are not read when --points gives the pairs.
        "b": ["pareto", "--points", POINTS, "--catalog", str(tmp_path / "missing.json")],
    }
    expected = {"a": {PIPELINE, str(card)}, "b": {PIPELINE, POINTS}}
    for name, argv in runs.items():
        code, _, _ = run(capsys, *argv, "--workflow", PIPELINE, "--out", str(tmp_path / name))
        assert code == 0
        manifest = json.loads((tmp_path / name / "manifest.json").read_text())
        assert {i["path"] for i in manifest["inputs"]} == expected[name]


_NOT_UTF8 = {
    "workflow": (["cost", "--platform", "aws-x86", "--workflow"], PIPELINE),
    "catalog": (["cost", "--workflow", PIPELINE, "--catalog"], str(bundled_catalog_dir() / "gcp.json")),
    "points": (["optimize", "--workflow", PIPELINE, "--points"], POINTS),
    "log": (["ingest", "--log"], USAGE),
}


@pytest.mark.parametrize("kind", sorted(_NOT_UTF8))
def test_non_utf8_input_exits_2_naming_the_file(capsys, tmp_path, kind):
    argv, source = _NOT_UTF8[kind]
    path = tmp_path / f"bad-{kind}"
    # The byte lies past the first 8 KiB a text file decodes, so a log fails
    # while its rows are read, not at its header.
    path.write_bytes(Path(source).read_bytes() + b" " * 10_000 + b"\xff\n")
    code, _, err = run(capsys, *argv, str(path))
    assert code == 2
    assert f"{path} is not UTF-8 text" in err


def test_written_csv_carries_full_precision(capsys, tmp_path):
    code, _, _ = run(
        capsys, "cost", "--workflow", PIPELINE, "--platform", "gcp", "--out", str(tmp_path)
    )
    assert code == 0
    rows = {r["function"]: r for r in _csv_rows((tmp_path / "cost.csv").read_text())}
    # Full precision survives the round trip; 1.47029 would be clipped at 4dp.
    assert D(rows["data-processing"]["total"]) == D("1.47029")


def test_catalog_dir_override(capsys, tmp_path, monkeypatch):
    alt = tmp_path / "cards"
    alt.mkdir()
    source = json.loads(
        (Path(__file__).resolve().parents[1] / "src/cosmos/catalogs/aws-x86.json").read_text()
    )
    source["platform_id"] = "private-cloud"
    (alt / "private-cloud.json").write_text(json.dumps(source))
    monkeypatch.setenv("COSMOS_CATALOG_DIR", str(alt))
    code, out, _ = run(
        capsys, "cost", "--workflow", PIPELINE, "--platform", "private-cloud", "--format", "csv"
    )
    assert code == 0
    rows = {r["function"]: r for r in _csv_rows(out)}
    assert D(rows["data-retrieval"]["total"]) == D("2.331")


@pytest.mark.parametrize("layout", ["file", "symlink-loop"])
def test_a_catalog_dir_that_holds_no_card_is_an_unknown_platform(capsys, tmp_path, monkeypatch, layout):
    # A card path under a plain file (ENOTDIR) or in a symlink loop (ELOOP) names no card.
    if layout == "file":
        target = tmp_path / "aws-x86.json"
        target.write_text("{}")
    else:
        target = tmp_path / "loop"
        (target / "gcp.json").parent.mkdir()
        (target / "gcp.json").symlink_to(target / "gcp.json")
    monkeypatch.setenv("COSMOS_CATALOG_DIR", str(target))
    code, _, err = run(capsys, "cost", "--workflow", PIPELINE, "--platform", "gcp")
    assert code == 2
    assert "no catalog for platform 'gcp'" in err


def test_exit_codes_stay_in_contract(capsys, tmp_path):
    seen = set()
    seen.add(run(capsys, "cost", "--workflow", PIPELINE, "--platform", "aws-x86")[0])
    seen.add(run(capsys, "cost", "--workflow", PIPELINE, "--platform", "nope")[0])
    seen.add(run(capsys, "optimize", "--workflow", PIPELINE, "--points", POINTS,
                 "--budget", "50", "--latency-slo", "75")[0])
    empty = tmp_path / "again.csv"
    empty.write_text("timestamp,function_id,platform_id,duration_ms,bytes_in,bytes_out,status\n")
    seen.add(run(capsys, "ingest", "--log", str(empty))[0])
    assert seen == {0, 2, 3, 4}


def test_mistyped_usage_platforms_exits_2(capsys, tmp_path):
    doc = json.loads(Path(PIPELINE).read_text(encoding="utf-8"))
    doc["functions"][2]["baas_usage"][1]["platforms"] = "aws-x86"  # ml-provisioning
    path = tmp_path / "wf.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run(capsys, "cost", "--workflow", str(path), "--platform", "aws-x86")
    assert code == 2
    assert "platforms" in err


# --- one renderer: quoting, one JSON encoder --------------------------------------


@pytest.mark.parametrize("fmt, sep", [("csv", ","), ("tsv", "\t")])
def test_cell_holding_the_separator_stays_one_cell(capsys, tmp_path, fmt, sep):
    doc = {
        "workflow_id": "w",
        "functions": [{"function_id": "fetch,resize", "n": "1000000", "t": "0.1", "mem": "0.125"}],
        "edges": [],
    }
    path = tmp_path / "wf.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run(capsys, "cost", "--workflow", str(path), "--platform", "aws-x86", "--format", fmt)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out), delimiter=sep))
    assert [len(row) for row in rows] == [8, 8, 8]
    assert rows[1][0] == "fetch,resize"


_JSON_REPORTS = {
    "cost": (["--platform", "aws-x86"], "cost.json"),
    "breakdown": (["--platform", "gcp"], "breakdown.json"),
    "curve": (["--platform", "aws-x86", "--function", "é-infer"], "curve.json"),
    "crossover": (["--platform", "aws-x86", "--platform", "gcp", "--function", "é-infer"],
                  "crossover.json"),
    "pareto": (ALL_PLATFORMS, "pareto.json"),
    "optimize": (ALL_PLATFORMS, "optimize.json"),
    "ingest": ([], "stats.json"),
}


@pytest.mark.parametrize("command", sorted(_JSON_REPORTS))
def test_json_stdout_is_the_json_report_file(capsys, tmp_path, command):
    def renamed(source, name):
        path = tmp_path / name
        text = Path(source).read_text(encoding="utf-8").replace("ai-inference", "é-infer")
        path.write_text(text, encoding="utf-8")
        return str(path)

    workflow = renamed(PIPELINE, "wf.json")
    extra, report = _JSON_REPORTS[command]
    if command == "ingest":
        extra = ["--log", renamed(USAGE, "usage.csv")]
    out_dir = tmp_path / "out"
    code, out, _ = run(capsys, command, "--workflow", workflow, *extra,
                       "--format", "json", "--out", str(out_dir))
    assert code == 0
    assert out.encode("utf-8") == (out_dir / report).read_bytes()


_JSON_TEXT = st.text(st.sampled_from('"\\/\n\t\x00\x1f\x7fé€\u2028😀') | st.characters(), max_size=6)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-10**40, 10**40) | st.floats() | _JSON_TEXT
    | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 1e300, 5e-324]),
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(_JSON_TEXT, inner, max_size=4),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(_JSON_VALUES)
def test_the_json_view_is_what_json_dumps_writes(payload):
    reference = json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
    assert cli._render("json", payload) == reference


# --- exit codes ---------------------------------------------------------------------


_EXIT_CODES = {
    CosmosError: 3,
    SchemaError: 2,
    UnitError: 2,
    DuplicateIdError: 2,
    NegativeRateError: 2,
    CycleError: 2,
    UnknownFunctionError: 2,
    UnknownPlatformError: 2,
    MissingLatencyError: 2,
    UnknownComponentError: 2,
    UnplacedFunctionError: 2,
    HeaderError: 2,
    RowError: 2,
    DomainError: 3,
    NoDataError: 3,
    DegenerateAnchorError: 3,
    CapExceededError: 3,
    InfeasibleError: 4,
    FileNotFoundError: 2,
    IsADirectoryError: 2,
    RuntimeError: 3,
}

_ERROR_ARGS = {
    MissingLatencyError: ("f", "p"),
    CapExceededError: (10, 1),
    InfeasibleError: (1, 2),
    RowError: (3, "bad"),
}


def _error_classes(cls=CosmosError):
    yield cls
    for sub in cls.__subclasses__():
        yield from _error_classes(sub)


@pytest.mark.parametrize(
    "error",
    list(dict.fromkeys(_error_classes()))
    + [FileNotFoundError, IsADirectoryError, RuntimeError],
    ids=lambda cls: cls.__name__,
)
def test_exit_code_contract(capsys, monkeypatch, error):
    assert error in _EXIT_CODES, f"{error.__name__} has no expected exit code"
    exc = error(*_ERROR_ARGS.get(error, ("boom",)))

    def handler(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_cost", handler)
    code, out, err = run(capsys, "cost", "--workflow", PIPELINE, "--platform", "aws-x86")
    assert code == _EXIT_CODES[error]
    assert out == ""
    assert err.startswith("error: ")


# --- malformed quantities in point tables and catalogs --------------------------------


def _point_table(**changes):
    doc = json.loads(Path(POINTS).read_text(encoding="utf-8"))
    doc["points"][0].update(changes)
    return doc


def _x86_card(**changes):
    card = Path(__file__).resolve().parents[1] / "src/cosmos/catalogs/aws-x86.json"
    doc = json.loads(card.read_text(encoding="utf-8"))
    doc["components"][0].update(changes)
    return doc


def _pipeline(*edits):
    """The pipeline with each (key, ..., value) path set. Passed as a second
    --workflow, it replaces the first."""
    doc = json.loads(Path(PIPELINE).read_text(encoding="utf-8"))
    for *path, key, value in edits:
        node = doc
        for step in path:
            node = node[step]
        node[key] = value
    return doc


_MALFORMED = {
    "points-not-array": ("optimize", "--points", {"points": 5}, "points"),
    "points-entry-not-object": ("optimize", "--points", {"points": [5]}, "points"),
    "cost-array": ("optimize", "--points", _point_table(cost=[1]), "cost"),
    "cost-float": ("optimize", "--points", _point_table(cost=1.5), "cost"),
    "cost-bool": ("optimize", "--points", _point_table(cost=True),
                  "point (data-retrieval, aws-x86): cost must be a decimal string, not a bool"),
    "n-bool": ("cost", "--workflow", _pipeline(("functions", 0, "n", True)),
               "data-retrieval: n must be a decimal string, not a bool"),
    "latency-bool": ("cost", "--workflow",
                     _pipeline(("latency", "entries", "data-retrieval", "leo", False)),
                     "latency data-retrieval: ms must be a decimal string, not a bool"),
    "latency-factor-bool": ("pareto", "--workflow",
                            _pipeline(("latency", "factors", "aws-lambda-edge", True)),
                            "latency factor aws-lambda-edge: factor must be a decimal string, not a bool"),
    "latency-not-decimal": ("optimize", "--points", _point_table(latency_ms="abc"), "latency_ms"),
    "rate-not-decimal": ("cost", "--catalog", _x86_card(rate="abc"), "rate"),
    "latency-negative-leo": ("cost", "--workflow",
                             _pipeline(("latency", "entries", "data-retrieval", "leo", "-5")),
                             "(data-retrieval, leo)"),
    "latency-negative-x86": ("optimize", "--workflow",
                             _pipeline(("latency", "entries", "data-retrieval", "aws-x86", "-5")),
                             "(data-retrieval, aws-x86)"),
    "latency-negative-factor": ("pareto", "--workflow",
                                _pipeline(("latency", "factors", "aws-lambda-edge", "-1")),
                                "latency factor aws-lambda-edge"),
    "latency-factor-overflow": ("pareto", "--workflow",
                                _pipeline(("latency", "entries", "data-retrieval", "aws-x86", "1e999999"),
                                          ("latency", "factors", "aws-lambda-edge", "1e999999")),
                                "latency factor aws-lambda-edge (1e999999) times the latency of "
                                "(data-retrieval, aws-x86) is out of range for "
                                "(data-retrieval, aws-lambda-edge)"),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_quantity_exits_2_naming_the_field(capsys, tmp_path, case):
    command, option, doc, field = _MALFORMED[case]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run(capsys, command, "--workflow", PIPELINE, option, str(path))
    assert code == 2
    assert field in err


# Each id field holding a JSON value that is not a string, and the message.
_NOT_STRING_IDS = {
    "workflow_id": ("--workflow", _pipeline(("workflow_id", 7)), "workflow_id must be a string, got int"),
    "function_id": ("--workflow", _pipeline(("functions", 0, "function_id", 1)),
                    "function_id must be a string, got int"),
    "component_id": ("--workflow", _pipeline(("functions", 0, "baas_usage", 0, "component_id", ["http-gateway"])),
                     "data-retrieval: baas_usage component_id must be a string, got list"),
    "platforms": ("--workflow", _pipeline(("functions", 0, "baas_usage", 0, "platforms", [["aws-x86"]])),
                  "data-retrieval: baas_usage platforms entry must be a string, got list"),
    "edge": ("--workflow", _pipeline(("edges", 0, ["data-retrieval", 5])),
             "edge endpoints must be strings, got ['data-retrieval', 5]"),
    "reference_platform": ("--workflow", _pipeline(("latency", "reference_platform", 1)),
                           "latency reference_platform must be a string, got int"),
    "point-function_id": ("--points", _point_table(function_id=None),
                          "point entry function_id must be a string, got NoneType"),
    "point-platform_id": ("--points", _point_table(platform_id=["aws-x86"]),
                          "point entry platform_id must be a string, got list"),
    "card-platform_id": ("--catalog", {**_x86_card(), "platform_id": 86}, "platform_id must be a string, got int"),
    "component-id": ("--catalog", _x86_card(id=5), "component id must be a string, got int"),
}


@pytest.mark.parametrize("case", sorted(_NOT_STRING_IDS))
def test_an_id_that_is_not_a_string_exits_2_naming_the_field(capsys, tmp_path, case):
    option, doc, message = _NOT_STRING_IDS[case]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    command = "optimize" if option == "--points" else "cost"
    extra = [] if option == "--catalog" else ["--platform", "aws-x86"]
    code, out, err = run(capsys, command, "--workflow", PIPELINE, option, str(path), *extra)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_a_usage_restricted_to_a_nested_platform_list_is_refused(capsys, tmp_path):
    # str(["aws-x86"]) named no platform, so the gateway was dropped from the bill.
    prices = {}
    for platforms in (["aws-x86"], [["aws-x86"]]):
        path = tmp_path / "wf.json"
        path.write_text(json.dumps(_pipeline(
            ("functions", 0, "baas_usage", 0, "platforms", platforms))), encoding="utf-8")
        code, out, err = run(capsys, "cost", "--workflow", str(path), "--platform", "aws-x86",
                             "--format", "json")
        prices[code] = json.loads(out)["functions"]["data-retrieval"]["baas"] if code == 0 else err
    assert prices == {0: "1.06", 2: "error: data-retrieval: baas_usage platforms entry must be a string, got list\n"}


@pytest.mark.parametrize("option", ["--workflow", "--catalog", "--points"])
def test_invalid_json_exits_2_naming_the_file(capsys, tmp_path, option):
    path = tmp_path / "broken.json"
    path.write_text('{"workflow_id": "w", ', encoding="utf-8")
    code, out, err = run(capsys, "optimize", "--workflow", PIPELINE, option, str(path))
    assert (code, out) == (2, "")
    assert err == (
        f"error: {path} is not valid JSON: Expecting property name enclosed in double quotes: "
        "line 1 column 22 (char 21)\n"
    )


_OUT_OF_RANGE = {
    "volume": (_pipeline(), ["--volume", "1e45"]),
    "n-and-t": (_pipeline(("functions", 0, "n", "1e600000"), ("functions", 0, "t", "1e600000")), []),
}


@pytest.mark.parametrize("case", sorted(_OUT_OF_RANGE))
def test_out_of_range_amount_exits_3_stating_the_bound(capsys, tmp_path, case):
    doc, extra = _OUT_OF_RANGE[case]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "cost", "--workflow", str(path), "--platform", "aws-x86", *extra)
    assert (code, out) == (3, "")
    assert err.startswith("error: amount ")
    assert err.endswith(" is out of range: money amounts must be below 1E+38\n")


def _all_latencies(value):
    """The pipeline with every explicit latency entry set to value."""
    entries = json.loads(Path(PIPELINE).read_text(encoding="utf-8"))["latency"]["entries"]
    return _pipeline(*(("latency", "entries", fid, pid, value) for fid in entries for pid in entries[fid]))


def _all_point_latencies(value):
    doc = json.loads(Path(POINTS).read_text(encoding="utf-8"))
    for point in doc["points"]:
        point["latency_ms"] = value
    return doc


_OVER_THE_LATENCY_BOUND = {
    "optimize": (["optimize", "--platform", "aws-x86", "--workflow"], _all_latencies("9e999999"),
                 "error: latency (data-retrieval, aws-x86) must be below 1E+41 ms, got 9E+999999\n"),
    "pareto": (["pareto", "--platform", "aws-x86", "--platform", "gcp", "--workflow"],
               _all_latencies("9e999999"),
               "error: latency (data-retrieval, aws-x86) must be below 1E+41 ms, got 9E+999999\n"),
    "points": (["optimize", "--workflow", PIPELINE, "--points"], _all_point_latencies("9e999999"),
               "error: pair (data-retrieval, aws-x86): latency must be below 1E+41 ms, got 9E+999999\n"),
    "factor": (["pareto", "--workflow"],
               _pipeline(("latency", "entries", "data-retrieval", "aws-x86", "1e40"),
                         ("latency", "factors", "aws-lambda-edge", "10")),
               "error: latency (data-retrieval, aws-lambda-edge) must be below 1E+41 ms, got 1.0E+41\n"),
}


@pytest.mark.parametrize("case", sorted(_OVER_THE_LATENCY_BOUND))
def test_latency_at_or_over_the_bound_exits_2_naming_the_pair(capsys, tmp_path, case):
    argv, doc, expected = _OVER_THE_LATENCY_BOUND[case]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run(capsys, *argv, str(path)) == (2, "", expected)


def test_point_cost_at_or_over_the_money_bound_exits_2_naming_the_pair(capsys, tmp_path):
    doc = json.loads(Path(POINTS).read_text(encoding="utf-8"))
    for point in doc["points"]:
        point["cost"] = "1E+45"
    path = tmp_path / "points.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    argv = ["optimize", "--workflow", PIPELINE, "--points", str(path), "--format", "json"]
    expected = "error: pair (data-retrieval, aws-x86): cost must be below 1E+38 USD, got 1E+45\n"
    assert run(capsys, *argv) == (2, "", expected)


@pytest.mark.parametrize("command", ["optimize", "pareto"])
def test_point_finer_than_the_search_allows_exits_2_at_once(capsys, tmp_path, command):
    # The placement model rejects the entry when it is built, before any
    # search would scale the table to 200,000 decimals.
    doc = json.loads(Path(POINTS).read_text(encoding="utf-8"))
    doc["points"][0]["cost"] = "1E-200000"
    path = tmp_path / "points.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    start = time.perf_counter()
    result = run(capsys, command, "--workflow", PIPELINE, "--points", str(path))
    assert time.perf_counter() - start < 1
    expected = "error: pair (data-retrieval, aws-x86): cost must have no digit finer than 1E-100, got 1E-200000\n"
    assert result == (2, "", expected)


def test_point_table_listing_a_pair_twice_exits_2_naming_the_pair(capsys, tmp_path):
    doc = json.loads(Path(POINTS).read_text(encoding="utf-8"))
    doc["points"].append(dict(doc["points"][0], cost="0"))
    with pytest.raises(SchemaError, match=r"^point \(data-retrieval, aws-x86\) is listed twice$"):
        optimizer.load_point_table(doc)
    path = tmp_path / "points.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    argv = ["optimize", "--workflow", PIPELINE, "--points", str(path), "--format", "json"]
    expected = "error: point (data-retrieval, aws-x86) is listed twice\n"
    assert run(capsys, *argv) == (2, "", expected)


def test_latency_sums_past_28_digits_print_exactly(capsys, tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(_all_latencies("1234567890123456789012345.123456789")), encoding="utf-8")
    code, out, _ = run(capsys, "optimize", "--workflow", str(path), "--platform", "aws-x86",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["latency_ms"] == "3703703670370370367037035.370370367"


def test_money_sums_past_28_digits_print_exactly(capsys, tmp_path):
    # A 23-digit volume and a 12-digit time put every total past 28 digits.
    doc = _pipeline(*(("functions", i, key, value) for i in range(3) for key, value in (
        ("n", "98765432109876543210987"), ("t", "0.123456789123"))))
    for function in doc["functions"]:
        del function["t_overrides"]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run(capsys, "cost", "--workflow", str(path), "--platform", "aws-x86",
                       "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["functions"]["ai-inference"]["total"] == "357625971480429478.738519577228"
    assert report["workflow"]["total"] == "914853223065485939.602779531684"
    with localcontext(prec=100):
        assert sum(D(f["total"]) for f in report["functions"].values()) == D(report["workflow"]["total"])


def _left_right(tmp_path, monkeypatch, d):
    """The crossover argv for a one-function workflow of ``d`` GB on two
    copies of the aws-x86 card, "right" at 0.200001 USD per million
    invocations and storing for free."""
    cards = tmp_path / "cards"
    cards.mkdir()
    source = json.loads((Path(__file__).resolve().parents[1] / "src/cosmos/catalogs/aws-x86.json")
                        .read_text())
    for pid, rates in (("left", {}), ("right", {"function-invocation": "0.200001", "kvs-storage": "0"})):
        card = json.loads(json.dumps(source))
        card["platform_id"] = pid
        for comp in card["components"]:
            comp["rate"] = rates.get(comp["id"], comp["rate"])
        (cards / f"{pid}.json").write_text(json.dumps(card))
    monkeypatch.setenv("COSMOS_CATALOG_DIR", str(cards))
    path = tmp_path / "wf.json"
    doc = {"workflow_id": "w", "functions": [{"function_id": "f", "n": "1", "d": d}], "edges": []}
    path.write_text(json.dumps(doc))
    return ["crossover", "--workflow", str(path), "--platform", "left", "--platform", "right"]


def test_crossover_past_28_digits_prints_the_exact_volume(capsys, tmp_path, monkeypatch):
    # The cards differ by 1e-12 USD per request and by 0.269 USD per GB-month
    # on 1e23 GB, so the lines meet at n* = 2.69e34 requests.
    argv = _left_right(tmp_path, monkeypatch, "1e23")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert "  n* = 26900000000000000000000000000000000 requests (" in out
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert json.loads(out)["n_star_requests"] == "26900000000000000000000000000000000"


def test_crossover_subtracts_the_lines_exactly(capsys, tmp_path, monkeypatch):
    # The intercepts differ by 0.269 x d, 33 significant digits, so a
    # difference rounded at 28 digits moved n* in its last digits.
    argv = _left_right(tmp_path, monkeypatch, "123456789012345678901.123456")
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert json.loads(out)["n_star_requests"] == "33209876244320987624402209664000"


def test_curve_sample_past_28_digits_prints_exactly(capsys, tmp_path):
    # fixed 13.7376 + slope 0.000003620963 x n needs 30 significant digits.
    doc = _pipeline(*(("functions", i, key, value) for i in range(3) for key, value in (
        ("n", "98765432109876543210987"), ("t", "0.123456789123"))))
    for function in doc["functions"]:
        del function["t_overrides"]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run(capsys, "curve", "--workflow", str(path), "--platform", "aws-x86",
                       "--function", "ai-inference", "--sample", "98765432109876543210987",
                       "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert (report["fixed"], report["slope_per_request"]) == ("13.7376", "0.000003620963")
    assert report["samples"] == [
        {"cost": "357625975348874911.272485120481", "n": "98765432109876543210987"}
    ]


def test_latency_sum_past_50_digits_exits_3_stating_the_bound(capsys, tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(_all_latencies("9" * 41 + ".999999999")), encoding="utf-8")
    assert run(capsys, "optimize", "--workflow", str(path), "--platform", "aws-x86") == (
        3, "", "error: a critical-path latency sum needs more than 50 significant digits"
        " to stay exact\n",
    )


def test_optimize_fails_as_cost_fails_on_a_credit_past_the_limit(capsys, tmp_path):
    # Card x bills only its fixed ml, at 3E+37 a month, and each of three
    # chained functions uses it 2 months: the third billing's credit term,
    # 1.2E+38, is past the money limit. The latencies 9E+40 and 1E-20 sum to
    # 61 digits, but a placement's cost is priced before its latency. Each
    # pair costs 6E+37, so optimize refuses the search before it walks: the
    # cost sum could need more than 50 digits.
    card = tmp_path / "x.json"
    card.write_text(json.dumps({"platform_id": "x", "layer": "Cloud", "components": [
        {"id": "inv", "driver": "Invocation", "unit": "PerRequest", "rate": "0", "scale": "base"},
        {"id": "cpu", "driver": "Compute", "unit": "PerGBSecond", "rate": "0", "scale": "base"},
        {"id": "ml", "driver": "BaasFixed", "unit": "PerMonthFixed", "rate": "3E+37",
         "scale": "per-month"},
    ]}), encoding="utf-8")
    fids = ["f0", "f1", "f2"]
    workflow = tmp_path / "wf.json"
    workflow.write_text(json.dumps({
        "workflow_id": "w",
        "functions": [
            {"function_id": f, "baas_usage": [{"component_id": "ml", "quantity": "2"}]} for f in fids
        ],
        "edges": [list(e) for e in zip(fids, fids[1:])],
        "latency": {"reference_platform": "x", "entries": {
            f: {"x": ms} for f, ms in zip(fids, ("9E+40", "1E-20", "1"))
        }},
    }), encoding="utf-8")
    assert run(capsys, "cost", "--workflow", str(workflow), "--catalog", str(card)) == (
        3, "", "error: amount 1.2E+38 is out of range: money amounts must be below 1E+38\n")
    assert run(capsys, "optimize", "--workflow", str(workflow), "--catalog", str(card)) == (
        3, "", "error: a workflow cost needs more than 50 significant digits to stay exact\n")


def test_optimize_refuses_a_wide_search_at_once(capsys, tmp_path, monkeypatch):
    # A 6-function chain over 5 point-table platforms, every pair costing 1
    # with latency 1, except f0@p4 at 1E-20 and f5@p4 at 9E+40. Enumeration
    # first fails at placement 12,504, which sums both latencies; optimize
    # refuses the search before it walks any of it, with that error's
    # message, and writes nothing.
    fids = [f"f{i}" for i in range(6)]
    workflow = tmp_path / "wf.json"
    workflow.write_text(json.dumps({
        "workflow_id": "w",
        "functions": [{"function_id": f} for f in fids],
        "edges": [list(e) for e in zip(fids, fids[1:])],
    }), encoding="utf-8")
    latency = {("f0", "p4"): "1E-20", ("f5", "p4"): "9E+40"}
    points = tmp_path / "points.json"
    points.write_text(json.dumps({"points": [
        {"function_id": f, "platform_id": f"p{k}", "cost": "1",
         "latency_ms": latency.get((f, f"p{k}"), "1")}
        for f in fids for k in range(5)
    ]}), encoding="utf-8")
    out = tmp_path / "out"
    walked = []
    monkeypatch.setattr(optimizer, "_combos", lambda *args: walked.append(args))
    assert run(capsys, "optimize", "--workflow", str(workflow), "--points", str(points),
               "--out", str(out)) == (
        3, "", "error: a critical-path latency sum needs more than 50 significant digits"
        " to stay exact\n",
    )
    assert walked == []
    assert not out.exists()


# --- numeric flags -------------------------------------------------------------------


_BAD_FLAGS = {
    "volume-not-decimal": ("cost", ["--platform", "aws-x86", "--volume", "abc"], "--volume"),
    "budget-not-decimal": ("optimize", ["--points", POINTS, "--budget", "abc"], "--budget"),
    "budget-negative": ("optimize", ["--points", POINTS, "--budget", "-5"], "--budget"),
    "budget-zero": ("optimize", ["--points", POINTS, "--budget", "0"], "--budget"),
    "slo-zero": ("optimize", ["--points", POINTS, "--latency-slo", "0.000"], "--latency-slo"),
    "slo-nan": ("optimize", ["--points", POINTS, "--latency-slo", "NaN"], "--latency-slo"),
    "alpha-infinite": ("optimize", ["--points", POINTS, "--alpha", "Infinity", "--beta", "1"],
                       "--alpha"),
    "beta-negative": ("optimize", ["--points", POINTS, "--alpha", "1", "--beta", "-1"], "--beta"),
    "sample-negative": ("curve", ["--platform", "aws-x86", "--sample", "-5"], "--sample"),
    "sample-not-decimal": ("curve", ["--platform", "aws-x86", "--sample", "1.5e"], "--sample"),
}


@pytest.mark.parametrize("case", sorted(_BAD_FLAGS))
def test_malformed_numeric_flag_exits_2_naming_it(capsys, case):
    command, extra, flag = _BAD_FLAGS[case]
    with pytest.raises(SystemExit) as exc:
        main([command, "--workflow", PIPELINE, *extra])
    assert exc.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err


def test_zero_weights_exit_2_naming_both_flags(capsys):
    assert run(
        capsys, "optimize", "--workflow", PIPELINE, "--points", POINTS, "--alpha", "0", "--beta", "0.0"
    ) == (2, "", "error: --alpha and --beta must not both be zero\n")


# --- one parser per process ------------------------------------------------------------


OUT = "<out>"  # replaced by a directory per call
_CARDS = [str(bundled_catalog_dir() / f"{pid}.json") for pid in ("aws-x86", "gcp")]

# Every subcommand, with --format given and left out, repeated flags, CosmosError
# exits and argparse errors. State a reused parser carried from one call to the
# next would make some later call answer differently from a fresh parser.
_CALLS = [
    ["cost", "--workflow", PIPELINE, "--platform", "aws-x86", "--format", "json"],
    ["cost", "--workflow", PIPELINE, "--platform", "aws-x86", "--platform", "gcp",
     "--assign", "data-retrieval=gcp", "--assign", "data-processing=aws-x86",
     "--assign", "ai-inference=gcp", "--out", OUT],
    ["breakdown", "--workflow", PIPELINE, "--catalog", _CARDS[0], "--catalog", _CARDS[1]],
    ["breakdown", "--workflow", PIPELINE, "--catalog", _CARDS[1], "--format", "csv"],
    ["curve", "--workflow", CURVE_STUDY, "--platform", "gcp", "--sample", "0",
     "--sample", "1000000", "--format", "tsv"],
    ["curve", "--workflow", CURVE_STUDY, "--platform", "gcp"],
    ["crossover", "--workflow", CURVE_STUDY, "--platform", "aws-x86", "--platform", "gcp",
     "--format", "json"],
    ["crossover", "--workflow", PIPELINE, "--platform", "aws-x86"],
    ["pareto", "--workflow", PIPELINE, *ALL_PLATFORMS, "--format", "csv"],
    ["optimize", "--workflow", PIPELINE, "--points", POINTS, "--budget", "0.000001"],
    ["optimize", "--workflow", PIPELINE, "--platform", "aws-x86", "--platform", "gcp",
     "--out", OUT],
    ["ingest", "--log", USAGE, "--workflow", PIPELINE, "--format", "tsv"],
    ["ingest", "--log", USAGE],
    ["cost", "--workflow", PIPELINE, "--volume", "abc"],
    [],
    ["--version"],
    ["cost", "--workflow", PIPELINE, "--platform", "aws-x86", "--platform", "gcp",
     "--assign", "data-retrieval=gcp", "--assign", "data-processing=aws-x86",
     "--assign", "ai-inference=gcp", "--format", "csv"],
]


def _outcome(capsys, argv):
    """Exit code, stdout and stderr of one main call, argparse's own exits included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_calls(capsys, out_dir):
    return [
        _outcome(capsys, [str(out_dir / str(i)) if arg == OUT else arg for arg in argv])
        for i, argv in enumerate(_CALLS)
    ]


def _files(directory):
    return {p.relative_to(directory): p.read_bytes() for p in directory.rglob("*") if p.is_file()}


def test_the_reused_parser_answers_as_a_fresh_one(capsys, monkeypatch, tmp_path):
    assert cli._parser() is cli._parser()
    reused = _run_calls(capsys, tmp_path / "reused")
    monkeypatch.setattr(cli, "_parser", cli.build_parser)  # a new parser per call
    fresh = _run_calls(capsys, tmp_path / "fresh")
    assert [code for code, _, _ in reused] == [0, 0, 2, 0, 0, 0, 0, 2, 0, 4, 0, 0, 0, 2, 2, 0, 0]
    assert reused == fresh
    assert _files(tmp_path / "reused") == _files(tmp_path / "fresh") != {}


def test_a_handler_rebound_after_the_first_call_is_the_one_that_runs(capsys, monkeypatch):
    argv = ["cost", "--workflow", PIPELINE, "--platform", "aws-x86"]
    assert run(capsys, *argv)[0] == 0
    monkeypatch.setattr(cli, "cmd_cost", lambda args: 7)
    assert run(capsys, *argv) == (7, "", "")


_COUNT_PARSERS = """
import argparse
built = []
init = argparse.ArgumentParser.__init__
def counted(self, *args, **kwargs):
    built.append(self)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counted
import cosmos.cli
print(len(built))
cosmos.cli._parser()
print(len(built))
"""


def test_importing_the_cli_builds_no_parser():
    # A fresh interpreter: in this one cosmos.cli is imported already.
    src = Path(cli.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", _COUNT_PARSERS], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)}, timeout=60,
    )
    assert done.stdout.split() == ["0", "8"]  # the parser and its 7 subparsers, once built
