import contextlib
import csv
import io
import json
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cosmos import cli, engine
from cosmos.catalog import bundled_catalog_dir
from cosmos.cli import main
from cosmos.errors import (
    CapExceededError,
    CosmosError,
    CoverageError,
    CycleError,
    DegenerateAnchorError,
    DomainError,
    DuplicateIdError,
    HeaderError,
    InfeasibleError,
    MissingLatencyError,
    NegativeRateError,
    NoDataError,
    RecordError,
    RowError,
    SchemaError,
    UnitError,
    UnknownComponentError,
    UnknownFunctionError,
    UnknownPlatformError,
    UnplacedFunctionError,
)
from cosmos.workflow import bundled_fixture_dir

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


@pytest.mark.parametrize("command", ["cost", "breakdown"])
def test_cost_and_breakdown_itemize_each_function_once(capsys, monkeypatch, command):
    calls = []
    itemize = engine.component_charges

    def counted(*args, **kwargs):
        calls.append(args[0].function_id)
        return itemize(*args, **kwargs)

    monkeypatch.setattr(engine, "component_charges", counted)
    monkeypatch.setattr(cli, "component_charges", counted)
    code, _, _ = run(capsys, command, "--workflow", PIPELINE, "--platform", "leo")
    assert code == 0
    assert calls == ["data-retrieval", "data-processing", "ai-inference"]


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
    from cosmos.workflow import load_workflow_document

    reloaded, latencies = load_workflow_document(tmp_path / "calibrated-workflow.json")
    assert reloaded.function("data-retrieval").r_in == D("0.001048576")
    assert latencies.get("data-retrieval", "aws-x86") == D(232)
    assert reloaded.edges == (
        ("data-retrieval", "data-processing"),
        ("data-processing", "ai-inference"),
    )


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
    RecordError: 2,
    CoverageError: 2,
    DomainError: 3,
    NoDataError: 3,
    DegenerateAnchorError: 3,
    CapExceededError: 3,
    InfeasibleError: 4,
    FileNotFoundError: 2,
    IsADirectoryError: 2,
    json.JSONDecodeError: 2,
    RuntimeError: 3,
}

_ERROR_ARGS = {
    MissingLatencyError: ("f", "p"),
    CapExceededError: (10, 1),
    InfeasibleError: (1, 2),
    RowError: (3, "bad"),
    CoverageError: ([("f", "p")],),
    json.JSONDecodeError: ("bad", "{", 0),
}


def _error_classes(cls=CosmosError):
    yield cls
    for sub in cls.__subclasses__():
        yield from _error_classes(sub)


@pytest.mark.parametrize(
    "error",
    list(dict.fromkeys(_error_classes()))
    + [FileNotFoundError, IsADirectoryError, json.JSONDecodeError, RuntimeError],
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


def _pipeline_latency(fid, pid, value):
    """The pipeline with one latency entry, or with fid None one factor, set to value.
    Passed as a second --workflow, it replaces the first."""
    doc = json.loads(Path(PIPELINE).read_text(encoding="utf-8"))
    block = doc["latency"]
    if fid is None:
        block["factors"][pid] = value
    else:
        block["entries"][fid][pid] = value
    return doc


_MALFORMED = {
    "points-not-array": ("optimize", "--points", {"points": 5}, "points"),
    "points-entry-not-object": ("optimize", "--points", {"points": [5]}, "points"),
    "cost-array": ("optimize", "--points", _point_table(cost=[1]), "cost"),
    "cost-float": ("optimize", "--points", _point_table(cost=1.5), "cost"),
    "latency-not-decimal": ("optimize", "--points", _point_table(latency_ms="abc"), "latency_ms"),
    "rate-not-decimal": ("cost", "--catalog", _x86_card(rate="abc"), "rate"),
    "latency-negative-leo": ("cost", "--workflow", _pipeline_latency("data-retrieval", "leo", "-5"),
                             "(data-retrieval, leo)"),
    "latency-negative-x86": ("optimize", "--workflow",
                             _pipeline_latency("data-retrieval", "aws-x86", "-5"),
                             "(data-retrieval, aws-x86)"),
    "latency-negative-factor": ("pareto", "--workflow",
                                _pipeline_latency(None, "aws-lambda-edge", "-1"),
                                "latency factor aws-lambda-edge"),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_quantity_exits_2_naming_the_field(capsys, tmp_path, case):
    command, option, doc, field = _MALFORMED[case]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run(capsys, command, "--workflow", PIPELINE, option, str(path))
    assert code == 2
    assert field in err


# --- numeric flags -------------------------------------------------------------------


_BAD_FLAGS = {
    "volume-not-decimal": ("cost", ["--platform", "aws-x86", "--volume", "abc"], "--volume"),
    "budget-not-decimal": ("optimize", ["--points", POINTS, "--budget", "abc"], "--budget"),
    "budget-negative": ("optimize", ["--points", POINTS, "--budget", "-5"], "--budget"),
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
