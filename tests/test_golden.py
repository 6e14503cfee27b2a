"""Every view of every report command, byte for byte against tests/golden/.

Each golden file is the stdout of one command in one view (the table view,
or --format csv, tsv or json), on the bundled fixtures and the few inputs
under tests/golden/inputs/ that reach rows the fixtures do not (a shared
credit, a crossover at no nonnegative volume, a pair with error rows only).
A command builds only the view it prints, so this is what guards the views
it does not build on a given run.
"""

import contextlib
import io
from pathlib import Path

import pytest

from cosmos.cli import main
from cosmos.workflow import bundled_fixture_dir

GOLDEN = Path(__file__).resolve().parent / "golden"
INPUTS = GOLDEN / "inputs"
FIXTURES = bundled_fixture_dir()
PIPELINE = str(FIXTURES / "imagery-pipeline.json")
CURVE_STUDY = str(FIXTURES / "imagery-pipeline-curve-study.json")
POINTS = str(FIXTURES / "tradeoff-points.json")
USAGE = str(FIXTURES / "sample-usage.csv")
ALL_PLATFORMS = [a for pid in ("aws-x86", "aws-arm", "aws-lambda-edge", "gcp", "leo")
                 for a in ("--platform", pid)]
MIXED = ["--platform", "aws-x86", "--platform", "gcp", "--assign", "data-retrieval=gcp",
         "--assign", "data-processing=aws-x86", "--assign", "ai-inference=gcp"]

CASES = {
    "cost-x86": ["cost", "--workflow", PIPELINE, "--platform", "aws-x86"],
    "cost-mixed": ["cost", "--workflow", PIPELINE, *MIXED],
    "cost-leo-volume": ["cost", "--workflow", CURVE_STUDY, "--platform", "leo", "--volume", "2500000"],
    "cost-shared-credit": ["cost", "--workflow", str(INPUTS / "shared-credit.json"), "--platform", "aws-x86"],
    "breakdown-gcp": ["breakdown", "--workflow", PIPELINE, "--platform", "gcp"],
    "breakdown-leo": ["breakdown", "--workflow", PIPELINE, "--platform", "leo", "--volume", "1234567"],
    "breakdown-mixed": ["breakdown", "--workflow", PIPELINE, *MIXED],
    "curve-gcp": ["curve", "--workflow", CURVE_STUDY, "--platform", "gcp"],
    "curve-function": ["curve", "--workflow", PIPELINE, "--platform", "aws-lambda-edge",
                       "--function", "ai-inference", "--sample", "0", "--sample", "123456789"],
    "crossover-workflow": ["crossover", "--workflow", CURVE_STUDY, "--platform", "aws-x86", "--platform", "gcp"],
    "crossover-function": ["crossover", "--workflow", PIPELINE, "--platform", "leo", "--platform", "gcp",
                           "--function", "ai-inference"],
    "crossover-coincident": ["crossover", "--workflow", PIPELINE, "--platform", "aws-x86", "--platform", "aws-x86"],
    "crossover-none": ["crossover", "--workflow", str(INPUTS / "no-crossover.json"),
                       "--platform", "aws-x86", "--platform", "gcp"],
    "pareto-points": ["pareto", "--workflow", PIPELINE, "--points", POINTS],
    "pareto-catalogs": ["pareto", "--workflow", PIPELINE, *ALL_PLATFORMS],
    "optimize-points": ["optimize", "--workflow", PIPELINE, "--points", POINTS,
                        "--budget", "50", "--latency-slo", "700"],
    "optimize-catalogs": ["optimize", "--workflow", PIPELINE, *ALL_PLATFORMS],
    "optimize-manual": ["optimize", "--workflow", PIPELINE, "--points", POINTS, "--alpha", "1", "--beta", "0.01"],
    "ingest": ["ingest", "--log", USAGE],
    "ingest-calibrate": ["ingest", "--log", USAGE, "--workflow", PIPELINE],
    "ingest-error-pair": ["ingest", "--log", str(INPUTS / "error-pair.csv")],
}

VIEWS = {"table": [], "csv": ["--format", "csv"], "tsv": ["--format", "tsv"], "json": ["--format", "json"]}


def _stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("view", sorted(VIEWS))
@pytest.mark.parametrize("case", sorted(CASES))
def test_view_matches_its_golden_bytes(case, view):
    code, out = _stdout([*CASES[case], *VIEWS[view]])
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / case / f"{view}.txt").read_bytes()

