"""Acceptance gate: every shipped guarantee checked at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion. Data points come from the bundled fixtures; optimization answers
are verified against independent brute-force oracles written here and in
tests/oracles.py.
"""

import itertools
import random
from decimal import Decimal
from pathlib import Path

import pytest

from cosmos.engine import (
    COINCIDENT_CURVES,
    CostCurve,
    crossover,
    driver_shares,
    function_cost,
    function_cost_curve,
    workflow_cost_curve,
)
from cosmos.errors import InfeasibleError
from cosmos.optimizer import (
    OptimizationConfig,
    ParetoPoint,
    PointTableModel,
    optimal_line,
    optimize,
    pareto_front,
)
from cosmos.workflow import FunctionProfile, Placement, WorkflowSpec

from oracles import enumerate_placements, min_cost, min_time
from test_engine import _random_catalog, _random_profile
from test_telemetry import _stats

D = Decimal
MILLION = D(10**6)
PLATFORMS = ["aws-x86", "aws-arm", "aws-lambda-edge", "gcp", "leo"]
BILLED = ("aws-x86", "aws-arm", "aws-lambda-edge", "gcp")


def ok(criterion: str, detail: str) -> None:
    print(f"[{criterion}] PASS: {detail}")


# --- criterion 1: per-function totals ----------------------------------------


def test_criterion_1_per_function_totals(pipeline, catalogs):
    wf, _ = pipeline
    expected = {
        "data-retrieval": ("2.331", "2.2847", "3.1431", "1.3324"),
        "data-processing": ("3.211", "3.1647", "4.0031", "1.47029"),
        "ai-inference": ("17.3086", "17.2623", "18.7807", "62.5884"),
    }
    for profile in wf.functions:
        for pid, want in zip(BILLED, expected[profile.function_id]):
            got = function_cost(profile, catalogs[pid], volume=MILLION).total
            assert got == D(want), (profile.function_id, pid, got, want)
    ok("criterion 1", "12 per-function totals reproduced with exact decimal equality")


# --- criterion 2: driver breakdowns -------------------------------------------


def test_criterion_2_driver_breakdowns(pipeline, catalogs):
    wf, _ = pipeline
    retrieval = function_cost(wf.function("data-retrieval"), catalogs["aws-x86"])
    assert retrieval.invocation == D("0.20")
    assert retrieval.compute == D("0.213")
    assert retrieval.baas == D("1.06")
    assert retrieval.transfer == D("0.5645")
    assert retrieval.state == D("0.2935")

    processing = function_cost(wf.function("data-processing"), catalogs["aws-x86"])
    assert processing.baas == D("1.94")

    inference = function_cost(wf.function("ai-inference"), catalogs["gcp"])
    assert inference.baas == D("61.056") + D("0.20")
    ok("criterion 2", "driver subtotals reproduced exactly (incl. fixed+dynamic split)")


# --- criterion 3: curves and crossover points -----------------------------------


def test_criterion_3_curves_and_crossovers(pipeline, curve_study, catalogs):
    wf, _ = pipeline
    wf2, lat2 = curve_study
    tol = D("0.001")

    x86_inf = function_cost_curve(wf.function("ai-inference"), catalogs["aws-x86"])
    assert (x86_inf.fixed, x86_inf.slope * MILLION) == (D("13.7376"), D("3.571"))
    gcp_inf = function_cost_curve(wf2.function("ai-inference"), catalogs["gcp"])
    assert (gcp_inf.fixed, gcp_inf.slope * MILLION) == (D("61.056"), D("1.378"))

    le_inf = function_cost_curve(wf2.function("ai-inference"), catalogs["aws-lambda-edge"])
    uniform = lambda pid: Placement.uniform(wf2, pid)
    x86_wf = workflow_cost_curve(wf2, uniform("aws-x86"), catalogs, latencies=lat2)
    le_wf = workflow_cost_curve(wf2, uniform("aws-lambda-edge"), catalogs, latencies=lat2)
    gcp_wf = workflow_cost_curve(wf2, uniform("gcp"), catalogs, latencies=lat2)

    stars = [
        (le_inf, gcp_inf, D("15.7460"), D("82.7540")),
        (x86_inf, gcp_inf, D("21.5770"), D("90.7891")),
        (le_wf, gcp_wf, D("6.4391"), D("87.9759")),
        (x86_wf, gcp_wf, D("9.5936"), D("101.1637")),
    ]
    for a, b, n_millions, cost in stars:
        point = crossover(a, b)
        assert abs(point.n_star_millions - n_millions) <= tol
        assert abs(point.cost - cost) <= tol
    ok("criterion 3", "intercept/slope pairs exact; 4 crossover points within 1e-3")


# --- criterion 4: trade-off line extraction ---------------------------------------


LINE = [
    (D("25"), D("1225")),
    (D("45.36"), D("23.36661")),
    (D("88.56"), D("4.33485")),
    (D("125.28"), D("3.14685")),
    (D("215"), D("1.3324")),
]


def test_criterion_4_tradeoff_line(point_table):
    points = [
        ParetoPoint(label=f"{f}@{p}", cost=c, latency=l)
        for (f, p), (c, l) in sorted(point_table.items())
    ]
    line = optimal_line(points)
    assert [(p.latency, p.cost) for p in line] == LINE

    # The strict dominance front keeps two additional mid-latency inference
    # alternatives that sit above the convex line but are not beaten on both
    # axes by any single point; the line is its convex subset.
    front = pareto_front(points)
    assert [(p.latency, p.cost) for p in front] == sorted(
        LINE + [(D("84"), D("17.3086")), (D("86"), D("17.2623"))]
    )
    ok("criterion 4", "15-point fixture reduces to the 5 expected trade-off line points")


# --- criterion 5: anchor solves vs brute force --------------------------------------


def _oracle_best(workflow, platforms, table, key):
    best = None
    for combo in itertools.product(platforms, repeat=len(workflow.function_ids)):
        cost = sum(table[(f, p)][0] for f, p in zip(workflow.function_ids, combo))
        latency = sum(table[(f, p)][1] for f, p in zip(workflow.function_ids, combo))
        score = key(cost, latency)
        if best is None or score < best[0]:
            best = (score, combo, cost, latency)
    return best


def test_criterion_5_anchor_solves(pipeline, point_table):
    wf, _ = pipeline
    model = PointTableModel(wf, point_table)

    result = optimize(wf, PLATFORMS, model)

    c_star, c_placement = result.c_star, result.c_star_placement
    cost_oracle = _oracle_best(wf, PLATFORMS, point_table, key=lambda c, t: c)
    assert c_star == cost_oracle[2] == D("20.06499")
    assert c_placement.platforms() == cost_oracle[1] == ("gcp", "gcp", "aws-arm")
    assert (c_star, c_placement) == min_cost(wf, PLATFORMS, model)

    t_star, t_placement = result.t_star, result.t_star_placement
    time_oracle = _oracle_best(wf, PLATFORMS, point_table, key=lambda c, t: t)
    assert t_star == time_oracle[3] == D("143.6")
    assert t_placement.platforms() == ("leo", "leo", "leo")
    assert (t_star, t_placement) == min_time(wf, PLATFORMS, model)
    ok("criterion 5", "C*=20.06499 (gcp,gcp,arm) and T*=143.6 (all leo), oracle-confirmed")


# --- criterion 6: constrained optimization -------------------------------------------


def test_criterion_6_constrained_optimization(pipeline, point_table):
    wf, _ = pipeline
    model = PointTableModel(wf, point_table)

    with pytest.raises(InfeasibleError) as exc:
        optimize(wf, PLATFORMS, model, OptimizationConfig(budget=D(50), latency_slo=D(75)))
    assert exc.value.c_star == D("20.06499")
    assert exc.value.t_star == D("143.6")
    assert exc.value.diagnostics["latency_gap"] == D("68.6")

    result = optimize(wf, PLATFORMS, model)
    c_star, _ = min_cost(wf, PLATFORMS, model)
    t_star, _ = min_time(wf, PLATFORMS, model)
    oracle = _oracle_best(wf, PLATFORMS, point_table, key=lambda c, t: c / c_star + t / t_star)
    assert result.best.platforms() == oracle[1] == ("aws-lambda-edge", "aws-lambda-edge", "aws-x86")
    assert abs(D(str(result.objective)) - oracle[0]) <= D("0.000001")
    ok("criterion 6", "B=50/L=75 infeasible with anchors reported; unconstrained optimum matches oracle")


# --- criterion 7: property suites -----------------------------------------------------


def test_criterion_7a_breakdown_additivity():
    rng = random.Random(101)
    for _ in range(1000):
        b = function_cost(_random_profile(rng), _random_catalog(rng))
        assert b.total == b.invocation + b.compute + b.state + b.transfer + b.baas
        assert min(b.invocation, b.compute, b.state, b.transfer, b.baas) >= 0
    ok("criterion 7a", "breakdown additivity exact on 1000 randomized profiles")


def test_criterion_7b_crossover_sign_change():
    rng = random.Random(102)
    checked = 0
    while checked < 1000:
        low_fixed = D(rng.randint(0, 10**4)) / 100
        high_fixed = low_fixed + D(rng.randint(1, 10**4)) / 100
        slow = D(rng.randint(1, 10**4)) / D(10**9)
        fast = slow + D(rng.randint(1, 10**4)) / D(10**9)
        # Steeper line starts lower: guaranteed crossing at positive volume.
        a, b = CostCurve(low_fixed, fast), CostCurve(high_fixed, slow)
        if rng.random() < 0.5:
            a, b = b, a
        point = crossover(a, b)
        assert point is not None and point is not COINCIDENT_CURVES
        assert point.n_star > 0
        before = a.evaluate(point.n_star / 2) - b.evaluate(point.n_star / 2)
        after = a.evaluate(point.n_star * 2) - b.evaluate(point.n_star * 2)
        assert (before < 0 < after) or (after < 0 < before)
        checked += 1
    ok("criterion 7b", "crossover sign change holds on 1000 random curve pairs")


def test_criterion_7c_front_soundness_completeness():
    rng = random.Random(103)
    for _ in range(1000):
        size = rng.randint(1, 50)
        pts = [
            ParetoPoint(label=f"p{i}", cost=rng.randint(0, 60), latency=rng.randint(0, 60))
            for i in range(size)
        ]
        front = pareto_front(pts)
        front_keys = {(p.cost, p.latency) for p in front}
        for p in pts:
            dominated = any(
                q.cost <= p.cost and q.latency <= p.latency
                and (q.cost < p.cost or q.latency < p.latency)
                for q in pts
            )
            if (p.cost, p.latency) in front_keys:
                assert not dominated
            else:
                assert any(
                    q.cost <= p.cost and q.latency <= p.latency
                    and (q.cost < p.cost or q.latency < p.latency)
                    for q in front
                )
    ok("criterion 7c", "front soundness and completeness on 1000 random point sets")


def _chain(n):
    fids = [f"f{i}" for i in range(n)]
    return WorkflowSpec(
        workflow_id="chain",
        functions=tuple(FunctionProfile(function_id=f) for f in fids),
        edges=tuple(zip(fids, fids[1:])),
    )


def test_criterion_7d_weighted_optimum_front_membership():
    rng = random.Random(104)
    for _ in range(200):
        wf = _chain(rng.randint(1, 4))
        platforms = [f"p{i}" for i in range(rng.randint(1, 4))]
        table = {
            (f, p): (D(rng.randint(1, 400)), D(rng.randint(1, 400)))
            for f in wf.function_ids
            for p in platforms
        }
        model = PointTableModel(wf, table)
        result = optimize(wf, platforms, model)
        for placement in enumerate_placements(wf, platforms):
            cost, latency = model.cost_of(placement), model.latency_of(placement)
            assert not (
                cost <= result.cost
                and latency <= result.latency
                and (cost < result.cost or latency < result.latency)
            )
    ok("criterion 7d", "weighted optimum is Pareto-optimal on 200 random instances vs enumeration")


def test_criterion_7e_argmin_scale_invariance(pipeline, point_table):
    wf, _ = pipeline
    baseline = optimize(wf, PLATFORMS, PointTableModel(wf, point_table)).best
    rng = random.Random(105)
    for _ in range(20):
        k = D(rng.randint(1, 10**6)) / D(100)
        scaled = {key: (cost * k, lat) for key, (cost, lat) in point_table.items()}
        assert optimize(wf, PLATFORMS, PointTableModel(wf, scaled)).best == baseline
    ok("criterion 7e", "auto-weighted argmin unchanged under 20 positive cost scalings")


def test_criterion_7f_stats_match_sort_oracle():
    rng = random.Random(106)
    for _ in range(100):
        values = [rng.randint(0, 10**5) for _ in range(rng.randint(1, 300))]
        stats = _stats(*values)
        ordered = sorted(values)
        rank = -((-9 * len(ordered)) // 10)
        assert stats.count == len(values)
        assert stats.min == D(ordered[0])
        assert stats.max == D(ordered[-1])
        assert stats.p90 == D(ordered[rank - 1])
        assert stats.mean == (sum(map(D, values)) / D(len(values))).quantize(D("1e-9"))
    ok("criterion 7f", "latency statistics match the sort-based oracle on 100 random samples")


# --- criterion 8: headline shares not reproduced, documented ---------------------------


def test_criterion_8_unreproduced_shares_documented(pipeline, catalogs):
    wf, _ = pipeline
    retrieval = function_cost(wf.function("data-retrieval"), catalogs["aws-x86"])
    shares = driver_shares(retrieval)
    data_driven = shares["transfer"] + shares["state"]
    # Computed from the reproduced breakdown: 0.858 of 2.331, about 36.8 percent.
    assert abs(data_driven - D(100) * D("0.858") / D("2.331")) < D("0.0001")
    # The quoted headline shares (75 or 53 percent) cannot be derived from
    # the same per-driver figures this tool reproduces exactly.
    assert abs(data_driven - 53) > 10
    assert abs(data_driven - 75) > 10

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert "not reproduced" in readme.lower()
    for quoted in ("75%", "53%", "52%", "83%", "97%"):
        assert quoted in readme
    ok("criterion 8", "headline share claims documented as not reproduced; tool reports computed shares")
