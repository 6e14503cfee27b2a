import bisect
import gc
import itertools
import math
import random
import time
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction
from operator import attrgetter

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cosmos import engine, optimizer
from cosmos.engine import workflow_cost
from cosmos.money import MONEY_LIMIT, exact_sums, money_product
from cosmos.errors import (
    CapExceededError,
    DegenerateAnchorError,
    DomainError,
    InfeasibleError,
    SchemaError,
)
from cosmos.optimizer import (
    CatalogModel,
    OptimizationConfig,
    PairEntry,
    ParetoPoint,
    PlacementModel,
    auto_weights,
    optimal_line,
    optimize,
    pareto_front,
)
from cosmos.workflow import (
    BaasUsage,
    FunctionProfile,
    LatencyTable,
    Placement,
    WorkflowSpec,
    critical_path,
)

from oracles import enumerate_placements, min_cost, min_time, walk_oracle

D = Decimal

PLATFORMS = ["aws-x86", "aws-arm", "aws-lambda-edge", "gcp", "leo"]

#: The five alternatives on the measured trade-off line, latency ascending.
LINE_POINTS = [
    (D("25"), D("1225")),
    (D("45.36"), D("23.36661")),
    (D("88.56"), D("4.33485")),
    (D("125.28"), D("3.14685")),
    (D("215"), D("1.3324")),
]


def _chain(n):
    fids = [f"f{i}" for i in range(n)]
    return WorkflowSpec(
        workflow_id="chain",
        functions=tuple(FunctionProfile(function_id=f) for f in fids),
        edges=tuple(zip(fids, fids[1:])),
    )


def brute_force_best(workflow, platforms, table, key):
    """Independent oracle: rank every assignment by the given key."""
    fids = workflow.function_ids
    best = None
    for combo in itertools.product(platforms, repeat=len(fids)):
        cost = sum(table[(f, p)][0] for f, p in zip(fids, combo))
        latency = sum(table[(f, p)][1] for f, p in zip(fids, combo))
        score = key(cost, latency)
        if best is None or score < best[0]:
            best = (score, combo, cost, latency)
    return best


# --- enumeration -----------------------------------------------------------


def _indexed(wf, platforms):
    """The placement of every enumeration index, in index order."""
    return [optimizer._placement(wf, platforms, i) for i in range(len(platforms) ** len(wf.functions))]


def test_enumeration_count_three_by_five(pipeline, point_table):
    wf, _ = pipeline
    result = optimize(wf, PLATFORMS, PlacementModel(wf, point_table))
    assert result.counters.placements == result.total_count == 125
    assert sum(1 for _ in enumerate_placements(wf, PLATFORMS)) == 125
    assert _indexed(wf, PLATFORMS) == list(enumerate_placements(wf, PLATFORMS))


def test_enumeration_singleton():
    wf = _chain(1)
    expected = [Placement((("f0", "only"),))]
    assert _indexed(wf, ["only"]) == list(enumerate_placements(wf, ["only"])) == expected


def test_enumeration_cap_exceeded():
    # The model has no pairs: the cap is checked before any pair is read.
    wf = _chain(8)
    with pytest.raises(CapExceededError) as exc:
        optimize(wf, [f"p{i}" for i in range(10)], PlacementModel(wf, {}))
    assert exc.value.count == 10**8


def test_enumeration_requires_platforms():
    wf = _chain(1)
    with pytest.raises(DomainError, match="at least one platform"):
        optimize(wf, [], PlacementModel(wf, {}))


def test_enumeration_order_is_lexicographic():
    wf = _chain(2)
    expected = [("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")]
    assert [p.platforms() for p in _indexed(wf, ["a", "b"])] == expected
    assert [p.platforms() for p in enumerate_placements(wf, ["a", "b"])] == expected


def test_enumeration_is_exhaustive_and_unique():
    wf = _chain(3)
    got = _indexed(wf, ["x", "y", "z"])
    assert len(got) == 27 == len(set(got))
    assert got == list(enumerate_placements(wf, ["x", "y", "z"]))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(0, 4), width=st.integers(1, 3), rng=st.randoms(use_true_random=False))
@example(n=0, width=1, rng=random.Random(0))
@example(n=0, width=3, rng=random.Random(0))
@example(n=3, width=1, rng=random.Random(0))
def test_placement_of_an_index_is_the_enumerated_placement(n, width, rng):
    # The walk names a placement by its enumeration index; edges run forward
    # in a random order of the functions, so declaration order is often not
    # a topological order.
    fids = [f"f{i}" for i in range(n)]
    ranked = rng.sample(fids, n)
    edges = [(ranked[i], ranked[j]) for i, j in itertools.combinations(range(n), 2) if rng.random() < 0.5]
    wf = WorkflowSpec(
        workflow_id="dag", functions=tuple(FunctionProfile(f) for f in fids), edges=tuple(edges)
    )
    platforms = ["x", "y", "z"][:width]
    placements = list(enumerate_placements(wf, platforms))
    assert len(placements) == width**n
    for i, placement in enumerate(placements):
        assert optimizer._placement(wf, platforms, i) == placement


# --- anchor solves -----------------------------------------------------------


def test_min_cost_matches_brute_force(pipeline, point_table):
    wf, _ = pipeline
    model = PlacementModel(wf, point_table)
    result = optimize(wf, PLATFORMS, model)
    c_star, placement = result.c_star, result.c_star_placement
    oracle = brute_force_best(wf, PLATFORMS, point_table, key=lambda c, t: c)
    assert c_star == oracle[2] == D("20.06499")
    assert placement.platforms() == oracle[1] == ("gcp", "gcp", "aws-arm")
    assert (c_star, placement) == min_cost(wf, PLATFORMS, model)


def test_min_time_matches_brute_force(pipeline, point_table):
    wf, _ = pipeline
    model = PlacementModel(wf, point_table)
    result = optimize(wf, PLATFORMS, model)
    t_star, placement = result.t_star, result.t_star_placement
    oracle = brute_force_best(wf, PLATFORMS, point_table, key=lambda c, t: t)
    assert t_star == oracle[3] == D("143.6")
    assert placement.platforms() == ("leo", "leo", "leo")
    assert (t_star, placement) == min_time(wf, PLATFORMS, model)


def test_min_cost_single_platform(pipeline, point_table):
    wf, _ = pipeline
    model = PlacementModel(wf, point_table)
    result = optimize(wf, ["gcp"], model)
    c_star, placement = result.c_star, result.c_star_placement
    assert c_star == D("1.3324") + D("1.47029") + D("62.5884")
    assert placement.platforms() == ("gcp", "gcp", "gcp")
    assert (c_star, placement) == min_cost(wf, ["gcp"], model)


def test_min_cost_tie_breaks_to_first_enumerated():
    wf = _chain(2)
    table = {(f, p): PairEntry(D(5), D(7)) for f in wf.function_ids for p in ("a", "b")}
    model = PlacementModel(wf, table)
    result = optimize(wf, ["a", "b"], model)
    placement = result.c_star_placement
    assert placement.platforms() == ("a", "a")
    assert result.t_star_placement.platforms() == ("a", "a")
    assert (result.c_star, placement) == min_cost(wf, ["a", "b"], model)


def test_catalog_model_agrees_with_engine(pipeline, catalogs):
    wf, lat = pipeline
    model = CatalogModel(wf, catalogs, latencies=lat)
    c_star, placement = min_cost(wf, PLATFORMS, model)
    # The cheapest platforms per function are billed identically in the
    # measured point set, so the catalog-backed argmin lands the same way.
    assert placement.platforms() == ("gcp", "gcp", "aws-arm")
    assert c_star == D("20.06499")


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_catalog_model_matches_engine_with_shared_fixed_charges(catalogs, data):
    n = data.draw(st.integers(min_value=2, max_value=3), label="functions")
    months = data.draw(
        st.lists(st.integers(1, 12), min_size=n, max_size=n, unique=True), label="months"
    )
    fids = [f"f{i}" for i in range(n)]
    wf = WorkflowSpec(
        workflow_id="shared",
        functions=tuple(
            FunctionProfile(
                function_id=fid,
                n=D(data.draw(st.integers(1, 10**6), label=f"n-{fid}")),
                t=D("0.1"),
                mem=D("0.125"),
                baas_usage=(BaasUsage("ml-provisioning", D(m)),),
            )
            for fid, m in zip(fids, months)
        ),
        edges=tuple(
            (fids[i], fids[j])
            for i, j in itertools.combinations(range(n), 2)
            if data.draw(st.booleans(), label=f"edge{i}-{j}")
        ),
    )
    lat = LatencyTable(
        {(fid, pid): D(data.draw(st.integers(1, 500))) for fid in fids for pid in PLATFORMS}
    )
    model = CatalogModel(wf, catalogs, latencies=lat)

    placement = Placement(tuple((fid, data.draw(st.sampled_from(PLATFORMS))) for fid in fids))
    assert model.cost_of(placement) == workflow_cost(wf, placement, catalogs, latencies=lat).total
    assert model.latency_of(placement) == critical_path(
        wf, [lat.get(fid, pid) for fid, pid in placement.assignments]
    )

    # All functions on one billed platform share ml-provisioning with distinct
    # month counts, so the search meets a non-zero credit in every example.
    # (leo prices ml-provisioning at 0.)
    uniform = Placement.uniform(wf, data.draw(st.sampled_from(PLATFORMS[:4])))
    billed_alone = sum(model.entry(fid, pid).cost for fid, pid in uniform.assignments)
    assert model.cost_of(uniform) < billed_alone

    evaluated = []
    for combo in itertools.product(PLATFORMS, repeat=n):
        p = Placement(tuple(zip(fids, combo)))
        evaluated.append(
            (
                workflow_cost(wf, p, catalogs, latencies=lat).total,
                critical_path(wf, [lat.get(fid, pid) for fid, pid in zip(fids, combo)]),
            )
        )
    c_star = min(c for c, _ in evaluated)
    t_star = min(t for _, t in evaluated)
    result = optimize(wf, PLATFORMS, model)
    assert (result.c_star, result.t_star) == (c_star, t_star)
    assert (result.cost, result.latency) in evaluated
    best = min(c / c_star + t / t_star for c, t in evaluated)
    assert result.cost / c_star + result.latency / t_star <= best + D("1e-9")


def test_auto_weights_reciprocal():
    alpha, beta = auto_weights(D("20.06499"), D("143.6"))
    assert abs(alpha - D("0.0498380")) < D("0.0000001")
    assert abs(beta - D("0.0069638")) < D("0.0000001")
    assert auto_weights(D(1), D(1)) == (D(1), D(1))


def test_auto_weights_degenerate_anchor():
    with pytest.raises(DegenerateAnchorError):
        auto_weights(D(0), D(1))
    with pytest.raises(DegenerateAnchorError):
        auto_weights(D(1), D(0))


# --- constrained optimization ---------------------------------------------------


def test_unconstrained_optimum_matches_brute_force(pipeline, point_table):
    wf, _ = pipeline
    model = PlacementModel(wf, point_table)
    c_star, _ = min_cost(wf, PLATFORMS, model)
    t_star, _ = min_time(wf, PLATFORMS, model)
    oracle = brute_force_best(
        wf, PLATFORMS, point_table, key=lambda c, t: c / c_star + t / t_star
    )
    result = optimize(wf, PLATFORMS, model)
    assert result.best.platforms() == oracle[1] == ("aws-lambda-edge", "aws-lambda-edge", "aws-x86")
    assert result.cost == oracle[2] == D("24.79030")
    assert result.latency == oracle[3] == D("297.84")
    assert abs(D(str(result.objective)) - oracle[0]) < D("0.000001")
    assert result.feasible_count == result.total_count == 125


def test_result_objective_consistent_with_weights(pipeline, point_table):
    wf, _ = pipeline
    result = optimize(wf, PLATFORMS, PlacementModel(wf, point_table))
    recomputed = result.alpha * float(result.cost) + result.beta * float(result.latency)
    assert abs(result.objective - recomputed) < 1e-9


def test_constrained_instance_is_infeasible(pipeline, point_table):
    wf, _ = pipeline
    model = PlacementModel(wf, point_table)
    with pytest.raises(InfeasibleError) as exc:
        optimize(wf, PLATFORMS, model, OptimizationConfig(budget=D(50), latency_slo=D(75)))
    assert exc.value.t_star == D("143.6")
    assert exc.value.c_star == D("20.06499")
    assert exc.value.diagnostics["latency_gap"] == D("68.6")


def test_singleton_feasible_set(pipeline, point_table):
    wf, _ = pipeline
    model = PlacementModel(wf, point_table)
    result = optimize(wf, ["gcp"], model)
    assert result.best.platforms() == ("gcp", "gcp", "gcp")
    expected = result.alpha * float(result.cost) + result.beta * float(result.latency)
    assert abs(result.objective - expected) < 1e-9


def test_manual_cost_only_weights_reduce_to_min_cost(pipeline, point_table):
    wf, _ = pipeline
    model = PlacementModel(wf, point_table)
    config = OptimizationConfig(alpha=D(1), beta=D(0))
    result = optimize(wf, PLATFORMS, model, config)
    c_star, placement = min_cost(wf, PLATFORMS, model)
    assert result.best == placement
    assert result.cost == c_star


def test_per_function_scope_constrains_each_function(pipeline, point_table):
    wf, _ = pipeline
    model = PlacementModel(wf, point_table)
    # Every platform violates one of the per-function limits for retrieval
    # and for processing, and the error names both, not the gaps from the
    # workflow anchors.
    with pytest.raises(InfeasibleError) as exc:
        optimize(
            wf,
            PLATFORMS,
            model,
            OptimizationConfig(budget=D(50), latency_slo=D(75), scope="per_function"),
        )
    assert exc.value.diagnostics == {
        "min_cost_placement": "data-retrieval=gcp,data-processing=gcp,ai-inference=aws-arm",
        "min_time_placement": "data-retrieval=leo,data-processing=leo,ai-inference=leo",
        "unplaceable": "data-retrieval,data-processing",
    }
    # Loose per-function limits admit the workflow-optimal placement.
    result = optimize(
        wf,
        PLATFORMS,
        model,
        OptimizationConfig(budget=D(10**6), latency_slo=D(10**6), scope="per_function"),
    )
    assert result.best.platforms() == ("aws-lambda-edge", "aws-lambda-edge", "aws-x86")


def test_config_validation():
    with pytest.raises(DomainError):
        OptimizationConfig(budget=D(0))
    with pytest.raises(DomainError):
        OptimizationConfig(latency_slo=D(-1))
    with pytest.raises(DomainError):
        OptimizationConfig(alpha=D(1))
    with pytest.raises(DomainError):
        OptimizationConfig(beta=D(1))
    with pytest.raises(DomainError):
        OptimizationConfig(alpha=D(0), beta=D(0))
    with pytest.raises(DomainError):
        OptimizationConfig(scope="per-request")


@pytest.mark.parametrize(
    "field, value",
    [("budget", D("NaN")), ("budget", D("Infinity")), ("budget", 4.5), ("latency_slo", D("sNaN")),
     ("latency_slo", 75), ("alpha", D("NaN")), ("alpha", 1), ("alpha", D("Infinity")),
     ("beta", D("-Infinity")), ("beta", "1")],
)
def test_config_refuses_a_bound_or_weight_that_is_not_a_finite_decimal(field, value):
    weights = {"alpha": D(1), "beta": D(1)} if field in ("alpha", "beta") else {}
    with pytest.raises(DomainError) as exc:
        OptimizationConfig(**{**weights, field: value})
    assert str(exc.value) == f"{field} must be a finite Decimal, got {value!r}"


def test_normalized_objective_lower_bound(pipeline, point_table):
    wf, _ = pipeline
    result = optimize(wf, PLATFORMS, PlacementModel(wf, point_table))
    assert result.objective >= 2 - 1e-9
    # Strictly above 2 here: no placement attains both anchors at once.
    assert result.objective > 2


# --- pareto front and trade-off line ---------------------------------------------


def _points(pairs):
    return [
        ParetoPoint(label=f"p{i}", cost=c, latency=l) for i, (l, c) in enumerate(pairs)
    ]


def test_front_of_measured_points(point_table):
    points = [
        ParetoPoint(label=f"{f}@{p}", cost=c, latency=l)
        for (f, p), (c, l, _) in sorted(point_table.items())
    ]
    front = pareto_front(points)
    got = [(p.latency, p.cost) for p in front]
    # Two mid-latency inference alternatives are not beaten on both axes by
    # any single point, so the dominance front carries them in addition to
    # the five points of the convex trade-off line.
    extras = [(D("84"), D("17.3086")), (D("86"), D("17.2623"))]
    assert got == sorted(LINE_POINTS + extras)
    for p in front:
        assert not any(
            q.cost <= p.cost and q.latency <= p.latency and (q.cost, q.latency) != (p.cost, p.latency)
            for q in points
        )


def test_optimal_line_of_measured_points(point_table):
    points = [
        ParetoPoint(label=f"{f}@{p}", cost=c, latency=l)
        for (f, p), (c, l, _) in sorted(point_table.items())
    ]
    line = optimal_line(points)
    assert [(p.latency, p.cost) for p in line] == LINE_POINTS


def test_line_is_subset_of_front(point_table):
    points = [
        ParetoPoint(label=f"{f}@{p}", cost=c, latency=l)
        for (f, p), (c, l, _) in sorted(point_table.items())
    ]
    front_keys = {(p.cost, p.latency) for p in pareto_front(points)}
    assert all((p.cost, p.latency) in front_keys for p in optimal_line(points))


def test_front_simple_dominance():
    pts = _points([(D(10), D(5)), (D(20), D(6))])
    assert pareto_front(pts) == [pts[0]]


def test_front_single_point():
    pts = _points([(D(3), D(4))])
    assert pareto_front(pts) == pts
    assert optimal_line(pts) == pts


def test_front_empty():
    assert pareto_front([]) == []
    assert optimal_line([]) == []


def test_front_collapses_duplicates_to_first():
    a = ParetoPoint(label="first", cost=D(1), latency=D(1))
    b = ParetoPoint(label="second", cost=D(1), latency=D(1))
    assert pareto_front([a, b]) == [a]


def test_front_soundness_and_completeness_random():
    rng = random.Random(11)
    for _ in range(100):
        pts = _points(
            [(D(rng.randint(0, 40)), D(rng.randint(0, 40))) for _ in range(rng.randint(1, 30))]
        )
        front = pareto_front(pts)
        front_keys = {(p.cost, p.latency) for p in front}
        for p in pts:
            if (p.cost, p.latency) in front_keys:
                assert not any(
                    q.cost <= p.cost and q.latency <= p.latency
                    and (q.cost < p.cost or q.latency < p.latency)
                    for q in pts
                )
            else:
                assert any(
                    q.cost <= p.cost and q.latency <= p.latency
                    and (q.cost < p.cost or q.latency < p.latency)
                    for q in front
                )


def test_weighted_optimum_is_pareto_optimal_random():
    rng = random.Random(13)
    for _ in range(40):
        n_fun, n_plat = rng.randint(1, 4), rng.randint(1, 4)
        wf = _chain(n_fun)
        platforms = [f"p{i}" for i in range(n_plat)]
        table = {
            (f, p): PairEntry(D(rng.randint(1, 500)), D(rng.randint(1, 500)))
            for f in wf.function_ids
            for p in platforms
        }
        model = PlacementModel(wf, table)
        result = optimize(wf, platforms, model)
        for placement in enumerate_placements(wf, platforms):
            cost, latency = model.cost_of(placement), model.latency_of(placement)
            dominates = (
                cost <= result.cost
                and latency <= result.latency
                and (cost < result.cost or latency < result.latency)
            )
            assert not dominates, (placement, cost, latency, result)


def test_argmin_invariant_under_cost_scaling(pipeline, point_table):
    wf, _ = pipeline
    baseline = optimize(wf, PLATFORMS, PlacementModel(wf, point_table)).best
    rng = random.Random(17)
    for _ in range(5):
        k = D(rng.randint(1, 10**6)) / D(1000)
        scaled = {key: e._replace(cost=e.cost * k) for key, e in point_table.items()}
        result = optimize(wf, PLATFORMS, PlacementModel(wf, scaled))
        assert result.best == baseline


def test_separability_on_chains(pipeline, point_table):
    wf, _ = pipeline
    model = PlacementModel(wf, point_table)
    c_star, _ = min_cost(wf, PLATFORMS, model)
    t_star, _ = min_time(wf, PLATFORMS, model)
    alpha, beta = auto_weights(c_star, t_star)
    independent = tuple(
        min(
            PLATFORMS,
            key=lambda p: alpha * model.entry(fid, p).cost
            + beta * model.entry(fid, p).latency,
        )
        for fid in wf.function_ids
    )
    assert optimize(wf, PLATFORMS, model).best.platforms() == independent


# --- one search pass -------------------------------------------------------------


def test_argmin_invariant_under_manual_weight_scaling(pipeline, point_table):
    wf, _ = pipeline
    model = PlacementModel(wf, point_table)
    for alpha, beta in [(D(1), D(0)), (D(0), D(1)), (D(1), D(1)), (D("0.0498"), D("0.00696"))]:
        baseline = optimize(
            wf, PLATFORMS, model, OptimizationConfig(alpha=alpha, beta=beta)
        ).best
        for k in range(-15, 7):
            config = OptimizationConfig(alpha=alpha.scaleb(k), beta=beta.scaleb(k))
            assert optimize(wf, PLATFORMS, model, config).best == baseline, (alpha, beta, k)


_PASS_CONFIGS = {
    "auto": OptimizationConfig(),
    "manual": OptimizationConfig(alpha=D(1), beta=D(1)),
    "infeasible": OptimizationConfig(budget=D(50), latency_slo=D(75)),
}


@pytest.mark.parametrize("mode", sorted(_PASS_CONFIGS))
def test_optimize_enumerates_the_placements_once(pipeline, point_table, monkeypatch, mode):
    wf, _ = pipeline
    calls = []
    problem = optimizer._problem

    def counting(*args, **kwargs):
        calls.append(args)
        return problem(*args, **kwargs)

    monkeypatch.setattr(optimizer, "_problem", counting)
    try:
        optimize(wf, PLATFORMS, PlacementModel(wf, point_table), _PASS_CONFIGS[mode])
    except InfeasibleError:
        assert mode == "infeasible"
    assert len(calls) == 1


def test_zero_anchor_is_reported_before_infeasibility():
    wf = _chain(2)
    table = {(f, p): PairEntry(D(c), D(7)) for f in wf.function_ids for p, c in (("a", 0), ("b", 5))}
    with pytest.raises(DegenerateAnchorError):
        optimize(wf, ["a", "b"], PlacementModel(wf, table), OptimizationConfig(latency_slo=D(1)))


#: A rate of _found_table: -6E+37 - 1E-12.
_FOUND_RATE = "-6" + "0" * 37 + ".000000000001"


def _found_table(months=D(1), rate=D(_FOUND_RATE)):
    """A 4-function chain on x and y, every pair costing 1 with latency 1,
    except that f0@x and f1@x each bill (x, a) for months at rate and (x, b)
    for a month at -5E+37. With months 1, enumeration raises that a
    workflow cost needs more than 50 significant digits, and a walk that
    takes each credit term for nonnegative would return f0=x,f1=y,f2=x,f3=x
    at cost 4."""
    wf = _chain(4)
    bills = ((("x", "a"), months, rate), (("x", "b"), D(1), D("-5E+37")))
    table = {(f, p): PairEntry(D(1), D(1)) for f in wf.function_ids for p in "xy"}
    for f in ("f0", "f1"):
        table[(f, "x")] = PairEntry(D(1), D(1), bills)
    return wf, table


def _key_at_two_rates():
    """Key ml on y is billed 500 months twice at 1 by f0 and once at 1E+20
    by f1: a credit taking the last rate for 501 months, 5.01E+22, would
    leave the cost of both on y at 51 digits."""
    wf = WorkflowSpec(workflow_id="rates", functions=(FunctionProfile("f0"), FunctionProfile("f1")))
    return wf, {
        ("f0", "x"): PairEntry(D("501.00000000000000000001"), D(0)),
        ("f0", "y"): PairEntry(
            D("1000.0000000000000000000000000001"), D(0),
            ((("y", "ml"), D(500), D(1)), (("y", "ml"), D(500), D(1))),
        ),
        ("f1", "x"): PairEntry(D(1), D(0)),
        ("f1", "y"): PairEntry(D("100000000000000000001"), D(0), ((("y", "ml"), D(1), D("1E+20")),)),
    }


def _credit_dropped_by_a_later_billing():
    """A 6-function chain on x and y, every pair costing 1 with latency 1,
    except that f0@x and f1@x cost 3E+37 and each bills (x, a) for a month
    at 6E+37 + 1E-12 and (x, b) at 4E+37 + 1E-12; f2 bills (x, a) for a
    month at rate 0 on either platform. On (x, x) f1's billing would credit
    1E+38 + 2E-12, 51 digits, and f2's would then drop a's term."""
    wf = _chain(6)
    bills = ((("x", "a"), D(1), D("6" + "0" * 37 + ".000000000001")),
             (("x", "b"), D(1), D("4" + "0" * 37 + ".000000000001")))
    table = {(f, p): PairEntry(D(1), D(1)) for f in wf.function_ids for p in "xy"}
    for f in ("f0", "f1"):
        table[(f, "x")] = PairEntry(D("3E+37"), D(1), bills)
    for p in "xy":
        table[("f2", p)] = PairEntry(D(1), D(1), ((("x", "a"), D(1), D(0)),))
    return wf, table


def _one_pair_at_two_rates():
    """f on y bills key ml for a month at 1 and then at 1.5."""
    wf = WorkflowSpec(workflow_id="pair", functions=(FunctionProfile("f"),))
    fixed = ((("y", "ml"), D(1), D(1)), (("y", "ml"), D(1), D("1.5")))
    return wf, {("f", "x"): PairEntry(D(1), D(1)), ("f", "y"): PairEntry(D("2.5"), D(1), fixed)}


_NOT_FINITE_OR_NEGATIVE = ["NaN", "sNaN", "Infinity", "-Infinity", "-1"]


@pytest.mark.parametrize(
    "axis, value, rule",
    [
        *(pytest.param(axis, value, rule, id=f"{value}-{rule}-{axis}")
          for axis in ("cost", "latency")
          for value, rule in [*((v, "be finite and nonnegative") for v in _NOT_FINITE_OR_NEGATIVE),
                              ("limit", "be below"),
                              ("1E-101", "have no digit finer than 1E-100")]),
        # A fixed charge's months and rate, on the chain of _found_table,
        # its own rate included.
        *(pytest.param(axis, value, "have finite and nonnegative months and rate",
                       id=f"{value}-{axis}")
          for axis in ("months", "rate")
          for value in _NOT_FINITE_OR_NEGATIVE),
        pytest.param("rate", _FOUND_RATE, "have finite and nonnegative months and rate",
                     id="_found_table"),
        # A key billed at two rates: value builds the table, rule is the message.
        *(pytest.param("rates", instance, rule, id=instance.__name__) for instance, rule in (
            (_key_at_two_rates,
             "pair (f1, y): fixed charge (y, ml) must have one rate, got 1E+20 and 1"),
            (_credit_dropped_by_a_later_billing,
             "pair (f2, x): fixed charge (x, a) must have one rate, got 0 and "
             + "6" + "0" * 37 + ".000000000001"),
            (_one_pair_at_two_rates,
             "pair (f, y): fixed charge (y, ml) must have one rate, got 1.5 and 1"),
        )),
        # An int or a float where a Decimal belongs, on f0@x of _found_table:
        # value is (field, number), rule the message.
        *(pytest.param("type", (field, number), rule, id=f"{type(number).__name__}-{field}")
          for number in (1, 1.5)
          for field, rule in (
              ("cost", f"pair (f0, x): cost must be a Decimal, not {type(number).__name__}, got {number}"),
              ("latency",
               f"pair (f0, x): latency must be a Decimal, not {type(number).__name__}, got {number}"),
              ("months", "pair (f0, x): fixed charge (x, a) must have Decimal months and rate,"
                         f" got {number} and Decimal('1')"),
              ("rate", "pair (f0, x): fixed charge (x, a) must have Decimal months and rate,"
                       f" got Decimal('1') and {number}"),
          )),
    ],
)
def test_placement_model_checks_its_entries_when_built(axis, value, rule):
    # Each entry is checked as it is built, so that the search's ints stay
    # small and every partial sum of enumeration is at most a placement's
    # gross cost, credit or critical path: a credit term grows with each
    # billing of its key only while its months and rate are nonnegative and
    # the key keeps one rate.
    if axis in ("rates", "type"):
        if axis == "rates":
            wf, table = value()
        else:
            field, number = value
            months = number if field == "months" else D(1)
            wf, table = _found_table(months, number if field == "rate" else D(1))
            if field in ("cost", "latency"):
                table[("f0", "x")] = table[("f0", "x")]._replace(**{field: number})
        with pytest.raises(SchemaError) as exc:
            optimizer.PlacementModel(wf, table)
        assert str(exc.value) == rule
        return
    if axis in ("months", "rate"):
        months, rate = (D(value), D(1)) if axis == "months" else (D(1), D(value))
        wf, table = _found_table(months, rate)
        with pytest.raises(SchemaError) as exc:
            optimizer.PlacementModel(wf, table)
        assert str(exc.value) == f"pair (f0, x): fixed charge (x, a) must {rule}, got {months} and {rate}"
        # Zero months at rate 0 build, and so does one rate spelled two ways.
        fixed = ((("x", "a"), D(0), D(0)), (("x", "b"), D(1), D(1)))
        table[("f0", "x")] = PairEntry(D(1), D(1), fixed)
        table[("f1", "x")] = PairEntry(D(1), D(1), ((("x", "a"), D(1), D("0.0")),))
        optimizer.PlacementModel(wf, table)
        return
    wf = _chain(2)
    limit = {"cost": "1E+38 USD", "latency": "1E+41 ms"}[axis]
    bad = D(limit.split()[0]) if value == "limit" else D(value)
    table = {(f, p): optimizer.PairEntry(D(1), D(1)) for f in wf.function_ids for p in "ab"}
    table[("f1", "b")] = table[("f1", "b")]._replace(**{axis: bad})
    with pytest.raises(SchemaError) as exc:
        optimizer.PlacementModel(wf, table)
    rule = f"{rule} {limit}" if value == "limit" else rule
    assert str(exc.value) == f"pair (f1, b): {axis} must {rule}, got {bad}"
    # A one-point document holding the bad value loads, and its model raises
    # the same message: the loader checks the document, the model the values.
    # A value that is not finite is not a decimal quantity of the document.
    field = {"cost": "cost", "latency": "latency_ms"}[axis]
    doc = {"points": [{"function_id": "f1", "platform_id": "b", "cost": "1", "latency_ms": "1",
                       field: str(bad)}]}
    if bad.is_finite():
        with pytest.raises(SchemaError) as loaded:
            optimizer.PlacementModel(wf, optimizer.load_point_table(doc))
        assert str(loaded.value) == str(exc.value)
    else:
        with pytest.raises(SchemaError) as loaded:
            optimizer.load_point_table(doc)
        assert str(loaded.value) == f"point (f1, b): {field}: quantity must be finite, got {str(bad)!r}"
    # The finest digit allowed, and the largest entry below each limit, build.
    table[("f1", "b")] = optimizer.PairEntry(D("9.9E+37"), D("1E-100"))
    table[("f1", "a")] = optimizer.PairEntry(D("1E-100"), D("9.9E+40"))
    optimizer.PlacementModel(wf, table)


def test_point_table_shape_fault_is_reported_before_a_value_fault():
    # The loader checks the whole document before the model checks any
    # value, so a later entry's missing field comes before an earlier
    # entry's negative cost.
    doc = {"points": [{"function_id": "f0", "platform_id": "a", "cost": "-1", "latency_ms": "1"},
                      {"function_id": "f1", "platform_id": "a", "cost": "1"}]}
    with pytest.raises(SchemaError, match=r"^point entry missing required field 'latency_ms'$"):
        PlacementModel(_chain(2), optimizer.load_point_table(doc))


def test_best_is_ranked_by_the_exact_key():
    # p1's key is 1 + 1.02E-49 and p2's 1 + 1E-49. Rounded to 50 digits the
    # two would tie, and the tie would go to the cheaper p1.
    wf = _chain(1)
    cost = "1." + "0" * 48 + "1"
    table = {("f0", "p1"): PairEntry(D(1), D("2E-49")), ("f0", "p2"): PairEntry(D(cost), D(0))}
    config = OptimizationConfig(alpha=D(1), beta=D("0.51"))
    result = optimize(wf, ["p1", "p2"], PlacementModel(wf, table), config)
    assert result.best == Placement.of([("f0", "p2")])
    assert (str(result.cost), str(result.latency)) == (cost, "0")


@pytest.mark.parametrize(
    "late, budget, label",
    [
        (False, None, "f0=a,f1=b,f2=a"),
        (False, D("2.5"), "f0=a,f1=b,f2=a"),
        (True, None, "f0=a,f1=a,f2=b"),
        (True, D("2.5"), "f0=a,f1=b,f2=a"),
    ],
)
def test_negative_point_is_the_first_admitted_in_enumeration_order(late, budget, label):
    # Chain f0 -> f1 -> f2 on a and b. Every pair costs and takes 1, but
    # f2@b costs 3. f0@a and f1@b, and f2@b when late, bill key ml one month
    # at 10, above their own costs, so a placement with two of them is
    # credited 10 and costs less than nothing: a,b,a costs -7 and, when
    # late, a,a,b costs -5 and comes first. A per-pair budget of 2.5 leaves
    # out f2@b: a,b,a is then the first negative point admitted.
    wf = _chain(3)
    ml = ((("k", "ml"), D(1), D(10)),)
    billing = {("f0", "a"), ("f1", "b")} | ({("f2", "b")} if late else set())
    model = optimizer.PlacementModel(wf, {
        (f, p): optimizer.PairEntry(D(3 if (f, p) == ("f2", "b") else 1), D(1),
                                    ml if (f, p) in billing else ())
        for f in wf.function_ids
        for p in "ab"
    })
    with pytest.raises(DomainError) as exc:
        optimize(wf, ["a", "b"], model, OptimizationConfig(budget=budget, scope="per_function"))
    assert str(exc.value) == f"point {label!r} has negative cost or latency"
    first = next(p for p in enumerate_placements(wf, ["a", "b"]) if model.cost_of(p) < 0)
    assert str(first) == ("f0=a,f1=a,f2=b" if late else "f0=a,f1=b,f2=a")


def test_tie_keeps_the_first_enumerated_placement_out_of_topological_order():
    # b is declared first but runs after a. Two placements tie on (cost, latency)
    # and are the only feasible ones; enumeration, in declaration order, meets
    # b=x,a=y first, whereas a walk in topological order would meet a=x,b=y first.
    wf = WorkflowSpec(
        workflow_id="tie", functions=(FunctionProfile("b"), FunctionProfile("a")), edges=(("a", "b"),)
    )
    table = {
        ("b", "x"): PairEntry(D("1"), D("2")),
        ("b", "y"): PairEntry(D("2.0"), D("1")),
        ("a", "x"): PairEntry(D("1"), D("2")),
        ("a", "y"): PairEntry(D("2"), D("1.0")),
    }
    model = PlacementModel(wf, table)
    config = OptimizationConfig(budget=D(3), latency_slo=D(3))
    result = optimize(wf, ["x", "y"], model, config)
    assert result.best == Placement.of([("b", "x"), ("a", "y")])
    assert (str(result.cost), str(result.latency)) == ("3", "3.0")
    assert (result.feasible_count, result.total_count) == (2, 4)
    tied = [p for p in enumerate_placements(wf, ["x", "y"]) if model.cost_of(p) == 3]
    assert tied[0] == result.best
    assert [(model.cost_of(p), model.latency_of(p)) for p in tied] == [(3, 3)] * 2


@pytest.mark.parametrize("latencies", [("1", "1.0", "0", "2"), ("1", "1.0", "2", "0")])
def test_latency_keeps_the_digits_of_the_first_longest_distance(latencies):
    # With a -> b the topological order is a, c, d, b. b's distance 2.0 ties
    # with d's (last level) or c's (a prefix level) 2, which comes first. The
    # walk compares values only; the reported digits are the model's.
    wf = WorkflowSpec(
        workflow_id="digits", functions=tuple(FunctionProfile(f) for f in "abcd"), edges=(("a", "b"),)
    )
    model = PlacementModel(wf, {(f, "x"): PairEntry(D(1), D(ms)) for f, ms in zip("abcd", latencies)})
    config = OptimizationConfig(alpha=D(1), beta=D(1))
    result = optimize(wf, ["x"], model, config)
    assert str(result.latency) == str(result.t_star) == str(model.latency_of(result.best)) == "2"


def test_tail_path_keeps_the_digits_of_an_earlier_head_distance():
    # Tail {c, d} (a -> c -> d) sums to 2.0, tying with the head function b's
    # 2, which comes first in topological order (a, b, c, d): the path is b's,
    # as the model's critical path writes it.
    wf = WorkflowSpec(
        workflow_id="digits", functions=tuple(FunctionProfile(f) for f in "abcd"),
        edges=(("a", "c"), ("c", "d")),
    )
    model = PlacementModel(wf, {(f, "x"): PairEntry(D(1), D(ms)) for f, ms in zip("abcd", ("0", "2", "1", "1.0"))})
    assert optimizer._tail_size(wf) == 2
    result = optimize(wf, ["x"], model, OptimizationConfig(alpha=D(1), beta=D(1)))
    assert str(result.latency) == str(result.t_star) == str(model.latency_of(result.best)) == "2"


def test_shared_credit_takes_no_ledger_step_per_placement(catalogs, monkeypatch):
    # Five functions on the five cards, the last three sharing ml-provisioning:
    # 3,125 placements below 780 shorter prefixes, of which the 155 of the
    # head's three functions are enumerated. Every credit comes from a memo
    # of bill_key, so neither bill_fixed nor money_product runs once per
    # placement, and bill_key runs at most once per head prefix.
    months = [None, None, "3", "5", "7"]
    fids = [f"f{i}" for i in range(len(months))]
    wf = WorkflowSpec(
        workflow_id="shared-chain",
        functions=tuple(
            FunctionProfile(
                function_id=fid, n=D(1000), t=D("0.1"), mem=D("0.125"),
                baas_usage=(BaasUsage("ml-provisioning", D(m)),) if m else (),
            )
            for fid, m in zip(fids, months)
        ),
        edges=tuple(zip(fids, fids[1:])),
    )
    lat = LatencyTable({(fid, pid): D(10) for fid in fids for pid in PLATFORMS})
    model = CatalogModel(wf, catalogs, latencies=lat)
    calls = {"bill_fixed": 0, "bill_key": 0, "money_product": 0}

    def counted(module, name):
        original = getattr(module, name)

        def count(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, count)

    counted(optimizer, "bill_fixed")
    counted(optimizer, "bill_key")
    counted(engine, "bill_key")
    counted(engine, "money_product")
    result = optimize(wf, PLATFORMS, model)
    prefixes = sum(len(PLATFORMS) ** k for k in range(1, len(fids)))
    head_prefixes = sum(len(PLATFORMS) ** k for k in range(1, len(fids) - 1))
    assert (result.total_count, prefixes, head_prefixes) == (3125, 780, 155)
    assert optimizer._tail_size(wf) == 2
    assert calls["bill_fixed"] <= prefixes
    assert calls["money_product"] <= prefixes
    assert calls["bill_key"] <= head_prefixes
    assert (result.c_star, result.c_star_placement) == min_cost(wf, PLATFORMS, model)


def _quantile(data, values, label):
    """None, or one of the values picked by rank; kept positive as the config requires."""
    index = data.draw(st.none() | st.integers(0, len(values) - 1), label=label)
    return None if index is None else max(sorted(values)[index], D("1e-12"))


def _usages(data, fid):
    """0-2 ml-provisioning usages, so a function may bill the one fixed key
    twice, and maybe the etl-engine; each maybe restricted to some platforms."""
    restricted = st.none() | st.frozensets(st.sampled_from(PLATFORMS), min_size=1)
    usages = [
        BaasUsage(
            "ml-provisioning",
            D(data.draw(st.sampled_from(["1", "3", "3.0", "7", "12"]), label=f"months-{fid}")),
            data.draw(restricted, label=f"fixed platforms-{fid}"),
        )
        for _ in range(data.draw(st.integers(0, 2), label=f"fixed-{fid}"))
    ]
    if data.draw(st.booleans(), label=f"etl-{fid}"):
        usages.append(BaasUsage("etl-engine", D(1), data.draw(restricted, label=f"etl platforms-{fid}")))
    return tuple(usages)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_one_pass_matches_exhaustive_oracle(catalogs, data):
    # 1-6 functions, on at most 3 platforms past 4 functions. Either edges
    # run forward in a random order of the functions, so declaration order is
    # often not a topological order, or the last 2-3 functions form a tail
    # (see _tail_edges). Their fixed pairs then share a key with the head,
    # with each other, and twice within one pair (_usages), so a tail entry
    # may bill one key three times.
    shaped = data.draw(st.booleans(), label="tail shaped")
    n = data.draw(st.integers(4 if shaped else 1, 6), label="functions")
    platforms = data.draw(st.permutations(PLATFORMS), label="platform order")
    most = len(PLATFORMS) if n <= 4 else 3
    platforms = platforms[: data.draw(st.integers(1, most), label="platforms")]
    fids = [f"f{i}" for i in range(n)]
    if shaped:
        edges = _tail_edges(data, fids, data.draw(st.integers(2, min(3, n // 2)), label="tail"))
    else:
        ranked = data.draw(st.permutations(fids), label="topological order")
        edges = [
            (ranked[i], ranked[j])
            for i, j in itertools.combinations(range(n), 2)
            if data.draw(st.booleans(), label=f"edge{i}-{j}")
        ]
    wf = WorkflowSpec(
        workflow_id="oracle",
        functions=tuple(
            FunctionProfile(
                function_id=fid,
                n=D(data.draw(st.sampled_from([0, 1, 1000, 10**6]), label=f"n-{fid}")),
                t=D("0.1"),
                mem=D("0.125"),
                baas_usage=_usages(data, fid),
            )
            for fid in fids
        ),
        edges=tuple(edges),
    )
    # Equal latencies written differently (2, 2.0) tie with different digits.
    lat = LatencyTable(
        {
            (fid, pid): D(data.draw(st.sampled_from(["0", "1", "2", "2.0", "5", "50", "5E+1", "500"])))
            for fid in fids
            for pid in PLATFORMS
        }
    )
    _check_against_oracle(data, wf, platforms, CatalogModel(wf, catalogs, latencies=lat))


def _check_against_oracle(data, wf, platforms, model, respell=None):
    """optimize, under a drawn scope, budget, SLO and weighting, against every
    placement enumerated and priced whole: each result field, digits too,
    and the walk's feasible front, member for member; and the walk of the
    prepared int search against walk_oracle, field for field, so that a
    failure says whether the scaling or the walk is wrong. respell(data,
    bound, label), when given, redraws how each bound is written."""
    fids = wf.function_ids
    evaluated = [
        (model.cost_of(p), model.latency_of(p), p) for p in enumerate_placements(wf, platforms)
    ]
    c_star = min(c for c, _, _ in evaluated)
    t_star = min(t for _, t, _ in evaluated)
    c_arg = next(p for c, _, p in evaluated if c == c_star)
    t_arg = next(p for _, t, p in evaluated if t == t_star)

    scope = data.draw(st.sampled_from(["workflow", "per_function"]), label="scope")
    if scope == "workflow":
        budget = _quantile(data, [c for c, _, _ in evaluated], "budget")
        slo = _quantile(data, [t for _, t, _ in evaluated], "slo")
    else:
        pairs = [(f, p) for f in fids for p in platforms]
        budget = _quantile(data, [model.entry(*fp).cost for fp in pairs], "budget")
        slo = _quantile(data, [model.entry(*fp).latency for fp in pairs], "slo")
    if respell is not None:
        budget, slo = respell(data, budget, "budget"), respell(data, slo, "slo")

    def feasible(cost, latency, placement):
        if scope == "workflow":
            checks = [(cost, budget), (latency, slo)]
        else:
            checks = [
                check
                for f, p in placement.assignments
                for check in ((model.entry(f, p).cost, budget),
                              (model.entry(f, p).latency, slo))
            ]
        return all(limit is None or value <= limit for value, limit in checks)

    if data.draw(st.booleans(), label="manual"):
        scale = data.draw(st.sampled_from(range(-15, 4, 3)), label="weight scale")
        # Up to 50 significant digits, so a weighted sum can need more than
        # money.CONTEXT carries.
        digits = st.sampled_from([0, 1, 3]) | st.integers(0, 10**50 - 1)
        alpha, beta = (D(f"{data.draw(digits)}E{scale}") for _ in range(2))
        assume(alpha or beta)
        config = OptimizationConfig(budget=budget, latency_slo=slo, scope=scope,
                                    alpha=alpha, beta=beta)

        def weighted(cost, latency):
            return Fraction(alpha) * Fraction(cost) + Fraction(beta) * Fraction(latency)
    else:
        config = OptimizationConfig(budget=budget, latency_slo=slo, scope=scope)

        def weighted(cost, latency):
            return Fraction(cost) / Fraction(c_star) + Fraction(latency) / Fraction(t_star)

    # The walk's front: latency ascending, each member cheaper than every
    # feasible placement before it in (latency, cost, enumeration) order.
    front = []
    for t, c, i in sorted((t, c, i) for i, (c, t, p) in enumerate(evaluated) if feasible(c, t, p)):
        if not front or c < front[-1][1]:
            front.append((i, c, t))
    with exact_sums("a cost or latency sum of the search"):
        problem = optimizer._problem(wf, platforms, model, config)
        found = optimizer._walk(problem)
    oracle = walk_oracle(problem)
    assert (found.c_arg, found.t_arg) == (oracle.c_arg, oracle.t_arg)
    assert (found.costs, found.latencies, found.indices) == (oracle.costs, oracle.latencies, oracle.indices)
    assert (found.counters.feasible, found.counters.placements) == (oracle.feasible, oracle.placements)
    with localcontext(prec=200):
        walked = [
            (i, D(c).scaleb(problem.cost_exponent), D(t).scaleb(problem.latency_exponent))
            for i, c, t in zip(found.indices, found.costs, found.latencies)
        ]
    assert walked == front

    if config.alpha is None and not (c_star and t_star):
        # A zero anchor is reported even when no placement is feasible.
        with pytest.raises(DegenerateAnchorError):
            optimize(wf, platforms, model, config)
        return
    candidates = [
        (weighted(c, t), c, t, i, p) for i, (c, t, p) in enumerate(evaluated) if feasible(c, t, p)
    ]
    if not candidates:
        with pytest.raises(InfeasibleError) as exc:
            optimize(wf, platforms, model, config)
        assert (exc.value.c_star, exc.value.t_star) == (c_star, t_star)
        assert exc.value.diagnostics["min_cost_placement"] == str(c_arg)
        assert exc.value.diagnostics["min_time_placement"] == str(t_arg)
        return
    result = optimize(wf, platforms, model, config)
    objective, cost, latency, _, best = min(candidates, key=lambda c: c[:4])
    assert (result.best, result.cost, result.latency) == (best, cost, latency)
    # The digits too, as the oracle's first enumerated placement writes them.
    assert (str(result.cost), str(result.latency)) == (str(cost), str(latency))
    assert (str(result.c_star), str(result.t_star)) == (str(c_star), str(t_star))
    assert result.objective == pytest.approx(float(objective), rel=1e-12, abs=0)
    assert (result.c_star, result.c_star_placement) == (c_star, c_arg)
    assert (result.t_star, result.t_star_placement) == (t_star, t_arg)
    assert (result.c_star, result.c_star_placement) == min_cost(wf, platforms, model)
    assert (result.t_star, result.t_star_placement) == min_time(wf, platforms, model)
    assert (result.feasible_count, result.total_count) == (len(candidates), len(evaluated))
    assert [str(p) for p in (result.best, result.c_star_placement, result.t_star_placement)] == [
        str(p) for p in (best, c_arg, t_arg)
    ]


#: Equal amounts written with different digits, so ties keep the first digits.
_DIGITS = ["0", "0.0", "1", "2", "2.0", "2.00", "3", "5", "5E+1", "50", "50.0", "0.5"]


def _tail_edges(data, fids, size):
    """Edges of a random head and a tail of the last size functions, entered
    through its first one only, unless a drawn head -> tail edge gives it a
    second entry."""
    head, tail = fids[: len(fids) - size], fids[len(fids) - size :]
    ranked = data.draw(st.permutations(head), label="head order")
    edges = [
        (ranked[i], ranked[j])
        for i, j in itertools.combinations(range(len(head)), 2)
        if data.draw(st.booleans(), label=f"head edge {i}-{j}")
    ]
    edges += [(h, tail[0]) for h in head if data.draw(st.booleans(), label=f"entry edge {h}")]
    for i in range(1, size):
        inner = data.draw(st.sets(st.sampled_from(tail[:i]), min_size=1), label=f"tail preds {i}")
        edges += [(q, tail[i]) for q in sorted(inner)]
    if size > 1 and data.draw(st.booleans(), label="second entry"):
        edges.append((data.draw(st.sampled_from(head)), data.draw(st.sampled_from(tail[1:]))))
    return edges


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_tail_table_matches_exhaustive_oracle(data):
    # 6-7 functions on at most 3 platforms: a random head, then a tail of 1-3
    # functions (see _tail_edges). Costs come from a point table.
    n = data.draw(st.integers(6, 7), label="functions")
    size = data.draw(st.integers(1, 3), label="tail")
    platforms = data.draw(st.permutations(["x", "y", "z"]), label="platform order")
    platforms = platforms[: data.draw(st.integers(1, 3), label="platforms")]
    fids = [f"f{i}" for i in range(n)]
    edges = _tail_edges(data, fids, size)
    wf = WorkflowSpec(
        workflow_id="tail", functions=tuple(FunctionProfile(f) for f in fids), edges=tuple(edges)
    )
    table = {
        (f, p): PairEntry(D(data.draw(st.sampled_from(_DIGITS))), D(data.draw(st.sampled_from(_DIGITS))))
        for f in fids
        for p in platforms
    }
    _check_against_oracle(data, wf, platforms, PlacementModel(wf, table))


def test_tail_rule():
    # The dag-points shape: a -> c, a -> d, b -> d, c -> e, d -> e, e -> f.
    # {e, f} is entered through e alone; {d, e, f} has two entries, d and e.
    fids = "abcdef"
    dag = WorkflowSpec(
        workflow_id="dag",
        functions=tuple(FunctionProfile(f) for f in fids),
        edges=(("a", "c"), ("a", "d"), ("b", "d"), ("c", "e"), ("d", "e"), ("e", "f")),
    )
    assert optimizer._tail_size(dag) == 2
    # A chain whose last function bills a fixed charge: the table prices
    # fixed pairs too, so the tail is half the chain.
    months = [None, None, None, "3"]
    chain = WorkflowSpec(
        workflow_id="fixed-last",
        functions=tuple(
            FunctionProfile(
                function_id=f"f{i}", n=D(1000), t=D("0.1"), mem=D("0.125"),
                baas_usage=(BaasUsage("ml-provisioning", D(m)),) if m else (),
            )
            for i, m in enumerate(months)
        ),
        edges=tuple((f"f{i}", f"f{i + 1}") for i in range(len(months) - 1)),
    )
    assert optimizer._tail_size(chain) == 2
    # b is declared last but runs before a: no function after a is a tail.
    late = WorkflowSpec(
        workflow_id="late",
        functions=(FunctionProfile("c"), FunctionProfile("a"), FunctionProfile("b")),
        edges=(("b", "a"),),
    )
    assert optimizer._tail_size(late) == 0
    # A one-function workflow is its own tail, fixed pairs and all.
    one = WorkflowSpec(workflow_id="one", functions=chain.functions[-1:], edges=())
    assert optimizer._tail_size(one) == 1


def test_sums_past_the_precision_step_every_placement():
    # f1's tail pair on y costs 1e25 and f0's head pairs cost 1e-30. Their
    # sum needs 56 digits: the enumeration raises, and optimize refuses the
    # search before it walks, naming the sum.
    wf = _chain(2)
    table = {
        ("f0", "x"): PairEntry(D("1E-30"), D(1)),
        ("f0", "y"): PairEntry(D("2E-30"), D(1)),
        ("f1", "x"): PairEntry(D(1), D(1)),
        ("f1", "y"): PairEntry(D("1E+25"), D(2)),
    }
    model = PlacementModel(wf, table)
    assert optimizer._tail_size(wf) == 1
    message = _refused("a workflow cost")
    with pytest.raises(DomainError, match=message):
        min_cost(wf, ["x", "y"], model)
    assert _fails_as_enumeration(None, wf, ["x", "y"], model) == message


def _wide_sums_stay_exact():
    """Chain f0 -> f1 -> f2 -> f3 on x, tail {f2, f3}. In enumeration order
    each sum only drops zeros: 0.9999999999999 + 1e-13 is 1, and 1 plus 38
    nines is 1E+38, 10^51 units of 1e-13. The table adds the tail first,
    1e-13 plus 38 nines, which needs 51 digits and would raise."""
    wf = _chain(4)
    costs = ["0.9999999999999", "0", "1E-13", "9" * 38]
    return wf, ["x"], PlacementModel(wf, {(f, "x"): PairEntry(D(c), D(1)) for f, c in zip(wf.function_ids, costs)})


def test_guard_keeps_sums_in_enumeration_order():
    # The enumeration's sums only drop zeros, so it prices the one placement
    # exactly; but the row maxima span 51 digits, so optimize refuses the
    # search, as it refuses every search that could need more than 50.
    wf, platforms, model = _wide_sums_stay_exact()
    assert optimizer._tail_size(wf) == 2
    cost, _ = min_cost(wf, platforms, model)
    assert str(cost) == "1" + "0" * 38 + "." + "0" * 11
    assert _fails_as_enumeration(None, wf, platforms, model) == _refused("a workflow cost")


#: A rate of 36 integer digits and 12 decimals: a fixed charge of a few
#: months of it has 48-49 significant digits.
_RATE = D("876543210987654321098765432109876543.210987654321")


@pytest.mark.parametrize(
    "extra, refusal",
    [
        # The row maxima sum to 11 rates, 9.6E+36: 49 digits at 1E-12.
        pytest.param("0.000000000001", None, id="0.000000000001"),
        # 50 digits at a finer last digit, as the credit bound, 10 rates.
        pytest.param("1E-13", None, id="1E-13"),
        # Sums past 1E+38 need 51 digits: the enumeration raises, and
        # optimize refuses the search.
        pytest.param("31111111111111111111111111111111111111.111111111111", "a workflow cost",
                     id="31111111111111111111111111111111111111.111111111111"),
    ],
)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_fixed_charges_in_a_tail_at_the_precision_bound(extra, refusal, data):
    # Chain f0 -> f1 -> f2 -> f3, tail {f2, f3}. On x, f0 bills one key 2
    # months, f2 bills it 3 and 1 months and f3 4: the tail entry (x, x)
    # bills it three times and changes the head's credit by 6 rates, more
    # than the prefix's paid sum, which goes negative before the tail's 8
    # rates are added. A pair on x costs its fixed charges (f1's, which has
    # none, one rate) plus extra; on y it bills nothing and costs one rate
    # plus extra. optimize returns what enumeration returns, or refuses.
    wf = _chain(4)
    months = {"f0": ["2"], "f1": [], "f2": ["3", "1"], "f3": ["4"]}
    table_entries = {}
    with localcontext() as ctx:
        ctx.prec = 80
        for f, ms in months.items():
            fixed = tuple((("x", "ml"), D(m), _RATE) for m in ms)
            charged = sum(D(m) for m in ms) if ms else D(1)
            table_entries[(f, "x")] = optimizer.PairEntry(charged * _RATE + D(extra), D(2), fixed)
            table_entries[(f, "y")] = optimizer.PairEntry(_RATE + D(extra), D(1))
    model = optimizer.PlacementModel(wf, table_entries)
    assert optimizer._tail_size(wf) == 2
    if refusal:
        with pytest.raises(DomainError, match="needs more than 50 significant digits"):
            min_cost(wf, ["x", "y"], model)
    assert _fails_as_enumeration(data, wf, ["x", "y"], model) == _refused(refusal)


@pytest.mark.parametrize(
    "months",
    [
        # The row maxima sum to 7 rates, 6.1E+36.
        ("2", "3"),
        # The credit, 20 rates, has exactly 50 digits.
        ("20", "30"),
    ],
)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_fixed_charges_in_a_head_at_the_precision_bound(months, data):
    # Chain f0 -> f1 -> f2 -> f3, tail {f2, f3}. On x, f0 and f1 bill one key
    # the given months: the head prefix (x, x) bills it twice, and its credit
    # is the lesser months' rates. A pair on x costs its fixed charges (the
    # tail's, which have none, one rate) plus 1E-12; on y it bills nothing
    # and costs one rate plus 1E-12. Neither is refused: optimize returns
    # what enumeration returns, digits too.
    wf = _chain(4)
    billed = dict(zip(("f0", "f1"), months))
    table_entries = {}
    with localcontext() as ctx:
        ctx.prec = 80
        for f in wf.function_ids:
            m = billed.get(f)
            fixed = ((("x", "ml"), D(m), _RATE),) if m else ()
            cost = D(m or 1) * _RATE + D("1E-12")
            table_entries[(f, "x")] = optimizer.PairEntry(cost, D(2), fixed)
            table_entries[(f, "y")] = optimizer.PairEntry(_RATE + D("1E-12"), D(1))
    model = optimizer.PlacementModel(wf, table_entries)
    assert optimizer._tail_size(wf) == 2
    assert _fails_as_enumeration(data, wf, ["x", "y"], model) is None


def test_fixed_charge_past_the_money_limit_in_a_head_raises_as_enumeration():
    # Chain f0 -> f1 -> f2 -> f3 at a rate of 5E+37. f0 bills key a 2.0
    # months on x and key b 2 months on y; f1 bills key b 2 months on x. The
    # first shared key is b on (y, x): its credit term, 2 rates, is 1E+38,
    # past the money limit. Enumeration bills it before it adds f2's 1E-12,
    # which the cost sum 1.8E+38 cannot hold in 50 digits. optimize refuses
    # the search before it walks: the row maxima of cost sum past 1E+38.
    wf = _chain(4)
    rate = D("5E+37")
    entry = optimizer.PairEntry
    model = optimizer.PlacementModel(wf, {
        ("f0", "x"): entry(D(1), D(1), ((("k", "a"), D("2.0"), rate),)),
        ("f0", "y"): entry(D("9E+37"), D(1), ((("k", "b"), D(2), rate),)),
        ("f1", "x"): entry(D("9E+37"), D(1), ((("k", "b"), D(2), rate),)),
        ("f1", "y"): entry(D(1), D(1)),
        **{("f2", p): entry(D("1E-12"), D(1)) for p in "xy"},
        **{("f3", p): entry(D(1), D(1)) for p in "xy"},
    })
    with pytest.raises(DomainError) as expected:
        min_cost(wf, ["x", "y"], model)
    assert str(expected.value) == "amount 1.0E+38 is out of range: money amounts must be below 1E+38"
    assert _fails_as_enumeration(None, wf, ["x", "y"], model) == _refused("a workflow cost")


def _credit_past_the_limit():
    """Chain f0 -> f1 -> f2 on x, each pair costing 6E+37 and billing one key
    2 months at 3E+37: the third billing's credit term, 4 rates, is 1.2E+38,
    past the money limit. The latencies 9E+40 and 1E-20 sum to 61 digits,
    but enumeration prices a placement's cost first, and the search's
    refusal names the cost sum first."""
    wf = _chain(3)
    fixed = ((("x", "ml"), D(2), D("3E+37")),)
    model = optimizer.PlacementModel(wf, {
        (f, "x"): optimizer.PairEntry(D("6E+37"), D(ms), fixed)
        for f, ms in zip(wf.function_ids, ("9E+40", "1E-20", "1"))
    })
    return wf, ["x"], model


def test_failing_placement_is_priced_cost_first_as_enumeration():
    wf, platforms, model = _credit_past_the_limit()
    with pytest.raises(DomainError) as expected:
        min_cost(wf, platforms, model)
    assert str(expected.value) == "amount 1.2E+38 is out of range: money amounts must be below 1E+38"
    assert _fails_as_enumeration(None, wf, platforms, model) == _refused("a workflow cost")


def _cost_below_its_fixed_charges():
    """f on y costs 1E-30 but bills key ml twice at 3E+37: its credit,
    3E+37, leaves a cost of 68 digits."""
    wf = WorkflowSpec(workflow_id="below", functions=(FunctionProfile("f"),))
    fixed = ((("y", "ml"), D(1), D("3E+37")), (("y", "ml"), D(2), D("3E+37")))
    return wf, optimizer.PlacementModel(wf, {
        ("f", "x"): optimizer.PairEntry(D(1), D(1)),
        ("f", "y"): optimizer.PairEntry(D("1E-30"), D(1), fixed),
    })


@pytest.mark.parametrize("instance", [_cost_below_its_fixed_charges])
def test_a_model_unlike_a_catalog_fails_as_enumeration(instance):
    # A pair's cost below its fixed charges: the credit bound, 9E+37 at the
    # cost exponent 1E-30, is past 50 digits, so optimize refuses the search.
    wf, model = instance()
    with pytest.raises(DomainError) as expected:
        min_cost(wf, ["x", "y"], model)
    assert str(expected.value) == "a workflow cost needs more than 50 significant digits to stay exact"
    assert _fails_as_enumeration(None, wf, ["x", "y"], model) == _refused("a fixed-charge credit")


#: Entries near the bounds: 50-digit costs, rates whose credit terms reach
#: and pass 1E+38, latencies whose sums need 61 digits and months whose
#: sum needs 51.
_NEAR_COSTS = ["0", "1E-12", "1", "12345678901234567890123456789012345678.901234567891",
               "9" * 38 + "." + "9" * 12]
_NEAR_RATES = ["1", "0.5", "3E+37", "5E+37", str(_RATE)]
_NEAR_LATENCIES = ["0", "1", "2.0", "1E-20", "9E+40"]
_NEAR_MONTHS = ["0", "1", "2", "2.0", "3", "1" + "0" * 49 + ".5"]


def _forward_edges(draw, n, workflow_id):
    """Functions f0..f(n-1), with drawn edges running forward in a drawn
    order of them."""
    fids = [f"f{i}" for i in range(n)]
    ranked = draw(st.permutations(fids), label="topological order")
    edges = [
        (ranked[i], ranked[j])
        for i, j in itertools.combinations(range(n), 2)
        if draw(st.booleans(), label=f"edge{i}-{j}")
    ]
    return WorkflowSpec(
        workflow_id=workflow_id, functions=tuple(FunctionProfile(f) for f in fids), edges=tuple(edges)
    )


@st.composite
def _near_bound_instances(draw):
    """1-4 functions on 1-3 platforms, edges running forward in a random
    order of the functions. A pair bills 0-2 fixed entries of the keys ml
    and etl on its platform and ml on the last platform, for 0 to 1E+49 +
    0.5 months. Each key is billed at one rate, as a PlacementModel
    requires, and a pair's cost includes its fixed charges, as in a
    CatalogModel, unless the draw gives it a cost below them."""
    wf = _forward_edges(draw, draw(st.integers(1, 4), label="functions"), "near")
    fids = wf.function_ids
    platforms = draw(st.permutations(["x", "y", "z"]), label="platform order")
    platforms = platforms[: draw(st.integers(1, 3), label="platforms")]
    rates = {(p, c): D(draw(st.sampled_from(_NEAR_RATES))) for p in platforms for c in ("ml", "etl")}
    table = {}
    for f in fids:
        for p in platforms:
            keys = draw(st.lists(st.sampled_from([(p, "ml"), (p, "etl"), (platforms[-1], "ml")]),
                                 max_size=2))
            fixed = tuple((key, D(draw(st.sampled_from(_NEAR_MONTHS))), rates[key]) for key in keys)
            cost = D(draw(st.sampled_from(_NEAR_COSTS)))
            if draw(st.booleans(), label="cost includes fixed charges"):
                with localcontext(prec=200):
                    charged = sum((m * r for _, m, r in fixed), cost)
                # A cost at the money limit is not a model entry.
                if charged < MONEY_LIMIT:
                    cost = charged
            latency = D(draw(st.sampled_from(_NEAR_LATENCIES)))
            table[(f, p)] = optimizer.PairEntry(cost, latency, fixed)
    return wf, platforms, optimizer.PlacementModel(wf, table)


def _failure_in_a_dominated_prefix():
    """Chain f0 -> f1 -> f2 on x and y, every pair costing 1. Head prefix
    (x, y) takes 1E-20 + 9E+40, 61 digits, and is dominated by (x, x), which
    costs as much and takes 1 + 1E-20: its first placement is enumeration's
    first failure."""
    wf = _chain(3)
    latencies = {"f0": ("1E-20", "1"), "f1": ("1", "9E+40"), "f2": ("1", "1")}
    table = {(f, p): PairEntry(D(1), D(ms)) for f, row in latencies.items() for p, ms in zip("xy", row)}
    return wf, ["x", "y"], PlacementModel(wf, table)


def _months_past_the_precision():
    """f on y bills key ml once, for 1E+49 + 0.5 months: enumeration's first
    billing of the key sums those months in 51 digits and raises, although
    a first billing credits nothing."""
    wf = WorkflowSpec(workflow_id="months", functions=(FunctionProfile("f"),))
    fixed = ((("y", "ml"), D("1" + "0" * 49 + ".5"), D(0)),)
    return wf, ["x", "y"], optimizer.PlacementModel(wf, {
        ("f", "x"): optimizer.PairEntry(D(1), D(1)),
        ("f", "y"): optimizer.PairEntry(D(2), D(2), fixed),
    })


def _refused(what):
    """The message of optimize's refusal of a search whose sum ``what`` could
    need more than 50 significant digits, or None for no refusal."""
    return what and f"{what} needs more than 50 significant digits to stay exact"


def _fails_as_enumeration(data, wf, platforms, model):
    """The refusal's soundness: optimize refuses the search before it walks
    it, and this returns the refusal's message; or else enumeration prices
    every placement, cost then latency, without an error, and returns None.
    Then the first placement whose shared credit makes it negative is
    optimize's error, by type and message, or optimize returns what the
    oracle does (_check_against_oracle, with data)."""
    walked = []
    combos = optimizer._combos
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(optimizer, "_combos", lambda *args: walked.append(args) or combos(*args))
        try:
            optimize(wf, platforms, model, OptimizationConfig(alpha=D(1), beta=D(1)))
        except DomainError as exc:
            if not walked:
                assert str(exc).endswith(" needs more than 50 significant digits to stay exact")
                return str(exc)
    expected = None
    for placement in enumerate_placements(wf, platforms):
        point = (model.cost_of(placement), model.latency_of(placement))
        if min(point) < 0 and expected is None:
            expected = DomainError(f"point {str(placement)!r} has negative cost or latency")
    if expected is None:
        if data is not None:
            _check_against_oracle(data, wf, platforms, model)
        return None
    with pytest.raises(DomainError) as raised:
        optimize(wf, platforms, model, OptimizationConfig(alpha=D(1), beta=D(1)))
    assert (type(raised.value), str(raised.value)) == (type(expected), str(expected))
    return None


@settings(max_examples=150, deadline=None)
@given(_near_bound_instances(), st.data())
def test_optimize_fails_as_enumeration_fails(instance, data):
    # The search is refused before it is walked, or no placement fails to
    # price and optimize answers as enumeration does.
    _fails_as_enumeration(data, *instance)


@pytest.mark.parametrize(
    "instance, refusal",
    [
        pytest.param(instance, refusal, id=instance.__name__) for instance, refusal in (
            (_credit_past_the_limit, "a workflow cost"),
            (_wide_sums_stay_exact, "a workflow cost"),
            (_failure_in_a_dominated_prefix, "a critical-path latency sum"),
            (_months_past_the_precision, "a sum of the months of fixed charge (y, ml)"),
        )
    ],
)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_optimize_fails_as_enumeration_fails_on_named_inputs(instance, refusal, data):
    # Named inputs of the property above, each refused; st.data() cannot be
    # given to an @example.
    assert _fails_as_enumeration(data, *instance()) == _refused(refusal)


def _cuts(draw, total, parts, label):
    """total split into parts nonnegative ints at drawn cut points."""
    cuts = sorted(draw(st.lists(st.integers(0, total), min_size=parts - 1, max_size=parts - 1),
                       label=label))
    return [b - a for a, b in zip([0, *cuts], [*cuts, total])]


@st.composite
def _wide_edge_instances(draw):
    """A search whose bound on one of _refuse_wide's four sums is 10^50
    units of its exponent, or one unit less, while every other bound is far
    below its own: 1-3 functions on 1-3 platforms (2-3 for the credit),
    edges running forward in a random order of the functions. Returns it
    with the words of that sum's refusal and whether the bound is reached.
    A pair's cost includes its fixed charges, so no placement costs less
    than nothing.

    - gross cost and critical path: the row maxima split the units, each
      row's other pairs at 0, half or all of its maximum, every entry of
      the axis written at its exponent, 1E-13 to 1E-45;
    - a key's months: (first platform, ml) at rate 0, its units split among
      some pairs, written at 1, 1E-10 or 1E-40;
    - the credit: (first platform, ml) and (first platform, etl) at rate 1,
      each billing half the units at the money quantum, split among the
      rows and in each row between two platforms, neither taking more than
      three quarters, so that the row maxima of cost stay below the bound.
    """
    what = draw(st.sampled_from(["cost", "months", "credit", "latency"]), label="sum")
    at = draw(st.booleans(), label="at the bound")
    units = 10**50 - (0 if at else 1)
    n = draw(st.integers(1, 3), label="functions")
    wf = _forward_edges(draw, n, "edge")
    fids = wf.function_ids
    platforms = draw(st.permutations(["x", "y", "z"]), label="platform order")
    platforms = platforms[: draw(st.integers(2 if what == "credit" else 1, 3), label="platforms")]
    pairs = [(f, p) for f in fids for p in platforms]
    cost = {fp: D(draw(st.sampled_from(["0", "1", "2.5"]), label=f"cost {fp}")) for fp in pairs}
    latency = {fp: D(draw(st.sampled_from(["0", "1", "2.0"]), label=f"latency {fp}")) for fp in pairs}
    fixed = {fp: () for fp in pairs}
    ml, etl = (platforms[0], "ml"), (platforms[0], "etl")
    with localcontext(prec=200):
        if what in ("cost", "latency"):
            exponent = draw(st.sampled_from([-13, -20, -45]), label="exponent")
            axis = cost if what == "cost" else latency
            for f, top in zip(fids, _cuts(draw, units, n, "row maxima")):
                held = draw(st.sampled_from(platforms), label=f"maximum of {f}")
                for p in platforms:
                    value = top if p == held else draw(st.sampled_from([0, top // 2, top]))
                    axis[(f, p)] = D(value).scaleb(exponent)
        elif what == "months":
            exponent = draw(st.sampled_from([0, -10, -40]), label="exponent")
            billing = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True), label="billing")
            for fp, months in zip(billing, _cuts(draw, units, len(billing), "months")):
                fixed[fp] = ((ml, D(months).scaleb(exponent), D(0)),)
        else:
            for key, total in ((ml, units // 2), (etl, units - units // 2)):
                for f, share in zip(fids, _cuts(draw, total, n, f"{key[1]} rows")):
                    first, second = draw(st.permutations(platforms), label=f"{key[1]} of {f}")[:2]
                    part = draw(st.integers(share // 4, share - share // 4))
                    for p, months in ((first, part), (second, share - part)):
                        fixed[(f, p)] += ((key, D(months).scaleb(-12), D(1)),)
                        cost[(f, p)] += D(months).scaleb(-12)
    table = {fp: PairEntry(cost[fp], latency[fp], fixed[fp]) for fp in pairs}
    refusal = {"cost": "a workflow cost", "months": f"a sum of the months of fixed charge ({ml[0]}, ml)",
               "credit": "a fixed-charge credit", "latency": "a critical-path latency sum"}[what]
    return wf, platforms, PlacementModel(wf, table), refusal, at


@settings(max_examples=150, deadline=None)
@given(_wide_edge_instances(), st.data())
def test_a_sum_at_its_bound_is_refused_and_one_unit_below_is_searched(instance, data):
    # Each of _refuse_wide's four sums, at 10^50 units and one unit less.
    wf, platforms, model, refusal, at = instance
    if at:
        assert _fails_as_enumeration(None, wf, platforms, model) == _refused(refusal)
    else:
        _check_against_oracle(data, wf, platforms, model)


def test_a_wide_chain_is_refused_at_once():
    # A 9-function chain over 5 platforms, every pair costing 1 with latency
    # 1, except f0 at 9E+40 on p4 and 1E-20 on p3. No placement holds both,
    # so each is exact, but the row maxima of latency span 61 digits at
    # 1E-20: the search is refused before any of its 1,953,125 placements
    # is walked.
    wf = _chain(9)
    platforms = [f"p{k}" for k in range(5)]
    table = {(f, p): PairEntry(D(1), D(1)) for f in wf.function_ids for p in platforms}
    table[("f0", "p4")] = PairEntry(D(1), D("9E+40"))
    table[("f0", "p3")] = PairEntry(D(1), D("1E-20"))
    model = PlacementModel(wf, table)
    start = time.perf_counter()
    assert _fails_as_enumeration(None, wf, platforms, model) == _refused("a critical-path latency sum")
    assert time.perf_counter() - start < 1


def _respelled(data, bound, label):
    """None, or the bound as drawn, written with up to 30 more trailing zeros
    (1.50 for 1.5), or moved up or down by 1E-60, finer than any entry."""
    if bound is None:
        return None
    how = data.draw(st.sampled_from(["same", "zeros", "above", "below"]), label=f"{label} spelling")
    with localcontext(prec=200):
        if how == "zeros":
            zeros = data.draw(st.integers(1, 30), label=f"{label} zeros")
            return bound.quantize(D(1).scaleb(bound.as_tuple().exponent - zeros))
        if how == "above":
            return bound + D("1E-60")
        if how == "below":
            return bound - D("1E-60")
    return bound


def _edge_value(draw, exponent, top, label):
    """An entry of an axis whose finest exponent is exponent: zero written at
    that exponent or at 0, its unit, 1.5, 1.50, 1E+20 or 1E-20 where that
    exponent holds them, or the top."""
    spellings = [f"0E{exponent}", f"1E{exponent}", "0", "1.5", "1.50", "1E+20", "1E-20"]
    fitting = [v for v in map(D, spellings) if v.as_tuple().exponent >= exponent]
    return draw(st.sampled_from([*fitting, top]), label=label)


@st.composite
def _guard_edge_instances(draw):
    """1-4 functions on 1-3 platforms, edges running forward in declaration
    order, its reverse or a random order, whose sums stay below the walk's
    limit with no digit to spare: one pair per row is the row's top, so the
    row maxima sum to exactly 50 digits at the finest exponent, 1E-20 or
    1E-12 for cost and 1E-20 or 1E-9 for latency, the coarsest at which
    such a sum is below the money and latency limits (49 with fixed
    charges). With fixed charges, a pair on p bills key (p, ml) 0-2 times at p's one
    rate, and its cost includes them, as in a CatalogModel, or is that
    rounded up to whole units, so that only the credit has 12 decimals."""
    n = draw(st.integers(1, 4), label="functions")
    fids = [f"f{i}" for i in range(n)]
    ranked = draw(st.sampled_from([fids, fids[::-1]]) | st.permutations(fids), label="order")
    edges = [
        (ranked[i], ranked[j])
        for i, j in itertools.combinations(range(n), 2)
        if draw(st.booleans(), label=f"edge{i}-{j}")
    ]
    wf = WorkflowSpec(
        workflow_id="edge", functions=tuple(FunctionProfile(f) for f in fids), edges=tuple(edges)
    )
    platforms = draw(st.permutations(["x", "y", "z"]), label="platform order")
    platforms = platforms[: draw(st.integers(1, 3), label="platforms")]
    fixed = draw(st.booleans(), label="fixed charges")
    whole = fixed and draw(st.booleans(), label="whole units")
    cost_exp = 0 if whole else draw(st.sampled_from([-20, -12]), label="cost exponent")
    finest = min(cost_exp, -12) if fixed else cost_exp
    latency_exp = draw(st.sampled_from([-20, -9]), label="latency exponent")
    rates = {p: D(draw(st.sampled_from(["0.5", "3", "1E-12"]), label=f"rate {p}")) for p in platforms}
    with localcontext(prec=200):
        # Room for the most a pair can bill, 2 x 3 months at 3 a month, and
        # 1 for rounding it up.
        room = D(19) if fixed else D(0)
        cost_top = (D((10 ** (49 if fixed else 50) - 1) // n).scaleb(finest) - room).quantize(
            D(1).scaleb(cost_exp), rounding="ROUND_FLOOR"
        )
        latency_top = D((10**50 - 1) // n).scaleb(latency_exp)
    table = {}
    for f in fids:
        tops = draw(st.sampled_from(platforms), label=f"top {f}")
        for p in platforms:
            charges = tuple(
                ((p, "ml"), D(draw(st.sampled_from(["1", "2", "2.0", "3"]))), rates[p])
                for _ in range(draw(st.integers(0, 2), label=f"fixed {f}@{p}") if fixed else 0)
            )
            if p == tops:
                cost, latency = cost_top, latency_top
            else:
                cost = _edge_value(draw, cost_exp, cost_top, f"cost {f}@{p}")
                latency = _edge_value(draw, latency_exp, latency_top, f"latency {f}@{p}")
            with localcontext(prec=200):
                cost = sum((money_product(m, r) for _, m, r in charges), cost)
                if whole:
                    cost = cost.to_integral_value(rounding="ROUND_CEILING")
            table[(f, p)] = optimizer.PairEntry(cost, latency, charges)
    return wf, platforms, optimizer.PlacementModel(wf, table)


@settings(max_examples=100, deadline=None)
@given(_guard_edge_instances(), st.data())
def test_integer_search_at_the_guard_edge_matches_exhaustive_oracle(instance, data):
    # Sums of exactly 50 digits, 1E+20 and 1E-20 in one row, zeros written
    # at the finest exponent, and budgets and SLOs that equal a placement's
    # sum, written with trailing zeros or moved by 1E-60, finer than any
    # entry.
    wf, platforms, model = instance
    # Every sum is below the walk's limit, so the search is not refused.
    rows = optimizer._problem(wf, platforms, model, OptimizationConfig()).rows
    for axis in (attrgetter("cost"), attrgetter("latency")):
        assert sum(max(map(axis, row)) for row in rows) < 10**50
    _check_against_oracle(data, wf, platforms, model, respell=_respelled)


def test_budget_equal_to_a_cost_at_a_finer_exponent_is_met():
    # Chain f0 -> f1 on x and y, every entry in tenths: (x, x) costs 3.0.
    # A budget of 3 written to 21 decimals admits it, and one 1E-21 lower
    # does not.
    wf = _chain(2)
    table = {
        ("f0", "x"): PairEntry(D("1.5"), D(1)),
        ("f0", "y"): PairEntry(D("2.5"), D(2)),
        ("f1", "x"): PairEntry(D("1.5"), D(1)),
        ("f1", "y"): PairEntry(D("0.5"), D(2)),
    }
    model = PlacementModel(wf, table)
    fastest = {"alpha": D(0), "beta": D(1)}
    met = optimize(wf, ["x", "y"], model, OptimizationConfig(budget=D("3." + "0" * 21), **fastest))
    assert (met.feasible_count, str(met.best), str(met.cost)) == (3, "f0=x,f1=x", "3.0")
    missed = optimize(wf, ["x", "y"], model, OptimizationConfig(budget=D("2." + "9" * 21), **fastest))
    assert (missed.feasible_count, str(missed.best), str(missed.cost)) == (1, "f0=x,f1=y", "2.0")


def test_per_function_tail_entry_dominated_only_by_an_out_of_bounds_entry():
    # Tail s -> a. (s@q, a@p) costs 10 and is dominated only by (s@p, a@q),
    # which costs 5 but breaks the per-pair SLO on s@p; under per_function it
    # is still the cheapest feasible placement.
    wf = WorkflowSpec(
        workflow_id="bounds", functions=tuple(FunctionProfile(f) for f in ("h0", "h1", "s", "a")),
        edges=(("s", "a"),),
    )
    values = {"s": {"p": (0, 6), "q": (10, 1)}, "a": {"p": (0, 5), "q": (5, 0)}}
    table = {
        (f, p): PairEntry(*map(D, values[f][p])) if f in values else PairEntry(D(0), D(0))
        for f in wf.function_ids
        for p in "pq"
    }
    model = PlacementModel(wf, table)
    assert optimizer._tail_size(wf) == 2
    config = OptimizationConfig(latency_slo=D(5), scope="per_function", alpha=D(1), beta=D(0))
    result = optimize(wf, ["p", "q"], model, config)
    assert str(result.cost) == "10"
    assert str(result.best) == str(Placement((("h0", "p"), ("h1", "p"), ("s", "q"), ("a", "p"))))


#: Few distinct amounts, so that head prefixes often tie or dominate each other.
_FEW = ["0", "1", "1.0", "2", "3"]


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_dominated_prefixes_match_exhaustive_oracle(data):
    # 3-5 functions on 2-3 platforms (2 past 4 functions): a random head and
    # a tail of 1-2 functions (see _tail_edges), so a head function is often
    # off the path into the tail and a prefix's critical path exceeds its
    # distance into the tail. Costs and latencies take few values, so
    # prefixes tie and dominate each other often, and the drawn per-pair
    # bounds leave some dominating pairs outside. A pair on p may bill key
    # (p, ml) 1 or 2 months at 1, its cost including the charge, so the
    # ledger runs change within the head; or the first and last functions
    # bill it 1 and 2 months on the first platform.
    n = data.draw(st.integers(3, 5), label="functions")
    size = data.draw(st.integers(1, min(2, n // 2)), label="tail")
    platforms = ["x", "y", "z"][: data.draw(st.integers(2, 3 if n <= 4 else 2), label="platforms")]
    fids = [f"f{i}" for i in range(n)]
    wf = WorkflowSpec(
        workflow_id="dominance",
        functions=tuple(FunctionProfile(f) for f in fids),
        edges=tuple(_tail_edges(data, fids, size)),
    )
    ends = data.draw(st.booleans(), label="the first and last functions bill")
    table = {}
    for f in fids:
        for p in platforms:
            months = data.draw(st.sampled_from([None, None, "1", "2"]), label=f"months {f}@{p}")
            if ends and p == platforms[0] and f in (fids[0], fids[-1]):
                months = "1" if f == fids[0] else "2"
            fixed = (((p, "ml"), D(months), D(1)),) if months else ()
            cost = D(data.draw(st.sampled_from(_FEW), label=f"cost {f}@{p}"))
            cost += sum(money_product(m, r) for _, m, r in fixed)
            latency = D(data.draw(st.sampled_from(_FEW), label=f"latency {f}@{p}"))
            table[(f, p)] = optimizer.PairEntry(cost, latency, fixed)
    model = optimizer.PlacementModel(wf, table)
    _check_against_oracle(data, wf, platforms, model)


def _counting_instance(values, edges, fixed=None):
    """The functions of values, in that order, with edges, over the
    platforms of the first function's values: values[f][p] is a pair's
    (cost, latency), and fixed[f][p], when given, its fixed-charge entries,
    its cost including them."""
    fids = tuple(values)
    platforms = list(values[fids[0]])
    wf = WorkflowSpec(
        workflow_id="counting", functions=tuple(FunctionProfile(f) for f in fids), edges=edges
    )
    fixed = fixed or {}
    model = optimizer.PlacementModel(wf, {
        (f, p): optimizer.PairEntry(*map(D, values[f][p]), fixed.get(f, {}).get(p, ()))
        for f in fids
        for p in platforms
    })
    return wf, platforms, model


def _dominance_instance(values, edges, fixed=None):
    """A workflow of f0, f1 (the head) and f2 (the tail) on x and y (see
    _counting_instance)."""
    wf, _, model = _counting_instance(values, edges, fixed)
    assert optimizer._tail_size(wf) == 1
    return wf, model


_CHAIN = (("f0", "f1"), ("f1", "f2"))
_ML = ((("y", "ml"), D(1), D(1)),)


@pytest.mark.parametrize(
    "values, edges, fixed, config, expected",
    [
        # Per-pair SLO 4: f0@x is outside it, so prefix (x, x), which costs
        # and takes no more than (y, y), must not be kept to dominate it.
        # The cheapest feasible placement is then (y, y, x).
        (
            {"f0": {"x": (0, 5), "y": (1, 3)}, "f1": {"x": (1, 0), "y": (0, 3)},
             "f2": {"x": (0, 0), "y": (0, 0)}},
            _CHAIN, None,
            OptimizationConfig(latency_slo=D(4), scope="per_function", alpha=D(1), beta=D(0)),
            ("f0=y,f1=y,f2=x", "f0=x,f1=y,f2=x", "f0=y,f1=x,f2=x", 4, 0),
        ),
        # f1@y and f2@y bill key (y, ml) one month each, so (y, y, y) is
        # credited one month. Prefix (y, y) costs and takes as much as (y,
        # x), but bills another ledger: it must not be skipped, or C* loses
        # its credit.
        (
            {"f0": {"x": (5, 1), "y": (0, 1)}, "f1": {"x": (1, 1), "y": (1, 1)},
             "f2": {"x": (2, 1), "y": (1, 1)}},
            _CHAIN, {"f1": {"y": _ML}, "f2": {"y": _ML}},
            OptimizationConfig(alpha=D(1), beta=D(0)),
            ("f0=y,f1=y,f2=y", "f0=y,f1=y,f2=y", "f0=x,f1=x,f2=x", 8, 0),
        ),
        # Prefixes (x, y) and (y, y) are dominated by (x, x) and (y, x), but
        # their placements still count.
        (
            {"f0": {"x": (9, 9), "y": (1, 1)}, "f1": {"x": (1, 1), "y": (2, 2)},
             "f2": {"x": (1, 1), "y": (2, 0)}},
            _CHAIN, None, OptimizationConfig(),
            ("f0=y,f1=x,f2=y", "f0=y,f1=x,f2=x", "f0=y,f1=x,f2=y", 8, 2),
        ),
        # f0 is off the path into f2: prefix (y, x) takes 1 to (x, x)'s 5,
        # though both are 1 away from f2, so (x, x) does not dominate it and
        # (y, x, x) is T*.
        (
            {"f0": {"x": (0, 5), "y": (0, 1)}, "f1": {"x": (0, 1), "y": (0, 2)},
             "f2": {"x": (0, 0), "y": (1, 0)}},
            (("f1", "f2"),), None, OptimizationConfig(alpha=D(0), beta=D(1)),
            ("f0=y,f1=x,f2=x", "f0=x,f1=x,f2=x", "f0=y,f1=x,f2=x", 8, 2),
        ),
    ],
    ids=["dominator-within-bounds", "ledger-run", "count", "top"],
)
def test_a_dominated_prefix_changes_no_answer(values, edges, fixed, config, expected):
    wf, model = _dominance_instance(values, edges, fixed)
    result = optimize(wf, ["x", "y"], model, config)
    best, c_arg, t_arg, feasible, dominated = expected
    assert [str(p) for p in (result.best, result.c_star_placement, result.t_star_placement)] == [
        best, c_arg, t_arg
    ]
    assert (result.feasible_count, result.counters.dominated_prefixes) == (feasible, dominated)
    assert (result.c_star, result.c_star_placement) == min_cost(wf, ["x", "y"], model)
    assert (result.t_star, result.t_star_placement) == min_time(wf, ["x", "y"], model)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_ranks_count_the_entries_within_both_bounds(data):
    # Entries of three groups, one maybe empty: few distinct costs and
    # paths, so that they tie, some outside the pair bounds, a path maybe
    # -inf (the no-tail table's); bounds an int or math.inf.
    values = st.sampled_from([0, 1, 2, 5])
    entries = data.draw(st.lists(
        st.builds(optimizer._Entry, values, values | st.just(-math.inf), st.booleans(),
                  st.integers(0, 2)),
        max_size=12,
    ), label="entries")
    ranks = optimizer._Ranks(entries, 3)
    for _ in range(5):
        cost = data.draw(st.integers(-1, 6) | st.just(math.inf), label="cost bound")
        path = data.draw(st.integers(-1, 6) | st.just(math.inf), label="path bound")
        lo = 0
        for g, hi in enumerate(ranks.ends):
            below = (1 << bisect.bisect_right(ranks.costs, cost, lo, hi) - lo) - 1
            count = (ranks.masks[bisect.bisect_right(ranks.paths, path, lo, hi) + g] & below).bit_count()
            assert count == sum(
                e.inside and e.group == g and e.cost <= cost and e.path <= path for e in entries
            )
            lo = hi


def _feasible_count(wf, platforms, model, config):
    """How many enumerated placements are within config's bounds, under its scope."""
    count = 0
    for placement in enumerate_placements(wf, platforms):
        if config.scope == "workflow":
            checks = [(model.cost_of(placement), config.budget),
                      (model.latency_of(placement), config.latency_slo)]
        else:
            checks = [
                check
                for f, p in placement.assignments
                for check in ((model.entry(f, p).cost, config.budget),
                              (model.entry(f, p).latency, config.latency_slo))
            ]
        count += all(limit is None or value <= limit for value, limit in checks)
    return count


_TIED = {"x": (1, 1), "y": (1, 1), "z": (1, 1)}


def _exact_bounds():
    """Every head prefix of f0 -> f1 -> f2 costs and takes 2, so all but the
    first are dominated. Under budget 3 and SLO 3, f2@x costs exactly the
    budget less the prefix's and takes exactly the SLO less its distance;
    f2@y takes 1 more, and f2@z costs 1 more."""
    values = {"f0": _TIED, "f1": _TIED, "f2": {"x": (1, 1), "y": (1, 2), "z": (2, 1)}}
    return (*_counting_instance(values, _CHAIN), OptimizationConfig(budget=D(3), latency_slo=D(3)))


def _equal_entries():
    """A tail f2 -> f3 whose four entries cost and take 2, 3, 2 and 3: two
    pairs of equal costs and equal paths, of which the budget and the SLO
    take one pair whole."""
    tied = {"x": (1, 1), "y": (1, 1)}
    values = {"f0": tied, "f1": tied, "f2": tied, "f3": {"x": (1, 1), "y": (2, 2)}}
    edges = (("f0", "f1"), ("f1", "f2"), ("f2", "f3"))
    return (*_counting_instance(values, edges), OptimizationConfig(budget=D(4), latency_slo=D(4)))


_ML_Z = ((("z", "ml"), D(1), D(1)),)


def _empty_group():
    """f2@y bills a fixed charge, so it is a group of its own; a per-pair SLO
    of 2 leaves it no entry within the bounds."""
    tied = {"x": (1, 1), "y": (1, 1)}
    values = {"f0": tied, "f1": tied, "f2": {"x": (1, 1), "y": (2, 5)}}
    config = OptimizationConfig(latency_slo=D(2), scope="per_function")
    return (*_counting_instance(values, _CHAIN, {"f2": {"y": _ML}}), config)


def _shared_groups():
    """f2@y and f2@z bill keys (y, ml) and (z, ml), so the table has three
    groups; f0@y bills (y, ml) too, so under its ledger run the credit of
    f2@y's group differs from the others'. Each run has dominated prefixes."""
    values = {
        "f0": {"x": (1, 1), "y": (2, 1), "z": (1, 1)},
        "f1": _TIED,
        "f2": {"x": (1, 1), "y": (2, 1), "z": (2, 1)},
    }
    fixed = {"f0": {"y": _ML}, "f2": {"y": _ML, "z": _ML_Z}}
    config = OptimizationConfig(budget=D(4), latency_slo=D(3))
    return (*_counting_instance(values, _CHAIN, fixed), config)


def _per_function_bounds():
    """Under the per_function scope f1@y is over the budget, so prefixes (x,
    y) and (y, y) count nothing; (y, x) is dominated by (x, x) and counts
    the tail entries within the pair bounds, f2@x only."""
    values = {"f0": {"x": (1, 1), "y": (1, 1)}, "f1": {"x": (1, 1), "y": (3, 1)},
              "f2": {"x": (1, 1), "y": (3, 1)}}
    return (*_counting_instance(values, _CHAIN), OptimizationConfig(budget=D(2), scope="per_function"))


def _no_bounds():
    return (*_exact_bounds()[:3], OptimizationConfig())


def _no_tail():
    """Edges run against the declaration order, so there is no tail: the
    table is one empty combination, of path -inf, and each head prefix is
    a whole placement. Each ties with the first or, with f0 on y, costs
    and takes 4: all but the first are dominated."""
    values = {"f0": {"x": (1, 1), "y": (2, 2)}, "f1": {"x": (1, 1), "y": (1, 1)},
              "f2": {"x": (1, 1), "y": (1, 1)}}
    wf, platforms, model = _counting_instance(values, (("f2", "f1"), ("f1", "f0")))
    assert optimizer._tail_size(wf) == 0
    return wf, platforms, model, OptimizationConfig(budget=D(3))


@pytest.mark.parametrize(
    "instance",
    [_exact_bounds, _equal_entries, _empty_group, _shared_groups, _per_function_bounds,
     _no_bounds, _no_tail],
)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_dominated_prefixes_count_as_enumeration_on_named_inputs(instance, data):
    # Named inputs of the counting property; st.data() cannot be given to
    # an @example. Under the instance's own config the walk dominates some
    # prefixes and counts what enumeration counts; under drawn ones it
    # answers as the oracle does.
    wf, platforms, model, config = instance()
    found = optimizer._walk(optimizer._problem(wf, platforms, model, config))
    assert found.counters.dominated_prefixes > 0
    assert found.counters.feasible == _feasible_count(wf, platforms, model, config)
    _check_against_oracle(data, wf, platforms, model)


def test_ranks_are_built_once_and_only_for_a_dominated_prefix(monkeypatch):
    built = []
    ranks = optimizer._Ranks
    monkeypatch.setattr(
        optimizer, "_Ranks", lambda table, groups: built.append(groups) or ranks(table, groups)
    )
    # Prefixes (x, x), (x, y), (y, x), (y, y) cost 0, 2, 1, 3 and take 3, 1,
    # 2, 0: none dominates another, so nothing is built.
    values = {"f0": {"x": (0, 1), "y": (1, 0)}, "f1": {"x": (0, 2), "y": (2, 0)},
              "f2": {"x": (0, 0), "y": (1, 1)}}
    wf, platforms, model = _counting_instance(values, _CHAIN)
    result = optimize(wf, platforms, model, OptimizationConfig(alpha=D(1), beta=D(1)))
    assert (result.counters.dominated_prefixes, built) == (0, [])
    wf, platforms, model, config = _shared_groups()
    result = optimize(wf, platforms, model, config)
    assert result.counters.dominated_prefixes > 1
    assert built == [result.counters.groups] == [3]


def test_ranks_stay_within_their_stated_size():
    # A 5-function tail over 5 platforms, 5^5 entries (a 10-function
    # workflow, near the cap), with paths descending as costs ascend, so
    # that every mask has about m bits. README states about m²/8 bytes plus
    # under 100 bytes an entry.
    m = 5**5
    table = [optimizer._Entry(cost, m - cost, True, 0) for cost in range(m)]
    gc.collect()
    tracemalloc.start()
    try:
        ranks = optimizer._Ranks(table, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ranks.masks) == m + 1 and ranks.masks[1] == 1 << (m - 1)
    assert peak <= m * m / 8 + 100 * m


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_n_shaped_dag_matches_exhaustive_oracle(data):
    # The dag-points shape, a -> c, a -> d, b -> d, c -> e, d -> e, e -> f,
    # whose tail is {e, f}, on 2-3 platforms. Costs and latencies take few
    # values, so most head prefixes are dominated.
    fids = "abcdef"
    wf = WorkflowSpec(
        workflow_id="n-shaped", functions=tuple(FunctionProfile(f) for f in fids),
        edges=(("a", "c"), ("a", "d"), ("b", "d"), ("c", "e"), ("d", "e"), ("e", "f")),
    )
    platforms = ["x", "y", "z"][: data.draw(st.integers(2, 3), label="platforms")]
    table = {
        (f, p): PairEntry(D(data.draw(st.sampled_from(_FEW), label=f"cost {f}@{p}")),
                 D(data.draw(st.sampled_from(_FEW), label=f"latency {f}@{p}")))
        for f in fids
        for p in platforms
    }
    _check_against_oracle(data, wf, platforms, PlacementModel(wf, table))
