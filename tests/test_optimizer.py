import itertools
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from cosmos import optimizer
from cosmos.engine import workflow_cost
from cosmos.errors import (
    CapExceededError,
    DegenerateAnchorError,
    DomainError,
    InfeasibleError,
)
from cosmos.optimizer import (
    CatalogModel,
    OptimizationConfig,
    ParetoPoint,
    PointTableModel,
    auto_weights,
    enumerate_placements,
    min_cost,
    min_time,
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
    workflow_latency,
)

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


def test_enumeration_count_three_by_five(pipeline):
    wf, _ = pipeline
    assert sum(1 for _ in enumerate_placements(wf, PLATFORMS)) == 125


def test_enumeration_singleton():
    wf = _chain(1)
    assert list(enumerate_placements(wf, ["only"])) == [Placement((("f0", "only"),))]


def test_enumeration_cap_exceeded():
    wf = _chain(8)
    with pytest.raises(CapExceededError) as exc:
        enumerate_placements(wf, [f"p{i}" for i in range(10)])
    assert exc.value.count == 10**8


def test_enumeration_requires_platforms():
    with pytest.raises(DomainError):
        enumerate_placements(_chain(1), [])


def test_enumeration_order_is_lexicographic():
    wf = _chain(2)
    got = [p.platforms() for p in enumerate_placements(wf, ["a", "b"])]
    assert got == [("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")]


def test_enumeration_is_exhaustive_and_unique():
    wf = _chain(3)
    got = list(enumerate_placements(wf, ["x", "y", "z"]))
    assert len(got) == 27 == len(set(got))


# --- anchor solves -----------------------------------------------------------


def test_min_cost_matches_brute_force(pipeline, point_table):
    wf, _ = pipeline
    model = PointTableModel(wf, point_table)
    c_star, placement = min_cost(wf, PLATFORMS, model)
    oracle = brute_force_best(wf, PLATFORMS, point_table, key=lambda c, t: c)
    assert c_star == oracle[2] == D("20.06499")
    assert placement.platforms() == oracle[1] == ("gcp", "gcp", "aws-arm")


def test_min_time_matches_brute_force(pipeline, point_table):
    wf, _ = pipeline
    model = PointTableModel(wf, point_table)
    t_star, placement = min_time(wf, PLATFORMS, model)
    oracle = brute_force_best(wf, PLATFORMS, point_table, key=lambda c, t: t)
    assert t_star == oracle[3] == D("143.6")
    assert placement.platforms() == ("leo", "leo", "leo")


def test_min_cost_single_platform(pipeline, point_table):
    wf, _ = pipeline
    model = PointTableModel(wf, point_table)
    c_star, placement = min_cost(wf, ["gcp"], model)
    assert c_star == D("1.3324") + D("1.47029") + D("62.5884")
    assert placement.platforms() == ("gcp", "gcp", "gcp")


def test_min_cost_tie_breaks_to_first_enumerated():
    wf = _chain(2)
    table = {(f, p): (D(5), D(7)) for f in wf.function_ids for p in ("a", "b")}
    _, placement = min_cost(wf, ["a", "b"], PointTableModel(wf, table))
    assert placement.platforms() == ("a", "a")


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
    assert model.latency_of(placement) == workflow_latency(wf, placement, lat)

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
            (workflow_cost(wf, p, catalogs, latencies=lat).total, workflow_latency(wf, p, lat))
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
    model = PointTableModel(wf, point_table)
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
    result = optimize(wf, PLATFORMS, PointTableModel(wf, point_table))
    recomputed = result.alpha * float(result.cost) + result.beta * float(result.latency)
    assert abs(result.objective - recomputed) < 1e-9


def test_constrained_instance_is_infeasible(pipeline, point_table):
    wf, _ = pipeline
    model = PointTableModel(wf, point_table)
    with pytest.raises(InfeasibleError) as exc:
        optimize(wf, PLATFORMS, model, OptimizationConfig(budget=D(50), latency_slo=D(75)))
    assert exc.value.t_star == D("143.6")
    assert exc.value.c_star == D("20.06499")
    assert exc.value.diagnostics["latency_gap"] == D("68.6")


def test_singleton_feasible_set(pipeline, point_table):
    wf, _ = pipeline
    model = PointTableModel(wf, point_table)
    result = optimize(wf, ["gcp"], model)
    assert result.best.platforms() == ("gcp", "gcp", "gcp")
    expected = result.alpha * float(result.cost) + result.beta * float(result.latency)
    assert abs(result.objective - expected) < 1e-9


def test_manual_cost_only_weights_reduce_to_min_cost(pipeline, point_table):
    wf, _ = pipeline
    model = PointTableModel(wf, point_table)
    config = OptimizationConfig(alpha=D(1), beta=D(0))
    result = optimize(wf, PLATFORMS, model, config)
    c_star, placement = min_cost(wf, PLATFORMS, model)
    assert result.best == placement
    assert result.cost == c_star


def test_per_function_scope_constrains_each_function(pipeline, point_table):
    wf, _ = pipeline
    model = PointTableModel(wf, point_table)
    # Every platform violates one of the per-function limits for retrieval.
    with pytest.raises(InfeasibleError):
        optimize(
            wf,
            PLATFORMS,
            model,
            OptimizationConfig(budget=D(50), latency_slo=D(75), scope="per_function"),
        )
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


def test_normalized_objective_lower_bound(pipeline, point_table):
    wf, _ = pipeline
    result = optimize(wf, PLATFORMS, PointTableModel(wf, point_table))
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
        for (f, p), (c, l) in sorted(point_table.items())
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
        for (f, p), (c, l) in sorted(point_table.items())
    ]
    line = optimal_line(points)
    assert [(p.latency, p.cost) for p in line] == LINE_POINTS


def test_line_is_subset_of_front(point_table):
    points = [
        ParetoPoint(label=f"{f}@{p}", cost=c, latency=l)
        for (f, p), (c, l) in sorted(point_table.items())
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
            (f, p): (D(rng.randint(1, 500)), D(rng.randint(1, 500)))
            for f in wf.function_ids
            for p in platforms
        }
        model = PointTableModel(wf, table)
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
    baseline = optimize(wf, PLATFORMS, PointTableModel(wf, point_table)).best
    rng = random.Random(17)
    for _ in range(5):
        k = D(rng.randint(1, 10**6)) / D(1000)
        scaled = {key: (cost * k, lat) for key, (cost, lat) in point_table.items()}
        result = optimize(wf, PLATFORMS, PointTableModel(wf, scaled))
        assert result.best == baseline


def test_separability_on_chains(pipeline, point_table):
    wf, _ = pipeline
    model = PointTableModel(wf, point_table)
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
    model = PointTableModel(wf, point_table)
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
    rows = optimizer._rows

    def counting(*args, **kwargs):
        calls.append(args)
        return rows(*args, **kwargs)

    monkeypatch.setattr(optimizer, "_rows", counting)
    try:
        optimize(wf, PLATFORMS, PointTableModel(wf, point_table), _PASS_CONFIGS[mode])
    except InfeasibleError:
        assert mode == "infeasible"
    assert len(calls) == 1


def test_zero_anchor_is_reported_before_infeasibility():
    wf = _chain(2)
    table = {(f, p): (D(c), D(7)) for f in wf.function_ids for p, c in (("a", 0), ("b", 5))}
    with pytest.raises(DegenerateAnchorError):
        optimize(wf, ["a", "b"], PointTableModel(wf, table), OptimizationConfig(latency_slo=D(1)))


def test_anchors_are_the_first_placement_when_every_placement_is_infinite():
    # PointTableModel takes any Decimal; an infinite axis never beats its start.
    wf = _chain(2)
    table = {(f, p): (D("Infinity"), D(c)) for f in wf.function_ids for p, c in (("a", 5), ("b", 1))}
    model = PointTableModel(wf, table)
    config = OptimizationConfig(alpha=D(1), beta=D(1))
    result = optimize(wf, ["a", "b"], model, config)
    assert (result.c_star, result.c_star_placement) == min_cost(wf, ["a", "b"], model)
    assert result.c_star_placement == Placement.of([("f0", "a"), ("f1", "a")])
    assert (result.t_star, result.t_star_placement) == min_time(wf, ["a", "b"], model)
    assert result.best == result.t_star_placement


def test_tie_keeps_the_first_enumerated_placement_out_of_topological_order():
    # b is declared first but runs after a. Two placements tie on (cost, latency)
    # and are the only feasible ones; enumeration, in declaration order, meets
    # b=x,a=y first, whereas a walk in topological order would meet a=x,b=y first.
    wf = WorkflowSpec(
        workflow_id="tie", functions=(FunctionProfile("b"), FunctionProfile("a")), edges=(("a", "b"),)
    )
    table = {
        ("b", "x"): (D("1"), D("2")),
        ("b", "y"): (D("2.0"), D("1")),
        ("a", "x"): (D("1"), D("2")),
        ("a", "y"): (D("2"), D("1.0")),
    }
    model = PointTableModel(wf, table)
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
    # with d's (last level) or c's (a prefix level) 2, which comes first.
    wf = WorkflowSpec(
        workflow_id="digits", functions=tuple(FunctionProfile(f) for f in "abcd"), edges=(("a", "b"),)
    )
    model = PointTableModel(wf, {(f, "x"): (D(1), D(ms)) for f, ms in zip("abcd", latencies)})
    config = OptimizationConfig(alpha=D(1), beta=D(1))
    result = optimize(wf, ["x"], model, config)
    assert str(result.latency) == str(result.t_star) == str(model.latency_of(result.best)) == "2"


def _quantile(data, values, label):
    """None, or one of the values picked by rank; kept positive as the config requires."""
    index = data.draw(st.none() | st.integers(0, len(values) - 1), label=label)
    return None if index is None else max(sorted(values)[index], D("1e-12"))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_one_pass_matches_exhaustive_oracle(catalogs, data):
    n = data.draw(st.integers(1, 4), label="functions")
    platforms = data.draw(st.permutations(PLATFORMS), label="platform order")
    platforms = platforms[: data.draw(st.integers(1, len(PLATFORMS)), label="platforms")]
    fids = [f"f{i}" for i in range(n)]
    # Edges run forward in a random order of the functions, so declaration
    # order is often not a topological order.
    ranked = data.draw(st.permutations(fids), label="topological order")
    wf = WorkflowSpec(
        workflow_id="oracle",
        functions=tuple(
            FunctionProfile(
                function_id=fid,
                n=D(data.draw(st.sampled_from([0, 1, 1000, 10**6]), label=f"n-{fid}")),
                t=D("0.1"),
                mem=D("0.125"),
                baas_usage=(BaasUsage("ml-provisioning", D(data.draw(st.integers(1, 12)))),)
                if data.draw(st.booleans(), label=f"fixed-{fid}")
                else (),
            )
            for fid in fids
        ),
        edges=tuple(
            (ranked[i], ranked[j])
            for i, j in itertools.combinations(range(n), 2)
            if data.draw(st.booleans(), label=f"edge{i}-{j}")
        ),
    )
    # Equal latencies written differently (2, 2.0) tie with different digits.
    lat = LatencyTable(
        {
            (fid, pid): D(data.draw(st.sampled_from(["0", "1", "2", "2.0", "5", "50", "5E+1", "500"])))
            for fid in fids
            for pid in PLATFORMS
        }
    )
    model = CatalogModel(wf, catalogs, latencies=lat)

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
        alpha, beta = (D(data.draw(st.sampled_from([0, 1, 3]))).scaleb(scale) for _ in range(2))
        assume(alpha or beta)
        config = OptimizationConfig(budget=budget, latency_slo=slo, scope=scope,
                                    alpha=alpha, beta=beta)

        def weighted(cost, latency):
            return Fraction(alpha) * Fraction(cost) + Fraction(beta) * Fraction(latency)
    else:
        config = OptimizationConfig(budget=budget, latency_slo=slo, scope=scope)

        def weighted(cost, latency):
            return Fraction(cost) / Fraction(c_star) + Fraction(latency) / Fraction(t_star)

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
