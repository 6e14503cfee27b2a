import random
from dataclasses import replace
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from cosmos.catalog import DriverCategory, Layer, PlatformCatalog, PriceComponent, RateUnit
from cosmos.engine import (
    COINCIDENT_CURVES,
    DRIVER_FIELDS,
    ZERO,
    CostBreakdown,
    CostCurve,
    bill_fixed,
    component_charges,
    compute_cost,
    crossover,
    function_cost,
    function_cost_curve,
    invocation_cost,
    placement_costs,
    state_cost,
    workflow_cost,
    workflow_cost_curve,
)
from cosmos.errors import (
    DomainError,
    MissingLatencyError,
    UnknownComponentError,
    UnknownPlatformError,
    UnplacedFunctionError,
)
from cosmos.money import money_product
from cosmos.workflow import BaasUsage, FunctionProfile, LatencyTable, Placement, WorkflowSpec

D = Decimal
MILLION = D(10**6)

TABLE_TOTALS = {
    "data-retrieval": ("2.331", "2.2847", "3.1431", "1.3324"),
    "data-processing": ("3.211", "3.1647", "4.0031", "1.47029"),
    "ai-inference": ("17.3086", "17.2623", "18.7807", "62.5884"),
}
BILLED = ("aws-x86", "aws-arm", "aws-lambda-edge", "gcp")


# --- driver primitives -------------------------------------------------------


def test_invocation_cost_published_rate():
    assert invocation_cost(MILLION, D("0.0000002")) == D("0.20")


def test_invocation_cost_zero_volume():
    assert invocation_cost(D(0), D("0.0000002")) == 0


def test_invocation_cost_direct_product():
    assert invocation_cost(D(60) * MILLION, D("0.0000004")) == D("24.00")


def test_invocation_cost_rejects_negative():
    with pytest.raises(DomainError):
        invocation_cost(D(-1), D(1))
    with pytest.raises(DomainError):
        invocation_cost(D(1), D(-1))


def test_compute_cost_direct_product():
    assert compute_cost(D(1000), D(1), D(1), D("0.01")) == D("10.00")


def test_compute_cost_zero_volume():
    assert compute_cost(D(0), D(1), D(1), D("0.01")) == 0


def test_compute_cost_back_solved_calibration():
    # Oracle (algebraic inversion): with t and mem fixed, the GB-second rate
    # that yields 2.13e-7 per request is 2.13e-7 / (t * mem) = 1.704e-5.
    t, mem = D("0.1"), D("0.125")
    rate = D("0.000000213") / (t * mem)
    assert rate == D("0.00001704")
    assert compute_cost(MILLION, t, mem, rate) == D("0.213")


def test_state_cost_published_rates():
    assert state_cost(D(1), D("0.269")) == D("0.269")
    assert state_cost(D(0), D("0.269")) == 0
    assert state_cost(D(1), D("0.231")) == D("0.231")


# --- function costs over the bundled fixtures -------------------------------


def test_function_totals_match_published_table(pipeline, catalogs):
    wf, _ = pipeline
    for profile in wf.functions:
        for pid, expected in zip(BILLED, TABLE_TOTALS[profile.function_id]):
            breakdown = function_cost(profile, catalogs[pid])
            assert breakdown.total == D(expected), (profile.function_id, pid)


def test_retrieval_breakdown_fields(pipeline, catalogs):
    wf, _ = pipeline
    b = function_cost(wf.function("data-retrieval"), catalogs["aws-x86"])
    assert (b.invocation, b.compute, b.baas, b.transfer, b.state) == (
        D("0.20"), D("0.213"), D("1.06"), D("0.5645"), D("0.2935"),
    )


def test_processing_and_inference_baas(pipeline, catalogs):
    wf, _ = pipeline
    processing = function_cost(wf.function("data-processing"), catalogs["aws-x86"])
    assert processing.baas == D("1.94")
    inference = function_cost(wf.function("ai-inference"), catalogs["gcp"])
    assert inference.baas == D("61.056") + D("0.20")


def test_per_ms_platform_cost_uses_latency(pipeline, catalogs):
    wf, latencies = pipeline
    profile = wf.function("data-retrieval")
    # Oracle: 49 USD per 1M request-ms at 69.6 ms is 49 * 69.6 by hand.
    assert D("49") * D("69.6") == D("3410.4")
    breakdown = function_cost(profile, catalogs["leo"], latencies=latencies)
    assert breakdown.total == D("3410.4")
    assert breakdown.invocation == D("3410.4")


def test_per_ms_platform_requires_latency(pipeline, catalogs):
    wf, _ = pipeline
    with pytest.raises(MissingLatencyError):
        function_cost(wf.function("data-retrieval"), catalogs["leo"])
    other_pairs = LatencyTable({("data-retrieval", "gcp"): D(1), ("ai-inference", "leo"): D(1)})
    with pytest.raises(MissingLatencyError, match=r"\(data-retrieval, leo\)"):
        function_cost(wf.function("data-retrieval"), catalogs["leo"], latencies=other_pairs)
    # A card without a per-ms component never reads the table.
    gcp = function_cost(wf.function("data-retrieval"), catalogs["gcp"], latencies=LatencyTable({}))
    assert gcp.total == D("1.3324")


def test_unknown_baas_component(catalogs):
    profile = FunctionProfile(
        function_id="f", n=D(1), baas_usage=(BaasUsage("no-such-service", D(1)),)
    )
    with pytest.raises(UnknownComponentError):
        function_cost(profile, catalogs["aws-x86"])


def test_component_charges_itemize_catalog_rows(pipeline, catalogs):
    wf, _ = pipeline
    charges = component_charges(wf.function("data-retrieval"), catalogs["aws-x86"])
    amounts = {c.component_id: c.amount for c in charges}
    assert amounts["kvs-reads"] == D("0.1345")
    assert amounts["object-retrieval"] == D("0.43")
    assert amounts["kvs-storage"] == D("0.269")
    assert amounts["object-storage"] == D("0.0245")
    assert amounts["http-gateway"] == D("1.06")
    # Per-request retrieval operations scale with volume.
    doubled = function_cost(wf.function("data-retrieval"), catalogs["aws-x86"], volume=2 * MILLION)
    assert doubled.transfer == D("1.129")

    inference = wf.function("ai-inference")
    amounts = {c.component_id: c.amount for c in component_charges(inference, catalogs["aws-x86"])}
    assert amounts["ml-provisioning"] + amounts["ml-inference"] == D("14.9776")
    assert function_cost(inference, catalogs["aws-x86"]).baas == D("1.06") + D("14.9776")
    idle = replace(inference, baas_usage=(BaasUsage("ml-provisioning", D(0)),
                                          BaasUsage("ml-inference", D(1))))
    assert function_cost(idle, catalogs["aws-x86"], volume=0).baas == 0


def test_component_charges_bill_no_transfer_for_zero_bytes():
    card = PlatformCatalog(
        "p",
        Layer.CLOUD,
        (
            PriceComponent("in", DriverCategory.DATA_TRANSFER, RateUnit.PER_GB_IN, D(1)),
            PriceComponent("out", DriverCategory.DATA_TRANSFER, RateUnit.PER_GB_OUT, D(1)),
        ),
    )
    charges = component_charges(FunctionProfile(function_id="f", n=MILLION), card)
    assert [c.amount for c in charges] == [0, 0]


# --- workflow costs -----------------------------------------------------------


def test_workflow_total_published_points(pipeline, curve_study, catalogs):
    wf, lat = pipeline
    x86 = workflow_cost(wf, Placement.uniform(wf, "aws-x86"), catalogs, latencies=lat)
    assert x86.total == D("22.8506")

    wf2, lat2 = curve_study
    gcp = Placement.uniform(wf2, "gcp")
    assert workflow_cost(wf2, gcp, catalogs, latencies=lat2, volume=0).total == D("61.056")
    assert workflow_cost(wf2, gcp, catalogs, latencies=lat2, volume=MILLION).total == D("65.23669")


def test_workflow_cost_unknown_platform(pipeline, catalogs):
    wf, lat = pipeline
    placement = Placement.uniform(wf, "azure")
    with pytest.raises(UnknownPlatformError):
        workflow_cost(wf, placement, catalogs, latencies=lat)


def test_workflow_cost_unplaced_function(pipeline, catalogs):
    wf, lat = pipeline
    placement = Placement.of({"data-retrieval": "aws-x86"})
    with pytest.raises(UnplacedFunctionError):
        workflow_cost(wf, placement, catalogs, latencies=lat)


def _fixed_catalog(pid="p"):
    return PlatformCatalog(
        pid,
        Layer.CLOUD,
        (
            PriceComponent("inv", DriverCategory.INVOCATION, RateUnit.PER_REQUEST, D("0.000001")),
            PriceComponent("exec", DriverCategory.COMPUTE, RateUnit.PER_GB_SECOND, D("0.00001")),
            PriceComponent("svc", DriverCategory.BAAS_FIXED, RateUnit.PER_MONTH_FIXED, D("10")),
        ),
    )


def _sharing_workflow():
    usage = (BaasUsage("svc", D(1)),)
    return WorkflowSpec(
        workflow_id="shared",
        functions=(
            FunctionProfile(function_id="a", n=D(10), baas_usage=usage),
            FunctionProfile(function_id="b", n=D(10), baas_usage=usage),
        ),
        edges=(("a", "b"),),
    )


def test_shared_fixed_charge_counted_once_per_platform():
    wf = _sharing_workflow()
    catalogs = {"p": _fixed_catalog("p"), "q": _fixed_catalog("q")}

    same = workflow_cost(wf, Placement.uniform(wf, "p"), catalogs)
    assert same.baas == D(10)  # one provisioning charge, not two

    split = workflow_cost(wf, Placement.of({"a": "p", "b": "q"}), catalogs)
    assert split.baas == D(20)  # one per platform


def test_shared_fixed_charge_uses_longest_window():
    usage_a = (BaasUsage("svc", D(2)),)
    usage_b = (BaasUsage("svc", D(3)),)
    wf = WorkflowSpec(
        workflow_id="w",
        functions=(
            FunctionProfile(function_id="a", baas_usage=usage_a),
            FunctionProfile(function_id="b", baas_usage=usage_b),
        ),
    )
    total = workflow_cost(wf, Placement.uniform(wf, "p"), {"p": _fixed_catalog("p")})
    assert total.baas == D(30)  # 3 months at 10, charged once


_LEDGER_RATES = {("p", "svc"): D("10"), ("p", "ml"): D("0.0123456789"), ("q", "svc"): D("730.5")}


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.lists(
            st.tuples(
                st.sampled_from(sorted(_LEDGER_RATES)),
                st.sampled_from(["0", "1", "1.0", "2.5", "3", "3.0", "3.00", "12"]),
            ),
            max_size=3,
        ),
        max_size=6,
    )
)
def test_bill_fixed_credits_per_key_all_but_the_longest_window(functions):
    """Folded over each function's fixed entries, the ledger's credit is, per
    (platform, component) key, money_product(sum(months) - max(months), rate);
    a ledger passed in is never changed, so prefixes can share it."""
    ledger, credit = {}, ZERO
    months_of: dict = {}
    for entries in functions:
        fixed = [(key, D(months), _LEDGER_RATES[key]) for key, months in entries]
        before = dict(ledger)
        new_ledger, credit = bill_fixed(ledger, credit, fixed)
        assert ledger == before
        ledger = new_ledger
        for key, months, _ in fixed:
            months_of.setdefault(key, []).append(months)
        expected = sum(
            (money_product(sum(ms) - max(ms), _LEDGER_RATES[key]) for key, ms in months_of.items()),
            ZERO,
        )
        assert credit == expected


def test_workflow_equals_sum_of_functions_with_dedup(pipeline, catalogs):
    wf, lat = pipeline
    placement = Placement.of(
        {"data-retrieval": "gcp", "data-processing": "aws-x86", "ai-inference": "aws-arm"}
    )
    parts, credit = placement_costs(wf, placement, catalogs, latencies=lat)
    # No shared fixed components in this placement, so the sum is exact.
    assert credit == 0
    summed = [sum(getattr(b, name) for b in parts.values()) for name in DRIVER_FIELDS]
    total = workflow_cost(wf, placement, catalogs, latencies=lat)
    assert [getattr(total, name) for name in DRIVER_FIELDS] == summed
    assert total == CostBreakdown.combine(parts.values())


# --- curves -------------------------------------------------------------------


def test_inference_curves_match_published_series(pipeline, curve_study, catalogs):
    wf, _ = pipeline
    x86 = function_cost_curve(wf.function("ai-inference"), catalogs["aws-x86"])
    assert (x86.fixed, x86.slope * MILLION) == (D("13.7376"), D("3.571"))

    wf2, _ = curve_study
    gcp = function_cost_curve(wf2.function("ai-inference"), catalogs["gcp"])
    assert (gcp.fixed, gcp.slope * MILLION) == (D("61.056"), D("1.378"))


def test_retrieval_curve_goes_through_origin(pipeline, catalogs):
    wf, _ = pipeline
    curve = function_cost_curve(wf.function("data-retrieval"), catalogs["gcp"])
    assert curve.fixed == 0
    assert curve.slope * MILLION == D("1.3324")


def test_curve_consistency_random_volumes(pipeline, catalogs):
    wf, lat = pipeline
    placement = Placement.uniform(wf, "aws-x86")
    curve = workflow_cost_curve(wf, placement, catalogs, latencies=lat)
    rng = random.Random(42)
    for _ in range(100):
        n = D(rng.randint(0, 10**9))
        assert curve.evaluate(n) == workflow_cost(
            wf, placement, catalogs, latencies=lat, volume=n
        ).total


def test_curve_rejects_negative_evaluation():
    curve = CostCurve(fixed=D(1), slope=D(1))
    with pytest.raises(DomainError):
        curve.evaluate(D(-1))


# --- crossover ------------------------------------------------------------------


def test_crossover_stars_within_tolerance(pipeline, curve_study, catalogs):
    wf, _ = pipeline
    wf2, lat2 = curve_study
    inference = wf2.function("ai-inference")
    x86_inf = function_cost_curve(wf.function("ai-inference"), catalogs["aws-x86"])
    gcp_inf = function_cost_curve(inference, catalogs["gcp"])
    le_inf = function_cost_curve(inference, catalogs["aws-lambda-edge"])
    x86_wf = workflow_cost_curve(wf2, Placement.uniform(wf2, "aws-x86"), catalogs, latencies=lat2)
    le_wf = workflow_cost_curve(
        wf2, Placement.uniform(wf2, "aws-lambda-edge"), catalogs, latencies=lat2
    )
    gcp_wf = workflow_cost_curve(wf2, Placement.uniform(wf2, "gcp"), catalogs, latencies=lat2)

    cases = [
        (le_inf, gcp_inf, D("15.7460"), D("82.7540")),
        (x86_inf, gcp_inf, D("21.5770"), D("90.7891")),
        (le_wf, gcp_wf, D("6.4391"), D("87.9759")),
        (x86_wf, gcp_wf, D("9.5936"), D("101.1637")),
    ]
    for a, b, n_millions, cost in cases:
        point = crossover(a, b)
        assert point is not None and point is not COINCIDENT_CURVES
        assert abs(point.n_star_millions - n_millions) <= D("0.001")
        assert abs(point.cost - cost) <= D("0.001")
        # Both parent curves agree at the crossover volume.
        assert abs(a.evaluate(point.n_star) - b.evaluate(point.n_star)) <= D("0.000000001")


def test_parallel_curves_have_no_crossover():
    assert crossover(CostCurve(D(1), D(2)), CostCurve(D(3), D(2))) is None


def test_identical_curves_are_coincident():
    a = CostCurve(D("13.7376"), D("0.000003571"))
    assert crossover(a, CostCurve(D("13.7376"), D("0.000003571"))) is COINCIDENT_CURVES


def test_crossover_in_negative_volume_is_none():
    # Curve a starts lower and grows slower: the lines met in negative volume.
    assert crossover(CostCurve(D(1), D(1)), CostCurve(D(2), D(2))) is None


def test_crossover_sign_change(pipeline, curve_study, catalogs):
    wf, _ = pipeline
    wf2, _ = curve_study
    a = function_cost_curve(wf.function("ai-inference"), catalogs["aws-x86"])
    b = function_cost_curve(wf2.function("ai-inference"), catalogs["gcp"])
    point = crossover(a, b)
    half, double = point.n_star / 2, point.n_star * 2
    before = a.evaluate(half) - b.evaluate(half)
    after = a.evaluate(double) - b.evaluate(double)
    assert before < 0 < after


# --- randomized properties -----------------------------------------------------


def _random_catalog(rng, pid="rand"):
    def rate(scale):
        return D(rng.randint(0, 9999)) / D(10**scale)

    return PlatformCatalog(
        pid,
        Layer.CLOUD,
        (
            PriceComponent("inv", DriverCategory.INVOCATION, RateUnit.PER_REQUEST, rate(7)),
            PriceComponent("exec", DriverCategory.COMPUTE, RateUnit.PER_GB_SECOND, rate(6)),
            PriceComponent("reads", DriverCategory.DATA_TRANSFER, RateUnit.PER_REQUEST, rate(7)),
            PriceComponent("in", DriverCategory.DATA_TRANSFER, RateUnit.PER_GB_IN, rate(3)),
            PriceComponent("out", DriverCategory.DATA_TRANSFER, RateUnit.PER_GB_OUT, rate(3)),
            PriceComponent("store", DriverCategory.STATE_MANAGEMENT, RateUnit.PER_GB_MONTH, rate(3)),
            PriceComponent("fixed", DriverCategory.BAAS_FIXED, RateUnit.PER_MONTH_FIXED, rate(2)),
            PriceComponent("dyn", DriverCategory.BAAS_DYNAMIC, RateUnit.PER_REQUEST, rate(7)),
        ),
    )


def _random_profile(rng, fid="f"):
    def q(scale, hi=999):
        return D(rng.randint(0, hi)) / D(10**scale)

    return FunctionProfile(
        function_id=fid,
        n=D(rng.randint(0, 10**7)),
        t=q(3),
        mem=q(3),
        d=q(2),
        d_per_request=q(9),
        r_in=q(4),
        r_out=q(4),
        baas_usage=(BaasUsage("fixed", D(rng.randint(0, 3))), BaasUsage("dyn", q(2))),
    )


def test_breakdown_additivity_randomized():
    rng = random.Random(2024)
    for _ in range(300):
        catalog = _random_catalog(rng)
        breakdown = function_cost(_random_profile(rng), catalog)
        assert breakdown.total == (
            breakdown.invocation
            + breakdown.compute
            + breakdown.state
            + breakdown.transfer
            + breakdown.baas
        )
        assert min(
            breakdown.invocation, breakdown.compute, breakdown.state,
            breakdown.transfer, breakdown.baas,
        ) >= 0


def test_variable_part_scales_linearly(pipeline, catalogs):
    wf, lat = pipeline
    placement = Placement.uniform(wf, "gcp")
    fixed = workflow_cost(wf, placement, catalogs, latencies=lat, volume=0).total
    base_n = D(1000)
    base = workflow_cost(wf, placement, catalogs, latencies=lat, volume=base_n).total
    for k in (D(0), D(1), D(2), D(7), D("0.5"), D("2.25"), D(1000)):
        scaled = workflow_cost(wf, placement, catalogs, latencies=lat, volume=k * base_n).total
        assert scaled - fixed == k * (base - fixed)


def test_monotonicity_under_rate_and_quantity_increase():
    rng = random.Random(99)
    for _ in range(100):
        catalog = _random_catalog(rng)
        profile = _random_profile(rng)
        base = function_cost(profile, catalog)

        # Bump one random rate.
        idx = rng.randrange(len(catalog.components))
        bumped = list(catalog.components)
        comp = bumped[idx]
        bumped[idx] = PriceComponent(
            comp.id, comp.driver, comp.unit, comp.rate + D("0.001"), comp.description
        )
        up_rate = function_cost(profile, PlatformCatalog("rand", Layer.CLOUD, tuple(bumped)))
        for field in ("invocation", "compute", "state", "transfer", "baas", "total"):
            assert getattr(up_rate, field) >= getattr(base, field)

        # Bump one random quantity.
        import dataclasses

        name = rng.choice(["n", "t", "mem", "d", "d_per_request", "r_in", "r_out"])
        more = dataclasses.replace(profile, **{name: getattr(profile, name) + D("0.5")})
        up_quantity = function_cost(more, catalog)
        for field in ("invocation", "compute", "state", "transfer", "baas", "total"):
            assert getattr(up_quantity, field) >= getattr(base, field)
