import json
from decimal import Decimal

import pytest
from hypothesis import example, given, settings, strategies as st

import pricing_reference as reference

from cosmos.catalog import (
    ALLOWED_UNITS,
    DriverCategory,
    Layer,
    PlatformCatalog,
    PriceComponent,
    RateUnit,
    load_catalog,
    load_platform,
    normalize_rate,
    serialize_catalog,
)
from cosmos.errors import (
    DuplicateIdError,
    NegativeRateError,
    SchemaError,
    UnitError,
    UnknownComponentError,
    UnknownPlatformError,
)

from conftest import PLATFORMS


def _doc(**overrides):
    doc = {
        "platform_id": "test",
        "layer": "Cloud",
        "components": [
            {"id": "inv", "driver": "Invocation", "unit": "PerRequest",
             "rate": "0.20", "scale": "per-1m-requests"},
            {"id": "exec", "driver": "Compute", "unit": "PerGBSecond", "rate": "0.00001704"},
        ],
    }
    doc.update(overrides)
    return doc


# --- loading and normalization -------------------------------------------


def test_bundled_catalogs_all_validate_clean(catalogs):
    for pid in PLATFORMS:
        c = catalogs[pid]
        assert PlatformCatalog(c.platform_id, c.layer, c.components, c.hypothetical, c.currency) == c


def test_invocation_rate_normalized_per_request(catalogs):
    comp = catalogs["aws-x86"].component("function-invocation")
    assert comp.rate == Decimal("0.0000002")


def test_leo_catalog_shape(catalogs):
    leo = catalogs["leo"]
    assert leo.layer is Layer.SPACE
    assert leo.hypothetical is True
    compute_like = [c for c in leo.components if c.unit is RateUnit.PER_MS_PER_REQUEST]
    assert len(compute_like) == 1
    assert compute_like[0].rate == Decimal("0.000049")


def test_normalize_per_million():
    comp = PriceComponent("gw", DriverCategory.BAAS_DYNAMIC, RateUnit.PER_REQUEST, Decimal("1.06"))
    assert normalize_rate(comp, "per-1m-requests").rate == Decimal("0.00000106")


def test_normalize_zero_rate_scale_invariant():
    comp = PriceComponent("z", DriverCategory.INVOCATION, RateUnit.PER_REQUEST, Decimal(0))
    assert normalize_rate(comp, "per-1m-requests").rate == 0


def test_normalize_gcp_invocation():
    comp = PriceComponent("inv", DriverCategory.INVOCATION, RateUnit.PER_REQUEST, Decimal("0.40"))
    assert normalize_rate(comp, "per-1m-requests").rate == Decimal("0.0000004")


def test_normalize_hourly_fixed_rate():
    comp = PriceComponent("svc", DriverCategory.BAAS_FIXED, RateUnit.PER_MONTH_FIXED, Decimal("0.02"))
    assert normalize_rate(comp, "per-hour").rate == Decimal("14.60")


def test_normalize_unsupported_scale():
    comp = PriceComponent("x", DriverCategory.INVOCATION, RateUnit.PER_REQUEST, Decimal(1))
    with pytest.raises(UnitError):
        normalize_rate(comp, "per-second")
    with pytest.raises(UnitError):
        # A request-count scale makes no sense for a GB-second rate.
        normalize_rate(
            PriceComponent("y", DriverCategory.COMPUTE, RateUnit.PER_GB_SECOND, Decimal(1)),
            "per-1m-requests",
        )


@given(st.decimals(min_value=0, max_value=10**6, allow_nan=False, allow_infinity=False, places=6))
def test_normalize_idempotent(rate):
    comp = PriceComponent("c", DriverCategory.INVOCATION, RateUnit.PER_REQUEST, rate)
    once = normalize_rate(comp, "per-1m-requests")
    assert normalize_rate(once, "base") == once


# --- schema errors ---------------------------------------------------------


def test_zero_components_is_schema_error():
    with pytest.raises(SchemaError):
        load_catalog(_doc(components=[]))


def test_missing_field_is_schema_error():
    doc = _doc()
    del doc["layer"]
    with pytest.raises(SchemaError):
        load_catalog(doc)


def test_unknown_field_is_schema_error():
    with pytest.raises(SchemaError):
        load_catalog(_doc(region="eu-central-1"))


def test_rate_must_be_decimal_string():
    doc = _doc()
    doc["components"][0]["rate"] = 0.2
    with pytest.raises(SchemaError):
        load_catalog(doc)


def test_negative_rate_raises_value_error():
    doc = _doc()
    doc["components"][0]["rate"] = "-1"
    with pytest.raises(ValueError):
        load_catalog(doc)


def test_duplicate_component_ids():
    doc = _doc()
    doc["components"].append(dict(doc["components"][0]))
    with pytest.raises(DuplicateIdError):
        load_catalog(doc)


def test_per_ms_pricing_rejected_off_space_layer():
    doc = _doc()
    doc["components"][0] = {
        "id": "inv", "driver": "Invocation", "unit": "PerMsPerRequest", "rate": "49",
        "scale": "per-1m-requests",
    }
    with pytest.raises(UnitError):
        load_catalog(doc)


def test_catalog_requires_invocation_and_compute():
    doc = _doc()
    doc["components"] = [doc["components"][0]]  # invocation only
    with pytest.raises(SchemaError):
        load_catalog(doc)


# --- construction checks ---------------------------------------------------
# A PlatformCatalog checks itself when it is built; tests/pricing_reference.py
# lists every violation, and construction raises the first.


def test_validate_reports_negative_rate():
    with pytest.raises(NegativeRateError, match="negative rate -1"):
        PlatformCatalog(
            "bad",
            Layer.CLOUD,
            (
                PriceComponent("inv", DriverCategory.INVOCATION, RateUnit.PER_REQUEST, Decimal("-1")),
                PriceComponent("exec", DriverCategory.COMPUTE, RateUnit.PER_GB_SECOND, Decimal(1)),
            ),
        )


def test_validate_reports_space_only_unit_on_cloud():
    with pytest.raises(UnitError, match="PerMsPerRequest is only legal on Space-layer platforms"):
        PlatformCatalog(
            "bad",
            Layer.CLOUD,
            (
                PriceComponent("inv", DriverCategory.INVOCATION, RateUnit.PER_MS_PER_REQUEST, Decimal(1)),
            ),
        )


def test_validate_reports_illegal_pairings():
    for driver in DriverCategory:
        for unit in RateUnit:
            components = (
                PriceComponent("c", driver, unit, Decimal(1)),
                PriceComponent("inv", DriverCategory.INVOCATION, RateUnit.PER_REQUEST, Decimal(1)),
                PriceComponent("exec", DriverCategory.COMPUTE, RateUnit.PER_GB_SECOND, Decimal(1)),
            )
            # Space allows PerMsPerRequest, isolating the pairing rule.
            if unit in ALLOWED_UNITS[driver]:
                assert PlatformCatalog("pairing", Layer.SPACE, components).components == components
            else:
                with pytest.raises(UnitError, match=f"driver {driver.value} cannot be priced {unit.value}"):
                    PlatformCatalog("pairing", Layer.SPACE, components)


@pytest.mark.parametrize(
    "driver, unit",
    [
        (DriverCategory.DATA_TRANSFER, RateUnit.PER_GB_OUT),
        (DriverCategory.BAAS_FIXED, RateUnit.PER_MONTH_FIXED),
        (DriverCategory.BAAS_DYNAMIC, RateUnit.PER_GB_PROCESSED),
    ],
)
def test_negative_transfer_and_baas_rates_are_rejected_when_built(driver, unit):
    with pytest.raises(NegativeRateError, match="negative rate -0.09"):
        PlatformCatalog(
            "bad",
            Layer.CLOUD,
            (
                PriceComponent("inv", DriverCategory.INVOCATION, RateUnit.PER_REQUEST, Decimal(0)),
                PriceComponent("exec", DriverCategory.COMPUTE, RateUnit.PER_GB_SECOND, Decimal(0)),
                PriceComponent("x", driver, unit, Decimal("-0.09")),
            ),
        )


_NOT_FINITE = ["NaN", "sNaN", "Infinity", "-Infinity"]


@pytest.mark.parametrize("rate", _NOT_FINITE)
def test_a_rate_that_is_not_finite_is_rejected_when_built(rate):
    with pytest.raises(SchemaError) as exc:
        PlatformCatalog(
            "bad",
            Layer.CLOUD,
            (
                PriceComponent("inv", DriverCategory.INVOCATION, RateUnit.PER_REQUEST, Decimal(0)),
                PriceComponent("exec", DriverCategory.COMPUTE, RateUnit.PER_GB_SECOND, Decimal(rate)),
            ),
        )
    assert str(exc.value) == f"component 'exec': rate must be finite, got {rate}"


_CARD_RATE = st.one_of(
    st.decimals(min_value=0, allow_nan=False, allow_infinity=False),
    st.sampled_from([
        Decimal(0), Decimal("-0"), Decimal("0E-20"), Decimal("1e600000"), Decimal("1e-600000"),
        Decimal("9" * 60),
    ]),
)
_ANY_RATE = _CARD_RATE | st.decimals(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [Decimal(-1), Decimal("-1E-30"), Decimal("-1e600000"), *map(Decimal, _NOT_FINITE)]
)


@st.composite
def _card_args(draw):
    """PlatformCatalog's arguments: 0-6 components of any driver and unit,
    legal or not, with any rate and, now and then, a repeated id. Half the
    cards keep every per-component rule (unique ids, units legal for the
    driver and the layer, nonnegative rates), and every card draws
    Invocation and Compute more often than the other drivers, so that many
    cards build."""
    lawful = draw(st.booleans())
    layer = draw(st.sampled_from(Layer))
    drivers = st.sampled_from([DriverCategory.INVOCATION, DriverCategory.COMPUTE, *DriverCategory])
    barred = {RateUnit.PER_MS_PER_REQUEST} if lawful and layer is not Layer.SPACE else set()
    components = []
    for index in range(draw(st.integers(0, 6))):
        driver = draw(drivers)
        legal = st.sampled_from(sorted(ALLOWED_UNITS[driver] - barred, key=lambda unit: unit.value))
        unit = draw(legal if lawful else legal | st.sampled_from(RateUnit))
        cid = f"c{index}" if lawful else draw(st.sampled_from([f"c{index}", f"c{index}", "c0"]))
        rate = draw(_CARD_RATE if lawful else _ANY_RATE)
        components.append(PriceComponent(cid, driver, unit, rate))
    return ("p", layer, tuple(components), draw(st.booleans()), draw(st.sampled_from(["USD", "USD", "EUR"])))


def _components(*rows):
    return tuple(PriceComponent(*row) for row in rows)


_INV = (DriverCategory.INVOCATION, RateUnit.PER_REQUEST)
_GBS = (DriverCategory.COMPUTE, RateUnit.PER_GB_SECOND)


@settings(max_examples=300, deadline=None)
@given(args=_card_args())
# A negative rate after a nonnegative one, and a lone negative rate.
@example(args=("p", Layer.SPACE, _components(("i", *_INV, Decimal(1)), ("c", *_GBS, Decimal(-1)))))
@example(args=("p", Layer.SPACE, _components(("i", *_INV, Decimal(-1)))))
# A rate that is not finite, alone and after a negative one.
@example(args=("p", Layer.SPACE, _components(("i", *_INV, Decimal("NaN")))))
@example(args=("p", Layer.CLOUD, _components(("i", *_INV, Decimal(-1)), ("c", *_GBS, Decimal("sNaN")))))
@example(args=("p", Layer.CLOUD, _components(("i", *_INV, Decimal("-Infinity")), ("c", *_GBS, Decimal(1)))))
# No components, and a valid card in another currency.
@example(args=("p", Layer.CLOUD, (), False, "EUR"))
@example(args=("p", Layer.CLOUD, _components(("i", *_INV, Decimal(1)), ("c", *_GBS, Decimal(1))),
               False, "EUR"))
def test_construction_raises_the_first_issue_of_the_reference(args):
    """PlatformCatalog raises the class and message of the first issue the
    reference validate_catalog lists, and builds when it lists none."""
    issues = reference.validate_catalog(*args)
    if not issues:
        assert PlatformCatalog(*args).components == args[2]
        return
    first = issues[0]
    with pytest.raises(reference.ISSUE_EXC[first.kind]) as exc:
        PlatformCatalog(*args)
    assert type(exc.value) is reference.ISSUE_EXC[first.kind]
    assert str(exc.value) == first.message


# --- round trip --------------------------------------------------------------


def test_serialize_round_trip_bundled(catalogs):
    for catalog in catalogs.values():
        doc = json.loads(json.dumps(serialize_catalog(catalog)))
        assert load_catalog(doc) == catalog


def test_component_lookup(catalogs):
    with pytest.raises(UnknownComponentError):
        catalogs["gcp"].component("no-such-service")


def test_load_platform_unknown_id(tmp_path):
    with pytest.raises(UnknownPlatformError) as exc:
        load_platform("nonexistent", tmp_path)
    assert "nonexistent" in str(exc.value)
