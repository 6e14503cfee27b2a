import json
from decimal import Decimal

import pytest
from hypothesis import given, strategies as st

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
    validate_catalog,
)
from cosmos.errors import (
    DuplicateIdError,
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
        assert validate_catalog(catalogs[pid]) == []


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


# --- validation report -----------------------------------------------------


def test_validate_reports_negative_rate():
    catalog = PlatformCatalog(
        "bad",
        Layer.CLOUD,
        (
            PriceComponent("inv", DriverCategory.INVOCATION, RateUnit.PER_REQUEST, Decimal("-1")),
            PriceComponent("exec", DriverCategory.COMPUTE, RateUnit.PER_GB_SECOND, Decimal(1)),
        ),
    )
    issues = validate_catalog(catalog)
    assert [i.kind for i in issues] == ["value"]
    assert issues[0].component_id == "inv"


def test_validate_reports_space_only_unit_on_cloud():
    catalog = PlatformCatalog(
        "bad",
        Layer.CLOUD,
        (
            PriceComponent("inv", DriverCategory.INVOCATION, RateUnit.PER_MS_PER_REQUEST, Decimal(1)),
        ),
    )
    issues = validate_catalog(catalog)
    assert [i.kind for i in issues] == ["unit"]


def test_validate_reports_illegal_pairings():
    for driver in DriverCategory:
        for unit in RateUnit:
            catalog = PlatformCatalog(
                "pairing",
                Layer.SPACE,  # space allows PerMsPerRequest, isolating the pairing rule
                (
                    PriceComponent("c", driver, unit, Decimal(1)),
                    PriceComponent("inv", DriverCategory.INVOCATION, RateUnit.PER_REQUEST, Decimal(1)),
                    PriceComponent("exec", DriverCategory.COMPUTE, RateUnit.PER_GB_SECOND, Decimal(1)),
                ),
            )
            issues = [i for i in validate_catalog(catalog) if i.component_id == "c"]
            if unit in ALLOWED_UNITS[driver]:
                assert issues == []
            else:
                assert [i.kind for i in issues] == ["unit"]


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
