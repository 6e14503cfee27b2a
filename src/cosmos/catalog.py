"""Provider rate cards: validation, unit normalization, and bundled catalogs.

A catalog document declares each billable rate at the scale providers quote
(per 1M requests, per GB-month, per month). Loading normalizes every rate to
base units: per request, per GB-second, per GB-month, per GB, per month, or
per request-millisecond for space platforms.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from decimal import Decimal
from enum import Enum
from pathlib import Path
from typing import IO, Mapping

from .errors import (
    DuplicateIdError,
    NegativeRateError,
    SchemaError,
    UnitError,
    UnknownComponentError,
    UnknownPlatformError,
)
from .money import CONTEXT, fmt_full
from .workflow import _parse_quantity, _read_json


class DriverCategory(str, Enum):
    """The five billing drivers, with BaaS split into fixed and dynamic."""

    INVOCATION = "Invocation"
    COMPUTE = "Compute"
    DATA_TRANSFER = "DataTransfer"
    STATE_MANAGEMENT = "StateManagement"
    BAAS_FIXED = "BaasFixed"
    BAAS_DYNAMIC = "BaasDynamic"


class RateUnit(str, Enum):
    PER_REQUEST = "PerRequest"
    PER_GB_SECOND = "PerGBSecond"
    PER_GB_MONTH = "PerGBMonth"
    PER_GB_IN = "PerGBTransferredIn"
    PER_GB_OUT = "PerGBTransferredOut"
    PER_GB_PROCESSED = "PerGBProcessed"
    PER_MONTH_FIXED = "PerMonthFixed"
    PER_MS_PER_REQUEST = "PerMsPerRequest"


class Layer(str, Enum):
    EDGE = "Edge"
    CLOUD = "Cloud"
    SPACE = "Space"


#: Legal rate units for each driver category.
ALLOWED_UNITS: Mapping[DriverCategory, frozenset[RateUnit]] = {
    DriverCategory.INVOCATION: frozenset({RateUnit.PER_REQUEST, RateUnit.PER_MS_PER_REQUEST}),
    DriverCategory.COMPUTE: frozenset({RateUnit.PER_GB_SECOND}),
    DriverCategory.STATE_MANAGEMENT: frozenset({RateUnit.PER_GB_MONTH}),
    DriverCategory.DATA_TRANSFER: frozenset(
        {RateUnit.PER_GB_IN, RateUnit.PER_GB_OUT, RateUnit.PER_REQUEST}
    ),
    DriverCategory.BAAS_FIXED: frozenset({RateUnit.PER_MONTH_FIXED}),
    DriverCategory.BAAS_DYNAMIC: frozenset({RateUnit.PER_REQUEST, RateUnit.PER_GB_PROCESSED}),
}

#: Declared scale -> (multiplier, divisor) applied to reach base units.
SCALES: Mapping[str, tuple[int, int]] = {
    "base": (1, 1),
    "per-1m-requests": (1, 10**6),
    "per-month": (1, 1),
    "per-hour": (730, 1),  # 8760 h / 12 billing months
}

#: Scales meaningful per unit; anything else is a UnitError.
_UNIT_SCALES: Mapping[RateUnit, frozenset[str]] = {
    RateUnit.PER_REQUEST: frozenset({"base", "per-1m-requests"}),
    RateUnit.PER_MS_PER_REQUEST: frozenset({"base", "per-1m-requests"}),
    RateUnit.PER_MONTH_FIXED: frozenset({"base", "per-month", "per-hour"}),
    RateUnit.PER_GB_MONTH: frozenset({"base", "per-month"}),
    RateUnit.PER_GB_SECOND: frozenset({"base"}),
    RateUnit.PER_GB_IN: frozenset({"base"}),
    RateUnit.PER_GB_OUT: frozenset({"base"}),
    RateUnit.PER_GB_PROCESSED: frozenset({"base"}),
}


@dataclass(frozen=True)
class PriceComponent:
    """One billable rate, expressed in base units after normalization."""

    id: str
    driver: DriverCategory
    unit: RateUnit
    rate: Decimal
    description: str = ""


@dataclass(frozen=True)
class PlatformCatalog:
    """A platform's full rate card. Immutable once loaded."""

    platform_id: str
    layer: Layer
    components: tuple[PriceComponent, ...]
    hypothetical: bool = False
    currency: str = "USD"

    def component(self, component_id: str) -> PriceComponent:
        for comp in self.components:
            if comp.id == component_id:
                return comp
        raise UnknownComponentError(
            f"catalog {self.platform_id!r} has no component {component_id!r}"
        )


@dataclass(frozen=True)
class ValidationIssue:
    """One invariant violation found by validate_catalog."""

    kind: str  # "schema" | "unit" | "value" | "duplicate-id"
    component_id: str | None
    message: str


def normalize_rate(component: PriceComponent, declared_scale: str) -> PriceComponent:
    """Rescale a component's rate to base units.

    The declared scale names how the rate was quoted, e.g. "per-1m-requests"
    for USD per million requests. Normalization is exact decimal arithmetic
    and idempotent (a base-scaled component passes through unchanged).
    """
    if declared_scale not in SCALES:
        raise UnitError(f"unsupported scale {declared_scale!r}")
    if declared_scale not in _UNIT_SCALES[component.unit]:
        raise UnitError(
            f"scale {declared_scale!r} is not meaningful for unit {component.unit.value}"
        )
    mult, div = SCALES[declared_scale]
    rate = CONTEXT.divide(CONTEXT.multiply(component.rate, Decimal(mult)), Decimal(div))
    return replace(component, rate=rate)


def validate_catalog(catalog: PlatformCatalog) -> list[ValidationIssue]:
    """Check every catalog invariant; an empty report means valid.

    Violations are returned as data rather than raised so callers can list
    every problem at once.
    """
    issues: list[ValidationIssue] = []
    if not catalog.components:
        issues.append(ValidationIssue("schema", None, "catalog declares no components"))
    seen: set[str] = set()
    for comp in catalog.components:
        if comp.id in seen:
            issues.append(ValidationIssue("duplicate-id", comp.id, f"duplicate id {comp.id!r}"))
        seen.add(comp.id)
        if comp.unit not in ALLOWED_UNITS[comp.driver]:
            issues.append(
                ValidationIssue(
                    "unit",
                    comp.id,
                    f"driver {comp.driver.value} cannot be priced {comp.unit.value}",
                )
            )
        if comp.unit == RateUnit.PER_MS_PER_REQUEST and catalog.layer is not Layer.SPACE:
            issues.append(
                ValidationIssue(
                    "unit",
                    comp.id,
                    f"{comp.unit.value} is only legal on Space-layer platforms",
                )
            )
        if comp.rate < 0:
            issues.append(ValidationIssue("value", comp.id, f"negative rate {comp.rate}"))
    if catalog.components:
        # A per-request-millisecond invocation rate folds compute into the
        # invocation price, so it satisfies both presence requirements.
        has_combined = any(
            c.driver is DriverCategory.INVOCATION and c.unit is RateUnit.PER_MS_PER_REQUEST
            for c in catalog.components
        )
        if not any(c.driver is DriverCategory.INVOCATION for c in catalog.components):
            issues.append(ValidationIssue("schema", None, "no Invocation component"))
        if not has_combined and not any(
            c.driver is DriverCategory.COMPUTE for c in catalog.components
        ):
            issues.append(ValidationIssue("schema", None, "no Compute component"))
    if catalog.currency != "USD":
        issues.append(ValidationIssue("schema", None, f"unsupported currency {catalog.currency!r}"))
    return issues


_ISSUE_EXC = {
    "schema": SchemaError,
    "unit": UnitError,
    "value": NegativeRateError,
    "duplicate-id": DuplicateIdError,
}

_TOP_KEYS = {"platform_id", "layer", "hypothetical", "currency", "components"}
_COMP_KEYS = {"id", "driver", "unit", "rate", "scale", "description"}


def _parse_enum(enum_cls, value, what: str):
    try:
        return enum_cls(value)
    except ValueError:
        legal = ", ".join(m.value for m in enum_cls)
        raise SchemaError(f"unknown {what} {value!r}; expected one of: {legal}") from None


def _parse_component(obj: Mapping) -> PriceComponent:
    if not isinstance(obj, Mapping):
        raise SchemaError(f"component entries must be objects, got {type(obj).__name__}")
    unknown = set(obj) - _COMP_KEYS
    if unknown:
        raise SchemaError(f"unknown component field(s): {sorted(unknown)}")
    for key in ("id", "driver", "unit", "rate"):
        if key not in obj:
            raise SchemaError(f"component missing required field {key!r}")
    if not isinstance(obj["rate"], str):
        raise SchemaError(
            f"component {obj['id']!r}: rate must be a decimal string, got {obj['rate']!r}"
        )
    comp = PriceComponent(
        id=str(obj["id"]),
        driver=_parse_enum(DriverCategory, obj["driver"], "driver"),
        unit=_parse_enum(RateUnit, obj["unit"], "unit"),
        rate=_parse_quantity(obj, "rate", f"component {obj['id']!r}"),
        description=str(obj.get("description", "")),
    )
    return normalize_rate(comp, str(obj.get("scale", "base")))


def load_catalog(source: str | Path | IO[str] | Mapping) -> PlatformCatalog:
    """Load, normalize, and validate one catalog document.

    Raises SchemaError, UnitError, NegativeRateError, or DuplicateIdError on
    the first violation encountered.
    """
    doc = _read_json(source)
    if not isinstance(doc, Mapping):
        raise SchemaError("catalog document must be a JSON object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise SchemaError(f"unknown catalog field(s): {sorted(unknown)}")
    for key in ("platform_id", "layer", "components"):
        if key not in doc:
            raise SchemaError(f"catalog missing required field {key!r}")
    components = doc["components"]
    if not isinstance(components, list) or not components:
        raise SchemaError("catalog must declare a non-empty components array")
    hypothetical = doc.get("hypothetical", False)
    if not isinstance(hypothetical, bool):
        raise SchemaError("hypothetical must be a boolean")
    catalog = PlatformCatalog(
        platform_id=str(doc["platform_id"]),
        layer=_parse_enum(Layer, doc["layer"], "layer"),
        components=tuple(_parse_component(c) for c in components),
        hypothetical=hypothetical,
        currency=str(doc.get("currency", "USD")),
    )
    issues = validate_catalog(catalog)
    if issues:
        first = issues[0]
        raise _ISSUE_EXC[first.kind](first.message)
    return catalog


def serialize_catalog(catalog: PlatformCatalog) -> dict:
    """Render a catalog back to document form (base-scaled decimal strings)."""
    return {
        "platform_id": catalog.platform_id,
        "layer": catalog.layer.value,
        "hypothetical": catalog.hypothetical,
        "currency": catalog.currency,
        "components": [
            {
                "id": c.id,
                "driver": c.driver.value,
                "unit": c.unit.value,
                "rate": fmt_full(c.rate),
                "scale": "base",
                "description": c.description,
            }
            for c in catalog.components
        ],
    }


# --- bundled rate cards ---------------------------------------------------

BUNDLED_PLATFORMS = ("aws-x86", "aws-arm", "aws-lambda-edge", "gcp", "leo")

CATALOG_DIR_ENV = "COSMOS_CATALOG_DIR"


def bundled_catalog_dir() -> Path:
    return Path(__file__).parent / "catalogs"


def catalog_dir() -> Path:
    """Active catalog directory; COSMOS_CATALOG_DIR overrides the bundled one."""
    override = os.environ.get(CATALOG_DIR_ENV)
    return Path(override) if override else bundled_catalog_dir()


def platform_path(platform_id: str, directory: Path | None = None) -> Path:
    """The catalog document of a platform id in a catalog directory (default: the active one)."""
    return (directory or catalog_dir()) / f"{platform_id}.json"


def load_platform(platform_id: str, directory: Path | None = None) -> PlatformCatalog:
    directory = directory or catalog_dir()
    path = platform_path(platform_id, directory)
    if not path.exists():
        raise UnknownPlatformError(f"no catalog for platform {platform_id!r} in {directory}")
    return load_catalog(path)
