"""Provider rate cards: self-checking catalogs, unit normalization, and bundled cards.

A catalog document declares each billable rate at the scale providers quote
(per 1M requests, per GB-month, per month). Loading normalizes every rate to
base units: per request, per GB-second, per GB-month, per GB, per month, or
per request-millisecond for space platforms.
"""

from __future__ import annotations

import errno
import os
from collections.abc import Mapping
from dataclasses import dataclass
from decimal import Decimal, Overflow
from enum import Enum
from pathlib import Path
from typing import IO

from .errors import (
    DuplicateIdError,
    NegativeRateError,
    SchemaError,
    UnitError,
    UnknownComponentError,
    UnknownPlatformError,
)
from .money import CONTEXT, fmt_full
from .workflow import _parse_quantity, _read_json, _require_finite, _string


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
    """A platform's full rate card. Immutable, and checked when built: the
    first rule it breaks raises SchemaError, DuplicateIdError, UnitError or
    NegativeRateError, as load_catalog does. A rate that is not a Decimal,
    or is not finite, is a SchemaError naming its component."""

    platform_id: str
    layer: Layer
    components: tuple[PriceComponent, ...]
    hypothetical: bool = False
    currency: str = "USD"

    def __post_init__(self):
        if not self.components:
            raise SchemaError("catalog declares no components")
        seen: set[str] = set()
        for comp in self.components:
            if comp.id in seen:
                raise DuplicateIdError(f"duplicate id {comp.id!r}")
            seen.add(comp.id)
            if comp.unit not in ALLOWED_UNITS[comp.driver]:
                raise UnitError(f"driver {comp.driver.value} cannot be priced {comp.unit.value}")
            if comp.unit is RateUnit.PER_MS_PER_REQUEST and self.layer is not Layer.SPACE:
                raise UnitError(f"{comp.unit.value} is only legal on Space-layer platforms")
            _require_finite(comp.rate, "component", comp.id, "rate")
            if comp.rate < 0:
                raise NegativeRateError(f"negative rate {comp.rate}")
        drivers = {c.driver for c in self.components}
        if DriverCategory.INVOCATION not in drivers:
            raise SchemaError("no Invocation component")
        # A per-request-millisecond invocation rate folds compute into the
        # invocation price, so it satisfies both presence requirements.
        units = {c.unit for c in self.components}
        if DriverCategory.COMPUTE not in drivers and RateUnit.PER_MS_PER_REQUEST not in units:
            raise SchemaError("no Compute component")
        if self.currency != "USD":
            raise SchemaError(f"unsupported currency {self.currency!r}")

    def component(self, component_id: str) -> PriceComponent:
        for comp in self.components:
            if comp.id == component_id:
                return comp
        raise UnknownComponentError(
            f"catalog {self.platform_id!r} has no component {component_id!r}"
        )


def _base_rate(component_id: str, unit: RateUnit, rate: Decimal, declared_scale: str) -> Decimal:
    """A rate quoted at declared_scale, in base units: the declared scale
    names how the rate was quoted, e.g. "per-1m-requests" for USD per
    million requests, and "base" leaves it as it is. UnitError for a scale
    that is unknown or not meaningful for the unit."""
    if declared_scale not in SCALES:
        raise UnitError(f"unsupported scale {declared_scale!r}")
    if declared_scale not in _UNIT_SCALES[unit]:
        raise UnitError(
            f"scale {declared_scale!r} is not meaningful for unit {unit.value}"
        )
    mult, div = SCALES[declared_scale]
    try:
        return CONTEXT.divide(CONTEXT.multiply(rate, Decimal(mult)), Decimal(div))
    except Overflow:
        raise SchemaError(
            f"component {component_id!r}: rate {rate} {declared_scale} "
            f"is out of range in base units"
        ) from None


_TOP_KEYS = {"platform_id", "layer", "hypothetical", "currency", "components"}
_COMP_KEYS = {"id", "driver", "unit", "rate", "scale", "description"}

#: Each enum's members by value, for the loader's lookups.
_MEMBERS = {cls: {m.value: m for m in cls} for cls in (DriverCategory, RateUnit, Layer)}


def _parse_enum(enum_cls, value, what: str):
    member = _MEMBERS[enum_cls].get(value) if isinstance(value, str) else None
    if member is None:
        legal = ", ".join(m.value for m in enum_cls)
        raise SchemaError(f"unknown {what} {value!r}; expected one of: {legal}")
    return member


def _parse_component(obj: Mapping) -> PriceComponent:
    if not isinstance(obj, Mapping):
        raise SchemaError(f"component entries must be objects, got {type(obj).__name__}")
    unknown = set(obj) - _COMP_KEYS
    if unknown:
        raise SchemaError(f"unknown component field(s): {sorted(unknown)}")
    for key in ("id", "driver", "unit", "rate"):
        if key not in obj:
            raise SchemaError(f"component missing required field {key!r}")
    cid = _string(obj["id"], "component id")
    if not isinstance(obj["rate"], str):
        raise SchemaError(f"component {cid!r}: rate must be a decimal string, got {obj['rate']!r}")
    driver = _parse_enum(DriverCategory, obj["driver"], "driver")
    unit = _parse_enum(RateUnit, obj["unit"], "unit")
    rate = _parse_quantity(obj["rate"], "rate", f"component {cid!r}")
    description = str(obj.get("description", ""))
    return PriceComponent(cid, driver, unit, _base_rate(cid, unit, rate, str(obj.get("scale", "base"))),
                          description)


def load_catalog(source: str | Path | IO[str] | Mapping) -> PlatformCatalog:
    """Load and normalize one catalog document into a PlatformCatalog.

    Raises SchemaError, UnitError, NegativeRateError, or DuplicateIdError on
    the first violation encountered: the document's shape and each
    component's fields and scale first, then the card's own checks (see
    PlatformCatalog). The platform id and each component id must be strings.
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
    return PlatformCatalog(
        platform_id=_string(doc["platform_id"], "platform_id"),
        layer=_parse_enum(Layer, doc["layer"], "layer"),
        components=tuple(_parse_component(c) for c in components),
        hypothetical=hypothetical,
        currency=str(doc.get("currency", "USD")),
    )


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


_BUNDLED_CATALOG_DIR = Path(__file__).parent / "catalogs"


def bundled_catalog_dir() -> Path:
    return _BUNDLED_CATALOG_DIR


def catalog_dir() -> Path:
    """Active catalog directory; COSMOS_CATALOG_DIR overrides the bundled one."""
    override = os.environ.get(CATALOG_DIR_ENV)
    return Path(override) if override else bundled_catalog_dir()


def platform_path(platform_id: str, directory: Path | None = None) -> Path:
    """The catalog document of a platform id in a catalog directory (default: the active one)."""
    return (directory or catalog_dir()) / f"{platform_id}.json"


#: The errnos of a card path that names no file: missing, under a non-directory,
#: a bad descriptor or a symlink loop (the ones Path.exists() reads as absent).
_NO_FILE = {errno.ENOENT, errno.ENOTDIR, errno.EBADF, errno.ELOOP}


def load_platform(platform_id: str, directory: Path | None = None) -> PlatformCatalog:
    """The catalog of a platform id in a catalog directory (default: the active one)."""
    directory = directory or catalog_dir()
    try:
        return load_catalog(platform_path(platform_id, directory))
    except OSError as exc:
        if exc.errno not in _NO_FILE:
            raise
        raise UnknownPlatformError(f"no catalog for platform {platform_id!r} in {directory}") from None
