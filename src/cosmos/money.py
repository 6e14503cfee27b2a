"""Exact decimal arithmetic for USD amounts and workload quantities.

Monetary values are plain ``decimal.Decimal`` kept exact to 12 fractional
digits. Binary floats are rejected at every entry point so catalog rates like
2e-7 USD per request never pick up representation error. Rounding, when a
result must be quantized, is always half-even.
"""

from __future__ import annotations

import decimal
from decimal import Decimal

from .errors import DomainError

#: Fractional digits carried by every monetary amount.
MONEY_PLACES = 12

MONEY_QUANTUM = Decimal(1).scaleb(-MONEY_PLACES)

#: Working context: enough significant digits that all catalog/workload
#: products stay exact; divisions are correctly rounded at 50 digits.
CONTEXT = decimal.Context(prec=50, rounding=decimal.ROUND_HALF_EVEN)

#: Monetary amounts must be below this in magnitude: at MONEY_QUANTUM a
#: larger one needs more significant digits than CONTEXT carries.
MONEY_LIMIT = Decimal(1).scaleb(CONTEXT.prec - MONEY_PLACES)

#: CONTEXT wide enough that no result rounds or leaves its exponent range.
_EXACT = CONTEXT.copy()
_EXACT.prec, _EXACT.Emax, _EXACT.Emin = decimal.MAX_PREC, decimal.MAX_EMAX, decimal.MIN_EMIN

#: Adjusted exponents that fmt_full prints: CONTEXT's range, so that a
#: value prints at most about a million digits more than it has.
_PRINTABLE = range(CONTEXT.Emin, CONTEXT.Emax + 1)

#: CONTEXT with Inexact trapped, for sums that must not round.
_EXACT_SUMS = CONTEXT.copy()
_EXACT_SUMS.traps[decimal.Inexact] = True

#: a + b under CONTEXT; raises decimal.Inexact where the sum would round.
#: For loops that would otherwise enter exact_sums once per call.
exact_add = _EXACT_SUMS.add

_ONE = Decimal(1)
_multiply = CONTEXT.multiply
_quantize = CONTEXT.quantize


def dec(value: str | int | Decimal) -> Decimal:
    """Parse a quantity into a finite Decimal, rejecting binary floats."""
    if isinstance(value, float):
        raise DomainError(f"refusing float {value!r}; pass a decimal string")
    if isinstance(value, Decimal):
        result = value
    else:
        try:
            result = Decimal(value)
        except (decimal.InvalidOperation, TypeError, ValueError) as exc:
            raise DomainError(f"not a decimal quantity: {value!r}") from exc
    if not result.is_finite():
        raise DomainError(f"quantity must be finite, got {value!r}")
    return result


def quantize_money(value: Decimal) -> Decimal:
    """Round a Decimal to the money quantum (half-even); DomainError when
    it is not below MONEY_LIMIT in magnitude."""
    try:
        return CONTEXT.quantize(value, MONEY_QUANTUM)
    except decimal.InvalidOperation:
        raise _out_of_range(value) from None


def _out_of_range(amount) -> DomainError:
    return DomainError(
        f"amount {amount} is out of range: money amounts must be below {MONEY_LIMIT}"
    )


class exact_sums:
    """Run a block's plain ``+`` and ``-`` under CONTEXT with Inexact trapped:
    each result is exact, or DomainError says that ``what`` needs more
    significant digits than CONTEXT carries. A class, not a generator
    context manager: the engine opens one per itemized function."""

    __slots__ = ("what", "_saved")

    def __init__(self, what: str):
        self.what = what

    def __enter__(self) -> None:
        self._saved = decimal.getcontext()
        decimal.setcontext(_EXACT_SUMS.copy())

    def __exit__(self, kind, value, traceback) -> None:
        decimal.setcontext(self._saved)
        if kind is not None and issubclass(kind, decimal.Inexact):
            raise exact_sum_error(self.what) from None


def exact_sum_error(what: str) -> DomainError:
    """The error for a sum, ``what``, that needs more significant digits
    than CONTEXT carries."""
    return DomainError(f"{what} needs more than {CONTEXT.prec} significant digits to stay exact")


def money_product(*factors: Decimal) -> Decimal:
    """Multiply factors under CONTEXT, starting from 1 so that even a lone
    factor is rounded to CONTEXT's precision, and quantize the product as
    quantize_money does. DomainError when the product overflows CONTEXT or
    is not below MONEY_LIMIT in magnitude. The engine makes one call per
    charge, so both steps are inline."""
    out = _ONE
    product = None
    try:
        for f in factors:
            out = _multiply(out, f)
        product = out
        return _quantize(product, MONEY_QUANTUM)
    except decimal.Overflow:
        raise _out_of_range(" * ".join(map(str, factors))) from None
    except decimal.InvalidOperation:
        if product is None:  # a multiply failed, as 0 * Infinity does
            raise
        raise _out_of_range(product) from None


def div(a: Decimal, b: Decimal) -> Decimal:
    """Divide under the high-precision context (correctly rounded)."""
    return CONTEXT.divide(a, b)


def fmt(value: Decimal, places: int = 4) -> str:
    """Format for display, rounded half-even to ``places`` decimals under
    CONTEXT; DomainError when that needs more digits than CONTEXT carries."""
    q = Decimal(1).scaleb(-places)
    try:
        return str(CONTEXT.quantize(value, q))
    except decimal.InvalidOperation:
        raise DomainError(
            f"{value} needs more than {CONTEXT.prec} significant digits"
            f" to print to {places} decimal places"
        ) from None


def fmt_full(value: Decimal) -> str:
    """Full-precision serialization used in machine-readable outputs: the
    value exactly, whatever its digit count, in fixed-point notation
    without trailing zeros. DomainError for a nonzero value whose adjusted
    exponent is outside _PRINTABLE."""
    if value and value.adjusted() not in _PRINTABLE:
        raise DomainError(
            f"{value} is out of range: a number prints in full only with an exponent"
            f" from {_PRINTABLE.start} to {_PRINTABLE.stop - 1}"
        )
    return format(value.normalize(_EXACT), "f")
