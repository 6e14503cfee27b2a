import re
from decimal import Decimal

import pytest
from hypothesis import example, given, strategies as st

from cosmos.errors import DomainError
from cosmos.money import dec, div, fmt, fmt_full, money_product, quantize_money


def test_usd_parses_decimal_strings_exactly():
    assert quantize_money(dec("0.20")) == Decimal("0.2")
    assert quantize_money(dec("1.47029")) == Decimal("1.47029")
    assert quantize_money(dec("0.000000213")) == Decimal("213e-9")


def test_floats_are_rejected():
    with pytest.raises(DomainError):
        dec(0.1)
    with pytest.raises(DomainError):
        quantize_money(dec(2e-7))


def test_non_finite_rejected():
    with pytest.raises(DomainError):
        dec("NaN")
    with pytest.raises(DomainError):
        dec("Infinity")


def test_amount_beyond_the_context_is_a_domain_error_stating_the_bound():
    largest = Decimal("9" * 38 + ".999999999999")
    assert quantize_money(largest) == largest
    with pytest.raises(DomainError, match=r"amount 1E\+38 is out of range: .* below 1E\+38$"):
        quantize_money(Decimal("1e38"))
    # The product overflows money's context before it is quantized.
    with pytest.raises(DomainError, match=r"amount 1E\+600000 \* 1E\+600000 is out of range"):
        money_product(Decimal("1e600000"), Decimal("1e600000"))


def test_quantize_money_is_half_even():
    # Tie at the 13th fractional digit rounds to the even neighbor.
    assert quantize_money(Decimal("0.0000000000005")) == Decimal("0")
    assert quantize_money(Decimal("0.0000000000015")) == Decimal("0.000000000002")


def test_money_product_exact_for_catalog_scale_values():
    assert money_product(Decimal(10**6), Decimal("0.0000002")) == Decimal("0.20")
    assert money_product(Decimal("0.1"), Decimal("0.125"), Decimal("0.00001704")) == Decimal(
        "0.000000213"
    )


def test_div_high_precision():
    third = div(Decimal(1), Decimal(3))
    assert str(third).startswith("0.33333333333333333333")


def test_fmt_display_rounding():
    assert fmt(Decimal("1.47029")) == "1.4703"
    assert fmt(Decimal("0.00005")) == "0.0000"  # half-even tie
    assert fmt(Decimal("0.00015")) == "0.0002"
    assert fmt(Decimal("143.6"), 1) == "143.6"


def test_fmt_rounds_past_28_digits_and_states_the_bound_past_50():
    assert fmt(Decimal("26900000000000000000000000000000000.4"), 0) == "26900000000000000000000000000000000"
    with pytest.raises(DomainError, match="needs more than 50 significant digits"):
        fmt(Decimal("1e50"), 0)


def test_fmt_full_avoids_scientific_notation():
    assert fmt_full(Decimal("2E-7")) == "0.0000002"
    assert fmt_full(Decimal("61.056")) == "61.056"


def test_fmt_full_is_exact_past_50_digits_and_the_context_exponent_range():
    # Normalized under money.CONTEXT, a value past 50 digits rounded, and one
    # whose last digit lay below CONTEXT's exponent range was cut off there.
    long = "1." + "0" * 54 + "1"
    assert fmt_full(Decimal(long)) == long
    assert fmt_full(Decimal(long + "E-999999")) == "0." + "0" * 999998 + long.replace(".", "")
    assert fmt_full(Decimal("1E+999999")) == "1" + "0" * 999999
    assert fmt_full(Decimal("0E-2000000")) == "0"


@pytest.mark.parametrize("value", ["1E-1000000", "1E-999999999", "-1E+1000000", "9.9E+999999999"])
def test_fmt_full_refuses_a_value_past_the_context_exponent_range(value):
    # Its fixed-point notation would pass a million digits; normalized under
    # money.CONTEXT it printed 0 or overflowed into a bare decimal.Overflow.
    with pytest.raises(DomainError, match=rf"^{re.escape(value)} is out of range: a number prints"
                       r" in full only with an exponent from -999999 to 999999$"):
        fmt_full(Decimal(value))


@given(st.booleans(), st.integers(0, 10**50 - 1), st.integers(-60, 60))
@example(False, 12345678901234567123456789012, -12)
@example(False, 1234567890123456789012345123456789, -9)
def test_fmt_full_round_trips_up_to_50_significant_digits(negative, digits, exponent):
    value = Decimal(f"{'-' if negative else ''}{digits}E{exponent}")
    assert Decimal(fmt_full(value)) == value
