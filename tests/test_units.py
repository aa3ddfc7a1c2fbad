import math
import sys
from decimal import Decimal

import pytest
from hypothesis import example, given, strategies as st

from delaymac.errors import QuantityError
from delaymac.units import SUFFIX_EXPONENT, coerce_quantity, format_number, parse_quantity


def test_femto_suffix():
    assert parse_quantity("2.2f") == 2.2e-15


def test_micro_suffix():
    assert parse_quantity("1u") == 1e-6


def test_no_suffix_is_si():
    assert parse_quantity("0.75") == 0.75


@pytest.mark.parametrize(
    "text,expected",
    [
        ("3p", 3e-12),
        ("50n", 50e-9),
        ("10m", 10e-3),
        ("-4.5f", -4.5e-15),
        ("1e-6", 1e-6),
        ("2.2e0f", 2.2e-15),
        (".5u", 0.5e-6),
    ],
)
def test_suffix_grammar(text, expected):
    assert parse_quantity(text) == pytest.approx(expected, rel=1e-15, abs=0)


@pytest.mark.parametrize("text", ["", "f", "2.2x", "1 2", "2,2f", "u1", "nan", "2.2ff"])
def test_grammar_mismatch(text):
    with pytest.raises(QuantityError):
        parse_quantity(text)


def test_coerce_accepts_numbers_and_strings():
    assert coerce_quantity(3) == 3.0
    assert coerce_quantity(2.5e-9) == 2.5e-9
    assert coerce_quantity("2.5n") == 2.5e-9
    with pytest.raises(QuantityError):
        coerce_quantity(True)


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_format_parse_round_trip(x):
    assert parse_quantity(format_number(x)) == x


@given(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    st.sampled_from(sorted(SUFFIX_EXPONENT)),
)
@example(3.2956212316547958e-295, "f")
def test_suffix_equals_explicit_scale(mantissa, suffix):
    got = parse_quantity(f"{mantissa!r}{suffix}")
    product = mantissa * float(f"1e{SUFFIX_EXPONENT[suffix]}")
    if abs(product) < sys.float_info.min:
        # zero or subnormal: the float product rounds twice (scale, then
        # product), so compare with the decimal scaling, rounded once
        assert got == float(Decimal(repr(mantissa)).scaleb(SUFFIX_EXPONENT[suffix]))
    else:
        assert got == pytest.approx(product, rel=1e-15, abs=0.0)


def test_suffix_matches_explicit_exponent_bit_for_bit():
    assert parse_quantity("2.2f") == float("2.2e-15")
    assert parse_quantity("0.23f") == float("0.23e-15")
    assert parse_quantity("31.25n") == float("31.25e-9")


def test_format_number_uses_dot_separator():
    s = format_number(1234.5)
    assert "." in s and "," not in s
    assert float(s) == 1234.5
