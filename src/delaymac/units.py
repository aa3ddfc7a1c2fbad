"""Suffixed-quantity parsing and round-trip numeric formatting.

Internally everything is SI. Human-facing inputs (config files, CLI flags)
may carry a one-letter scale suffix: f, p, n, u, m for 1e-15 .. 1e-3.
"""

from __future__ import annotations

import re
from decimal import Decimal

from .errors import QuantityError

SUFFIX_EXPONENT = {
    "f": -15,
    "p": -12,
    "n": -9,
    "u": -6,
    "m": -3,
}

_QUANTITY_RE = re.compile(
    r"^\s*(?P<num>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\s*(?P<suffix>[fpnum]?)\s*$"
)


def parse_quantity(text: str) -> float:
    """Parse ``<float>[f|p|n|u|m]`` into an SI value.

    "2.2f" -> 2.2e-15, "1u" -> 1e-6, "0.75" -> 0.75.
    """
    if not isinstance(text, str):
        raise QuantityError(f"expected a string, got {type(text).__name__}")
    match = _QUANTITY_RE.match(text)
    if match is None:
        raise QuantityError(f"malformed quantity {text!r}; expected <float>[f|p|n|u|m]")
    suffix = match.group("suffix")
    if not suffix:
        return float(match.group("num"))
    # shift the decimal exponent before the single float conversion so that
    # "2.2f" and "2.2e-15" parse to the identical double
    return float(Decimal(match.group("num")).scaleb(SUFFIX_EXPONENT[suffix]))


def coerce_quantity(value) -> float:
    """Accept a plain number or a suffixed string, return SI float."""
    if isinstance(value, bool):
        raise QuantityError("booleans are not quantities")
    if isinstance(value, (int, float)):
        try:
            return float(value)
        except OverflowError:
            raise QuantityError("integer too large for a float") from None
    return parse_quantity(value)


def format_number(x) -> str:
    """Shortest decimal representation that round-trips to the same float.

    Always uses '.' as the decimal separator regardless of locale.
    """
    return repr(float(x))
