"""Behavioral model of the two-branch biasing network.

The network turns one reference voltage into per-exponent gate biases that
scale the cell currents by 2**-i without width-scaled mirrors. Everything
here is algebraic: current ratios, bias voltages and the drain-pinning
offset are the quantities the circuit is specified by, and all are checkable
without a node solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple, Union

from .errors import FieldValidationError, RegimeError
from .params import TechnologyProfile

#: Widths are multiples of 160 nm, lengths multiples of 120 nm.
WIDTH_UNIT_M = 160e-9
LENGTH_UNIT_M = 120e-9

#: Target drain voltage of the primary mirror FET, held by the secondary bias.
DRAIN_PIN_V = 0.1

#: Subthreshold slope factor of the bias diode law.
DEFAULT_SLOPE_FACTOR = 1.3

#: Bias currents above this are outside the subthreshold design regime.
SUBTHRESHOLD_CEILING_A = 2e-6

FixedRow = Tuple[float, float]
PerExponentRows = List[Tuple[float, float]]


def width_table(n: int) -> Dict[str, Union[FixedRow, PerExponentRows]]:
    """FET sizing table for an n-bit network, n in [1, 8].

    Fixed rows are (width multiplier, length multiplier); per-exponent rows
    are lists indexed by the current exponent i in [0, n).
    """
    if not 1 <= n <= 8:
        raise FieldValidationError("n", f"supported for 1 <= n <= 8 (got {n})")
    return {
        "M1": (1.0, 1.0),
        "M2-3": (float(2**n), 1.0),
        "M4-6": (10.0 * 2**n, 10.0),
        "M7-9": [(10.0 * 2**i, 10.0) for i in range(n)],
        "M10": [(2.6**i, 10.0) for i in range(n)],
        "M11": [(float(2**i), 10.0) for i in range(n)],
        "M12": (1.0, 1.0),
    }


def bias_current(v_ref: float, tech: TechnologyProfile) -> float:
    """Subthreshold diode-law current i_0 * exp((v_ref - v_thn) / (m v_t)).

    Raises RegimeError above the subthreshold ceiling, the only regime the
    network is designed for, comparing exponents so that exp cannot overflow.
    """
    exponent = (v_ref - tech.v_thn) / (DEFAULT_SLOPE_FACTOR * tech.v_t)
    if exponent > math.log(SUBTHRESHOLD_CEILING_A / tech.i_0):
        raise RegimeError(f"v_ref={v_ref:.4g} V drives i_bias above the subthreshold ceiling {SUBTHRESHOLD_CEILING_A:.4g} A")
    return tech.i_0 * math.exp(exponent)


def v_ref_for_current(i_bias: float, tech: TechnologyProfile) -> float:
    """Reference voltage that makes bias_current produce i_bias."""
    if i_bias <= 0:
        raise FieldValidationError("i_bias", "must be > 0")
    ratio = i_bias / tech.i_0
    if not (math.isfinite(ratio) and ratio > 0):
        raise RegimeError(f"i_bias={i_bias:.4g} A over i_0={tech.i_0:.4g} A leaves the float range")
    return tech.v_thn + DEFAULT_SLOPE_FACTOR * tech.v_t * math.log(ratio)


def branch_currents(v_ref: float, n: int, tech: TechnologyProfile) -> Tuple[float, ...]:
    """Ideal mirrored currents (bias_current / 2**i for i in range(n))."""
    if n < 1:
        raise FieldValidationError("n", "must be >= 1")
    i_bias = bias_current(v_ref, tech)
    return tuple(i_bias / 2.0**i for i in range(n))


@dataclass(frozen=True)
class BiasPlan:
    """Resolved sizing, currents and gate biases of the network."""

    n_bits: int
    widths: dict
    currents: Tuple[float, ...]
    v_b1: Tuple[float, ...]
    v_b2: Tuple[float, ...]
    drain_pin: float = DRAIN_PIN_V

    def __post_init__(self):
        if any(b2 <= b1 for b1, b2 in zip(self.v_b1, self.v_b2)):
            raise FieldValidationError("v_b2", "secondary bias must exceed the primary bias")

    def to_dict(self) -> dict:
        return {
            "n_bits": self.n_bits,
            "widths": {k: list(v) for k, v in self.widths.items()},
            "currents": list(self.currents),
            "v_b1": list(self.v_b1),
            "v_b2": list(self.v_b2),
            "drain_pin": self.drain_pin,
        }

    def csv_rows(self) -> List[Tuple[int, float, float, float]]:
        """(exponent, current, v_b1, v_b2) per branch."""
        return [
            (i, self.currents[i], self.v_b1[i], self.v_b2[i])
            for i in range(self.n_bits)
        ]


def bias_plan(v_ref: float, n: int, tech: TechnologyProfile) -> BiasPlan:
    """Full network solution for a reference voltage.

    The primary bias of branch i is the gate voltage sinking currents[i]
    under the diode law, so v_b1[0] equals v_ref exactly; the secondary bias
    sits DRAIN_PIN_V above it to hold the mirror drain at the pin target.
    """
    currents = branch_currents(v_ref, n, tech)
    v_b1 = tuple(v_ref_for_current(i_i, tech) for i_i in currents)
    v_b2 = tuple(b1 + DRAIN_PIN_V for b1 in v_b1)
    return BiasPlan(
        n_bits=n,
        widths=width_table(n),
        currents=currents,
        v_b1=v_b1,
        v_b2=v_b2,
    )

