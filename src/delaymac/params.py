"""Core parameter records: process constants, cell designables, multiplier
geometry and the fitted jitter constants.

All records are immutable after construction and validated eagerly, so any
instance reachable at runtime satisfies its invariants and can be shared
across threads without synchronization. All values are SI. Each record
checks its own fields: a float field takes a finite number, never a bool,
and stores it as a float; a bit count and the sign take ints.
"""

from __future__ import annotations

import math
import numbers
import reprlib
import sys
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from .errors import FieldValidationError, WeightOverflowError

BOLTZMANN_J_PER_K = 1.380649e-23
ELEMENTARY_CHARGE_C = 1.602176634e-19

#: Multiplier inputs below this analog voltage produce distorted referential
#: delays; simulations warn (but do not fail) below it.
INPUT_FLOOR_V = 0.075

#: Largest bit count of a multiplier or a feasibility sweep: every weight
#: then fits in an int64, and the slowest current, 2**-n times the fastest,
#: stays a normal float.
MAX_BITS_CAP = 48

#: Default (c_star, i_star_fastest) spans and points per axis of the
#: design-space grids; the CLI reads them without loading design_space.
DEFAULT_C_SPAN = (0.5e-15, 50e-15)
DEFAULT_I_SPAN = (50e-9, 20e-6)
DEFAULT_GRID_POINTS = 64

MIN_GRID_POINTS = 16
#: Largest points per axis design_space.default_grids builds: a 4096**2
#: region CSV is about 0.9 GB, and its masks take 16.8 MB each.
MAX_GRID_POINTS = 4096


def thermal_voltage(temperature_k: float) -> float:
    """kT/q in volts."""
    return BOLTZMANN_J_PER_K * temperature_k / ELEMENTARY_CHARGE_C


def _require(cond: bool, fieldname: str, message: str) -> None:
    if not cond:
        raise FieldValidationError(fieldname, message)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def is_finite_number(value) -> bool:
    """A real number, not a bool, in the float range (exact for any int)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


def _store_floats(record, *names: str, above: float = -math.inf, at_least: float = -math.inf) -> None:
    """Store each named field as a float after one check of its type and range."""
    bound = f" > {above:g}" if above > -math.inf else f" >= {at_least:g}" if at_least > -math.inf else ""
    for name in names:
        value = getattr(record, name)
        _require(is_finite_number(value) and value > above and value >= at_least, name,
                 f"must be a finite number{bound} (got {reprlib.repr(value)})")
        object.__setattr__(record, name, float(value))


def require_bit_count(n_bits, fieldname: str = "n_bits") -> None:
    """Raise FieldValidationError naming fieldname unless n_bits is an
    integer in 1..MAX_BITS_CAP; callers check before sizing anything by it."""
    _require(
        _is_int(n_bits) and 1 <= n_bits <= MAX_BITS_CAP,
        fieldname,
        f"must be an integer from 1 to {MAX_BITS_CAP} (got {n_bits!r})",
    )


def require_grid_points(points: int) -> None:
    """Raise FieldValidationError unless points is MIN_GRID_POINTS to
    MAX_GRID_POINTS; design_space.default_grids checks before it allocates."""
    _require(MIN_GRID_POINTS <= points <= MAX_GRID_POINTS, "grid_points",
             f"needs {MIN_GRID_POINTS} to {MAX_GRID_POINTS} points per axis (got {points})")


def require_epsilon(epsilon: float) -> None:
    """Raise FieldValidationError unless the excess jitter margin epsilon is
    finite and >= 1. A curve checks each of its margins, so the message is
    formatted only on failure."""
    if not (math.isfinite(epsilon) and epsilon >= 1.0):
        raise FieldValidationError("epsilon", f"excess jitter margin must be finite and >= 1 (got {epsilon})")


@dataclass(frozen=True)
class TechnologyProfile:
    """Process-level constants shared by every cell of a design.

    v_t is derived, always kT/q at ``temperature``, and not an argument.
    i_0 is the detector FET's subthreshold current scale. gamma, the
    thermal-noise factor of the paper's 4kT*gamma jitter form, is recorded
    for a cross-check of the fitted jitter scale; no model reads it yet.
    """

    v_dd: float = 1.2
    v_thn: float = 0.319
    v_thp: float = 0.38
    temperature: float = 300.0
    i_0: float = 100e-15
    gamma: float = 1.5
    v_t: float = field(init=False)

    def __post_init__(self):
        _store_floats(self, "v_dd", "v_thn", "v_thp")
        _store_floats(self, "temperature", above=0)
        object.__setattr__(self, "v_t", thermal_voltage(self.temperature))
        # kT/q underflows to 0 below about 2e-301 K
        _store_floats(self, "v_t", "i_0", above=0)
        _store_floats(self, "gamma", at_least=1)
        _require(self.v_dd > self.v_thn > 0, "v_thn", "requires v_dd > v_thn > 0")
        _require(self.v_dd > self.v_thp > 0, "v_thp", "requires v_dd > v_thp > 0")


@dataclass(frozen=True)
class CellDesign:
    """Per-cell designables and fitted parasitics.

    c_s_eff is the input-sampling capacitance including its parasitics and
    dq_of_md the charge offset measured mid-discharge, which the
    initialization drop adds. v_a0 is the reference input's config key;
    resolve_config copies it to the MultiplierSpec, whose copy the
    multiplier reads. No model reads the cell's v_a0: it stays a field only
    because perfbench/workloads.py sets it with dataclasses.replace.
    """

    c_star: float = 2.2e-15
    c_s_eff: float = 0.23e-15
    dq_of_md: float = 0.5e-15
    c_re: float = 0.382e-15
    i_star: float = 1e-6
    v_a0: float = 0.75

    def __post_init__(self):
        _store_floats(self, "c_star", "c_re", "i_star", above=0)
        # the sampling capacitance and charge offsets may degenerate to zero
        _store_floats(self, "c_s_eff", "dq_of_md", "v_a0", at_least=0)

    def with_current(self, i_star: float) -> "CellDesign":
        """Copy of this cell running at a different discharge current."""
        return replace(self, i_star=i_star)

    @property
    def ramp_rate(self) -> float:
        """Steady discharge rate R = I*/C* in V/s."""
        return self.i_star / self.c_star


@dataclass(frozen=True)
class MultiplierSpec:
    """Signed n-bit multiplier: weight bits, sign relay and current scaling.

    Bit 0 is the fastest cell; bit i runs at i_star_fastest / 2**i and
    contributes 2**i times the unit referential delay. weight_bits is a
    list or tuple of 0s and 1s and defaults to all n_bits bits set.

    This is the package's one meaning of "n bits": an n-bit multiplier has
    n cells, and the slowest runs at i_star_fastest * 2**-(n - 1). The
    multiplier, the bias network and the energy model build those n cells.
    design_space checks constraints 2 and 3 at i_star_fastest * 2**-n, one
    halving slower, so every design point it calls feasible for n bits is
    feasible for this multiplier, with a margin of one halving.
    """

    n_bits: int = 5
    sign: int = 1
    weight_bits: Optional[Tuple[int, ...]] = None
    i_star_fastest: float = 1e-6
    v_a0: float = 0.75

    def __post_init__(self):
        require_bit_count(self.n_bits)
        _require(_is_int(self.sign) and self.sign in (1, -1), "sign", f"must be +1 or -1 (got {self.sign!r})")
        bits = (1,) * self.n_bits if self.weight_bits is None else self.weight_bits
        _require(isinstance(bits, (list, tuple)) and all(b in (0, 1) and not isinstance(b, bool) for b in bits),
                 "weight_bits", "must be a list of 0s and 1s")
        _require(len(bits) == self.n_bits, "weight_bits", f"must have length n_bits={self.n_bits}")
        object.__setattr__(self, "weight_bits", tuple(map(int, bits)))
        _store_floats(self, "i_star_fastest", above=0)
        _store_floats(self, "v_a0", at_least=0)

    @property
    def weight_value(self) -> int:
        """Unsigned integer weight W = sum w_i 2^i, in [0, 2^n - 1]."""
        return sum(b << i for i, b in enumerate(self.weight_bits))

    @classmethod
    def from_weight(
        cls,
        weight: int,
        n_bits: int,
        i_star_fastest: float = 1e-6,
        v_a0: float = 0.75,
    ) -> "MultiplierSpec":
        """Build a spec from a signed integer weight, |weight| < 2**n_bits."""
        require_bit_count(n_bits)
        mag = abs(weight)
        require_weight_fits(mag, n_bits)
        sign = -1 if weight < 0 else 1
        bits = tuple((mag >> i) & 1 for i in range(n_bits))
        return cls(n_bits=n_bits, sign=sign, weight_bits=bits, i_star_fastest=i_star_fastest, v_a0=v_a0)


def require_weight_fits(magnitude: int, n_bits: int) -> None:
    """Raise WeightOverflowError unless magnitude < 2**n_bits."""
    if magnitude >= 2**n_bits:
        raise WeightOverflowError(
            f"|weight|={magnitude} does not fit in {n_bits} bits (|w| < 2**n_bits = {2**n_bits})"
        )


#: Calibrated scale pair applied to (k1, k2) so both fitted jitter models
#: produce seconds^2 from SI inputs. Resolved by the design-space calibration
#: against the headline feasibility targets; see design_space.calibrate_units.
DEFAULT_UNIT_SCALE: Tuple[float, float] = (3.05745937738432e-12, 0.3379408077726085)


@dataclass(frozen=True)
class JitterFit:
    """Fitted constants of the two per-cell jitter models.

    var_sd = s1 * k1 * c_star / i_star**p1
    var_td = s2 * k2 * (c_star / i_star)**q2

    (k1, p1, k2, q2) are kept verbatim from the source characterization; the
    unit convention they were fitted in is unrecorded, so the calibrated
    scale pair unit_scale = (s1, s2), always two finite numbers > 0, maps
    them onto SI. A noisy chain draws jitter iff it is given a fit. The
    methods var_sd and var_td are the one definition of these laws;
    design_space reads them at unit scale (1, 1) as its scale-free terms.
    """

    k1: float = 2.95e-16
    p1: float = 2.46
    k2: float = 1.29e-10
    q2: float = 1.5
    unit_scale: Tuple[float, float] = DEFAULT_UNIT_SCALE

    def __post_init__(self):
        _store_floats(self, "k1", "p1", "k2", "q2", above=0)
        scale = self.unit_scale
        pair = isinstance(scale, (list, tuple)) and len(scale) == 2
        _require(pair and all(is_finite_number(s) and s > 0 for s in scale), "unit_scale",
                 f"must be two finite numbers > 0 (got {reprlib.repr(scale)})")
        object.__setattr__(self, "unit_scale", tuple(map(float, scale)))

    def with_unit_scale(self, unit_scale: Tuple[float, float]) -> "JitterFit":
        """This fit calibrated to unit_scale, an (s1, s2) pair."""
        return replace(self, unit_scale=unit_scale)

    def var_sd(self, c_star, i_star):
        """var_sd over floats or arrays, unchecked: a float power may raise OverflowError."""
        return self.unit_scale[0] * self.k1 * c_star / i_star**self.p1

    def var_td(self, c_star, i_star):
        """var_td over floats or arrays, as var_sd."""
        return self.unit_scale[1] * self.k2 * (c_star / i_star) ** self.q2
