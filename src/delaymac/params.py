"""Core parameter records: process constants, cell designables, multiplier
geometry and the fitted jitter constants.

All records are immutable after construction and validated eagerly, so any
instance reachable at runtime satisfies its invariants and can be shared
across threads without synchronization. All values are SI.
"""

from __future__ import annotations

import math
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


def thermal_voltage(temperature_k: float) -> float:
    """kT/q in volts."""
    return BOLTZMANN_J_PER_K * temperature_k / ELEMENTARY_CHARGE_C


def _require(cond: bool, fieldname: str, message: str) -> None:
    if not cond:
        raise FieldValidationError(fieldname, message)


def _require_finite(record, *names: str) -> None:
    for name in names:
        _require(math.isfinite(getattr(record, name)), name, "must be finite")


def require_bit_count(n_bits, fieldname: str = "n_bits") -> None:
    """Raise FieldValidationError naming fieldname unless n_bits is an
    integer in 1..MAX_BITS_CAP; callers check before sizing anything by it."""
    _require(
        isinstance(n_bits, int) and 1 <= n_bits <= MAX_BITS_CAP,
        fieldname,
        f"must be an integer from 1 to {MAX_BITS_CAP} (got {n_bits!r})",
    )


@dataclass(frozen=True)
class TechnologyProfile:
    """Process-level constants shared by every cell of a design.

    v_t must agree with kT/q at ``temperature`` to within 0.1%; pass only
    ``temperature`` to have it derived.
    """

    v_dd: float = 1.2
    v_thn: float = 0.319
    v_thp: float = 0.38
    temperature: float = 300.0
    v_t: Optional[float] = None
    i_0: float = 100e-15
    gamma: float = 1.5
    mu_wl_cox: float = 1e-4

    def __post_init__(self):
        if self.v_t is None:
            object.__setattr__(self, "v_t", thermal_voltage(self.temperature))
        _require_finite(self, "v_dd", "v_thn", "v_thp", "temperature", "v_t", "i_0", "gamma", "mu_wl_cox")
        _require(self.temperature > 0, "temperature", "must be > 0 K")
        _require(self.v_dd > self.v_thn > 0, "v_thn", "requires v_dd > v_thn > 0")
        _require(self.v_dd > self.v_thp > 0, "v_thp", "requires v_dd > v_thp > 0")
        _require(self.v_t > 0, "v_t", "must be > 0")
        expected_vt = thermal_voltage(self.temperature)
        _require(
            abs(self.v_t - expected_vt) <= 1e-3 * expected_vt,
            "v_t",
            f"must equal kT/q at {self.temperature} K ({expected_vt:.6e} V) within 0.1%",
        )
        _require(self.i_0 > 0, "i_0", "must be > 0")
        _require(self.gamma >= 1, "gamma", "must be >= 1")
        _require(self.mu_wl_cox > 0, "mu_wl_cox", "must be > 0")


@dataclass(frozen=True)
class CellDesign:
    """Per-cell designables and fitted parasitics.

    c_s_eff is the input-sampling capacitance including its parasitics.
    dq_of_md / dq_of_pd are the charge offsets measured mid-discharge and
    post-discharge; analytic delay operations use the MD value.
    """

    c_star: float = 2.2e-15
    c_s_eff: float = 0.23e-15
    dq_of_md: float = 0.5e-15
    dq_of_pd: float = 0.45e-15
    c_re: float = 0.382e-15
    i_star: float = 1e-6
    v_a0: float = 0.75

    def __post_init__(self):
        _require_finite(self, "c_star", "c_s_eff", "dq_of_md", "dq_of_pd", "c_re", "i_star", "v_a0")
        for name in ("c_star", "c_re", "i_star"):
            _require(getattr(self, name) > 0, name, "must be > 0")
        # the sampling capacitance and charge offsets may degenerate to zero
        _require(self.c_s_eff >= 0, "c_s_eff", "must be >= 0")
        _require(self.dq_of_md >= 0, "dq_of_md", "must be >= 0")
        _require(self.dq_of_pd >= 0, "dq_of_pd", "must be >= 0")
        _require(
            self.dq_of_pd <= self.dq_of_md,
            "dq_of_pd",
            "post-discharge offset cannot exceed the mid-discharge offset",
        )
        _require(self.v_a0 >= 0, "v_a0", "must be >= 0")

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
    contributes 2**i times the unit referential delay. weight_bits defaults
    to all n_bits bits set.
    """

    n_bits: int = 5
    sign: int = 1
    weight_bits: Optional[Tuple[int, ...]] = None
    i_star_fastest: float = 1e-6
    v_a0: float = 0.75

    def __post_init__(self):
        require_bit_count(self.n_bits)
        _require(self.sign in (1, -1), "sign", "must be +1 or -1")
        bits = (1,) * self.n_bits if self.weight_bits is None else tuple(int(b) for b in self.weight_bits)
        object.__setattr__(self, "weight_bits", bits)
        _require(len(bits) == self.n_bits, "weight_bits", f"must have length n_bits={self.n_bits}")
        _require(all(b in (0, 1) for b in bits), "weight_bits", "entries must be 0 or 1")
        _require_finite(self, "i_star_fastest", "v_a0")
        _require(self.i_star_fastest > 0, "i_star_fastest", "must be > 0")
        _require(self.v_a0 >= 0, "v_a0", "must be >= 0")

    @property
    def weight_value(self) -> int:
        """Unsigned integer weight W = sum w_i 2^i, in [0, 2^n - 1]."""
        return sum(b << i for i, b in enumerate(self.weight_bits))

    def bit_current(self, i: int) -> float:
        """Discharge current of the cell for bit i."""
        if not 0 <= i < self.n_bits:
            raise FieldValidationError("i", f"bit index out of range [0, {self.n_bits})")
        return self.i_star_fastest / 2.0**i

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
    unit convention they were fitted in is unrecorded, so a calibrated scale
    pair unit_scale = (s1, s2) maps them onto SI. A fit with unit_scale=None
    is uncalibrated and the fitted models refuse to evaluate.
    """

    k1: float = 2.95e-16
    p1: float = 2.46
    k2: float = 1.29e-10
    q2: float = 1.5
    unit_scale: Optional[Tuple[float, float]] = DEFAULT_UNIT_SCALE

    def __post_init__(self):
        _require_finite(self, "k1", "p1", "k2", "q2")
        _require(self.k1 > 0, "k1", "must be > 0")
        _require(self.k2 > 0, "k2", "must be > 0")
        _require(self.p1 > 0, "p1", "must be > 0")
        _require(self.q2 > 0, "q2", "must be > 0")
        if self.unit_scale is not None:
            try:
                scale = tuple(float(s) for s in self.unit_scale)
            except (TypeError, ValueError) as exc:
                raise FieldValidationError(
                    "unit_scale", f"entries must be numbers (got {self.unit_scale!r})"
                ) from exc
            _require(len(scale) == 2, "unit_scale", "must be a (s1, s2) pair")
            _require(all(0 < s < math.inf for s in scale), "unit_scale", "entries must be finite and > 0")
            object.__setattr__(self, "unit_scale", scale)

    @property
    def calibrated(self) -> bool:
        return self.unit_scale is not None

    def with_unit_scale(self, unit_scale: Tuple[float, float]) -> "JitterFit":
        return replace(self, unit_scale=tuple(unit_scale))
