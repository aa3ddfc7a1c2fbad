"""Per-MAC energy accounting.

Component model: storage-cap recharge, the two detector-node charges, event
pull-up and edge inversion. Pull-up and inversion have no closed form here
and use the characterized per-bit constants of the 5-bit reference design.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .errors import FieldValidationError, RegimeError
from .params import CellDesign, MultiplierSpec, TechnologyProfile

#: Per-bit energy of the event pull-up and input-edge inverter [J].
DEFAULT_E_PU_PER_BIT = 9.0e-15
DEFAULT_E_INV_PER_BIT = 3.0e-15

#: Latch-side detector node capacitance, inverted from the reference
#: characterization (0.85 fJ per cell at 1.2 V).
DEFAULT_LATCH_NODE_F = 0.59e-15

#: Reference per-MAC / per-bit energy components of the characterized 5-bit
#: design at |W| = 31, v_a = 1.2 V, in femtojoules. "total" is the row sum as
#: reported (rounded); "total_sim" the directly simulated total.
REFERENCE_5BIT_ENERGY_FJ = {
    "e_cstar": (34.0, 6.8),
    "e_td1": (5.6, 1.1),
    "e_td2": (8.8, 1.7),
    "e_pu": (46.0, 9.0),
    "e_inv": (16.0, 3.0),
    "total": (110.0, 22.0),
    "total_sim": (116.0, 23.0),
}


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy per MAC split by component, joules."""

    e_cstar: float
    e_td1: float
    e_td2: float
    e_pu: float
    e_inv: float
    n_bits: int
    mode: str

    @property
    def total(self) -> float:
        return self.e_cstar + self.e_td1 + self.e_td2 + self.e_pu + self.e_inv

    @property
    def per_bit(self) -> float:
        return self.total / self.n_bits

    def to_dict(self) -> dict:
        return {**asdict(self), "total": self.total, "per_bit": self.per_bit}


def cap_energy(c: float, tech: TechnologyProfile) -> float:
    """Energy c * v_dd^2 to charge a capacitance through the full supply.

    Raises RegimeError when the energy is not a finite float.
    """
    if c <= 0:
        raise FieldValidationError("c", "capacitance must be > 0")
    try:
        energy = c * tech.v_dd**2
    except OverflowError:  # float ** raises where * would give inf
        energy = math.inf
    if not math.isfinite(energy):
        raise RegimeError(f"c * v_dd^2 = {energy} J for c={c:.4g} F, v_dd={tech.v_dd:.4g} V is not a finite energy")
    return energy


def short_circuit_energy(r: float, tech: TechnologyProfile) -> float:
    """Short-circuit energy of a CMOS-inverter detector driven at ramp rate r.

    (v_dd / (6 r)) * mu_wl_cox * (v_dd - v_thp - v_thn)^3. Inversely
    proportional to r, so cells with exponentially scaled-down currents pay
    exponentially more; this is why the single-FET detector replaces the
    inverter. No command calls it; it stays because it is the only reader of
    the config key mu_wl_cox, which every config digest covers.
    """
    if r <= 0:
        raise FieldValidationError("r", "ramp rate must be > 0")
    swing = tech.v_dd - tech.v_thp - tech.v_thn
    return (tech.v_dd / (6.0 * r)) * tech.mu_wl_cox * swing**3


def mac_energy(
    spec: MultiplierSpec,
    cell: CellDesign,
    tech: TechnologyProfile,
    mode: str = "sense",
    rho: float = 0.0,
) -> EnergyBreakdown:
    """Energy of one MAC cycle.

    Each bit holds a pair of cells (variable and reference input). In sense
    mode every storage cap is recharged each cycle. In acceleration mode the
    weights are reused, so bypassed cells (weight bit 0) never discharge and
    only recharge a residual fraction rho (default 0: no recharge at all).
    Detector, pull-up and inverter costs are charged for the full chain in
    both modes.
    """
    if mode not in ("sense", "acceleration"):
        raise FieldValidationError("mode", f"must be 'sense' or 'acceleration' (got {mode!r})")
    if not 0.0 <= rho <= 1.0:
        raise FieldValidationError("rho", "residual recharge fraction must be in [0, 1]")
    n = spec.n_bits
    if mode == "sense":
        charged_pairs = float(n)
    else:
        popcount = sum(spec.weight_bits)
        charged_pairs = popcount + rho * (n - popcount)
    return EnergyBreakdown(
        e_cstar=2.0 * charged_pairs * cap_energy(cell.c_star, tech),
        e_td1=2.0 * n * cap_energy(cell.c_re, tech),
        e_td2=2.0 * n * cap_energy(DEFAULT_LATCH_NODE_F, tech),
        e_pu=n * DEFAULT_E_PU_PER_BIT,
        e_inv=n * DEFAULT_E_INV_PER_BIT,
        n_bits=n,
        mode=mode,
    )
