"""Closed-form models of the delay cell's three sub-processes.

A cell delays a falling edge by (1) dropping the storage cap's voltage by an
input-dependent amount dv0, (2) discharging it at the steady rate
R = i_star / c_star, and (3) firing a threshold detector whose subthreshold
FET charges the detector node until a half-latch flips. Each operation here
is a pure function of its arguments. vre_transient, the detector-node
voltage in time, is the independent oracle of latch_delay's closed form.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import RegimeError
from .params import CellDesign, TechnologyProfile

#: Linearity margin above which the latch delay is treated as affine in dv0.
LINEARIZED_MARGIN = 10.0


@dataclass(frozen=True)
class InitResult:
    """Outcome of the voltage-initialization step.

    dv0 is the initial drop of the storage-cap voltage below v_dd. Within
    the validity region (c_star above init_validity_min_cstar) it satisfies
    0 <= dv0 < v_dd. clamped marks inputs at or below v_thn, where the
    charge-sharing term vanishes and only the fixed offset remains.
    """

    dv0: float
    clamped: bool


@dataclass(frozen=True)
class LatchResult:
    """Latch firing time and the latch point it corresponds to.

    linearized is True when the exponential detector is deep enough in its
    steep region (margin >= LINEARIZED_MARGIN) that the delay is affine in
    dv0 to good approximation.
    """

    t_d: float
    dv_th: float
    linearized: bool


def initial_drop(v_a: float, cell: CellDesign, tech: TechnologyProfile) -> InitResult:
    """Initial voltage drop dv0 = (c_s_eff/c_star) * max(v_a - v_thn, 0) + dq_of/c_star.

    The charge-sharing term is clamped at zero below threshold instead of
    erroring; the model stays total and the multiplier layer enforces the
    practical input floor.
    """
    if not 0 <= v_a <= tech.v_dd:
        raise RegimeError(f"v_a={v_a} outside [0, v_dd={tech.v_dd}]")
    clamped = v_a <= tech.v_thn
    linear = 0.0 if clamped else (cell.c_s_eff / cell.c_star) * (v_a - tech.v_thn)
    dv0 = linear + cell.dq_of_md / cell.c_star
    return InitResult(dv0=dv0, clamped=clamped)


def init_validity_min_cstar(cell: CellDesign, tech: TechnologyProfile) -> float:
    """Smallest storage capacitance for which the initialization model holds.

    Derived from requiring the cap to retain enough charge at v_a = v_dd:
    (c_s_eff * (v_dd - v_thn) + dq_of) / v_thn. Callers compare c_star
    against the returned bound.
    """
    return (cell.c_s_eff * (tech.v_dd - tech.v_thn) + cell.dq_of_md) / tech.v_thn


def referential_delay_ideal(v_a: float, cell: CellDesign) -> float:
    """Referential delay -(c_s_eff/i_star) * (v_a - v_a0).

    Exactly affine in v_a and independent of c_star: the storage cap cancels
    between the variable and reference cell of a pair. Negative for
    v_a > v_a0.
    """
    return -(cell.c_s_eff / cell.i_star) * (v_a - cell.v_a0)


def _latch_log_const(cell: CellDesign, tech: TechnologyProfile) -> float:
    """R * c_re * v_thn / (i_0 * v_t) - the detector's dimensionless gain."""
    r = cell.ramp_rate
    return r * cell.c_re * tech.v_thn / (tech.i_0 * tech.v_t)


def vre_transient(t: float, dv0: float, cell: CellDesign, tech: TechnologyProfile) -> float:
    """Detector-node voltage at time t after discharge starts.

    v_re(t) = (i_0/c_re) * (v_t/R) * exp(dv0/v_t) * (exp(R t / v_t) - 1),
    valid while the detector FET stays subthreshold (dv0 < v_thp). No command
    calls it: it stays as the independent check of latch_delay, whose t_d is
    where this transient crosses v_thn.
    """
    if t < 0:
        raise RegimeError(f"t={t} must be >= 0")
    if dv0 >= tech.v_thp:
        raise RegimeError(
            f"dv0={dv0} >= v_thp={tech.v_thp}: detector leaves the exponential regime"
        )
    r = cell.ramp_rate
    prefactor = (tech.i_0 / cell.c_re) * (tech.v_t / r) * math.exp(dv0 / tech.v_t)
    return prefactor * math.expm1(r * t / tech.v_t)


def latch_point(cell: CellDesign, tech: TechnologyProfile) -> float:
    """Storage-cap voltage drop at which the half-latch fires.

    dv_th = v_t * ln(R * c_re * v_thn / (i_0 * v_t)); independent of dv0 and
    therefore of the analog input. Doubling R raises it by exactly
    v_t * ln 2.
    """
    arg = _latch_log_const(cell, tech)
    if arg <= 1.0:
        raise RegimeError(
            f"detector gain R*c_re*v_thn/(i_0*v_t) = {arg:.4g} <= 1: "
            "the latch point is ill-defined at this operating point"
        )
    return tech.v_t * math.log(arg)


def latch_delay(dv0: float, cell: CellDesign, tech: TechnologyProfile) -> LatchResult:
    """Exact latch firing time for an initial drop dv0.

    t_d = (v_t/R) * ln(margin + 1) where margin is td_linearity_margin(dv0).
    In the steep-detector limit (margin >> 1) this is affine in dv0 with
    slope -1/R; the linearized flag reports margin >= LINEARIZED_MARGIN.
    """
    if dv0 >= tech.v_thp:
        raise RegimeError(
            f"dv0={dv0} >= v_thp={tech.v_thp}: detector leaves the exponential regime"
        )
    dv_th = latch_point(cell, tech)
    margin = td_linearity_margin(cell, tech, dv0_max=dv0)
    r = cell.ramp_rate
    t_d = (tech.v_t / r) * math.log1p(margin)
    return LatchResult(t_d=t_d, dv_th=dv_th, linearized=margin >= LINEARIZED_MARGIN)


def td_linearity_margin(cell: CellDesign, tech: TechnologyProfile, dv0_max: float) -> float:
    """Dimensionless detector-linearity ratio; the delay is affine when >> 1.

    ratio = (i_star/c_star) * c_re / (i_0 * exp(dv0_max/v_t)) * (v_thn/v_t).
    Raises RegimeError where exp(dv0_max/v_t) would overflow, comparing the
    exponent so that exp is never called out of range.
    """
    if not 0 <= dv0_max < tech.v_dd:
        raise RegimeError(f"dv0_max={dv0_max} outside [0, v_dd)")
    exponent = dv0_max / tech.v_t
    if exponent > math.log(sys.float_info.max):
        raise RegimeError(f"dv0_max/v_t = {exponent:.4g} overflows the detector's exponential law")
    base = (cell.i_star / cell.c_star) * cell.c_re / (tech.i_0 * math.exp(exponent))
    return base * (tech.v_thn / tech.v_t)
