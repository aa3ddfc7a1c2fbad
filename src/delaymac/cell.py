"""Closed-form models of the delay cell's three sub-processes.

A cell delays a falling edge by (1) dropping the storage cap's voltage by an
input-dependent amount dv0, (2) discharging it at the steady rate
R = i_star / c_star, and (3) firing a threshold detector whose subthreshold
FET charges the detector node until a half-latch flips. Each operation here
is a pure function of its arguments. vre_transient, the detector-node
voltage in time, is the independent oracle of latch_delay's closed form.

drop, detector_margin and detector_delay, unchecked over floats or arrays,
are the one definition of dv0, the detector margin and t_d. The checked
scalar forms return their float, so both paths run the same numpy ufuncs.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import RegimeError
from .params import CellDesign, TechnologyProfile


def drop(v_a, c_star, cell: CellDesign, tech: TechnologyProfile):
    """dv0 = (c_s_eff/c_star) * max(v_a - v_thn, 0) + dq_of_md/c_star, unchecked."""
    linear = np.where(v_a > tech.v_thn, (cell.c_s_eff / c_star) * (v_a - tech.v_thn), 0.0)
    return linear + cell.dq_of_md / c_star


def detector_margin(dv0, ramp, cell: CellDesign, tech: TechnologyProfile):
    """ramp * c_re / (i_0 * exp(dv0/v_t)) * (v_thn/v_t), ramp = i_star/c_star, unchecked."""
    return ramp * cell.c_re / (tech.i_0 * np.exp(dv0 / tech.v_t)) * (tech.v_thn / tech.v_t)


def detector_delay(dv0, ramp, cell: CellDesign, tech: TechnologyProfile):
    """t_d = (v_t/ramp) * log1p(detector_margin(dv0, ramp)), unchecked."""
    return (tech.v_t / ramp) * np.log1p(detector_margin(dv0, ramp, cell, tech))


def initial_drop(v_a: float, cell: CellDesign, tech: TechnologyProfile) -> float:
    """Drop dv0 of the storage-cap voltage below v_dd in volts, drop(v_a, c_star).

    Within the validity region (c_star above init_validity_min_cstar),
    0 <= dv0 < v_dd. The charge-sharing term is clamped at zero below
    threshold instead of erroring; the model stays total and the
    multiplier layer enforces the practical input floor.
    """
    if not 0 <= v_a <= tech.v_dd:
        raise RegimeError(f"v_a={v_a} outside [0, v_dd={tech.v_dd}]")
    return float(drop(v_a, cell.c_star, cell, tech))


def init_validity_min_cstar(cell: CellDesign, tech: TechnologyProfile) -> float:
    """Smallest storage capacitance for which the initialization model holds.

    Derived from requiring the cap to retain enough charge at v_a = v_dd:
    (c_s_eff * (v_dd - v_thn) + dq_of) / v_thn. Callers compare c_star
    against the returned bound.
    """
    return (cell.c_s_eff * (tech.v_dd - tech.v_thn) + cell.dq_of_md) / tech.v_thn


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


def latch_delay(dv0: float, cell: CellDesign, tech: TechnologyProfile) -> float:
    """Exact latch firing time t_d, in seconds, for an initial drop dv0.

    t_d = (v_t/R) * ln(margin + 1) = detector_delay(dv0, R), where margin is
    td_linearity_margin(dv0). In the steep-detector limit (margin >> 1) this
    is affine in dv0 with slope -1/R, and dv0 + R * t_d approaches latch_point.
    """
    if dv0 >= tech.v_thp:
        raise RegimeError(
            f"dv0={dv0} >= v_thp={tech.v_thp}: detector leaves the exponential regime"
        )
    latch_point(cell, tech)  # raises RegimeError where the latch point is ill-defined
    td_linearity_margin(cell, tech, dv0_max=dv0)  # raises RegimeError outside its range
    return float(detector_delay(dv0, cell.ramp_rate, cell, tech))


def td_linearity_margin(cell: CellDesign, tech: TechnologyProfile, dv0_max: float) -> float:
    """Dimensionless detector-linearity ratio; the delay is affine when >> 1.

    ratio = detector_margin(dv0_max, R). Raises RegimeError where
    exp(dv0_max/v_t) would overflow, comparing the exponent so that exp is
    never called out of range.
    """
    if not 0 <= dv0_max < tech.v_dd:
        raise RegimeError(f"dv0_max={dv0_max} outside [0, v_dd)")
    exponent = dv0_max / tech.v_t
    if exponent > math.log(sys.float_info.max):
        raise RegimeError(f"dv0_max/v_t = {exponent:.4g} overflows the detector's exponential law")
    return float(detector_margin(dv0_max, cell.ramp_rate, cell, tech))
