"""Fitted jitter models of the two noise-dominant sub-processes and the one
seeded jitter stream.

total_jitter is the one per-cell budget: feasibility constraint 3, the
Monte-Carlo acceptance criterion and the noisy engine all read a cell's
variance from it, with no separate reference-path term.

The fitted constants require a calibrated unit scale (JitterFit.unit_scale);
evaluating them uncalibrated raises.

Every jitter sample is drawn by _draw_jitter from one Generator(PCG64(seed))
per evaluation: first one normal per weighted cell for trial 0, then one
normal per later trial, scaled by the root sum of squares of the weights.
multiplier.simulate_chain draws a MAC chain through it, and
sample_cell_jitter is its one-cell case, so the same seed gives the same
numbers on both paths and on every platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import RegimeError, UncalibratedFitError
from .params import CellDesign, JitterFit


@dataclass(frozen=True)
class JitterBudget:
    """Per-cell timing variance split by source, in seconds^2."""

    var_sd: float
    var_td: float

    @property
    def sigma_total(self) -> float:
        return float(np.sqrt(self.var_sd + self.var_td))


def require_calibrated(fit: JitterFit) -> tuple:
    """Return the unit scale pair, raising if the fit is uncalibrated."""
    if not fit.calibrated:
        raise UncalibratedFitError(
            "JitterFit.unit_scale is unresolved; run design_space.calibrate_units "
            "(or load a config with a unit_scale) before evaluating fitted models"
        )
    return fit.unit_scale


def sd_jitter_fitted(cell: CellDesign, fit: JitterFit) -> float:
    """Fitted steady-discharge variance s1 * k1 * c_star / i_star**p1, seconds^2.

    Raises RegimeError when the variance leaves the float range.
    """
    s1, _ = require_calibrated(fit)
    try:
        var = s1 * fit.k1 * cell.c_star / cell.i_star**fit.p1
    except (OverflowError, ZeroDivisionError):  # i_star**p1 left the float range
        var = math.inf
    if not math.isfinite(var):
        raise RegimeError(
            f"the steady-discharge variance s1 * k1 * c_star / i_star**p1 at i_star={cell.i_star:.4g} A, "
            f"p1={fit.p1:.4g} leaves the float range"
        )
    return var


def td_jitter_fitted(cell: CellDesign, fit: JitterFit) -> float:
    """Fitted threshold-detector variance s2 * k2 * (c_star/i_star)**q2, seconds^2.

    Depends on the design only through the ramp rate R = i_star/c_star.
    Raises RegimeError when the variance leaves the float range.
    """
    _, s2 = require_calibrated(fit)
    try:
        var = s2 * fit.k2 * (cell.c_star / cell.i_star) ** fit.q2
    except OverflowError:  # (c_star/i_star)**q2 left the float range; q2 > 0, so 0.0**q2 is 0
        var = math.inf
    if not math.isfinite(var):
        raise RegimeError(
            f"the threshold-detector variance s2 * k2 * (c_star/i_star)**q2 at c_star={cell.c_star:.4g} F, "
            f"i_star={cell.i_star:.4g} A, q2={fit.q2:.4g} leaves the float range"
        )
    return var


def total_jitter(cell: CellDesign, fit: JitterFit) -> JitterBudget:
    """Combined budget of one cell; the two sources are independent.

    The single-cell budget of feasibility constraint 3, the Monte-Carlo
    acceptance criterion and each traversed cell of a noisy chain.
    """
    return JitterBudget(var_sd=sd_jitter_fitted(cell, fit), var_td=td_jitter_fitted(cell, fit))


def _draw_jitter(seed: Union[int, np.random.SeedSequence], cell_weights: np.ndarray, trials: int) -> tuple:
    """The one jitter stream: trial 0's per-cell normals and every trial's total.

    Trial 0 takes one normal z per cell and totals sum(w * z); each later
    trial takes one normal of the same stream, scaled in place by
    sqrt(sum of w**2). That is exact: independent Gaussian cells sum to
    N(0, sum of w**2).
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    first = rng.standard_normal(cell_weights.size)
    totals = np.empty(trials)
    totals[0] = (first * cell_weights).sum()
    rng.standard_normal(out=totals[1:])
    totals[1:] *= np.sqrt((cell_weights * cell_weights).sum())
    return first, totals


def sample_cell_jitter(seed: int, cell: CellDesign, fit: JitterFit, count: int) -> np.ndarray:
    """Zero-mean Gaussian jitter samples with the fitted per-cell variance.

    The one-cell case of the jitter stream, weight sigma: the numbers a
    one-stage chain with one set bit draws at the same seed. The same seed
    yields the same sequence on every platform. Callers running parallel
    streams should split seeds (e.g. numpy SeedSequence.spawn) rather than
    share one.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    sigma = total_jitter(cell, fit).sigma_total
    return _draw_jitter(seed, np.array([sigma]), count)[1]
