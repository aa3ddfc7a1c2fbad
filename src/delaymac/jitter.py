"""Fitted jitter models of the two noise-dominant sub-processes and the one
seeded jitter stream.

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

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import UncalibratedFitError
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
    """Fitted steady-discharge variance s1 * k1 * c_star / i_star**p1, seconds^2."""
    s1, _ = require_calibrated(fit)
    return s1 * fit.k1 * cell.c_star / cell.i_star**fit.p1


def td_jitter_fitted(cell: CellDesign, fit: JitterFit) -> float:
    """Fitted threshold-detector variance s2 * k2 * (c_star/i_star)**q2, seconds^2.

    Depends on the design only through the ramp rate R = i_star/c_star.
    """
    _, s2 = require_calibrated(fit)
    return s2 * fit.k2 * (cell.c_star / cell.i_star) ** fit.q2


def total_jitter(cell: CellDesign, fit: JitterFit, pair_factor: int = 1) -> JitterBudget:
    """Combined per-cell budget; the two sources are independent.

    pair_factor=2 doubles both variances to account for an equally noisy
    reference-path cell; the default 1 matches the single-cell budget used
    by the feasibility constraint.
    """
    if pair_factor not in (1, 2):
        raise ValueError("pair_factor must be 1 or 2")
    return JitterBudget(
        var_sd=pair_factor * sd_jitter_fitted(cell, fit),
        var_td=pair_factor * td_jitter_fitted(cell, fit),
    )


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
