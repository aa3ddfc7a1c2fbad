"""Fitted jitter models of the two noise-dominant sub-processes and the one
seeded jitter stream.

total_jitter is the one per-cell budget: feasibility constraint 3, the
Monte-Carlo acceptance criterion and the noisy engine all read a cell's
variance from it, with no separate reference-path term.

A fit always carries its calibrated unit scale (JitterFit.unit_scale), and
a noisy chain draws jitter iff it is given a fit. The two variance laws
live on the fit (JitterFit.var_sd and var_td); this module checks their
value per cell.

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

import numpy as np

from .errors import RegimeError
from .params import CellDesign, JitterFit


@dataclass(frozen=True)
class JitterBudget:
    """Per-cell timing variance split by source, in seconds^2."""

    var_sd: float
    var_td: float

    @property
    def sigma_total(self) -> float:
        return float(np.sqrt(self.var_sd + self.var_td))


def _checked(var_of, cell: CellDesign, law: str) -> float:
    """var_of(c_star, i_star); RegimeError naming the law when it leaves the float range."""
    try:
        var = var_of(cell.c_star, cell.i_star)
    except (OverflowError, ZeroDivisionError):  # a float power left the float range
        var = math.inf
    if not math.isfinite(var):
        raise RegimeError(f"the {law} leaves the float range")
    return var


def sd_jitter_fitted(cell: CellDesign, fit: JitterFit) -> float:
    """The cell's fitted steady-discharge variance JitterFit.var_sd, seconds^2, checked."""
    return _checked(fit.var_sd, cell, "steady-discharge variance s1 * k1 * c_star / i_star**p1 "
                    f"at i_star={cell.i_star:.4g} A, p1={fit.p1:.4g}")


def td_jitter_fitted(cell: CellDesign, fit: JitterFit) -> float:
    """The cell's fitted threshold-detector variance JitterFit.var_td, seconds^2,
    checked; it depends on the design only through the ramp rate i_star/c_star."""
    return _checked(fit.var_td, cell, "threshold-detector variance s2 * k2 * (c_star/i_star)**q2 "
                    f"at c_star={cell.c_star:.4g} F, i_star={cell.i_star:.4g} A, q2={fit.q2:.4g}")


def total_jitter(cell: CellDesign, fit: JitterFit) -> JitterBudget:
    """Combined budget of one cell; the two sources are independent.

    The single-cell budget of feasibility constraint 3, the Monte-Carlo
    acceptance criterion and each traversed cell of a noisy chain.
    """
    return JitterBudget(var_sd=sd_jitter_fitted(cell, fit), var_td=td_jitter_fitted(cell, fit))


def _draw_jitter(seed: int, cell_weights: np.ndarray, trials: int) -> tuple:
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
    yields the same sequence on every platform.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    sigma = total_jitter(cell, fit).sigma_total
    return _draw_jitter(seed, np.array([sigma]), count)[1]
