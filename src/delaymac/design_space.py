"""Feasibility sweeps over (c_star, i_star_fastest, n_bits) and the unit
calibration of the fitted jitter constants.

Three constraints bound a workable design:

1. c_star above the initialization-validity floor (vertical line).
2. detector-linearity margin of the slowest cell (current 2**-n times the
   fastest) above 1.
3. three-sigma jitter of the slowest cell at most JITTER_MARGIN_FRACTION of
   the fastest cell's maximum referential delay, optionally tightened by an
   excess margin epsilon: 3 * sqrt(s1 * a_n + s2 * b_n) <= rhs0 / epsilon,
   with scale-free terms a_n, b_n and the unit scale (s1, s2).

The slowest cell here runs at 2**-n times the fastest current, one halving
below the slowest cell of an n-bit multiplier, whose bit-count convention
params.MultiplierSpec states: so the design space is conservative by one
halving.

_ConstraintTables holds them over one grid as boundaries, never as
full-grid evaluations, and says why each boundary is exact. Its per-column
critical margins answer every max_bits, feasibility and optimum question at
a unit scale, so calibration builds no region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .cell import detector_margin, drop, init_validity_min_cstar
# the target contract and the grid and margin checks need no numpy, so the
# CLI runs them before it loads this module; tests and perfbench read
# DEFAULT_CALIBRATION_TARGETS, _TARGET_FIELDS and MAX_GRID_POINTS from here
from .config import DEFAULT_CALIBRATION_TARGETS, TARGET_FIELDS as _TARGET_FIELDS, parse_targets  # noqa: F401
from .errors import CalibrationError, FieldValidationError, InfeasibleRegionError, RegimeError
from .params import (  # noqa: F401
    DEFAULT_C_SPAN, DEFAULT_GRID_POINTS, DEFAULT_I_SPAN, MAX_BITS_CAP, MAX_GRID_POINTS, MIN_GRID_POINTS,
    CellDesign, JitterFit, TechnologyProfile, require_bit_count, require_epsilon, require_grid_points,
)

#: Fraction of the fastest cell's maximum referential delay granted to jitter.
JITTER_MARGIN_FRACTION = 0.4

#: Excess margins from here up count as never reaching a bit count.
_EPSILON_REACH_LIMIT = 2.0**29


def default_grids(
    points: int = DEFAULT_GRID_POINTS,
    c_span: Tuple[float, float] = DEFAULT_C_SPAN,
    i_span: Tuple[float, float] = DEFAULT_I_SPAN,
) -> Tuple[np.ndarray, np.ndarray]:
    """Logarithmic (c_star, i_star_fastest) grids covering the design span,
    with MIN_GRID_POINTS to MAX_GRID_POINTS points, checked before any
    allocation."""
    require_grid_points(points)
    return (
        np.geomspace(c_span[0], c_span[1], points),
        np.geomspace(i_span[0], i_span[1], points),
    )


def _validate_grid(grid: np.ndarray, name: str) -> np.ndarray:
    # contiguous, so the ufuncs over it and over gathered points take the
    # same SIMD loops
    grid = np.ascontiguousarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < MIN_GRID_POINTS:
        raise FieldValidationError(name, f"needs at least {MIN_GRID_POINTS} points")
    if not np.all(np.diff(grid) > 0):
        raise FieldValidationError(name, "must be strictly increasing")
    return grid


@dataclass(frozen=True)
class DesignRegion:
    """Constraint masks over a (c_star, i_star_fastest) grid for one bit count.

    mask arrays are indexed [c_index, i_index]; feasible is their pointwise
    conjunction.
    """

    grid_cstar: np.ndarray
    grid_istar: np.ndarray
    mask_c1: np.ndarray
    mask_c2: np.ndarray
    mask_c3: np.ndarray
    feasible: np.ndarray
    n_bits: int
    epsilon: float = 1.0

    @property
    def is_empty(self) -> bool:
        return not bool(self.feasible.any())

    def csv_rows(self) -> List[Tuple[float, float, int, int, int, int]]:
        """One (c_star, i_star, c1, c2, c3, feasible) row per grid point, c_star-major."""
        n_c, n_i = self.feasible.shape
        masks = (self.mask_c1, self.mask_c2, self.mask_c3, self.feasible)
        columns = [
            np.repeat(np.asarray(self.grid_cstar, dtype=float), n_i),
            np.tile(np.asarray(self.grid_istar, dtype=float), n_c),
        ] + [np.asarray(m, dtype=int).ravel() for m in masks]
        return list(zip(*(col.tolist() for col in columns)))

    def summary(self) -> dict:
        out = {
            "n_bits": self.n_bits,
            "epsilon": self.epsilon,
            "grid": {
                "c_star": [float(self.grid_cstar[0]), float(self.grid_cstar[-1]), int(self.grid_cstar.size)],
                "i_star": [float(self.grid_istar[0]), float(self.grid_istar[-1]), int(self.grid_istar.size)],
            },
            "feasible_points": int(self.feasible.sum()),
            "feasible": not self.is_empty,
        }
        if not self.is_empty:
            ci = np.flatnonzero(self.feasible.any(axis=1))
            ii = np.flatnonzero(self.feasible.any(axis=0))
            c_opt, i_opt = optimal_point(self)
            out["bounds"] = {
                "c_star": [float(self.grid_cstar[ci[0]]), float(self.grid_cstar[ci[-1]])],
                "i_star": [float(self.grid_istar[ii[0]]), float(self.grid_istar[ii[-1]])],
            }
            out["optimum"] = {"c_star": c_opt, "i_star": i_opt}
        else:
            out["bounds"] = None
            out["optimum"] = None
        return out


def _first_true(pred, size: int, lanes: int) -> np.ndarray:
    """Per lane, the first index in [0, size) where pred holds, size where it
    never does, for a predicate that is false then true along the index.

    pred takes one index per lane (an intp vector) and returns one bool per
    lane; it is called at most ceil(log2(size + 1)) times, on all lanes at once.
    """
    lo = np.zeros(lanes, dtype=np.intp)
    hi = np.full(lanes, size, dtype=np.intp)
    while True:
        open_ = lo < hi
        if not open_.any():
            return lo
        mid = (lo + hi) // 2
        ok = pred(np.minimum(mid, size - 1))
        hi = np.where(open_ & ok, mid, hi)
        lo = np.where(open_ & ~ok, mid + 1, lo)


class _ConstraintTables:
    """The constraints over one grid, as boundaries, and the per-column
    critical margins at any unit scale.

    Each constraint is monotone along one grid axis, so it is stored as a
    boundary; no (rows, columns) array is kept, and only region() builds
    masks, for its caller:

    - c1 is a suffix in C, the rows from c1_start on: c_grid is strictly
      increasing, so c_grid > floor holds exactly from searchsorted on.
    - c2 at n is a per-row threshold in i, the columns from the row's start.
      It holds where cell.detector_margin(dv0, i * 2**-n / C) > 1, with the
      row's drop dv0 = cell.drop(v_dd, C), where it is worst. The ramp
      i * 2**-n / C (2**-n is exact) enters the margin only through a
      product and a quotient with positive per-row constants, each a
      correctly rounded op, so every row is non-decreasing in i.
    - c3 at (n, epsilon) is a per-column prefix in C, the rows before the
      column's end. It holds iff epsilon is at most the critical margin
      rhs0 / (3 * sqrt(s1 * a_n + s2 * b_n)). The jitter terms a_n and b_n
      are JitterFit.var_sd and var_td at unit scale (1, 1) and current
      i_slow = i_star_fastest * 2**-n; they are non-decreasing in C at a
      fixed current, so the critical margin is non-increasing down each
      column.

    A bisection vectorized over all rows or columns at once finds each
    boundary. It evaluates the cell and fit formulas at gathered points, and
    a scalar call of cell.initial_drop and cell.td_linearity_margin runs the
    same numpy ufuncs on the same operands: so each boundary sits exactly
    where the mask evaluated over the whole grid, or point by point, changes.

    The jitter terms do not depend on the unit scale, so candidate scales
    during calibration only recombine stored terms, and scaling (s1, s2) by
    m scales every critical margin by m**-0.5: calibration reads the
    magnitude window of each candidate ray off the profile at m = 1. In
    each current column the front, the smallest c1 & c2 capacitance, has
    the largest critical margin: the column table keeps only the front per
    column and bit count, read off the running minimum of the per-row c2
    starts, and every calibration target reads it. A column has a feasible
    point iff its front is feasible, and the front is then its smallest
    feasible C, so optimum() is exactly optimal_point of the full region.
    The table's row max eps_crit(n), 0 where n has no c1 & c2 point, says n
    is feasible at epsilon iff eps_crit(n) >= epsilon. Both terms grow with
    n and the c1 & c2 sets nest, so eps_crit is non-increasing in n, and
    max_bits(epsilon), the count of entries >= epsilon, drops to b at
    eps_crit(b + 1).
    """

    def __init__(
        self,
        c_grid: np.ndarray,
        i_grid: np.ndarray,
        cell: CellDesign,
        tech: TechnologyProfile,
        fit: JitterFit,
    ):
        self.c_grid = _validate_grid(c_grid, "grid_cstar")
        self.i_grid = _validate_grid(i_grid, "grid_istar")
        self.cell, self.tech = cell, tech
        self.fit = fit.with_unit_scale((1.0, 1.0))  # the scale-free terms
        self.c1_start = int(np.searchsorted(self.c_grid, init_validity_min_cstar(cell, tech), "right"))
        # Overflow has a defined meaning here: an infinite drop makes the
        # detector margin 0 or NaN, so constraint 2 fails on the row, and an
        # infinite jitter allowance rhs0 holds for any finite variance
        with np.errstate(over="ignore"):
            self.dv0_vdd = drop(tech.v_dd, self.c_grid, cell, tech)
            self.rhs0 = JITTER_MARGIN_FRACTION * cell.c_s_eff / self.i_grid
        # the front's terms (a, b) and c_grid rows, and the last unit scale
        # asked with its column margins and their row max
        self._front: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        self._margins: Tuple[Optional[tuple], np.ndarray, np.ndarray] = (None, np.empty(0), np.empty(0))

    def c2_starts(self, ns: Sequence[int]) -> np.ndarray:
        """(len(ns), rows) first i_grid column of each row meeting constraint 2
        at each bit count, i_grid.size where none does."""
        rows = self.c_grid.size
        lane_rows = np.tile(np.arange(rows), len(ns))
        c, dv0 = self.c_grid[lane_rows], self.dv0_vdd[lane_rows]
        halving = np.repeat([2.0**-n for n in ns], rows)

        def meets(j):
            # an infinite margin meets c2; a NaN one, inf over an infinite exp, fails it
            with np.errstate(over="ignore", invalid="ignore"):
                return detector_margin(dv0, self.i_grid[j] * halving / c, self.cell, self.tech) > 1.0

        return _first_true(meets, self.i_grid.size, lane_rows.size).reshape(len(ns), rows)

    def c3_ends(self, n: int, epsilon: float, unit_scale: Tuple[float, float]) -> np.ndarray:
        """First c_grid row of each column failing constraint 3, c_grid.size
        where every row meets it."""

        def fails(r):
            crit = self.critical_epsilon(*self.jitter_terms(n, self.c_grid[r], self.i_grid), unit_scale)
            return ~(epsilon <= crit)

        return _first_true(fails, self.c_grid.size, self.i_grid.size)

    def jitter_terms(self, n: int, c: np.ndarray, i: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Scale-free variance terms (a_n, b_n) of the slowest cell at (c, i).

        A term beyond the float range is inf, which critical_epsilon reads
        as margin 0, so numpy's overflow and divide warnings are silenced.
        """
        i_slow = i * 2.0**-n
        with np.errstate(divide="ignore", over="ignore"):
            return self.fit.var_sd(c, i_slow), self.fit.var_td(c, i_slow)

    def critical_epsilon(self, a: np.ndarray, b: np.ndarray, unit_scale: Tuple[float, float]) -> np.ndarray:
        """Largest epsilon meeting the jitter bound at each point with terms (a, b).

        The region masks and the column table both compare against these
        values, so they agree to the last bit.
        """
        s1, s2 = unit_scale
        # an inf variance is margin 0, a zero one inf; the masks fail the NaN of
        # inf / inf or 0 / 0, so it is margin 0 too, never reaching a row max
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return np.fmax(self.rhs0 / (3.0 * np.sqrt(s1 * a + s2 * b)), 0.0)

    def region(self, n: int, epsilon: float, unit_scale: Tuple[float, float]) -> DesignRegion:
        rows, cols = np.arange(self.c_grid.size)[:, None], np.arange(self.i_grid.size)
        c1 = np.zeros((rows.size, cols.size), dtype=bool)
        c1[self.c1_start:] = True
        c2 = cols >= self.c2_starts([n])[0][:, None]
        c3 = rows < self.c3_ends(n, epsilon, unit_scale)
        return DesignRegion(
            grid_cstar=self.c_grid.copy(),
            grid_istar=self.i_grid.copy(),
            mask_c1=c1,
            mask_c2=c2,
            mask_c3=c3,
            feasible=c1 & c2 & c3,
            n_bits=n,
            epsilon=epsilon,
        )

    def column_margins(self, unit_scale: Tuple[float, float]) -> Tuple[np.ndarray, np.ndarray]:
        """The critical margin of each column's front, a (MAX_BITS_CAP, columns)
        table that is 0 where a column has no c1 & c2 point at n, and its row
        max eps_crit(n). Both are cached, read-only, for the last unit scale."""
        if self._front is None:
            # a column without a c1 & c2 point keeps infinite terms: margin 0
            a = np.full((MAX_BITS_CAP, self.i_grid.size), np.inf)
            b = a.copy()
            rows = np.zeros(a.shape, dtype=np.intp)
            # the smallest c2 start over the c1 rows up to each row, which is
            # non-increasing: a column's front is the first row where it is
            # at most the column
            reach = np.minimum.accumulate(self.c2_starts(range(1, MAX_BITS_CAP + 1))[:, self.c1_start:], axis=1)
            neg_cols = -np.arange(self.i_grid.size)
            for n in range(1, MAX_BITS_CAP + 1):
                front = np.searchsorted(-reach[n - 1], neg_cols, "left")
                cols = np.flatnonzero(front < reach.shape[1])
                if cols.size == 0:
                    break  # the c1 & c2 sets nest, so every larger n is empty too
                rows[n - 1, cols] = self.c1_start + front[cols]
                a[n - 1, cols], b[n - 1, cols] = self.jitter_terms(
                    n, self.c_grid[rows[n - 1, cols]], self.i_grid[cols]
                )
            self._front = a, b, rows
        key = tuple(unit_scale)
        if self._margins[0] != key:
            margins = self.critical_epsilon(self._front[0], self._front[1], key)
            crit = margins.max(axis=1)
            margins.flags.writeable = crit.flags.writeable = False
            self._margins = key, margins, crit
        return self._margins[1:]

    def profile(self, unit_scale: Tuple[float, float]) -> np.ndarray:
        """eps_crit(n) for n = 1..MAX_BITS_CAP, 0 where n has no c1 & c2 point."""
        return self.column_margins(unit_scale)[1]

    def optimum(self, n: int, epsilon: float, unit_scale: Tuple[float, float]) -> Optional[Tuple[float, float]]:
        """optimal_point(self.region(n, epsilon, unit_scale)), or None when that
        region is empty: the last column whose front reaches epsilon, at its
        front row."""
        cols = np.flatnonzero(self.column_margins(unit_scale)[0][n - 1] >= epsilon)
        if cols.size == 0:
            return None
        col = cols[-1]
        return float(self.c_grid[self._front[2][n - 1, col]]), float(self.i_grid[col])

    def feasible_any(self, n: int, epsilon: float, unit_scale: Tuple[float, float]) -> bool:
        return bool(self.profile(unit_scale)[n - 1] >= epsilon)

    def max_bits(self, epsilon: float, unit_scale: Tuple[float, float]) -> int:
        return int(np.count_nonzero(self.profile(unit_scale) >= epsilon))

    def epsilon_reaching_bits(self, bits: int, unit_scale: Tuple[float, float]) -> float:
        """Smallest epsilon at which max_bits drops to <= bits (inf if never)."""
        crit = float(self.profile(unit_scale)[bits])
        return math.inf if crit >= _EPSILON_REACH_LIMIT else max(1.0, crit)


def constraint_region(n: int, c_grid: np.ndarray, i_grid: np.ndarray, cell: CellDesign, tech: TechnologyProfile,
                      fit: JitterFit, epsilon: float = 1.0) -> DesignRegion:
    """Evaluate all three constraints for an n-bit multiplier over the grid."""
    require_bit_count(n, "n")
    require_epsilon(epsilon)
    return _ConstraintTables(c_grid, i_grid, cell, tech, fit).region(n, epsilon, fit.unit_scale)


def optimal_point(region: DesignRegion) -> Tuple[float, float]:
    """Design point minimizing latency then area: max i_star, then min c_star."""
    if region.is_empty:
        raise InfeasibleRegionError(f"no feasible point for n_bits={region.n_bits}")
    cols = region.feasible.any(axis=0)
    best_ii = int(np.nonzero(cols)[0].max())
    best_ci = int(np.nonzero(region.feasible[:, best_ii])[0].min())
    return float(region.grid_cstar[best_ci]), float(region.grid_istar[best_ii])


def max_bits_curve(epsilons: Sequence[float], c_grid: np.ndarray, i_grid: np.ndarray, cell: CellDesign,
                   tech: TechnologyProfile, fit: JitterFit) -> List[int]:
    """max_bits at each excess margin, read off one eps_crit profile."""
    for epsilon in epsilons:
        require_epsilon(epsilon)
    crit = _ConstraintTables(c_grid, i_grid, cell, tech, fit).profile(fit.unit_scale)
    return [int(np.count_nonzero(crit >= epsilon)) for epsilon in epsilons]


def max_bits(epsilon: float, c_grid: np.ndarray, i_grid: np.ndarray, cell: CellDesign, tech: TechnologyProfile,
             fit: JitterFit) -> int:
    """Largest bit count with a non-empty feasible region at excess margin epsilon.

    Feasible sets nest as n grows, so this is the number of bit counts with
    eps_crit(n) >= epsilon; returns 0 when even n=1 is infeasible.
    """
    return max_bits_curve((epsilon,), c_grid, i_grid, cell, tech, fit)[0]


# --- unit calibration ---------------------------------------------------

#: Residual contribution of a missed hard target.
_MISS_PENALTY = 1e3

#: Relative distance by which each calibration window edge is pulled in.
_EDGE_CLEARANCE = 1e-12


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of the unit-scale search.

    tied_scales counts the distinct candidate scales that meet every target
    at the best residual; more than one means the targets do not pin the
    unit scale. It stays out of to_dict.
    """

    unit_scale: Tuple[float, float]
    residual: float
    targets_met: Tuple[bool, ...]
    convention: str
    tied_scales: int = 1

    def to_dict(self) -> dict:
        return {
            "unit_scale": list(self.unit_scale),
            "residual": self.residual,
            "targets_met": list(self.targets_met),
            "convention": self.convention,
        }


def _log_step(grid: np.ndarray) -> float:
    return math.log(grid[1] / grid[0])


def _evaluate_targets(
    tables: _ConstraintTables,
    targets: Sequence[dict],
    scale: Tuple[float, float],
) -> Tuple[List[bool], float]:
    """Check every target at one scale.

    A missed target costs _MISS_PENALTY on top of its distance, so every
    candidate meeting all targets ranks ahead of any that misses one.
    """
    met: List[bool] = []
    residual = 0.0
    for t in targets:
        kind, eps, cost = t["kind"], t["epsilon"], 0.0
        if kind == "max_bits":
            got = tables.max_bits(eps, scale)
            ok, cost = got == t["bits"], abs(got - t["bits"])
        elif kind in ("feasible", "infeasible"):
            ok = tables.feasible_any(t["n"], eps, scale) == (kind == "feasible")
        elif kind == "optimum":
            point = tables.optimum(t["n"], eps, scale)
            ok = point is not None
            if ok:
                c_opt, i_opt = point
                steps_c = abs(math.log(c_opt / t["c_star"])) / _log_step(tables.c_grid)
                steps_i = abs(math.log(i_opt / t["i_star"])) / _log_step(tables.i_grid)
                allowed = t["grid_steps"] + 1e-9
                ok, cost = steps_c <= allowed and steps_i <= allowed, 0.01 * (steps_c + steps_i)
        else:  # bits_reach; parse_targets admits no other kind
            reached = tables.epsilon_reaching_bits(t["bits"], scale)
            tol = t["rel_tol"]
            ok = math.isfinite(reached) and (1 - tol) * eps <= reached <= (1 + tol) * eps
            cost = abs(math.log(reached / eps)) if math.isfinite(reached) else _MISS_PENALTY
        residual += cost if ok else cost + _MISS_PENALTY
        met.append(bool(ok))
    return met, residual


def _anchor_interval(tables, targets, scale_of) -> Optional[Tuple[float, float]]:
    """Magnitude interval on which the primary max_bits target holds.

    Every scale_of is linear in m, so eps_crit at scale_of(m) is the profile
    at m = 1 times m**-0.5, and max_bits(eps) == bits exactly for m in
    ((eps_crit(bits + 1) / eps)**2, (eps_crit(bits) / eps)**2]. Each edge is
    pulled in by _EDGE_CLEARANCE, far above the ulps by which scale_of and the
    profile round: the interval only places samples, and every candidate is
    checked against every target. None when the window is empty or unbounded.
    """
    anchor = next((t for t in targets if t["kind"] == "max_bits"), None)
    if anchor is None:
        return (1.0, 1.0)
    eps, bits = anchor["epsilon"], anchor["bits"]
    crit = tables.profile(scale_of(1.0))
    if bits == 0 or crit[bits] == 0.0:
        return None
    lo = float((crit[bits] / eps) ** 2) * (1.0 + _EDGE_CLEARANCE)
    hi = float((crit[bits - 1] / eps) ** 2) * (1.0 - _EDGE_CLEARANCE)
    return (lo, hi) if lo <= hi else None


def calibrate_units(
    targets: Sequence[dict],
    fit: JitterFit,
    tech: TechnologyProfile,
    cell_template: CellDesign,
    c_grid: Optional[np.ndarray] = None,
    i_grid: Optional[np.ndarray] = None,
) -> CalibrationResult:
    """Resolve the unit scale pair (s1, s2) of the fitted jitter constants.

    One search over per-term scale pairs, which the unit_scale field is
    defined to carry: 29 ratios of the two jitter terms at a reference
    design point (the optimum target's, or the nominal cell), each ray
    sampled at up to 17 distinct magnitudes across the window where the
    max_bits target holds (read in closed form, its edges pulled in by
    _EDGE_CLEARANCE), then 8 ratios around the ratio of the winning ray,
    the one whose candidate meets every target at the lowest residual.
    Every target of every candidate scale, the optimum included, reads the
    one per-scale column table of _ConstraintTables (front margins and
    their row max), computed once per candidate; no candidate builds a grid.

    The lowest residual wins, the first found on a tie; tied_scales counts
    the distinct scales tied with it, and more than one means the targets
    leave the unit scale free.

    Raises FieldValidationError for a malformed target, RegimeError when the
    jitter terms at the reference point leave the float range (no finite
    unit scale can then match them) and CalibrationError when no candidate
    meets every target.
    """
    targets = parse_targets(targets)
    if c_grid is None or i_grid is None:
        dc, di = default_grids()
        c_grid = dc if c_grid is None else c_grid
        i_grid = di if i_grid is None else i_grid
    if not targets:
        return CalibrationResult(unit_scale=(1.0, 1.0), residual=0.0, targets_met=(), convention="identity")

    tables = _ConstraintTables(c_grid, i_grid, cell_template, tech, fit)
    opt_target = next((t for t in targets if t["kind"] == "optimum"), None)
    mb_target = next((t for t in targets if t["kind"] == "max_bits"), None)
    c_ref = opt_target["c_star"] if opt_target else cell_template.c_star
    i_ref = opt_target["i_star"] if opt_target else cell_template.i_star
    n_ref = opt_target["n"] if opt_target else (mb_target["bits"] if mb_target else 5)
    try:
        a_ref, b_ref = tables.jitter_terms(n_ref, c_ref, i_ref)
        budget = (JITTER_MARGIN_FRACTION * cell_template.c_s_eff / i_ref) ** 2 / 9.0
    except (OverflowError, ZeroDivisionError):  # a float power left the float range
        a_ref = b_ref = budget = math.inf
    # a zero budget (c_s_eff = 0) is a margin no scale meets, which the search reports
    if not (0.0 < a_ref < math.inf and 0.0 < b_ref < math.inf and budget < math.inf):
        raise RegimeError(
            f"the jitter terms or budget at the reference point (n={n_ref}, c_star={c_ref:.4g} F, "
            f"i_star={i_ref:.4g} A, c_s_eff={cell_template.c_s_eff:.4g} F) leave the float range, "
            "so no finite unit scale meets the targets"
        )

    # (residual, scale, targets met, the ray's sd/td ratio x)
    candidates: List[Tuple[float, Tuple[float, float], Tuple[bool, ...], float]] = []

    label = "per-term pair, sd/td ratio {:.4g}".format

    def usable(scale: Tuple[float, float]) -> bool:
        """A scale JitterFit accepts: an entry that under- or overflowed is not."""
        return all(0.0 < s < math.inf for s in scale)

    def scan(x: float) -> None:
        """Evaluate the ray with sd/td ratio x at the reference point."""

        def scale_of(m: float) -> Tuple[float, float]:
            var_td = m * budget / (1.0 + x)
            return x * var_td / a_ref, var_td / b_ref

        if not usable(scale_of(1.0)):
            return
        interval = _anchor_interval(tables, targets, scale_of)
        if interval is None:
            return
        # equal magnitudes give equal candidates, so each is evaluated once
        for m in dict.fromkeys(np.geomspace(interval[0], interval[1], 17).tolist()):
            scale = scale_of(m)
            if not usable(scale):
                continue
            met, residual = _evaluate_targets(tables, targets, scale)
            candidates.append((residual, scale, tuple(met), x))

    for x in np.geomspace(1e-5, 1e2, 29):
        scan(float(x))
    met_any = [c for c in candidates if all(c[2])]
    if not met_any:
        detail = ""
        if candidates:
            best = min(candidates, key=lambda c: c[0])
            missed = [i for i, ok in enumerate(best[2]) if not ok]
            detail = f"; best candidate ({label(best[3])}) missed target indices {missed}"
        raise CalibrationError(f"no unit scale satisfies all calibration targets{detail}")
    # refine around the winning ray's own ratio, already scanned: factor
    # geomspace(0.5, 2.0, 9)[4] is exactly 1
    for x in min(met_any, key=lambda c: c[0])[3] * np.delete(np.geomspace(0.5, 2.0, 9), 4):
        scan(float(x))
    met_any = [c for c in candidates if all(c[2])]
    residual, scale, met, x = min(met_any, key=lambda c: c[0])
    tied = len({c[1] for c in met_any if c[0] == residual})
    return CalibrationResult(
        unit_scale=scale, residual=residual, targets_met=met, convention=label(x), tied_scales=tied
    )
