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

_ConstraintTables holds them over one grid as boundaries, never as
full-grid evaluations, and says why each boundary is exact. Its per-column
critical margins answer every max_bits, feasibility and optimum question at
a unit scale, so calibration builds no region.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .cell import init_validity_min_cstar
from .errors import CalibrationError, FieldValidationError, InfeasibleRegionError
from .jitter import require_calibrated
from .params import MAX_BITS_CAP, CellDesign, JitterFit, TechnologyProfile, is_finite_number, require_bit_count

#: Fraction of the fastest cell's maximum referential delay granted to jitter.
JITTER_MARGIN_FRACTION = 0.4

DEFAULT_C_SPAN = (0.5e-15, 50e-15)
DEFAULT_I_SPAN = (50e-9, 20e-6)
DEFAULT_GRID_POINTS = 64

MIN_GRID_POINTS = 16
#: Largest points per axis default_grids builds: a 4096**2 region CSV is
#: about 0.9 GB, and its masks take 16.8 MB each.
MAX_GRID_POINTS = 4096

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
    if not MIN_GRID_POINTS <= points <= MAX_GRID_POINTS:
        raise FieldValidationError(
            "grid_points", f"needs {MIN_GRID_POINTS} to {MAX_GRID_POINTS} points per axis (got {points})"
        )
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


def _validate_epsilon(epsilon: float) -> None:
    if not (math.isfinite(epsilon) and epsilon >= 1.0):
        raise FieldValidationError("epsilon", f"excess jitter margin must be finite and >= 1 (got {epsilon})")


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


def _gallop(pred, size: int) -> int:
    """_first_true for one lane, in about 2 * log2(k + 1) calls of pred for a
    first true index k: it probes 0, 1, 2, 4, ... and bisects the bracket."""
    lo, hi = 0, 0  # pred is false below lo, and true at hi if hi < size
    while hi < size and not pred(hi):
        lo, hi = hi + 1, min(max(1, 2 * hi), size)
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if pred(mid) else (mid + 1, hi)
    return hi


class _ConstraintTables:
    """The constraints over one grid, as boundaries, and the per-column
    critical margins at any unit scale.

    Each constraint is monotone along one grid axis, so it is stored as a
    boundary; no (rows, columns) array is kept, and only region() builds
    masks, for its caller:

    - c1 is a suffix in C, the rows from c1_start on: c_grid is strictly
      increasing, so c_grid > floor holds exactly from searchsorted on.
    - c2 at n is a per-row threshold in i, the columns from the row's start.
      margin0 = (i / C) * f(C) * v_thn / v_t is i times positive per-row
      constants, each step a correctly rounded op, so every row is
      non-decreasing in i; and 2**-n scales it exactly.
    - c3 at (n, epsilon) is a per-column prefix in C, the rows before the
      column's end. It holds iff epsilon is at most the critical margin
      rhs0 / (3 * sqrt(s1 * a_n + s2 * b_n)). The jitter terms
      a_n = k1 * C / i_slow**p1 and b_n = k2 * (C / i_slow)**q2
      (i_slow = i_star_fastest * 2**-n) are non-decreasing in C at a fixed
      current, so the critical margin is non-increasing down each column.

    A bisection vectorized over all rows or columns at once finds each
    boundary. It evaluates the constraint formulas with array ufuncs on
    contiguous gathered vectors, never on numpy scalars, whose exp and power
    can differ from the SIMD loops in the last ulp: so each boundary sits
    exactly where the mask evaluated over the whole grid changes.

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
        self.fit = fit
        self.c1_start = int(np.searchsorted(self.c_grid, init_validity_min_cstar(cell, tech), "right"))
        # detector margin at n = 0 is (i / C) * row factor * v_thn / v_t, with
        # the initialization drop for v_a = v_dd, where it is worst; halving
        # the slowest current halves it exactly
        dv0_vdd = (cell.c_s_eff * (tech.v_dd - tech.v_thn) + cell.dq_of_md) / self.c_grid
        self._margin_rows = cell.c_re / (tech.i_0 * np.exp(dv0_vdd / tech.v_t))
        self._margin_volts = tech.v_thn / tech.v_t
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
        c, f = self.c_grid[lane_rows], self._margin_rows[lane_rows]
        halving = np.repeat([2.0**-n for n in ns], rows)

        def meets(j):
            return (self.i_grid[j] / c) * f * self._margin_volts * halving > 1.0

        return _first_true(meets, self.i_grid.size, lane_rows.size).reshape(len(ns), rows)

    def c3_ends(self, n: int, epsilon: float, unit_scale: Tuple[float, float]) -> np.ndarray:
        """First c_grid row of each column failing constraint 3, c_grid.size
        where every row meets it."""

        def fails(r):
            crit = self.critical_epsilon(*self.jitter_terms(n, self.c_grid[r], self.i_grid), unit_scale)
            return ~(epsilon <= crit)

        return _first_true(fails, self.c_grid.size, self.i_grid.size)

    def jitter_terms(self, n: int, c: np.ndarray, i: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Scale-free variance terms (a_n, b_n) of the slowest cell at (c, i)."""
        i_slow = i * 2.0**-n
        return self.fit.k1 * c / i_slow**self.fit.p1, self.fit.k2 * (c / i_slow) ** self.fit.q2

    def critical_epsilon(self, a: np.ndarray, b: np.ndarray, unit_scale: Tuple[float, float]) -> np.ndarray:
        """Largest epsilon meeting the jitter bound at each point with terms (a, b).

        The region masks and the column table both compare against these
        values, so they agree to the last bit.
        """
        s1, s2 = unit_scale
        return self.rhs0 / (3.0 * np.sqrt(s1 * a + s2 * b))

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


def constraint_region(
    n: int,
    c_grid: np.ndarray,
    i_grid: np.ndarray,
    cell: CellDesign,
    tech: TechnologyProfile,
    fit: JitterFit,
    epsilon: float = 1.0,
) -> DesignRegion:
    """Evaluate all three constraints for an n-bit multiplier over the grid."""
    require_bit_count(n, "n")
    _validate_epsilon(epsilon)
    scale = require_calibrated(fit)
    tables = _ConstraintTables(c_grid, i_grid, cell, tech, fit)
    return tables.region(n, epsilon, scale)


def optimal_point(region: DesignRegion) -> Tuple[float, float]:
    """Design point minimizing latency then area: max i_star, then min c_star."""
    if region.is_empty:
        raise InfeasibleRegionError(f"no feasible point for n_bits={region.n_bits}")
    cols = region.feasible.any(axis=0)
    best_ii = int(np.nonzero(cols)[0].max())
    best_ci = int(np.nonzero(region.feasible[:, best_ii])[0].min())
    return float(region.grid_cstar[best_ci]), float(region.grid_istar[best_ii])


def max_bits_curve(
    epsilons: Sequence[float],
    c_grid: np.ndarray,
    i_grid: np.ndarray,
    cell: CellDesign,
    tech: TechnologyProfile,
    fit: JitterFit,
) -> List[int]:
    """max_bits at each excess margin, read off one eps_crit profile."""
    for epsilon in epsilons:
        _validate_epsilon(epsilon)
    scale = require_calibrated(fit)
    crit = _ConstraintTables(c_grid, i_grid, cell, tech, fit).profile(scale)
    return [int(np.count_nonzero(crit >= epsilon)) for epsilon in epsilons]


def max_bits(
    epsilon: float,
    c_grid: np.ndarray,
    i_grid: np.ndarray,
    cell: CellDesign,
    tech: TechnologyProfile,
    fit: JitterFit,
) -> int:
    """Largest bit count with a non-empty feasible region at excess margin epsilon.

    Feasible sets nest as n grows, so this is the number of bit counts with
    eps_crit(n) >= epsilon; returns 0 when even n=1 is infeasible.
    """
    return max_bits_curve((epsilon,), c_grid, i_grid, cell, tech, fit)[0]


# --- unit calibration ---------------------------------------------------

#: Headline targets the calibrated design space must reproduce.
DEFAULT_CALIBRATION_TARGETS: Tuple[dict, ...] = (
    {"kind": "max_bits", "epsilon": 1.0, "bits": 5},
    {"kind": "feasible", "n": 4, "epsilon": 1.0},
    {"kind": "infeasible", "n": 6, "epsilon": 1.0},
    {"kind": "optimum", "n": 5, "epsilon": 1.0, "c_star": 2.2e-15, "i_star": 1e-6, "grid_steps": 1},
    {"kind": "bits_reach", "bits": 1, "epsilon": 14.0, "rel_tol": 0.3},
)

#: Fields each calibration target kind requires.
_TARGET_REQUIRED: Dict[str, Tuple[str, ...]] = {
    "max_bits": ("bits",),
    "feasible": ("n",),
    "infeasible": ("n",),
    "optimum": ("n", "c_star", "i_star"),
    "bits_reach": ("bits",),
}

#: Inclusive range of target fields; any other field is a number >= 0. n and
#: bits index the eps_crit profile, so they must also be integers.
_TARGET_RANGES: Dict[str, Tuple[float, float]] = {
    "n": (1, MAX_BITS_CAP),
    "bits": (0, MAX_BITS_CAP - 1),
    "epsilon": (1.0, math.inf),
    "c_star": (sys.float_info.min, math.inf),
    "i_star": (sys.float_info.min, math.inf),
}

#: Residual contribution of a missed hard target.
_MISS_PENALTY = 1e3


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

    @property
    def all_met(self) -> bool:
        return all(self.targets_met)

    def to_dict(self) -> dict:
        return {
            "unit_scale": list(self.unit_scale),
            "residual": self.residual,
            "targets_met": list(self.targets_met),
            "convention": self.convention,
        }


def _validate_targets(targets: Sequence[dict]) -> None:
    """Reject malformed calibration targets before any search starts."""
    if not isinstance(targets, (list, tuple)):
        raise FieldValidationError("targets", "must be a list of target objects")
    for t in targets:
        kind = t.get("kind") if isinstance(t, dict) else None
        if not isinstance(kind, str) or kind not in _TARGET_REQUIRED:
            raise FieldValidationError("kind", f"unknown calibration target {t!r}")
        for key in _TARGET_REQUIRED[kind]:
            if key not in t:
                raise FieldValidationError(key, f"missing from calibration target {t!r}")
        for key, value in t.items():
            if key == "kind":
                continue
            lo, hi = _TARGET_RANGES.get(key, (0.0, math.inf))
            integral = key in ("n", "bits")
            if not (is_finite_number(value) and lo <= value <= hi) or (integral and value != int(value)):
                what = "an integer" if integral else "a number"
                raise FieldValidationError(key, f"must be {what} in [{lo:g}, {hi:g}] (calibration target {t!r})")


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
        kind, eps, cost = t["kind"], float(t.get("epsilon", 1.0)), 0.0
        if kind == "max_bits":
            got = tables.max_bits(eps, scale)
            ok, cost = got == int(t["bits"]), abs(got - int(t["bits"]))
        elif kind in ("feasible", "infeasible"):
            ok = tables.feasible_any(int(t["n"]), eps, scale) == (kind == "feasible")
        elif kind == "optimum":
            point = tables.optimum(int(t["n"]), eps, scale)
            ok = point is not None
            if ok:
                c_opt, i_opt = point
                steps_c = abs(math.log(c_opt / t["c_star"])) / _log_step(tables.c_grid)
                steps_i = abs(math.log(i_opt / t["i_star"])) / _log_step(tables.i_grid)
                allowed = float(t.get("grid_steps", 1)) + 1e-9
                ok, cost = steps_c <= allowed and steps_i <= allowed, 0.01 * (steps_c + steps_i)
        else:  # bits_reach; _validate_targets admits no other kind
            reached = tables.epsilon_reaching_bits(int(t["bits"]), scale)
            tol = float(t.get("rel_tol", 0.3))
            ok = math.isfinite(reached) and (1 - tol) * eps <= reached <= (1 + tol) * eps
            cost = abs(math.log(reached / eps)) if math.isfinite(reached) else _MISS_PENALTY
        residual += cost if ok else cost + _MISS_PENALTY
        met.append(bool(ok))
    return met, residual


def _anchor_interval(tables, targets, scale_of) -> Optional[Tuple[float, float]]:
    """Magnitude interval on which the primary max_bits target holds.

    Every scale_of is linear in m, so eps_crit at scale_of(m) is the profile
    at m = 1 times m**-0.5, and max_bits(eps) == bits exactly for m in
    ((eps_crit(bits + 1) / eps)**2, (eps_crit(bits) / eps)**2]. Returns None
    when that window is empty or unbounded.
    """
    anchor = next((t for t in targets if t["kind"] == "max_bits"), None)
    if anchor is None:
        return (1.0, 1.0)
    eps, bits = float(anchor.get("epsilon", 1.0)), int(anchor["bits"])
    crit = tables.profile(scale_of(1.0))
    if bits == 0 or crit[bits] == 0.0:
        return None
    lo = float(np.nextafter((crit[bits] / eps) ** 2, math.inf))
    hi = float((crit[bits - 1] / eps) ** 2)
    if not lo <= hi:
        return None
    # scale_of and the profile round, so an edge can land ulps outside: move
    # each edge in to where the target holds, galloping over ulp offsets (the
    # int64 bit patterns order positive floats), as max_bits falls with m
    lo, hi = np.array([lo, hi]).view(np.int64).tolist()

    def max_bits_at(ulps: int) -> int:
        return tables.max_bits(eps, scale_of(float(np.int64(ulps).view(np.float64))))

    lo += _gallop(lambda k: max_bits_at(lo + k) <= bits, hi - lo + 1)
    hi -= _gallop(lambda k: max_bits_at(hi - k) >= bits, hi - lo + 1)
    return tuple(np.array([lo, hi]).view(np.float64).tolist()) if lo <= hi else None


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
    max_bits target holds, then 9 ratios around the best candidate meeting
    every target. Every target of every candidate scale, the optimum
    included, reads the one per-scale column table of _ConstraintTables
    (front margins and their row max), computed once per candidate; no
    candidate builds a grid.

    The lowest residual wins, the first found on a tie; tied_scales counts
    the distinct scales tied with it, and more than one means the targets
    leave the unit scale free.

    Raises FieldValidationError for a malformed target and CalibrationError
    when no candidate meets every target.
    """
    _validate_targets(targets)
    if c_grid is None or i_grid is None:
        dc, di = default_grids()
        c_grid = dc if c_grid is None else c_grid
        i_grid = di if i_grid is None else i_grid
    if not targets:
        return CalibrationResult(unit_scale=(1.0, 1.0), residual=0.0, targets_met=(), convention="identity")

    raw_fit = fit.with_unit_scale((1.0, 1.0))
    tables = _ConstraintTables(c_grid, i_grid, cell_template, tech, raw_fit)
    opt_target = next((t for t in targets if t["kind"] == "optimum"), None)
    mb_target = next((t for t in targets if t["kind"] == "max_bits"), None)
    c_ref = float(opt_target["c_star"]) if opt_target else cell_template.c_star
    i_ref = float(opt_target["i_star"]) if opt_target else cell_template.i_star
    n_ref = int(opt_target["n"]) if opt_target else (int(mb_target["bits"]) if mb_target else 5)
    a_ref, b_ref = tables.jitter_terms(n_ref, c_ref, i_ref)
    budget = (JITTER_MARGIN_FRACTION * cell_template.c_s_eff / i_ref) ** 2 / 9.0

    candidates: List[Tuple[float, Tuple[float, float], Tuple[bool, ...], str]] = []

    def scan(x: float) -> None:
        """Evaluate the ray with sd/td ratio x at the reference point."""

        def scale_of(m: float) -> Tuple[float, float]:
            var_td = m * budget / (1.0 + x)
            return x * var_td / a_ref, var_td / b_ref

        interval = _anchor_interval(tables, targets, scale_of)
        if interval is None:
            return
        label = f"per-term pair, sd/td ratio {x:.4g}"
        # equal magnitudes give equal candidates, so each is evaluated once
        for m in dict.fromkeys(np.geomspace(interval[0], interval[1], 17).tolist()):
            scale = scale_of(m)
            met, residual = _evaluate_targets(tables, targets, scale)
            candidates.append((residual, scale, tuple(met), label))

    for x in np.geomspace(1e-5, 1e2, 29):
        scan(float(x))
    met_any = [c for c in candidates if all(c[2])]
    if not met_any:
        detail = ""
        if candidates:
            best = min(candidates, key=lambda c: c[0])
            missed = [i for i, ok in enumerate(best[2]) if not ok]
            detail = f"; best candidate ({best[3]}) missed target indices {missed}"
        raise CalibrationError(f"no unit scale satisfies all calibration targets{detail}")
    # refine around the best coarse candidate
    s1_b, s2_b = min(met_any, key=lambda c: c[0])[1]
    x_b = (s1_b * a_ref) / (s2_b * b_ref)
    for x in x_b * np.geomspace(0.5, 2.0, 9):
        scan(float(x))
    met_any = [c for c in candidates if all(c[2])]
    residual, scale, met, label = min(met_any, key=lambda c: c[0])
    tied = len({c[1] for c in met_any if c[0] == residual})
    return CalibrationResult(
        unit_scale=scale, residual=residual, targets_met=met, convention=label, tied_scales=tied
    )
