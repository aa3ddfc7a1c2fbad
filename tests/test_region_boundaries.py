"""Constraint boundaries against full-grid masks.

_ConstraintTables keeps each constraint as a boundary: c1 a suffix in C, c2
a per-row threshold in i, c3 a per-column prefix in C. The reference here
evaluates the same formulas over (C, i) meshgrids and scans every n for the
column fronts, so any boundary off by one row or column shows as a mask or
table mismatch.
"""

import numpy as np
import pytest

from delaymac import design_space as ds
from delaymac.cell import init_validity_min_cstar

WIDE = ((0.1e-15, 200e-15), (10e-9, 100e-6))
SPANS = {"default": (ds.DEFAULT_C_SPAN, ds.DEFAULT_I_SPAN), "wide": WIDE}
BITS = (1, 3, 5, 8, 12, 48)
EPSILONS = (1.0, 2.5, 14.0)


class FullGrid:
    """The constraints evaluated at every grid point."""

    def __init__(self, c_grid, i_grid, cell, tech, fit):
        self.c_grid, self.i_grid, self.fit = c_grid, i_grid, fit
        self.cc, self.ii = np.meshgrid(c_grid, i_grid, indexing="ij")
        self.c1 = self.cc > init_validity_min_cstar(cell, tech)
        dv0_vdd = (cell.c_s_eff * (tech.v_dd - tech.v_thn) + cell.dq_of_md) / self.cc
        self.margin0 = (
            (self.ii / self.cc)
            * (cell.c_re / (tech.i_0 * np.exp(dv0_vdd / tech.v_t)))
            * (tech.v_thn / tech.v_t)
        )
        self.rhs0 = ds.JITTER_MARGIN_FRACTION * cell.c_s_eff / i_grid

    def c2(self, n):
        return self.margin0 * 2.0**-n > 1.0

    def terms(self, n, c, i):
        i_slow = i * 2.0**-n
        return self.fit.k1 * c / i_slow**self.fit.p1, self.fit.k2 * (c / i_slow) ** self.fit.q2

    def critical(self, a, b, scale):
        return self.rhs0 / (3.0 * np.sqrt(scale[0] * a + scale[1] * b))

    def masks(self, n, epsilon, scale):
        c2 = self.c2(n)
        c3 = epsilon <= self.critical(*self.terms(n, self.cc, self.ii), scale)
        return self.c1, c2, c3, self.c1 & c2 & c3

    def column_margins(self, scale):
        """(table, front rows, profile) from one c1 & c2 mask scan per n."""
        a = np.full((ds.MAX_BITS_CAP, self.i_grid.size), np.inf)
        b = a.copy()
        rows = np.zeros(a.shape, dtype=np.intp)
        for n in range(1, ds.MAX_BITS_CAP + 1):
            c12 = self.c1 & self.c2(n)
            cols = np.flatnonzero(c12.any(axis=0))
            if cols.size:
                rows[n - 1, cols] = c12[:, cols].argmax(axis=0)
                a[n - 1, cols], b[n - 1, cols] = self.terms(n, self.c_grid[rows[n - 1, cols]], self.i_grid[cols])
        table = self.critical(a, b, scale)
        return table, rows, table.max(axis=1)


def assert_equivalent(c_grid, i_grid, cell, tech, fit, bits=BITS, epsilons=EPSILONS, scale=None):
    scale = fit.unit_scale if scale is None else scale
    reference = FullGrid(c_grid, i_grid, cell, tech, fit)
    tables = ds._ConstraintTables(c_grid, i_grid, cell, tech, fit)
    for n in bits:
        for eps in epsilons:
            region = tables.region(n, eps, scale)
            got = (region.mask_c1, region.mask_c2, region.mask_c3, region.feasible)
            for name, mine, ref in zip(("c1", "c2", "c3", "feasible"), got, reference.masks(n, eps, scale)):
                assert mine.shape == ref.shape and mine.dtype == bool
                assert np.array_equal(mine, ref), f"{name} differs at n={n}, epsilon={eps}"
    table, rows, profile = reference.column_margins(scale)
    got_table, got_profile = tables.column_margins(scale)
    assert np.array_equal(got_table, table)
    assert np.array_equal(tables._front[2], rows)
    assert np.array_equal(got_profile, profile)
    return reference


@pytest.mark.parametrize("span", SPANS)
@pytest.mark.parametrize("points", (16, 64, 257))
def test_boundaries_match_full_grid(cell, tech, fit, points, span):
    assert_equivalent(*ds.default_grids(points, *SPANS[span]), cell, tech, fit)


@pytest.mark.parametrize("span", SPANS)
def test_boundaries_match_full_grid_at_1024(cell, tech, fit, span):
    assert_equivalent(*ds.default_grids(1024, *SPANS[span]), cell, tech, fit, bits=(4, 5, 7), epsilons=(1.0, 2.5))


def test_non_square_grid(cell, tech, fit):
    c_grid, _ = ds.default_grids(40, *WIDE)
    _, i_grid = ds.default_grids(97, *WIDE)
    assert_equivalent(c_grid, i_grid, cell, tech, fit)


def test_c1_empty(cell, tech, fit):
    # the last point sits on the floor itself, which c1 excludes
    floor = init_validity_min_cstar(cell, tech)
    c_grid = np.geomspace(floor / 50, floor, 32)
    reference = assert_equivalent(c_grid, np.geomspace(*ds.DEFAULT_I_SPAN, 32), cell, tech, fit)
    assert c_grid[-1] == floor and not reference.c1.any()


def test_c2_empty_at_every_n(cell, tech, fit):
    c_grid, i_grid = ds.default_grids(32, ds.DEFAULT_C_SPAN, (1e-15, 1e-13))
    reference = assert_equivalent(c_grid, i_grid, cell, tech, fit)
    assert not reference.c2(1).any()


@pytest.mark.parametrize("span", SPANS)
def test_c3_empty(cell, tech, fit, span):
    grids = ds.default_grids(64, *SPANS[span])
    reference = assert_equivalent(*grids, cell, tech, fit, epsilons=(1e30,))
    assert not any(reference.masks(n, 1e30, fit.unit_scale)[2].any() for n in BITS)


@pytest.mark.parametrize("span", SPANS)
def test_c3_covers_every_row(cell, tech, fit, span):
    grids = ds.default_grids(64, *SPANS[span])
    scale = tuple(s * 1e-40 for s in fit.unit_scale)
    reference = assert_equivalent(*grids, cell, tech, fit, bits=(1, 3, 5), epsilons=(1.0,), scale=scale)
    assert all(reference.masks(n, 1.0, scale)[2].all() for n in (1, 3, 5))


def test_no_grid_sized_array_held(cell, tech, fit):
    c_grid, _ = ds.default_grids(100)
    _, i_grid = ds.default_grids(70)
    tables = ds._ConstraintTables(c_grid, i_grid, cell, tech, fit)
    tables.region(5, 1.0, fit.unit_scale)
    tables.column_margins(fit.unit_scale)
    held = [a for v in vars(tables).values() for a in (v if isinstance(v, tuple) else (v,))]
    shapes = [a.shape for a in held if isinstance(a, np.ndarray)]
    assert shapes and all(len(s) == 1 or s[0] == ds.MAX_BITS_CAP for s in shapes), shapes
