"""Each cell formula has one definition, so its array and scalar callers agree
to the last bit: the nonlinear engine's per-stage delays against the scalar
latch_delay of each bit's reference path, and the region's constraint-2
mask against acceptance criterion 9's scalar detector-margin check.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from delaymac.cell import initial_drop, td_linearity_margin
from delaymac.design_space import constraint_region
from delaymac.multiplier import simulate_chain
from delaymac.params import MultiplierSpec


def _nonlinear_deltas(v_a0, cell, tech):
    spec = MultiplierSpec(v_a0=v_a0)
    return simulate_chain([31, -5], [v_a0, v_a0], spec, cell, tech, model="nonlinear").stage_deltas


@pytest.mark.parametrize("v_a0", [0.5, 0.85, 0.9, 1.1])
def test_nonlinear_delay_at_reference_input_is_zero(v_a0, cell, tech):
    # each stage's variable path runs at the reference input, so it is the
    # reference path and the referential delay is exactly 0
    assert _nonlinear_deltas(v_a0, cell, tech).tolist() == [0.0, 0.0]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    v_a0=st.floats(0.0, 1.2),
    c_star=st.floats(2e-15, 50e-15),  # the initial drop stays below v_thp
)
def test_nonlinear_delay_at_reference_input_is_zero_everywhere(v_a0, c_star, cell, tech):
    assert _nonlinear_deltas(v_a0, replace(cell, c_star=c_star), tech).tolist() == [0.0, 0.0]


def _c2_boundary_current(c_star, cell, tech, n):
    """The fastest current at which the slowest cell's detector margin at
    dv0(v_dd) is 1, to within rounding."""
    dv0 = initial_drop(tech.v_dd, replace(cell, c_star=c_star), tech)
    return 2.0**n * c_star * tech.i_0 * math.exp(dv0 / tech.v_t) * tech.v_t / (cell.c_re * tech.v_thn)


def test_region_c2_mask_equals_scalar_margin_check(cell, tech, fit):
    n = 5
    rng = np.random.default_rng(26)
    for c_star in 10.0 ** rng.uniform(math.log10(1.5e-15), math.log10(50e-15), 45):
        i_edge = _c2_boundary_current(c_star, cell, tech, n)
        for k in range(-4, 5):
            i_top = i_edge * (1 + k * 2.0**-52)
            c_grid = c_star * np.arange(1.0, 17.0)
            i_grid = i_top * np.linspace(0.5, 1.0, 16)
            region = constraint_region(n, c_grid, i_grid, cell, tech, fit)
            slow = replace(cell, c_star=c_star, i_star=i_top * 2.0**-n)
            scalar = td_linearity_margin(slow, tech, initial_drop(tech.v_dd, slow, tech)) > 1
            assert bool(region.mask_c2[0, -1]) == scalar, (c_star, i_top)


def test_region_c2_mask_at_a_case_that_once_disagreed(cell, tech, fit):
    c_star, i_top = 3.4852250147893814e-15, 5.764922464836015e-09
    region = constraint_region(5, c_star * np.arange(1.0, 17.0), i_top * np.linspace(0.5, 1.0, 16), cell, tech, fit)
    slow = replace(cell, c_star=c_star, i_star=i_top * 2.0**-5)
    assert bool(region.mask_c2[0, -1]) == (td_linearity_margin(slow, tech, initial_drop(tech.v_dd, slow, tech)) > 1)
