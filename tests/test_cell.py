import math

import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from delaymac import cell as ca
from delaymac.errors import RegimeError
from delaymac.params import CellDesign, TechnologyProfile

# direct evaluations of the closed forms at the default operating point,
# frozen as regression values
DV0_AT_VTHN = 0.2272727272727273
DV0_AT_VDD = 0.3193772727272728
DV0_AT_VA0 = 0.2723318181818182
C1_MIN = 2.202601880877743e-15
LATCH_POINT = 0.43638451645441406
LATCH_DELAY_VDD = 2.5802820467143823e-10
MARGIN_SLOWEST_5BIT = 2.887255406288315


class TestInitialDrop:
    def test_offset_only_at_threshold(self, cell, tech):
        dv0 = ca.initial_drop(tech.v_thn, cell, tech)
        assert dv0 == pytest.approx(DV0_AT_VTHN, rel=1e-12)
        assert dv0 == pytest.approx(cell.dq_of_md / cell.c_star, rel=1e-12)

    def test_full_swing(self, cell, tech):
        assert ca.initial_drop(1.2, cell, tech) == pytest.approx(DV0_AT_VDD, rel=1e-12)

    def test_reference_input(self, cell, tech):
        assert ca.initial_drop(0.75, cell, tech) == pytest.approx(DV0_AT_VA0, rel=1e-12)

    def test_clamp_below_threshold(self, cell, tech):
        assert ca.initial_drop(0.1, cell, tech) == ca.initial_drop(0.0, cell, tech)

    def test_out_of_range_input(self, cell, tech):
        with pytest.raises(RegimeError):
            ca.initial_drop(1.3, cell, tech)

    @given(
        c_star=st.floats(min_value=2.3e-15, max_value=50e-15),
        v_a=st.floats(min_value=0.0, max_value=1.2),
    )
    @settings(max_examples=100)
    def test_invariant_in_validity_region(self, c_star, v_a):
        tech = TechnologyProfile()
        cell = CellDesign(c_star=c_star)
        assert cell.c_star > ca.init_validity_min_cstar(cell, tech)
        assert 0 <= ca.initial_drop(v_a, cell, tech) < tech.v_dd


class TestInitValidity:
    def test_default_bound_matches_design_floor(self, cell, tech):
        bound = ca.init_validity_min_cstar(cell, tech)
        assert bound == pytest.approx(C1_MIN, rel=1e-12, abs=0)
        assert bound == pytest.approx(2.2e-15, rel=0.02, abs=0)

    def test_degenerate_cell_allows_any_cap(self, tech):
        cell = CellDesign(c_s_eff=0.0, dq_of_md=0.0)
        assert ca.init_validity_min_cstar(cell, tech) == 0.0

    def test_linear_in_charge_offset(self, tech):
        low = CellDesign(c_s_eff=0.0, dq_of_md=0.5e-15)
        high = CellDesign(c_s_eff=0.0, dq_of_md=1.0e-15)
        assert ca.init_validity_min_cstar(high, tech) == pytest.approx(
            2 * ca.init_validity_min_cstar(low, tech), rel=1e-12, abs=0
        )


class TestVreTransient:
    def test_starts_at_zero(self, cell, tech):
        assert ca.vre_transient(0.0, DV0_AT_VDD, cell, tech) == 0.0

    def test_initial_slope(self, cell, tech):
        h = 1e-15
        slope_fd = ca.vre_transient(h, DV0_AT_VDD, cell, tech) / h
        slope_expected = (tech.i_0 / cell.c_re) * math.exp(DV0_AT_VDD / tech.v_t)
        assert slope_fd == pytest.approx(slope_expected, rel=1e-3)

    def test_threshold_crossing_matches_root_finder(self, cell, tech):
        hi = 1e-12
        while ca.vre_transient(hi, DV0_AT_VDD, cell, tech) < tech.v_thn:
            hi *= 1.5
        t_root = brentq(
            lambda t: ca.vre_transient(t, DV0_AT_VDD, cell, tech) - tech.v_thn,
            1e-15,
            hi,
            rtol=1e-13,
            xtol=1e-24,
        )
        assert t_root == pytest.approx(LATCH_DELAY_VDD, rel=1e-9, abs=0)
        assert t_root == pytest.approx(ca.latch_delay(DV0_AT_VDD, cell, tech), rel=1e-9, abs=0)

    def test_regime_error_above_vthp(self, cell, tech):
        with pytest.raises(RegimeError):
            ca.vre_transient(1e-10, tech.v_thp + 0.01, cell, tech)


class TestLatchPoint:
    def test_default_value(self, cell, tech):
        assert ca.latch_point(cell, tech) == pytest.approx(LATCH_POINT, rel=1e-12)

    def test_doubling_rate_adds_vt_ln2(self, cell, tech):
        doubled = cell.with_current(2 * cell.i_star)
        shift = ca.latch_point(doubled, tech) - ca.latch_point(cell, tech)
        assert shift == pytest.approx(tech.v_t * math.log(2), rel=1e-9)

    def test_gain_below_one_rejected(self, tech):
        tiny = CellDesign(i_star=1e-15)
        with pytest.raises(RegimeError):
            ca.latch_point(tiny, tech)
        with pytest.raises(RegimeError):
            ca.latch_delay(0.1, tiny, tech)


class TestLatchDelay:
    def test_default_point(self, cell, tech):
        assert ca.latch_delay(DV0_AT_VDD, cell, tech) == pytest.approx(LATCH_DELAY_VDD, rel=1e-12, abs=0)

    def test_log2_boundary(self, cell):
        # needs a detector threshold above the latch point to stay in regime
        tech = TechnologyProfile(v_thp=0.5)
        dv_th = ca.latch_point(cell, tech)
        expected = tech.v_t * math.log(2) / cell.ramp_rate
        assert ca.latch_delay(dv_th, cell, tech) == pytest.approx(expected, rel=1e-9, abs=0)

    @given(st.floats(min_value=0.0, max_value=0.36), st.floats(min_value=0.001, max_value=0.01))
    @settings(max_examples=100)
    def test_strictly_decreasing_in_dv0(self, dv0, step):
        cell, tech = CellDesign(), TechnologyProfile()
        assert ca.latch_delay(dv0 + step, cell, tech) < ca.latch_delay(dv0, cell, tech)

    def test_linearized_slope(self, cell, tech):
        a, b = 0.10, 0.30
        exact_diff = ca.latch_delay(a, cell, tech) - ca.latch_delay(b, cell, tech)
        linear_diff = -(a - b) / cell.ramp_rate
        assert exact_diff == pytest.approx(linear_diff, rel=0.01)

    def test_linear_form_accuracy_when_flagged(self, cell, tech):
        # at high margin the log1p form collapses onto the affine form
        dv0 = 0.15
        t_d = ca.latch_delay(dv0, cell, tech)
        r = cell.ramp_rate
        linear = (tech.v_t / r) * math.log(ca._latch_log_const(cell, tech)) - dv0 / r
        assert abs(t_d - linear) / t_d < 0.01

    def test_latch_point_identity(self, cell, tech):
        for dv0 in (0.05, 0.15, 0.25, 0.319):
            reconstructed = dv0 + cell.ramp_rate * ca.latch_delay(dv0, cell, tech)
            assert reconstructed == pytest.approx(ca.latch_point(cell, tech), rel=0.01)

    def test_vre_at_latch_delay_hits_threshold(self, cell, tech):
        for dv0 in (0.05, 0.2, 0.3):
            t_d = ca.latch_delay(dv0, cell, tech)
            assert ca.vre_transient(t_d, dv0, cell, tech) == pytest.approx(tech.v_thn, rel=0.005)


class TestLinearityMargin:
    def test_slowest_5bit_cell(self, cell, tech):
        slow = cell.with_current(1e-6 / 32)
        margin = ca.td_linearity_margin(slow, tech, dv0_max=DV0_AT_VDD)
        assert margin == pytest.approx(MARGIN_SLOWEST_5BIT, rel=1e-12)
        assert margin > 1

    def test_large_current_limit(self, cell, tech):
        huge = cell.with_current(1.0)
        assert ca.td_linearity_margin(huge, tech, dv0_max=DV0_AT_VDD) > 1e6

    def test_proportional_to_current(self, cell, tech):
        full = ca.td_linearity_margin(cell, tech, dv0_max=0.3)
        half = ca.td_linearity_margin(cell.with_current(cell.i_star / 2), tech, dv0_max=0.3)
        assert half == pytest.approx(full / 2, rel=1e-12)
