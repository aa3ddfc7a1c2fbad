import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from delaymac import jitter as jt
from delaymac.errors import RegimeError, UncalibratedFitError
from delaymac.params import CellDesign, JitterFit

# frozen direct evaluations
VAR_SD_DESIGN_POINT = 1.141840366913875e-27       # fitted, calibrated, 2.2fF / 1uA cell
VAR_TD_DESIGN_POINT = 4.498465243704724e-24


class TestFitted:
    def test_design_point_pins(self, cell, fit):
        assert jt.sd_jitter_fitted(cell, fit) == pytest.approx(VAR_SD_DESIGN_POINT, rel=1e-9, abs=0)
        assert jt.td_jitter_fitted(cell, fit) == pytest.approx(VAR_TD_DESIGN_POINT, rel=1e-9, abs=0)

    def test_sd_linear_in_cstar(self, cell, fit):
        from dataclasses import replace

        doubled = replace(cell, c_star=2 * cell.c_star)
        assert jt.sd_jitter_fitted(doubled, fit) == pytest.approx(
            2 * jt.sd_jitter_fitted(cell, fit), rel=1e-12, abs=0
        )

    def test_sd_halving_current_scales_by_2_pow_p(self, cell, fit):
        halved = cell.with_current(cell.i_star / 2)
        assert jt.sd_jitter_fitted(halved, fit) == pytest.approx(
            2**2.46 * jt.sd_jitter_fitted(cell, fit), rel=1e-9, abs=0
        )

    def test_td_doubling_rate_scales_by_2_pow_q(self, cell, fit):
        doubled_rate = cell.with_current(2 * cell.i_star)
        assert jt.td_jitter_fitted(cell, fit) == pytest.approx(
            2**1.5 * jt.td_jitter_fitted(doubled_rate, fit), rel=1e-9, abs=0
        )

    def test_td_depends_only_on_rate(self, cell, fit):
        from dataclasses import replace

        scaled = replace(cell, c_star=3 * cell.c_star, i_star=3 * cell.i_star)
        assert jt.td_jitter_fitted(scaled, fit) == pytest.approx(
            jt.td_jitter_fitted(cell, fit), rel=1e-12, abs=0
        )

    @pytest.mark.parametrize("c_star, i_star", [(1e300, 1e-6), (1e300, 1e-300)],
                             ids=["power-overflows", "ratio-overflows"])
    def test_td_out_of_float_range_raises(self, fit, c_star, i_star):
        with pytest.raises(RegimeError, match="float range"):
            jt.td_jitter_fitted(CellDesign(c_star=c_star, i_star=i_star), fit)

    def test_uncalibrated_fit_raises(self, cell):
        raw = JitterFit(unit_scale=None)
        with pytest.raises(UncalibratedFitError):
            jt.sd_jitter_fitted(cell, raw)
        with pytest.raises(UncalibratedFitError):
            jt.td_jitter_fitted(cell, raw)
        with pytest.raises(UncalibratedFitError):
            jt.total_jitter(cell, raw)

    @given(
        i_low=st.floats(min_value=1e-8, max_value=1e-6),
        factor=st.floats(min_value=1.01, max_value=10.0),
        c_factor=st.floats(min_value=1.01, max_value=10.0),
    )
    @settings(max_examples=100)
    def test_monotonicity(self, i_low, factor, c_factor):
        from dataclasses import replace

        fit = JitterFit()
        slow = CellDesign(i_star=i_low)
        fast = slow.with_current(i_low * factor)
        assert jt.sd_jitter_fitted(fast, fit) < jt.sd_jitter_fitted(slow, fit)
        assert jt.td_jitter_fitted(fast, fit) < jt.td_jitter_fitted(slow, fit)
        big = replace(slow, c_star=slow.c_star * c_factor)
        assert jt.sd_jitter_fitted(big, fit) >= jt.sd_jitter_fitted(slow, fit)
        assert jt.td_jitter_fitted(big, fit) >= jt.td_jitter_fitted(slow, fit)


class TestBudget:
    def test_total_combines_both_sources(self, cell, fit):
        budget = jt.total_jitter(cell, fit)
        assert budget.var_sd == pytest.approx(jt.sd_jitter_fitted(cell, fit), rel=1e-12, abs=0)
        assert budget.var_td == pytest.approx(jt.td_jitter_fitted(cell, fit), rel=1e-12, abs=0)
        assert budget.sigma_total == pytest.approx(
            np.sqrt(budget.var_sd + budget.var_td), rel=1e-12, abs=0
        )

    def test_single_source_budget(self):
        budget = jt.JitterBudget(var_sd=4e-24, var_td=0.0)
        assert budget.sigma_total == 2e-12

    def test_symmetric_in_sources(self):
        a = jt.JitterBudget(var_sd=1e-24, var_td=3e-24)
        b = jt.JitterBudget(var_sd=3e-24, var_td=1e-24)
        assert a.sigma_total == b.sigma_total

    def test_design_point_meets_jitter_budget(self, cell, fit, spec31):
        # slowest cell of the 5-bit design against the fastest cell's margin
        slow = cell.with_current(spec31.i_star_fastest / 2**5)
        budget = jt.total_jitter(slow, fit)
        limit = 0.4 * cell.c_s_eff / spec31.i_star_fastest
        assert 3 * budget.sigma_total <= limit


class TestSampler:
    def test_variance_within_band(self, cell, fit):
        samples = jt.sample_cell_jitter(seed=1234, cell=cell, fit=fit, count=100_000)
        model = jt.total_jitter(cell, fit).var_sd + jt.total_jitter(cell, fit).var_td
        assert np.var(samples, ddof=1) == pytest.approx(model, rel=0.05, abs=0)

    def test_mean_near_zero(self, cell, fit):
        n = 100_000
        samples = jt.sample_cell_jitter(seed=99, cell=cell, fit=fit, count=n)
        sigma = jt.total_jitter(cell, fit).sigma_total
        assert abs(np.mean(samples)) < 4 * sigma / np.sqrt(n)

    def test_independent_seeds_uncorrelated(self, cell, fit):
        a = jt.sample_cell_jitter(seed=1, cell=cell, fit=fit, count=100_000)
        b = jt.sample_cell_jitter(seed=2, cell=cell, fit=fit, count=100_000)
        r = np.corrcoef(a, b)[0, 1]
        assert abs(r) < 0.02

    def test_bit_for_bit_determinism(self, cell, fit):
        a = jt.sample_cell_jitter(seed=7, cell=cell, fit=fit, count=4096)
        b = jt.sample_cell_jitter(seed=7, cell=cell, fit=fit, count=4096)
        assert np.array_equal(a, b)

    def test_cascade_variance_additivity(self, cell, fit):
        # three cells at different currents, independent streams
        cells = [cell.with_current(i) for i in (1e-6, 5e-7, 2.5e-7)]
        total = np.zeros(100_000)
        expected = 0.0
        for k, c in enumerate(cells):
            total = total + jt.sample_cell_jitter(seed=1000 + k, cell=c, fit=fit, count=100_000)
            b = jt.total_jitter(c, fit)
            expected += b.var_sd + b.var_td
        assert np.var(total, ddof=1) == pytest.approx(expected, rel=0.05, abs=0)

    def test_count_validation(self, cell, fit):
        with pytest.raises(ValueError):
            jt.sample_cell_jitter(seed=1, cell=cell, fit=fit, count=0)
