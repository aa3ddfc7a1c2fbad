import math

import numpy as np
import pytest

from delaymac import bias as bs
from delaymac.errors import FieldValidationError, RegimeError


class TestWidthTable:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_sizing_rules_verbatim(self, n):
        table = bs.width_table(n)
        assert table["M1"] == (1.0, 1.0)
        assert table["M2-3"] == (2**n, 1.0)
        assert table["M4-6"] == (10 * 2**n, 10.0)
        assert table["M12"] == (1.0, 1.0)
        for i in range(n):
            assert table["M7-9"][i] == (10 * 2**i, 10.0)
            assert table["M10"][i] == (2.6**i, 10.0)
            assert table["M11"][i] == (2**i, 10.0)

    def test_reference_entries(self):
        table = bs.width_table(5)
        assert table["M7-9"][0][0] == 10
        assert table["M11"][3][0] == 8
        assert table["M10"][0][0] == 1.0

    @pytest.mark.parametrize("n", [0, 9, -1])
    def test_range_error(self, n):
        with pytest.raises(FieldValidationError):
            bs.width_table(n)

    def test_unit_conventions(self):
        assert bs.WIDTH_UNIT_M == 160e-9
        assert bs.LENGTH_UNIT_M == 120e-9


class TestBranchCurrents:
    def test_exact_powers_of_two(self, tech):
        v_ref = bs.v_ref_for_current(1e-6, tech)
        currents = bs.branch_currents(v_ref, 8, tech)
        for i in range(1, 8):
            assert currents[i] == pytest.approx(currents[0] / 2**i, rel=1e-12, abs=0)

    def test_one_microamp_ladder(self, tech):
        v_ref = bs.v_ref_for_current(1e-6, tech)
        currents = bs.branch_currents(v_ref, 5, tech)
        expected = np.array([1.0, 0.5, 0.25, 0.125, 0.0625]) * 1e-6
        assert np.allclose(currents, expected, rtol=1e-9)

    def test_adjacent_ratio_is_two_for_any_vref(self, tech):
        for v_ref in (0.5, 0.7, 0.85):
            currents = bs.branch_currents(v_ref, 6, tech)
            ratios = currents[:-1] / currents[1:]
            assert np.allclose(ratios, 2.0, rtol=1e-12)

    def test_subthreshold_ceiling(self, tech):
        v_high = bs.v_ref_for_current(5e-6, tech)
        with pytest.raises(RegimeError):
            bs.branch_currents(v_high, 5, tech)

    def test_diode_law_round_trip(self, tech):
        for i_target in (1e-8, 1e-7, 1e-6):
            v = bs.v_ref_for_current(i_target, tech)
            assert bs.bias_current(v, tech) == pytest.approx(i_target, rel=1e-12, abs=0)


class TestBiasPlan:
    def test_primary_bias_of_fastest_branch_equals_vref(self, tech):
        v_ref = bs.v_ref_for_current(1e-6, tech)
        plan = bs.bias_plan(v_ref, 5, tech)
        assert plan.v_b1[0] == pytest.approx(v_ref, rel=1e-12)
        assert plan.v_b1[0] == pytest.approx(v_ref, rel=0.05)  # contract tolerance

    def test_secondary_sits_at_drain_pin(self, tech):
        plan = bs.bias_plan(bs.v_ref_for_current(1e-6, tech), 6, tech)
        for b1, b2 in zip(plan.v_b1, plan.v_b2):
            assert b2 - b1 == pytest.approx(0.1, abs=1e-12)
            assert b2 > b1

    def test_primary_bias_decreases_with_exponent(self, tech):
        plan = bs.bias_plan(bs.v_ref_for_current(1e-6, tech), 5, tech)
        assert all(a > b for a, b in zip(plan.v_b1, plan.v_b1[1:]))

    def test_csv_rows(self, tech):
        plan = bs.bias_plan(bs.v_ref_for_current(1e-6, tech), 3, tech)
        rows = plan.csv_rows()
        assert [r[0] for r in rows] == [0, 1, 2]
        assert rows[1][1] == pytest.approx(0.5e-6, rel=1e-9, abs=0)
