"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its measured runtime. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import math
import time

import numpy as np
import pytest

from delaymac import bias as bs
from delaymac import design_space as ds
from delaymac import energy as en
from delaymac import jitter as jt
from delaymac import multiplier as mu
from delaymac.cell import init_validity_min_cstar, td_linearity_margin
from delaymac.cli import main as cli_main
from delaymac.params import CellDesign, JitterFit, MultiplierSpec, TechnologyProfile


class _Criterion:
    def __init__(self, number, description, budget_s):
        self.number = number
        self.description = description
        self.budget_s = budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number}: {status} ({elapsed:.2f}s) - {self.description}")
        if exc_type is None:
            assert elapsed < self.budget_s, (
                f"criterion {self.number} exceeded its {self.budget_s}s runtime budget"
            )
        return False


def test_criterion_1_initialization_validity_bound():
    with _Criterion(1, "initialization-validity floor is 2.2 fF within 2%", budget_s=1.0):
        tech = TechnologyProfile(v_dd=1.2, v_thn=0.319)
        cell = CellDesign(c_s_eff=0.23e-15, dq_of_md=0.5e-15)
        bound = init_validity_min_cstar(cell, tech)
        assert bound == pytest.approx(2.2e-15, rel=0.02, abs=0)


def test_criterion_2_design_space_headlines(tmp_path, monkeypatch):
    with _Criterion(
        2, "calibrated region: n=4,5 feasible, n=6 empty, optimum near (2.2 fF, 1 uA)",
        budget_s=30.0,
    ):
        cell, tech, fit = CellDesign(), TechnologyProfile(), JitterFit()
        c_grid, i_grid = ds.default_grids()  # 64 x 64
        r4 = ds.constraint_region(4, c_grid, i_grid, cell, tech, fit)
        r5 = ds.constraint_region(5, c_grid, i_grid, cell, tech, fit)
        r6 = ds.constraint_region(6, c_grid, i_grid, cell, tech, fit)
        assert not r4.is_empty and not r5.is_empty and r6.is_empty

        c_opt, i_opt = ds.optimal_point(r5)
        step_c = math.log(c_grid[1] / c_grid[0])
        step_i = math.log(i_grid[1] / i_grid[0])
        assert abs(math.log(c_opt / 2.2e-15)) <= step_c * (1 + 1e-9)
        assert abs(math.log(i_opt / 1e-6)) <= step_i * (1 + 1e-9)

        # machine-checkable infeasibility signal from the CLI
        monkeypatch.setenv("DELAYMAC_CONFIG_DIR", str(tmp_path))
        code6 = cli_main(["region", "--bits", "6", "--out", str(tmp_path / "r6.csv")])
        code5 = cli_main(["region", "--bits", "5", "--out", str(tmp_path / "r5.csv")])
        assert code6 == 2 and code5 == 0


def test_criterion_3_bits_versus_excess_margin():
    with _Criterion(
        3, "max_bits(1)=5, monotone non-increasing, reaches 1 at eps=14 +/- 30%", budget_s=120.0
    ):
        cell, tech, fit = CellDesign(), TechnologyProfile(), JitterFit()
        c_grid, i_grid = ds.default_grids()
        assert ds.max_bits(1.0, c_grid, i_grid, cell, tech, fit) == 5
        values = [
            ds.max_bits(float(e), c_grid, i_grid, cell, tech, fit)
            for e in np.linspace(1.0, 20.0, 39)
        ]
        assert all(a >= b for a, b in zip(values, values[1:]))
        tables = ds._ConstraintTables(c_grid, i_grid, cell, tech, fit)
        eps1 = tables.epsilon_reaching_bits(1, fit.unit_scale)
        assert 14.0 * (1 - 0.30) <= eps1 <= 14.0 * (1 + 0.30)


def test_criterion_4_energy_reconstruction():
    with _Criterion(
        4, "cap energy 6.34 fJ/bit vs 6.8 (10%), MAC total vs 110 fJ (15%), row sum 21.6",
        budget_s=1.0,
    ):
        cell, tech = CellDesign(), TechnologyProfile()
        per_bit_cap = 2 * en.cap_energy(cell.c_star, tech)
        assert per_bit_cap == pytest.approx(6.336e-15, rel=1e-12, abs=0)
        assert per_bit_cap == pytest.approx(6.8e-15, rel=0.10, abs=0)

        breakdown = en.mac_energy(MultiplierSpec.from_weight(31, 5), cell, tech, mode="sense")
        assert breakdown.total == pytest.approx(110e-15, rel=0.15, abs=0)
        assert breakdown.total == (
            breakdown.e_cstar + breakdown.e_td1 + breakdown.e_td2 + breakdown.e_pu + breakdown.e_inv
        )

        ref = en.REFERENCE_5BIT_ENERGY_FJ
        row_sum = sum(ref[k][1] for k in ("e_cstar", "e_td1", "e_td2", "e_pu", "e_inv"))
        assert row_sum == pytest.approx(21.6, rel=1e-12)
        assert ref["total"][1] == 22.0


def test_criterion_5_monte_carlo_statistics():
    with _Criterion(
        5, "sampled jitter variance within 5% of model at 1e5 trials; additivity within 5%",
        budget_s=60.0,
    ):
        cell, fit = CellDesign(), JitterFit()
        n = 100_000
        budget = jt.total_jitter(cell, fit)
        samples = jt.sample_cell_jitter(seed=20240601, cell=cell, fit=fit, count=n)
        model_var = budget.var_sd + budget.var_td
        sample_var = float(np.var(samples, ddof=1))
        # the 99% chi-square band at n=1e5 is ~1.2%, well inside the 5% gate
        assert sample_var == pytest.approx(model_var, rel=0.05, abs=0)

        total = np.zeros(n)
        expected = 0.0
        for k, i_star in enumerate((1e-6, 0.5e-6, 0.25e-6, 0.125e-6)):
            c = cell.with_current(i_star)
            total = total + jt.sample_cell_jitter(seed=777 + k, cell=c, fit=fit, count=n)
            b = jt.total_jitter(c, fit)
            expected += b.var_sd + b.var_td
        assert float(np.var(total, ddof=1)) == pytest.approx(expected, rel=0.05, abs=0)


def test_criterion_6_multiplier_algebra():
    with _Criterion(
        6, "ideal delta matches closed form to 1e-12 over all W and the input grid", budget_s=1.0
    ):
        cell, tech = CellDesign(), TechnologyProfile()
        ev = mu.ReferentialEvent()
        unit = -(cell.c_s_eff / 1e-6)
        v_grid = [0.075 * k for k in range(1, 17)]  # 0.075 .. 1.2
        for weight in range(0, 32):
            spec = MultiplierSpec.from_weight(weight, 5)
            for v_a in v_grid:
                got = mu.simulate_multiply(ev, spec, v_a, cell, tech).delta_t
                want = unit * (v_a - 0.75) * weight
                if weight == 0:
                    assert got == 0.0
                else:
                    assert got == pytest.approx(want, rel=1e-12, abs=0.0)
            neg = mu.simulate_multiply(ev, MultiplierSpec.from_weight(-weight, 5), 1.2, cell, tech)
            pos = mu.simulate_multiply(ev, spec, 1.2, cell, tech)
            assert neg.delta_t == -pos.delta_t


def test_criterion_7_differential_distortion_suppression():
    with _Criterion(
        7, "differential mode suppresses injected quadratic by >= 1e9x", budget_s=1.0
    ):
        cell, tech = CellDesign(), TechnologyProfile()
        spec = MultiplierSpec.from_weight(31, 5)
        alpha = 0.1
        x = np.linspace(-0.4, 0.4, 11)
        single = np.array(
            [
                mu.simulate_multiply(
                    mu.ReferentialEvent(), spec, spec.v_a0 + v, cell, tech,
                    distortion_alpha=alpha,
                ).delta_t
                for v in x
            ]
        )
        differential = np.array(
            [mu.differential_multiply(spec, v, alpha, cell, tech) for v in x]
        )
        c_single = np.polynomial.polynomial.polyfit(x, single, 2)[2]
        c_diff = np.polynomial.polynomial.polyfit(x, differential, 2)[2]
        assert abs(c_single) > 0
        assert abs(c_single) / max(abs(c_diff), 1e-300) >= 1e9


def test_criterion_8_bias_network():
    with _Criterion(
        8, "current ratios exact powers of two, 100 mV bias offset, verbatim width table",
        budget_s=1.0,
    ):
        tech = TechnologyProfile()
        v_ref = bs.v_ref_for_current(1e-6, tech)
        for n in range(1, 9):
            currents = bs.branch_currents(v_ref, n, tech)
            for i in range(n):
                assert currents[i] == pytest.approx(currents[0] / 2**i, rel=1e-12, abs=0)
            plan = bs.bias_plan(v_ref, n, tech)
            for b1, b2 in zip(plan.v_b1, plan.v_b2):
                assert b2 - b1 == pytest.approx(0.1, abs=1e-9)
            table = bs.width_table(n)
            assert table["M1"] == (1.0, 1.0)
            assert table["M2-3"] == (2**n, 1.0)
            assert table["M4-6"] == (10 * 2**n, 10.0)
            assert table["M12"] == (1.0, 1.0)
            for i in range(n):
                assert table["M7-9"][i] == (10 * 2**i, 10.0)
                assert table["M10"][i] == (2.6**i, 10.0)
                assert table["M11"][i] == (2**i, 10.0)


def test_criterion_9_nonlinearity_sensitivity():
    with _Criterion(
        9, "violating the detector-linearity constraint strictly worsens affine deviation",
        budget_s=10.0,
    ):
        cell, tech = CellDesign(), TechnologyProfile()
        dv0_max = 0.3193772727272728
        v_grid = np.linspace(0.4, 1.2, 13)

        def deviation(i_fast):
            spec = MultiplierSpec.from_weight(31, 5, i_star_fastest=i_fast)
            rows = mu.transfer_sweep(spec, v_grid, [31], cell, tech, model="nonlinear")
            deltas = np.array([r["delta_t_s"] for r in rows])
            coeffs = np.polynomial.polynomial.polyfit(v_grid, deltas, 1)
            resid = deltas - np.polynomial.polynomial.polyval(v_grid, coeffs)
            return float(np.max(np.abs(resid)) / np.max(np.abs(deltas)))

        compliant, violating = 1e-6, 0.2e-6
        assert td_linearity_margin(cell.with_current(compliant / 32), tech, dv0_max) > 1
        assert td_linearity_margin(cell.with_current(violating / 32), tech, dv0_max) < 1
        assert deviation(violating) > deviation(compliant)
