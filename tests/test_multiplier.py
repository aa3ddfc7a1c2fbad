import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from delaymac import multiplier as mu
from delaymac.errors import RegimeError
from delaymac.jitter import total_jitter
from delaymac.params import CellDesign, JitterFit, MultiplierSpec, TechnologyProfile

EV0 = mu.ReferentialEvent()
UNIT_DELAY_PER_VOLT = -0.23e-15 / 1e-6  # -(c_s_eff / i_star_fastest)


def ideal_delta(weight: int, v_a: float, v_a0: float = 0.75) -> float:
    return UNIT_DELAY_PER_VOLT * (v_a - v_a0) * weight


class TestSimulateMultiply:
    def test_full_bypass(self, cell, tech):
        spec = MultiplierSpec.from_weight(0, 5)
        res = mu.simulate_multiply(EV0, spec, 1.0, cell, tech)
        assert res.delta_t == 0.0
        assert res.per_bit_delays == (0.0,) * 5
        assert res.out == EV0

    def test_full_weight_reference_value(self, cell, tech, spec31):
        res = mu.simulate_multiply(EV0, spec31, 1.2, cell, tech)
        assert res.delta_t == pytest.approx(-3.2085e-9, rel=1e-12, abs=0)

    def test_ideal_matches_closed_form_everywhere(self, cell, tech):
        for weight in range(0, 32):
            spec = MultiplierSpec.from_weight(weight, 5)
            for v_a in np.arange(0.075, 1.2001, 0.075):
                got = mu.simulate_multiply(EV0, spec, float(v_a), cell, tech).delta_t
                want = ideal_delta(weight, float(v_a))
                assert got == pytest.approx(want, rel=1e-12, abs=1e-30)

    def test_relay_antisymmetry_exact(self, cell, tech, fit):
        for model in ("ideal", "nonlinear"):
            for seed in (None, 42):
                kw = dict(model=model, fit=fit if seed is not None else None, seed=seed)
                pos = mu.simulate_multiply(
                    EV0, MultiplierSpec.from_weight(21, 5), 1.1, cell, tech, **kw
                )
                neg = mu.simulate_multiply(
                    EV0, MultiplierSpec.from_weight(-21, 5), 1.1, cell, tech, **kw
                )
                assert neg.delta_t == -pos.delta_t

    def test_relay_swaps_event_paths(self, cell, tech):
        pos = mu.simulate_multiply(EV0, MultiplierSpec.from_weight(5, 5), 1.0, cell, tech)
        neg = mu.simulate_multiply(EV0, MultiplierSpec.from_weight(-5, 5), 1.0, cell, tech)
        assert pos.out.t_var == neg.out.t_ref
        assert pos.out.t_ref == neg.out.t_var

    def test_output_event_consistent_with_delta(self, cell, tech):
        spec = MultiplierSpec.from_weight(13, 5)
        ev_in = mu.ReferentialEvent(t_var=3e-9, t_ref=2.5e-9)
        res = mu.simulate_multiply(ev_in, spec, 0.9, cell, tech)
        assert res.out.referential_delay - ev_in.referential_delay == pytest.approx(
            res.delta_t, rel=1e-9, abs=1e-24
        )

    def test_bypassed_bits_contribute_nothing(self, cell, tech, fit):
        spec = MultiplierSpec.from_weight(0b00100, 5)
        res = mu.simulate_multiply(EV0, spec, 1.0, cell, tech, fit=fit, seed=3)
        assert res.per_bit_delays[0] == res.per_bit_delays[1] == 0.0
        assert res.per_bit_delays[3] == res.per_bit_delays[4] == 0.0
        assert res.per_bit_delays[2] != 0.0
        assert res.delta_t == res.per_bit_delays[2]

    def test_input_floor_warns_but_runs(self, cell, tech):
        spec = MultiplierSpec.from_weight(1, 5)
        res = mu.simulate_multiply(EV0, spec, 0.05, cell, tech)
        assert res.warnings
        assert "floor" in res.warnings[0]

    def test_out_of_range_input_rejected(self, cell, tech):
        with pytest.raises(RegimeError):
            mu.simulate_multiply(EV0, MultiplierSpec.from_weight(1, 5), 1.3, cell, tech)

    def test_determinism(self, cell, tech, fit, spec31):
        a = mu.simulate_multiply(EV0, spec31, 1.0, cell, tech, fit=fit, seed=11)
        b = mu.simulate_multiply(EV0, spec31, 1.0, cell, tech, fit=fit, seed=11)
        assert a == b

    @given(
        weight=st.integers(min_value=-31, max_value=31),
        v_a=st.floats(min_value=0.075, max_value=1.2),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_sign_antisymmetry_property(self, weight, v_a, seed):
        cell, tech, fit = CellDesign(), TechnologyProfile(), JitterFit()
        pos = mu.simulate_multiply(
            EV0, MultiplierSpec.from_weight(abs(weight), 5), v_a, cell, tech, fit=fit, seed=seed
        )
        neg = mu.simulate_multiply(
            EV0, MultiplierSpec.from_weight(-abs(weight), 5), v_a, cell, tech, fit=fit, seed=seed
        )
        assert neg.delta_t == -pos.delta_t


class TestJitterAccumulation:
    def test_variance_matches_traversed_cells(self, cell, tech, fit):
        spec = MultiplierSpec.from_weight(31, 5)
        trials = 100_000
        deltas = mu.dot_product_trials(
            [31], [1.0], spec, cell, tech, fit=fit, seed=2024, trials=trials
        )
        expected_var = sum(
            total_jitter(cell.with_current(spec.bit_current(i)), fit).var_sd
            + total_jitter(cell.with_current(spec.bit_current(i)), fit).var_td
            for i in range(5)
        )
        assert np.var(deltas, ddof=1) == pytest.approx(expected_var, rel=0.05, abs=0)
        assert np.mean(deltas) == pytest.approx(ideal_delta(31, 1.0), rel=0.05)

    def test_pair_factor_doubles_variance(self, cell, tech, fit):
        spec = MultiplierSpec.from_weight(1, 5)
        trials = 100_000
        single = mu.dot_product_trials(
            [1], [1.0], spec, cell, tech, fit=fit, seed=1, trials=trials, pair_factor=1
        )
        double = mu.dot_product_trials(
            [1], [1.0], spec, cell, tech, fit=fit, seed=1, trials=trials, pair_factor=2
        )
        assert np.var(double, ddof=1) == pytest.approx(2 * np.var(single, ddof=1), rel=0.1, abs=0)

    def test_single_set_bit_variance(self, cell, tech, fit):
        spec = MultiplierSpec.from_weight(0b10000, 5)
        trials = 100_000
        deltas = mu.dot_product_trials(
            [16], [1.0], spec, cell, tech, fit=fit, seed=5, trials=trials
        )
        slow = cell.with_current(spec.bit_current(4))
        model = total_jitter(slow, fit)
        assert np.var(deltas, ddof=1) == pytest.approx(model.var_sd + model.var_td, rel=0.05, abs=0)

    def test_no_fit_means_deterministic_trials(self, cell, tech, spec31):
        deltas = mu.dot_product_trials([7], [1.0], spec31, cell, tech, trials=100)
        assert np.all(deltas == deltas[0])

    def test_trials_reproducible(self, cell, tech, fit, spec31):
        a = mu.dot_product_trials([7], [1.0], spec31, cell, tech, fit=fit, seed=9, trials=512)
        b = mu.dot_product_trials([7], [1.0], spec31, cell, tech, fit=fit, seed=9, trials=512)
        assert np.array_equal(a, b)


class TestDotProduct:
    def test_hand_summed_oracle(self, cell, tech, spec31):
        total, trace = mu.simulate_dot_product([3, -2], [1.0, 0.9], spec31, cell, tech)
        assert total == pytest.approx(-1.035e-10, rel=1e-12, abs=0)
        assert len(trace) == 2
        assert trace[0].delta_t == pytest.approx(ideal_delta(3, 1.0), rel=1e-12, abs=0)
        assert trace[1].delta_t == pytest.approx(ideal_delta(-2, 0.9), rel=1e-12, abs=0)

    def test_all_zero_weights(self, cell, tech, spec31):
        total, _ = mu.simulate_dot_product([0, 0, 0], [1.0, 0.8, 0.3], spec31, cell, tech)
        assert total == 0.0

    def test_permutation_invariance(self, cell, tech, spec31):
        pairs = [(3, 1.0), (-2, 0.9), (7, 0.4)]
        a, _ = mu.simulate_dot_product(*zip(*pairs), spec31, cell, tech)
        b, _ = mu.simulate_dot_product(*zip(*reversed(pairs)), spec31, cell, tech)
        assert a == pytest.approx(b, rel=1e-12, abs=0)

    def test_chained_events(self, cell, tech, spec31):
        total, trace = mu.simulate_dot_product([1, 1], [1.0, 1.0], spec31, cell, tech)
        assert trace[1].event_in == trace[0].event_out
        assert trace[-1].event_out.referential_delay == pytest.approx(total, rel=1e-9, abs=0)

    def test_weight_overflow(self, cell, tech, spec31):
        with pytest.raises(OverflowError):
            mu.simulate_dot_product([32], [1.0], spec31, cell, tech)
        with pytest.raises(OverflowError):
            mu.simulate_dot_product([-32], [1.0], spec31, cell, tech)

    def test_length_mismatch(self, cell, tech, spec31):
        with pytest.raises(ValueError):
            mu.simulate_dot_product([1, 2], [1.0], spec31, cell, tech)

    def test_trace_determinism(self, cell, tech, fit, spec31):
        a = mu.simulate_dot_product([3, -2], [1.0, 0.9], spec31, cell, tech, fit=fit, seed=77)
        b = mu.simulate_dot_product([3, -2], [1.0, 0.9], spec31, cell, tech, fit=fit, seed=77)
        assert a == b


class TestDifferential:
    def test_reduces_to_single_ended_at_zero_alpha(self, cell, tech, spec31):
        v_a = 0.3
        diff = mu.differential_multiply(spec31, v_a, 0.0, cell, tech)
        single = mu.simulate_multiply(EV0, spec31, spec31.v_a0 + v_a, cell, tech).delta_t
        assert diff == single

    def test_odd_symmetry_exact(self, cell, tech, spec31):
        for v_a in (0.1, 0.25, 0.4):
            plus = mu.differential_multiply(spec31, v_a, 0.1, cell, tech)
            minus = mu.differential_multiply(spec31, -v_a, 0.1, cell, tech)
            assert minus == -plus

    def test_quadratic_cancellation(self, cell, tech, spec31):
        alpha = 0.1
        x = np.linspace(-0.4, 0.4, 11)
        # single-ended transfer keeps the full quadratic term
        single = np.array(
            [
                mu.simulate_multiply(
                    EV0, spec31, spec31.v_a0 + v, cell, tech, distortion_alpha=alpha
                ).delta_t
                for v in x
            ]
        )
        differential = np.array(
            [mu.differential_multiply(spec31, v, alpha, cell, tech) for v in x]
        )
        c_single = np.polynomial.polynomial.polyfit(x, single, 2)[2]
        c_diff = np.polynomial.polynomial.polyfit(x, differential, 2)[2]
        assert abs(c_single) > 0
        assert abs(c_diff) <= 1e-9 * abs(c_single)


class TestTransferSweep:
    def test_iso_weight_rows_affine(self, cell, tech, spec31):
        v_grid = np.linspace(0.375, 1.2, 12)
        rows = mu.transfer_sweep(spec31, v_grid, [21], cell, tech)
        deltas = np.array([r["delta_t_s"] for r in rows])
        coeffs = np.polynomial.polynomial.polyfit(v_grid, deltas, 1)
        resid = deltas - np.polynomial.polynomial.polyval(v_grid, coeffs)
        assert np.max(np.abs(resid)) < 1e-12 * np.max(np.abs(deltas))

    def test_iso_input_rows_proportional_to_weight(self, cell, tech, spec31):
        weights = [1, 2, 5, 17, 31]
        rows = mu.transfer_sweep(spec31, [1.1], weights, cell, tech)
        units = [r["delta_t_s"] / w for r, w in zip(rows, weights)]
        for u in units[1:]:
            assert u == pytest.approx(units[0], rel=1e-12, abs=0)

    def test_row_schema(self, cell, tech, spec31):
        rows = mu.transfer_sweep(spec31, [0.9], [-3], cell, tech, seed=5)
        assert rows[0]["w"] == 3 and rows[0]["s"] == -1
        assert rows[0]["model"] == "ideal" and rows[0]["seed"] == 5

    def test_presentation_sign_flip(self, cell, tech, spec31):
        plain = mu.transfer_sweep(spec31, [1.2], [31], cell, tech)[0]["delta_t_s"]
        flipped = mu.transfer_sweep(
            spec31, [1.2], [31], cell, tech, positive_means_greater_va=True
        )[0]["delta_t_s"]
        assert flipped == -plain
        assert flipped > 0  # v_a above v_a0 reads positive in presentation mode

    def test_nonlinear_deviation_grows_when_constraint_violated(self, cell, tech):
        from delaymac.cell import td_linearity_margin

        v_grid = np.linspace(0.4, 1.2, 13)
        dv0_max = 0.3193772727272728

        def max_affine_deviation(i_fast):
            spec = MultiplierSpec.from_weight(31, 5, i_star_fastest=i_fast)
            rows = mu.transfer_sweep(spec, v_grid, [31], cell, tech, model="nonlinear")
            deltas = np.array([r["delta_t_s"] for r in rows])
            coeffs = np.polynomial.polynomial.polyfit(v_grid, deltas, 1)
            resid = deltas - np.polynomial.polynomial.polyval(v_grid, coeffs)
            return np.max(np.abs(resid)) / np.max(np.abs(deltas))

        compliant_i, violating_i = 1e-6, 0.2e-6
        margin_ok = td_linearity_margin(cell.with_current(compliant_i / 32), tech, dv0_max)
        margin_bad = td_linearity_margin(cell.with_current(violating_i / 32), tech, dv0_max)
        assert margin_ok > 1 > margin_bad
        assert max_affine_deviation(violating_i) > max_affine_deviation(compliant_i)
