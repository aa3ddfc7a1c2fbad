"""The array engine behind every multiplier path and its single jitter stream."""

import hashlib
import json
import math

import numpy as np
import pytest

from delaymac import multiplier as mu
from delaymac.cell import initial_drop, latch_delay
from delaymac.jitter import total_jitter

WEIGHTS = [31, -5, 0, 3, -16, 21, 7]
V_AS = [1.0, 0.9, 0.4, 0.3, 1.2, 0.76, 0.1]

# 256-stage chain pinned byte for byte (ideal model, default config)
GOLDEN_WEIGHTS = ",".join(str((7 * k) % 63 - 31) for k in range(256))
GOLDEN_VAS = ",".join(f"{0.1 + (k % 23) * 0.05:.2f}" for k in range(256))


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_trials(path):
    lines = path.read_text().splitlines()[1:-2]
    return [float(line.split(",")[1]) for line in lines]


def test_trial_zero_is_the_traced_chain(cell, tech, fit, spec31):
    trials = mu.simulate_chain(WEIGHTS, V_AS, spec31, cell, tech, fit=fit, seed=5, trials=300).deltas
    chain = mu.simulate_chain(WEIGHTS, V_AS, spec31, cell, tech, fit=fit, seed=5)
    total, trace = chain.deltas[0], chain.trace(WEIGHTS, V_AS)
    assert trials[0] == total
    assert sum(s.delta_t for s in trace) == pytest.approx(total, rel=1e-12, abs=0)
    assert len(set(trials.tolist())) == 300


def test_seeded_single_multiply_values(cell, tech, fit, spec31):
    run = mu.simulate_chain([21], [1.1], spec31, cell, tech, fit=fit, seed=42)
    assert run.stage_deltas[0] == -1.683338933094502e-09


def test_nonlinear_bits_match_scalar_latch_delay(cell, tech, spec31):
    v_as = list(np.linspace(0.075, 1.2, 16))
    run = mu.simulate_chain([31] * 16, v_as, spec31, cell, tech, model="nonlinear")
    for i in range(spec31.n_bits):
        cell_i = cell.with_current(spec31.i_star_fastest / 2.0**i)
        t_ref = latch_delay(initial_drop(spec31.v_a0, cell_i, tech), cell_i, tech)
        for s, v_a in enumerate(v_as):
            t_var = latch_delay(initial_drop(v_a, cell_i, tech), cell_i, tech)
            assert abs(run.per_bit[s, i] - (t_var - t_ref)) <= 1e-12 * t_var


def test_sweep_rows_are_stages_of_trial_zero(cell, tech, spec31):
    rows = mu.transfer_sweep(spec31, [0.5, 1.1], [3, -7], cell, tech)
    run = mu.simulate_chain([3, 3, -7, -7], [0.5, 1.1, 0.5, 1.1], spec31, cell, tech)
    assert [r["delta_t_s"] for r in rows] == run.stage_deltas.tolist()


def test_cli_noisy_single_trial_csv_equals_trace(run, tmp_path):
    assert run(
        "simulate", "--weights", "3,-2", "--va", "1.0,0.9", "--model", "noisy",
        "--seed", 5, "--trials", 1, "--out", tmp_path / "n.csv",
    ) == 0
    trace = json.loads((tmp_path / "n.trace.json").read_text())
    assert read_trials(tmp_path / "n.csv") == [trace["total_delta_t_s"]]


def test_cli_ideal_chain_golden(run, tmp_path):
    args = ("simulate", f"--weights={GOLDEN_WEIGHTS}", "--va", GOLDEN_VAS, "--out", tmp_path / "g.csv")
    assert run(*args) == 0
    assert sha256(tmp_path / "g.csv") == "11353fe15613d7df9f1aa5a3956b13057774cfbc5f069f404353eb477ad963ed"
    assert sha256(tmp_path / "g.trace.json") == (
        "a6bff51ab57ab660f609a1717dfac741466ea36dec5bd394af92645d4ae99509"
    )


def test_cli_reports_the_input_floor(run, tmp_path, capsys):
    assert run("simulate", "--weights", "1,2", "--va", "0.05,1.0", "--out", tmp_path / "f.csv") == 0
    err = capsys.readouterr().err
    assert err == "warning: 1 of 2 stages have v_a below the 0.075 V input floor\n"


def test_cli_floor_warning_leaves_outputs_unchanged(run, tmp_path):
    assert run("simulate", "--weights", "1", "--va", "0.05", "--out", tmp_path / "f.csv") == 0
    assert sha256(tmp_path / "f.csv") == "419123cb42f7587251d57aa339be8add916160d129de2e1c3235d28948db71a0"
    assert sha256(tmp_path / "f.trace.json") == (
        "ddb6ad0aacf0c3591dc94bb912b944ba965405b96229940da92b8aa37a0d07e6"
    )


@pytest.mark.parametrize("weights", ["99", "1,-32", "-99999999999999999999999"])
def test_cli_rejects_wide_weights(fails_cleanly, tmp_path, weights):
    values = ",".join(["1.0"] * len(weights.split(",")))
    err = fails_cleanly("simulate", f"--weights={weights}", "--va", values, "--out", tmp_path / "w.csv")
    assert "2**n_bits" in err
    assert not (tmp_path / "w.csv").exists()


def traversed_sigmas(weights, spec, cell, fit):
    """Signed sigma of every traversed cell, stage-major, then bit."""
    out = []
    for w in weights:
        sign = -1.0 if w < 0 else 1.0
        for i in range(spec.n_bits):
            if abs(w) >> i & 1:
                sigma = total_jitter(cell.with_current(spec.i_star_fastest / 2.0**i), fit).sigma_total
                out.append(sign * sigma)
    return out


def test_later_trials_are_one_normal_each(cell, tech, fit, spec31):
    trials, seed = 200, 23
    got = mu.simulate_chain(WEIGHTS, V_AS, spec31, cell, tech, fit=fit, seed=seed, trials=trials).deltas
    w = traversed_sigmas(WEIGHTS, spec31, cell, fit)
    rng = np.random.Generator(np.random.PCG64(seed))
    rng.standard_normal(len(w))  # trial 0's per-cell normals
    quiet = mu.simulate_chain(WEIGHTS, V_AS, spec31, cell, tech, trials=1).deltas[0]
    scale = math.sqrt(math.fsum(x * x for x in w))
    want = quiet + scale * rng.standard_normal(trials - 1)
    np.testing.assert_allclose(got[1:], want, rtol=0, atol=1e-12 * scale)


def test_mixed_sign_chain_variance(cell, tech, fit, spec31):
    deltas = mu.simulate_chain(WEIGHTS, V_AS, spec31, cell, tech, fit=fit, seed=31, trials=100_000).deltas
    want = sum(
        total_jitter(cell.with_current(spec31.i_star_fastest / 2.0**i), fit).sigma_total ** 2
        for w in WEIGHTS for i in range(spec31.n_bits) if abs(w) >> i & 1
    )
    assert np.var(deltas, ddof=1) == pytest.approx(want, rel=0.05, abs=0)


@pytest.mark.parametrize("model", mu.MODELS)
def test_no_fit_trials_are_all_the_quiet_total(cell, tech, spec31, model):
    run = mu.simulate_chain(WEIGHTS, V_AS, spec31, cell, tech, model=model, seed=3, trials=40)
    single = mu.simulate_chain(WEIGHTS, V_AS, spec31, cell, tech, model=model, trials=1)
    assert run.deltas.tolist() == [single.deltas[0]] * 40
