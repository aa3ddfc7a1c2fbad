"""One jitter stream: the one-cell sampler is the MAC chain's own draw, and
extreme configs that overflow a closed form fail as input errors."""

import json

import numpy as np
import pytest

from delaymac.jitter import sample_cell_jitter
from delaymac.multiplier import simulate_chain
from delaymac.params import MultiplierSpec


@pytest.mark.parametrize("trials", [1, 2, 100_000])
@pytest.mark.parametrize("seed", [20240601, 777, 5])
@pytest.mark.parametrize("i_fast", [1e-6, 0.2e-6, 20e-6])
def test_one_cell_sampler_is_the_chain_stream(cell, tech, fit, i_fast, seed, trials):
    # at v_a = v_a0 the quiet total is exactly 0, so the deltas are the jitter alone
    spec = MultiplierSpec(i_star_fastest=i_fast)
    chain = simulate_chain([1], [spec.v_a0], spec, cell, tech, fit=fit, seed=seed, trials=trials)
    samples = sample_cell_jitter(seed, cell.with_current(i_fast), fit, trials)
    assert np.array_equal(chain.deltas, samples)


def written(tmp_path):
    return sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*") if p.is_file())


@pytest.mark.parametrize(
    "config, args",
    [
        ({"v_dd": 1e308}, ["energy", "--out", "e"]),
        ({"temperature": "0.5f"}, ["simulate", "--weights", "3", "--va", "1.0", "--model", "nonlinear",
                                   "--out", "s.csv"]),
    ],
    ids=["energy-v_dd-1e308", "nonlinear-temperature-0.5f"],
)
def test_overflowing_closed_form_fails_cleanly(fails_cleanly, tmp_path, config, args):
    (tmp_path / "c.json").write_text(json.dumps(config))
    before = written(tmp_path)
    fails_cleanly(*args, "--config", "c.json")
    assert written(tmp_path) == before
