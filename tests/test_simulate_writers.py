"""simulate's trial CSV and event trace, written from columns, equal the
csv.writer and json.dump bytes of the per-row and per-object payloads."""

import csv
import io
import json
import random

import numpy as np
import pytest

from delaymac import cli
from delaymac.config import default_config
from delaymac.multiplier import ChainResult, simulate_chain
from delaymac.units import format_number

CFG = default_config()


def chain_inputs(stages, seed=0):
    """Weights spanning 0 and both signs (every fifth 0), inputs in (0.1, 1.2) V."""
    rng = random.Random(seed)
    weights = [0 if k % 5 == 2 else rng.randint(-31, 31) for k in range(stages)]
    return weights, [float(f"{rng.uniform(0.1, 1.2):.4f}") for _ in range(stages)]


def run_chain(weights, v_as, model, trials=1):
    engine_model = "ideal" if model == "noisy" else model
    fit = CFG.fit if model == "noisy" else None
    return simulate_chain(weights, v_as, CFG.mult, CFG.cell, CFG.tech,
                          model=engine_model, fit=fit, seed=17, trials=trials)


def reference_trace(chain, weights, v_as):
    """json.dump of the trace payload built from ChainResult.trace."""
    payload = {
        "total_delta_t_s": float(chain.deltas[0]),
        "stages": [
            {
                "stage": s.stage,
                "weight": s.weight,
                "v_a": s.v_a,
                "event_in": {"t_var": s.event_in.t_var, "t_ref": s.event_in.t_ref},
                "event_out": {"t_var": s.event_out.t_var, "t_ref": s.event_out.t_ref},
                "delta_t_s": s.delta_t,
            }
            for s in chain.trace(weights, v_as)
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def reference_trials_csv(deltas, mean, sigma):
    """csv.writer over the trial, mean and sigma rows, floats through format_number."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("trial", "delta_t_s"))
    rows = [(t, float(d)) for t, d in enumerate(deltas)] + [("mean", mean), ("sigma", sigma)]
    for row in rows:
        writer.writerow([format_number(v) if isinstance(v, float) else v for v in row])
    return buf.getvalue()


@pytest.mark.parametrize("model", ("ideal", "nonlinear", "noisy"))
@pytest.mark.parametrize("stages", (0, 1, 511, 512, 513, 4097))
def test_trace_equals_json_dump(tmp_path, model, stages):
    weights, v_as = chain_inputs(stages, seed=stages)
    chain = run_chain(weights, v_as, model)
    cli._write_trace_json(tmp_path / "t.json", chain, weights, v_as)
    assert (tmp_path / "t.json").read_text() == reference_trace(chain, weights, v_as)


def test_trace_of_odd_reprs_equals_json_dump(tmp_path):
    # values whose shortest reprs take every form: subnormal, exponent,
    # negative zero, integral and long mantissas
    values = [5e-324, -0.0, 1e16, 123456789.0, -2.5e-7, 0.1, 1 / 3, -1e-300, 7.0]
    events = np.array([values[k:k + 2] for k in range(0, 8)] + [[0.0, 2.0]])
    chain = ChainResult(np.array([-1e22]), np.array(values[:8]), np.zeros((8, 1)), events, ())
    weights, v_as = [0, -31, 31, 1, -1, 16, 5, 0], [0.0, 1.2, 0.075, 1e-5, 0.5, 0.6000000000000001, 1.0, 0.3]
    cli._write_trace_json(tmp_path / "t.json", chain, weights, v_as)
    assert (tmp_path / "t.json").read_text() == reference_trace(chain, weights, v_as)


@pytest.mark.parametrize("trials", (1, 2, 4095, 4096, 4097))
def test_trials_csv_equals_csv_writer(tmp_path, trials):
    weights, v_as = chain_inputs(9)
    deltas = run_chain(weights, v_as, "noisy", trials).deltas
    mean, sigma = float(np.mean(deltas)), float(np.std(deltas, ddof=1)) if trials > 1 else 0.0
    cli._write_trials_csv(tmp_path / "t.csv", deltas, mean, sigma)
    assert (tmp_path / "t.csv").read_text() == reference_trials_csv(deltas, mean, sigma)


def test_trials_csv_of_odd_reprs_equals_csv_writer(tmp_path):
    deltas = np.array([5e-324, -0.0, 1e16, -1e22, 123456789.0, -2.5e-7, 1 / 3])
    cli._write_trials_csv(tmp_path / "t.csv", deltas, -0.0, 1e-300)
    assert (tmp_path / "t.csv").read_text() == reference_trials_csv(deltas, -0.0, 1e-300)


def test_cli_outputs_equal_the_reference(run, tmp_path):
    weights, v_as = chain_inputs(600, seed=4)
    argv = ("simulate", "--weights=" + ",".join(map(str, weights)), "--va", ",".join(map(repr, v_as)),
            "--model", "nonlinear", "--out", tmp_path / "s.csv")
    assert run(*argv) == 0
    chain = run_chain(weights, v_as, "nonlinear")
    assert (tmp_path / "s.trace.json").read_text() == reference_trace(chain, weights, v_as)
    assert (tmp_path / "s.csv").read_text() == reference_trials_csv(chain.deltas, float(chain.deltas[0]), 0.0)


def broken_chain(trials, **bad):
    arrays = {
        "deltas": np.full(trials, -1e-9),
        "stage_deltas": np.array([-1e-9]),
        "per_bit": np.zeros((1, 5)),
        "events": np.array([[0.0, 0.0], [2e-9, 3e-9]]),
    }
    arrays.update(bad)
    return ChainResult(warnings=(), **arrays)


@pytest.mark.parametrize(
    "trials, bad",
    [
        (1, {"deltas": np.array([np.nan])}),
        (1, {"stage_deltas": np.array([np.inf])}),
        (1, {"events": np.array([[0.0, 0.0], [-np.inf, 3e-9]])}),
        (1, {"events": np.array([[0.0, 0.0], [2e-9, np.nan]])}),
        (3, {"deltas": np.array([-1e-9, np.nan, -1e-9])}),
    ],
)
def test_non_finite_values_write_nothing(fails_cleanly, monkeypatch, tmp_path, trials, bad):
    monkeypatch.setattr(cli, "simulate_chain", lambda *args, **kwargs: broken_chain(trials, **bad))
    argv = ("simulate", "--weights", "3", "--va", "0.5", "--trials", trials, "--out", "s.csv")
    assert "non-finite" in fails_cleanly(*argv)
    assert not any(tmp_path.iterdir())
