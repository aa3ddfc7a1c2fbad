"""--trials and the --epsilon-grid step count are capped before anything is
allocated; no test runs a value at either cap."""

import numpy as np
import pytest

from delaymac import cli


class Reached(Exception):
    """Raised by a monkeypatched allocator the check let through."""


@pytest.fixture()
def refuse_chain(monkeypatch):
    def refuse(*args, trials, **kwargs):
        raise Reached(trials)

    monkeypatch.setattr(cli, "simulate_chain", refuse)


@pytest.fixture()
def refuse_linspace(monkeypatch):
    def refuse(lo, hi, steps):
        raise Reached(steps)

    monkeypatch.setattr(np, "linspace", refuse)


def simulate(trials):
    return ("simulate", "--weights", "3", "--va", "0.5", "--model", "noisy", "--trials", trials, "--out", "s.csv")


def maxbits(steps):
    return ("maxbits", "--epsilon-grid", f"1:3:{steps}", "--grid-points", 16, "--out", "m.csv")


@pytest.mark.parametrize("trials", (cli.MAX_TRIALS + 1, 10**30))
def test_huge_trials_rejected_in_one_line(refuse_chain, fails_cleanly, tmp_path, trials):
    assert "--trials" in fails_cleanly(*simulate(trials))
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("steps", (cli.MAX_EPSILON_STEPS + 1, 10**30))
def test_huge_epsilon_steps_rejected_in_one_line(refuse_linspace, fails_cleanly, tmp_path, steps):
    assert "steps" in fails_cleanly(*maxbits(steps))
    assert not any(tmp_path.iterdir())


def test_trials_cap_is_inclusive(refuse_chain, run):
    with pytest.raises(Reached, match=f"^{cli.MAX_TRIALS}$"):
        run(*simulate(cli.MAX_TRIALS))


def test_epsilon_steps_cap_is_inclusive(refuse_linspace, run):
    with pytest.raises(Reached, match=f"^{cli.MAX_EPSILON_STEPS}$"):
        run(*maxbits(cli.MAX_EPSILON_STEPS))


@pytest.mark.parametrize(
    "command, text",
    [("simulate", f"1 to {cli.MAX_TRIALS}"), ("maxbits", f"1 to {cli.MAX_EPSILON_STEPS} steps")],
)
def test_caps_in_help(capsys, command, text):
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args([command, "--help"])
    assert text in " ".join(capsys.readouterr().out.split())  # argparse wraps lines
