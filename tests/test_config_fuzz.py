"""Any value of any config key, through every command line: one error line or a clean run.

Each run writes a one-key config file and calls cli.main in-process, with
Python warnings raised as errors. It must exit 1 with exactly one stderr
line, or exit 0 or 2 with no traceback and no warning.
"""

import contextlib
import io
import os
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaymac.cli import main
from delaymac.config import KNOWN_KEYS

# raw JSON texts: non-finite, subnormal, huge and negative numbers, and
# values of the wrong type
VALUES = (
    "1e309", "NaN", "1e-320", "0", "-1", '"x"', '"0.5f"', "true", "[]", "{}", "null",
    "1" + "0" * 400, "1e308", "-1e308", "1e300", "1e-300", '"1e309"',
)

CHAIN = ("simulate", "--weights", "3,-2", "--va", "1.0,0.9", "--out", "s.csv")
COMMANDS = {
    "region": ("region", "--bits", "5", "--grid-points", "16", "--out", "r.csv"),
    "maxbits": ("maxbits", "--epsilon-grid", "1:3:3", "--grid-points", "16", "--out", "m.csv"),
    "calibrate": ("calibrate", "--grid-points", "16"),
    "ideal": CHAIN,
    "nonlinear": CHAIN + ("--model", "nonlinear"),
    "noisy": CHAIN + ("--model", "noisy", "--trials", "100", "--seed", "3"),
    "energy": ("energy", "--out", "e"),
    "bias": ("bias", "--bits", "5", "--out", "b"),
}


def assert_clean_run(key: str, value: str, command: str) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "c.json"
        config.write_text(f'{{"{key}": {value}}}')
        argv = [os.path.join(tmp, a) if prev == "--out" else a
                for prev, a in zip((None,) + COMMANDS[command], COMMANDS[command])]
        err = io.StringIO()
        env = {"DELAYMAC_CONFIG_DIR": os.path.join(tmp, "confdir")}
        with (mock.patch.dict(os.environ, env), warnings.catch_warnings(),
              contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err)):
            warnings.simplefilter("error")
            try:
                code = main(argv + ["--config", str(config)])
            except SystemExit as exc:
                code = exc.code
    # a traceback or a warning would have raised out of main
    lines = err.getvalue().splitlines()
    assert code in (0, 2) or (code == 1 and len(lines) == 1), (code, lines)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(key=st.sampled_from(sorted(KNOWN_KEYS)), value=st.sampled_from(VALUES),
       command=st.sampled_from(sorted(COMMANDS)))
def test_any_config_value_fails_cleanly_or_runs_clean(key, value, command):
    assert_clean_run(key, value, command)


# each printed a numpy RuntimeWarning before its exit code
@pytest.mark.parametrize("key, value, command", [
    ("c_re", "1e300", "nonlinear"),
    ("c_re", "1e308", "nonlinear"),
    ("i_0", "1e-320", "nonlinear"),
    ("i_star_fastest", "1e300", "nonlinear"),
    ("i_star_fastest", "1e308", "nonlinear"),
    ("c_s_eff", "1e300", "noisy"),
] + [("c_s_eff", "1e308", command) for command in ("region", "maxbits", "calibrate", "ideal", "nonlinear", "noisy")])
def test_extreme_config_runs_without_numpy_warnings(key, value, command):
    assert_clean_run(key, value, command)
