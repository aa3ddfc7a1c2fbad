"""Each command line, run through the launcher in a fresh interpreter, loads
only the modules it runs: numpy stays out of --version, --help, energy, bias and
every flag or input-file error, and no command loads another command's model."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import delaymac

# Runs one command line through the launcher, then reports its exit code and
# whether it loaded numpy and which delaymac modules.
START = """
import json, runpy, sys
sys.argv = ["delaymac", *sys.argv[1:]]
try:
    runpy.run_module("delaymac", run_name="__main__", alter_sys=True)
    code = 0
except SystemExit as exc:
    code = exc.code
print(json.dumps({"code": code, "loaded": [m for m in sys.modules if m == "numpy" or m.startswith("delaymac.")]}))
"""

GRID = ("--grid-points", "16")
MODELS = ("delaymac.design_space", "delaymac.multiplier", "delaymac.jitter")

CASES = [
    (("--version",), 0, ("numpy", *MODELS)),
    (("--help",), 0, ("numpy", *MODELS)),
    (("region", "--help"), 0, ("numpy", *MODELS)),
    (("energy", "--out", "e"), 0, ("numpy", *MODELS)),
    (("bias", "--bits", "5", "--out", "b"), 0, ("numpy", *MODELS)),
    (("region", "--bits", "x", "--out", "r.csv"), 1, ("numpy", *MODELS)),
    (("region", "--bits", "5", "--config", "typo.json", "--out", "r.csv"), 1, ("numpy", *MODELS)),
    # every flag and input file is checked before a model loads
    (("region", "--bits", "5", "--c-span", "bad", "--out", "r.csv"), 1, ("numpy", *MODELS)),
    (("region", "--bits", "5", *GRID, "--c-span", "1f:1e309", "--out", "r.csv"), 1, ("numpy", *MODELS)),
    (("region", "--bits", "5", "--grid-points", "5", "--out", "r.csv"), 1, ("numpy", *MODELS)),
    (("region", "--bits", "5", "--epsilon", "nan", "--out", "r.csv"), 1, ("numpy", *MODELS)),
    (("maxbits", "--epsilon-grid", "1:2", "--out", "m.csv"), 1, ("numpy", *MODELS)),
    (("simulate", "--weights", "1,x", "--va", "1", "--out", "s.csv"), 1, ("numpy", *MODELS)),
    (("simulate", "--weights", "1", "--va", "1", "--trials", "0", "--out", "s.csv"), 1, ("numpy", *MODELS)),
    (("calibrate", "--grid-points", "5"), 1, ("numpy", *MODELS)),
    (("calibrate", "--targets", "kind.json"), 1, ("numpy", *MODELS)),
    (("calibrate", "--targets", "field.json"), 1, ("numpy", *MODELS)),
    (("region", "--bits", "5", *GRID, "--out", "r.csv"), 0, ("delaymac.multiplier", "delaymac.jitter")),
    (("maxbits", "--epsilon-grid", "1:3:3", *GRID, "--out", "m.csv"), 0,
     ("delaymac.multiplier", "delaymac.jitter")),
    (("calibrate", *GRID), 0, ("delaymac.multiplier", "delaymac.jitter")),
    (("simulate", "--weights", "3,-5", "--va", "1.0,0.4", "--model", "noisy", "--trials", "4", "--out", "s.csv"),
     0, ("delaymac.design_space",)),
]


@pytest.mark.parametrize("argv, code, absent", CASES, ids=[" ".join(case[0]) for case in CASES])
def test_command_loads_only_what_it_runs(tmp_path, argv, code, absent):
    (tmp_path / "typo.json").write_text('{"n_bitz": 5}')
    (tmp_path / "kind.json").write_text('[{"kind": "nope"}]')
    (tmp_path / "field.json").write_text('[{"kind": "max_bits", "bits": 5, "epsilom": 3}]')
    src = str(Path(delaymac.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", START, *argv],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": src, "DELAYMAC_CONFIG_DIR": str(tmp_path / "confdir")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    state = json.loads(proc.stdout.splitlines()[-1])
    assert state["code"] == code, proc.stderr
    assert not set(state["loaded"]) & set(absent), state["loaded"]
