"""CLI outputs and start-up: the region CSV writer, `--seed` checks, lazy scipy."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import delaymac
from delaymac import cli
from delaymac.config import default_config
from delaymac.design_space import DesignRegion, constraint_region
from delaymac.units import format_number

HEADER = ("c_star", "i_star", "c1", "c2", "c3", "feasible")
SPANS = ("--c-span", "0.7f:33f", "--i-span", "60n:15u", "--grid-points", 200)


def reference_csv(region):
    """csv.writer over csv_rows(), floats through format_number."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(HEADER)
    for row in region.csv_rows():
        writer.writerow([format_number(v) if isinstance(v, float) else v for v in row])
    return buf.getvalue().encode()


def library_region(argv):
    """The region the CLI computes for `region` argv under the default config."""
    args = cli.build_parser().parse_args(["region", *map(str, argv), "--out", "unused.csv"])
    cfg = default_config()
    c_grid, i_grid = cli._grids(args)
    return constraint_region(args.bits, c_grid, i_grid, cfg.cell, cfg.tech, cfg.fit, epsilon=args.epsilon)


@pytest.mark.parametrize(
    "argv, code",
    [
        (("--bits", 5), 0),
        (("--bits", 7), 2),
        (("--bits", 5, *SPANS), 0),
        (("--bits", 7, *SPANS), 2),
        (("--bits", 4, "--epsilon", 2.5), 0),
        (("--bits", 4, "--epsilon", 2.5, *SPANS), 0),
        (("--bits", 5, "--epsilon", 2.5, *SPANS), 2),
    ],
)
def test_region_csv_matches_reference(run, tmp_path, argv, code):
    assert run("region", *argv, "--out", tmp_path / "r.csv") == code
    assert (tmp_path / "r.csv").read_bytes() == reference_csv(library_region(argv))


def test_region_out_without_suffix(run, tmp_path):
    argv = ("--bits", 4, *SPANS)
    assert run("region", *argv, "--out", tmp_path / "reg") == 0
    assert (tmp_path / "reg.csv").read_bytes() == reference_csv(library_region(argv))
    assert (tmp_path / "reg.summary.json").is_file() and (tmp_path / "reg.manifest.json").is_file()


def test_writer_covers_every_mask_code(tmp_path):
    # masks drawn independently, so all 16 codes occur (feasible need not be
    # their conjunction here), on axes whose reprs differ in length and form
    rng = np.random.default_rng(3)
    c_grid = np.array([5e-324, 1e-15, 0.1, 1.0, 123456789.0, 1e16, 2.5e-7])
    i_grid = np.geomspace(1e-9, 1e3, 41)
    masks = rng.random((4, c_grid.size, i_grid.size)) < 0.5
    region = DesignRegion(c_grid, i_grid, *masks, n_bits=3)
    codes = masks[0] * 8 + masks[1] * 4 + masks[2] * 2 + masks[3]
    assert set(codes.ravel().tolist()) == set(range(16))
    cli._write_region_csv(tmp_path / "r.csv", region)
    assert (tmp_path / "r.csv").read_bytes() == reference_csv(region)


def test_csv_rows_types():
    region = library_region(("--bits", 5, *SPANS))
    rows = region.csv_rows()
    assert len(rows) == 200 * 200
    assert {tuple(map(type, row)) for row in rows} == {(float, float, int, int, int, int)}
    ci, ii = 17, 123
    assert rows[ci * 200 + ii] == (
        float(region.grid_cstar[ci]),
        float(region.grid_istar[ii]),
        int(region.mask_c1[ci, ii]),
        int(region.mask_c2[ci, ii]),
        int(region.mask_c3[ci, ii]),
        int(region.feasible[ci, ii]),
    )


@pytest.mark.parametrize("model", ["ideal", "noisy"])
def test_negative_seed_fails_cleanly(fails_cleanly, tmp_path, model):
    err = fails_cleanly(
        "simulate", "--weights", 3, "--va", 1.0, "--model", model, "--seed", -1, "--out", tmp_path / "s.csv"
    )
    assert "--seed" in err
    assert not (tmp_path / "s.csv").exists()


# Runs each subcommand once in a fresh interpreter, then lists the scipy
# modules loaded.
COLD_START = """
import delaymac.cli, json, sys
for argv in (
    ["--version"],
    ["region", "--bits", "5", "--grid-points", "16", "--out", "r.csv"],
    ["maxbits", "--epsilon-grid", "1:3:3", "--grid-points", "16", "--out", "m.csv"],
    ["simulate", "--weights", "3,-5", "--va", "1.0,0.4", "--model", "noisy", "--trials", "4", "--out", "s.csv"],
    ["energy", "--out", "e"],
    ["bias", "--bits", "5", "--out", "b"],
    ["calibrate", "--grid-points", "16"],
):
    try:
        delaymac.cli.main(argv)
    except SystemExit:
        pass
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def test_cold_start_loads_no_scipy(tmp_path):
    src = str(Path(delaymac.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", COLD_START],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": src, "DELAYMAC_CONFIG_DIR": str(tmp_path / "confdir")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []
