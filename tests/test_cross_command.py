"""maxbits, region and calibrate answer the same design-space questions from
one set of constraint tables; on arbitrary grids, spans, unit scales and
excess margins their answers must agree with each other.
"""

import csv
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from delaymac.cli import main
from delaymac.design_space import DEFAULT_CALIBRATION_TARGETS, _ConstraintTables, default_grids
from delaymac.params import DEFAULT_UNIT_SCALE, MAX_BITS_CAP, CellDesign, JitterFit, TechnologyProfile


def _cli(*args):
    try:
        return main([str(a) for a in args])
    except SystemExit as exc:
        return exc.code


def _max_bits(grid_flags, *epsilons):
    """maxbits at each epsilon, through the CLI."""
    lo, hi = epsilons[0], epsilons[-1]
    assert _cli("maxbits", "--epsilon-grid", f"{lo!r}:{hi!r}:{len(epsilons)}", *grid_flags, "--out", "m.csv") == 0
    with open("m.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["epsilon"]) for r in rows] == list(epsilons)
    return [int(r["n_max"]) for r in rows]


def _region(grid_flags, n, epsilon=1.0):
    """region --bits n: its exit code, feasible CSV rows and summary."""
    code = _cli("region", "--bits", n, "--epsilon", repr(epsilon), *grid_flags, "--out", "r.csv")
    with open("r.csv") as fh:
        feasible = [(float(r["c_star"]), float(r["i_star"])) for r in csv.DictReader(fh) if r["feasible"] == "1"]
    with open("r.summary.json") as fh:
        return code, feasible, json.load(fh)


def _confirm(target, grid_flags, c_grid, i_grid):
    """Whether the CLI, reading the calibrated overlay, meets one calibration target."""
    kind, eps = target["kind"], target.get("epsilon", 1.0)
    if kind == "max_bits":
        return _max_bits(grid_flags, eps) == [target["bits"]]
    if kind in ("feasible", "infeasible"):
        return _region(grid_flags, target["n"], eps)[0] == (0 if kind == "feasible" else 2)
    if kind == "optimum":
        code, _, summary = _region(grid_flags, target["n"], eps)
        if code != 0:
            return False
        allowed = target["grid_steps"] + 1e-9
        steps_c = abs(math.log(summary["optimum"]["c_star"] / target["c_star"])) / math.log(c_grid[1] / c_grid[0])
        steps_i = abs(math.log(summary["optimum"]["i_star"] / target["i_star"])) / math.log(i_grid[1] / i_grid[0])
        return steps_c <= allowed and steps_i <= allowed
    # bits_reach: max_bits drops to target["bits"] at an epsilon in [lo, hi]
    lo, hi = (1 - target["rel_tol"]) * eps, (1 + target["rel_tol"]) * eps
    above_lo, above_hi = _max_bits(grid_flags, lo, float(np.nextafter(hi, math.inf)))
    return above_lo > target["bits"] >= above_hi


@settings(max_examples=30, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    points=st.integers(16, 40),
    c_lo=st.floats(-15.5, -14.7),  # log10 of the span's low end, farads
    c_decades=st.floats(0.5, 3.0),
    i_lo=st.floats(-7.7, -6.1),  # log10 of the span's low end, amperes
    i_decades=st.floats(0.5, 3.0),
    magnitude=st.floats(-1.0, 1.0),  # log10 of the unit scale's factor
    ratio=st.floats(-1.0, 1.0),  # log10 of the s1/s2 factor ratio
    epsilon=st.one_of(st.just(1.0), st.floats(1.0, 20.0)),
    keep=st.lists(st.booleans(), min_size=4, max_size=4),  # which default targets after max_bits to fit
)
def test_commands_agree(tmp_path, points, c_lo, c_decades, i_lo, i_decades, magnitude, ratio, epsilon, keep):
    c_span = (10.0**c_lo, 10.0 ** (c_lo + c_decades))
    i_span = (10.0**i_lo, 10.0 ** (i_lo + i_decades))
    grid_flags = ["--grid-points", points, "--c-span", "%r:%r" % c_span, "--i-span", "%r:%r" % i_span]
    scale = [DEFAULT_UNIT_SCALE[0] * 10.0 ** (magnitude + ratio), DEFAULT_UNIT_SCALE[1] * 10.0 ** (magnitude - ratio)]
    with pytest.MonkeyPatch.context() as mp:
        home = Path(tempfile.mkdtemp(dir=tmp_path))
        (home / "scaled").mkdir()
        mp.setenv("DELAYMAC_CONFIG_DIR", str(home))
        mp.chdir(home / "scaled")
        (home / "scaled" / "c.json").write_text(json.dumps({"unit_scale": scale}))
        scaled = grid_flags + ["--config", "c.json"]

        # maxbits gives k, so region has a point at k (for k >= 1) and none at k + 1
        (k,) = _max_bits(scaled, epsilon)
        c_grid, i_grid = default_grids(points, c_span, i_span)
        tables = _ConstraintTables(c_grid, i_grid, CellDesign(), TechnologyProfile(), JitterFit())
        assert tables.max_bits(epsilon, tuple(scale)) == k
        if k < MAX_BITS_CAP:
            assert _region(scaled, k + 1, epsilon)[0] == 2
        if k >= 1:
            code, feasible, summary = _region(scaled, k, epsilon)
            assert code == 0
            assert summary["feasible_points"] == len(feasible)
            # the optimum: the largest feasible i_star, then the smallest c_star there
            i_best = max(i for _, i in feasible)
            c_best = min(c for c, i in feasible if i == i_best)
            assert summary["optimum"] == {"c_star": c_best, "i_star": i_best}
            assert tables.optimum(k, epsilon, tuple(scale)) == (c_best, i_best)

        # a calibration that meets every target is confirmed by the commands
        # that read its overlay, on the same grid and spans
        mp.chdir(home)
        first, *rest = DEFAULT_CALIBRATION_TARGETS
        targets = [first] + [t for t, kept in zip(rest, keep) if kept]
        (home / "t.json").write_text(json.dumps(targets))
        if _cli("calibrate", *grid_flags, "--targets", "t.json") == 0:
            assert json.loads((home / "calibration.json").read_text())["targets_met"] == [True] * len(targets)
            for target in targets:
                assert _confirm(target, grid_flags, c_grid, i_grid), target
