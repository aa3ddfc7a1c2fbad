"""The one per-term pair search of calibrate_units, and its tie warning."""

import json

import pytest

from delaymac import design_space as ds
from delaymac.errors import CalibrationError
from delaymac.params import JitterFit

MAX_BITS_ONLY = [{"kind": "max_bits", "bits": 5}]


def test_default_targets_at_16_points_get_the_best_pair(cell, tech, fit):
    # 0.335530172594762 is the best discrete global scale (C in fF, I in uA) here
    result = ds.calibrate_units(ds.DEFAULT_CALIBRATION_TARGETS, fit, tech, cell, *ds.default_grids(16))
    assert all(result.targets_met)
    assert result.convention.startswith("per-term pair")
    assert result.residual < 0.335530172594762
    assert result.tied_scales == 1


def test_failure_names_only_the_missed_targets(cell, tech, fit):
    # every candidate meets n = 1; none meets n = 40
    targets = [{"kind": "feasible", "n": 40}, {"kind": "feasible", "n": 1}]
    with pytest.raises(CalibrationError, match=r"missed target indices \[0\]$"):
        ds.calibrate_units(targets, fit, tech, cell)


def test_a_lone_max_bits_target_leaves_the_scale_free(cell, tech, fit):
    result = ds.calibrate_units(MAX_BITS_ONLY, fit, tech, cell)
    assert all(result.targets_met) and result.residual == 0.0
    assert result.tied_scales > 1
    assert set(result.to_dict()) == {"unit_scale", "residual", "targets_met", "convention"}


def test_each_distinct_magnitude_is_evaluated_once(cell, tech, fit, monkeypatch):
    # without a max_bits anchor every ray has the one magnitude m = 1:
    # 29 coarse ratios and 9 refinements
    calls = []
    evaluate = ds._evaluate_targets

    def counted(*args, **kwargs):
        calls.append(args[2])
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(ds, "_evaluate_targets", counted)
    result = ds.calibrate_units([{"kind": "feasible", "n": 4}], fit, tech, cell)
    assert all(result.targets_met)
    assert len(calls) <= 38


def test_no_scale_is_evaluated_twice(cell, tech, fit, monkeypatch):
    # the refinement skips factor 1, the winning ray's own ratio, scanned already
    calls = []
    evaluate = ds._evaluate_targets

    def counted(*args, **kwargs):
        calls.append(args[2])
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(ds, "_evaluate_targets", counted)
    result = ds.calibrate_units(ds.DEFAULT_CALIBRATION_TARGETS, fit, tech, cell, *ds.default_grids(128))
    assert all(result.targets_met)
    assert len(calls) == len(set(calls))


class TestCalibrateWarning:
    def test_untied_default_calibrate_is_quiet(self, run, capsys):
        # at 32 points a ratio rederived from the winner's rounded scale is
        # 1 ulp off its ray, and rescanning that would add a second, tied scale
        for args in ((), ("--grid-points", 32)):
            capsys.readouterr()
            assert run("calibrate", *args) == 0
            assert capsys.readouterr().err == ""

    def test_tied_targets_warn_once(self, run, tmp_path, capsys):
        targets = tmp_path / "t.json"
        targets.write_text(json.dumps(MAX_BITS_ONLY))
        capsys.readouterr()
        assert run("calibrate", "--targets", targets) == 0
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("warning:"), captured.err
        assert "do not pin the unit scale" in lines[0]
        # the tie count stays out of the persisted calibration
        data = json.loads((tmp_path / "confdir" / "calibration.json").read_text())
        assert data == json.loads(captured.out)
        assert set(data) == {"unit_scale", "residual", "targets_met", "convention"}


def test_subnormal_scale_edges_are_found_in_few_scans(cell, tech, monkeypatch):
    # with k2 = 1e308 the second scale of every ray is subnormal, so one ulp
    # of the magnitude changes no scale, and an ulp-by-ulp walk to the window
    # edge would not end; the closed-form window makes no such walk
    calls = []
    max_bits = ds._ConstraintTables.max_bits

    def counted(self, *args):
        calls.append(args)
        return max_bits(self, *args)

    monkeypatch.setattr(ds._ConstraintTables, "max_bits", counted)
    try:
        ds.calibrate_units(ds.DEFAULT_CALIBRATION_TARGETS, JitterFit(k2=1e308), tech, cell, *ds.default_grids(16))
    except CalibrationError:
        pass
    assert 0 < len(calls) <= 10_000


def test_calibrate_writes_only_a_scale_maxbits_reads(run, tmp_path, capsys):
    # k1 = 1e300 makes x * var_td / a_ref underflow to 0 on the low sd/td
    # rays; such a scale must be neither searched nor written
    config = tmp_path / "k1.json"
    config.write_text('{"k1": 1e300}')
    calibrated = run("calibrate", "--grid-points", 16, "--config", config)
    read = run("maxbits", "--epsilon-grid", "1:3:3", "--grid-points", 16, "--config", config, "--out", "m.csv")
    assert calibrated in (0, 2), capsys.readouterr().err
    assert calibrated == 2 or read == 0, capsys.readouterr().err


def test_the_magnitude_window_costs_no_max_bits_scan(cell, tech, fit, monkeypatch):
    # the window is read off the m = 1 profile in closed form, so the only
    # max_bits scans are those of the max_bits target, one per evaluation
    evaluations, scans = [], []
    evaluate, max_bits = ds._evaluate_targets, ds._ConstraintTables.max_bits

    def counted_evaluate(*args):
        evaluations.append(args[2])
        return evaluate(*args)

    def counted_max_bits(self, *args):
        scans.append(args)
        return max_bits(self, *args)

    monkeypatch.setattr(ds, "_evaluate_targets", counted_evaluate)
    monkeypatch.setattr(ds._ConstraintTables, "max_bits", counted_max_bits)
    result = ds.calibrate_units(ds.DEFAULT_CALIBRATION_TARGETS, fit, tech, cell, *ds.default_grids(128))
    assert all(result.targets_met)
    assert 0 < len(scans) == len(evaluations)
