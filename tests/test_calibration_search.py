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
    assert result.all_met
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
    assert result.all_met and result.residual == 0.0
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
    assert result.all_met
    assert len(calls) <= 38


class TestCalibrateWarning:
    def test_untied_default_calibrate_is_quiet(self, run, capsys):
        capsys.readouterr()
        assert run("calibrate") == 0
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
    # edge would not end; the galloping search brackets it in a few scans
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


def test_gallop_finds_the_first_true_index():
    for size in range(0, 40):
        for first in range(0, size + 1):
            probes = []

            def pred(k):
                assert 0 <= k < size
                probes.append(k)
                return k >= first

            assert ds._gallop(pred, size) == first
            assert len(probes) <= 2 * size.bit_length() + 2
