"""A unit scale from a config file or a calibration overlay is checked at the boundary."""

import json
import math

import pytest

from delaymac.config import resolve_config
from delaymac.errors import FieldValidationError
from delaymac.params import JitterFit


@pytest.mark.parametrize("scale", [(math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0), (0.0, 1.0)])
def test_fit_requires_finite_positive_scale(scale):
    with pytest.raises(FieldValidationError, match="unit_scale"):
        JitterFit(unit_scale=scale)


@pytest.mark.parametrize("scale", [["a", 1], [None, 1], [{}, 1], [True, 1], "12"])
def test_config_rejects_non_numeric_scale(scale):
    with pytest.raises(FieldValidationError, match="unit_scale"):
        resolve_config({"unit_scale": scale})


@pytest.mark.parametrize("text", ['{"unit_scale": ["a", 1]}', '{"unit_scale": [Infinity, 1]}'])
def test_region_with_bad_config_scale(fails_cleanly, tmp_path, text):
    cfg = tmp_path / "c.json"
    cfg.write_text(text)
    assert "unit_scale" in fails_cleanly("region", "--config", cfg, "--bits", 5, "--out", tmp_path / "r.csv")


def test_infinite_calibration_overlay_names_the_file(fails_cleanly, tmp_path):
    confdir = tmp_path / "confdir"
    confdir.mkdir()
    (confdir / "calibration.json").write_text(json.dumps({"unit_scale": [1e308, math.inf]}))
    err = fails_cleanly("maxbits", "--epsilon-grid", "1:30:5", "--out", tmp_path / "mb.csv")
    assert "calibration.json" in err and "unit_scale" in err
    assert not (tmp_path / "mb.csv").exists()
