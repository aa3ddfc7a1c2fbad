"""Each record checks its own fields, and every JSON input file is read one way."""

import pytest

from delaymac import bias as bs
from delaymac.config import resolve_config
from delaymac.errors import FieldValidationError, QuantityError, RegimeError
from delaymac.params import CellDesign, JitterFit, MultiplierSpec, TechnologyProfile
from delaymac.units import coerce_quantity


def written(tmp_path):
    return sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*") if p.is_file())


@pytest.mark.parametrize(
    "cls, name, value",
    [
        (MultiplierSpec, "n_bits", True),
        (MultiplierSpec, "sign", True),
        (MultiplierSpec, "sign", 1.0),
        (MultiplierSpec, "weight_bits", "11111"),
        (JitterFit, "unit_scale", "12"),
        (JitterFit, "unit_scale", (True, True)),
        (CellDesign, "c_star", True),
        (CellDesign, "c_star", "2.2f"),
        (TechnologyProfile, "v_dd", 10**400),
    ],
    ids=["n_bits-bool", "sign-bool", "sign-float", "weight_bits-str", "unit_scale-str", "unit_scale-bools",
         "c_star-bool", "c_star-str", "v_dd-400-digit-int"],
)
def test_record_rejects_a_wrong_type(cls, name, value):
    with pytest.raises(FieldValidationError, match=f"^{name}: "):
        cls(**{name: value})


def test_float_fields_store_floats():
    tech = TechnologyProfile(v_dd=1, temperature=300)
    assert type(tech.v_dd) is float and type(tech.temperature) is float
    assert resolve_config({"v_dd": 1}).digest() == resolve_config({"v_dd": 1.0}).digest()


def test_integral_weight_bits_are_stored_as_ints():
    assert MultiplierSpec(weight_bits=[1.0, 0, 1, 1, 1]).weight_bits == (1, 0, 1, 1, 1)


def test_coerce_quantity_rejects_an_int_too_large_for_a_float():
    with pytest.raises(QuantityError):
        coerce_quantity(10**400)


@pytest.mark.parametrize(
    "content",
    [bytes(range(256)), b'{"n_bits": 1' + b"0" * 5000 + b"}", b"[" * 100_000],
    ids=["binary", "5000-digit", "deep"],
)
def test_undecodable_config_fails_cleanly(fails_cleanly, tmp_path, content):
    (tmp_path / "c.json").write_bytes(content)
    assert "c.json" in fails_cleanly("energy", "--config", "c.json", "--out", "e")
    assert written(tmp_path) == ["c.json"]


def test_undecodable_targets_and_overlay_name_the_file(fails_cleanly, tmp_path):
    (tmp_path / "t.json").write_bytes(bytes(range(256)))
    assert "t.json" in fails_cleanly("calibrate", "--grid-points", 16, "--targets", "t.json")
    (tmp_path / "confdir").mkdir()
    (tmp_path / "confdir" / "calibration.json").write_bytes(bytes(range(256)))
    assert "calibration.json" in fails_cleanly("energy", "--out", "e")
    assert written(tmp_path) == ["confdir/calibration.json", "t.json"]


def test_vref_above_the_ceiling_is_a_regime_error(tech):
    with pytest.raises(RegimeError):
        bs.bias_current(1000.0, tech)


@pytest.mark.parametrize(
    "argv",
    [("--vref", 1000), ("--vref", "0.5", "--ibias", "1u")],
    ids=["overflowing-vref", "vref-and-ibias"],
)
def test_bias_flags_fail_cleanly(fails_cleanly, tmp_path, argv):
    fails_cleanly("bias", "--bits", 5, *argv, "--out", "b")
    assert written(tmp_path) == []
