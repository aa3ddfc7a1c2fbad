import json

import pytest

from delaymac.config import default_config, dump_config, load_config, resolve_config
from delaymac.errors import ConfigError, FieldValidationError
from delaymac.params import DEFAULT_UNIT_SCALE, thermal_voltage


def write(tmp_path, data):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


def test_minimal_file_fills_defaults(tmp_path):
    cfg = load_config(write(tmp_path, {"c_star": 2.2e-15}))
    assert cfg.cell.c_star == 2.2e-15
    assert cfg.cell.c_s_eff == 0.23e-15
    assert cfg.tech.v_dd == 1.2
    assert cfg.fit.unit_scale == DEFAULT_UNIT_SCALE
    defaulted = {line.split(" = ")[0] for line in cfg.provenance}
    assert "c_star" not in defaulted
    for key in ("v_dd", "v_thn", "i_star", "k1", "unit_scale", "weight_bits"):
        assert key in defaulted


def test_negative_capacitance_names_field(tmp_path):
    with pytest.raises(FieldValidationError, match="c_star"):
        load_config(write(tmp_path, {"c_star": -1}))


def test_full_default_file_matches_fitted_values(tmp_path):
    cfg = load_config(
        write(
            tmp_path,
            {
                "c_star": "2.2f",
                "c_s_eff": "0.23f",
                "dq_of_md": "0.5f",
                "v_dd": 1.2,
                "v_thn": 0.319,
            },
        )
    )
    assert cfg.cell.c_s_eff == 0.23e-15
    assert cfg.cell.dq_of_md == 0.5e-15


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="cstar_typo"):
        load_config(write(tmp_path, {"cstar_typo": 1.0}))


def test_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="malformed"):
        load_config(path)


def test_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.json")


def test_suffixed_strings(tmp_path):
    cfg = load_config(write(tmp_path, {"c_star": "3f", "i_star": "2u", "i_star_fastest": "2u"}))
    assert cfg.cell.c_star == 3e-15
    assert cfg.cell.i_star == 2e-6
    assert cfg.mult.i_star_fastest == 2e-6


def test_round_trip_bit_for_bit(tmp_path):
    cfg = load_config(write(tmp_path, {"c_star": "2.2f", "gamma": 1.4, "n_bits": 4,
                                       "weight_bits": [1, 0, 1, 0]}))
    out = tmp_path / "dump.json"
    dump_config(cfg, out)
    cfg2 = load_config(out)
    assert cfg.to_dict() == cfg2.to_dict()
    assert cfg.digest() == cfg2.digest()


def test_loading_twice_is_identical(tmp_path):
    path = write(tmp_path, {"c_star": 2.5e-15})
    a, b = load_config(path), load_config(path)
    assert a.tech == b.tech and a.cell == b.cell and a.mult == b.mult and a.fit == b.fit
    assert a.provenance == b.provenance


def test_thermal_voltage_consistency_enforced():
    with pytest.raises(FieldValidationError, match="v_t"):
        resolve_config({"v_t": 0.020})
    cfg = resolve_config({"v_t": 0.02585, "temperature": 300.0})
    assert cfg.tech.v_t == 0.02585


def test_default_vt_derived_from_temperature():
    cfg = resolve_config({"temperature": 310.0})
    assert cfg.tech.v_t == thermal_voltage(310.0)


def test_weight_bits_validation():
    with pytest.raises(FieldValidationError, match="weight_bits"):
        resolve_config({"n_bits": 3, "weight_bits": [1, 0]})
    with pytest.raises(FieldValidationError, match="weight_bits"):
        resolve_config({"weight_bits": [1, 0, 2, 0, 1]})
    with pytest.raises(FieldValidationError, match="weight_bits"):
        resolve_config({"weight_bits": [0.5, 1, 1, 1, 1]})
    with pytest.raises(FieldValidationError, match="weight_bits"):
        resolve_config({"weight_bits": [True, 1, 1, 1, 1]})


def test_sign_validation():
    with pytest.raises(FieldValidationError, match="sign"):
        resolve_config({"sign": 0})


def test_unit_scale_null_gives_uncalibrated_fit():
    cfg = resolve_config({"unit_scale": None})
    assert not cfg.fit.calibrated


def test_dq_offset_ordering_enforced():
    with pytest.raises(FieldValidationError, match="dq_of_pd"):
        resolve_config({"dq_of_md": 0.4e-15, "dq_of_pd": 0.5e-15})


def test_default_config_is_pure():
    assert default_config().to_dict() == default_config().to_dict()
