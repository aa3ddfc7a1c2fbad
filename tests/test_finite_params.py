"""Non-finite parameters are rejected where the records are built."""

import math

import pytest

from delaymac.config import KNOWN_KEYS
from delaymac.errors import FieldValidationError
from delaymac.params import CellDesign, JitterFit, MultiplierSpec, TechnologyProfile

FLOAT_FIELDS = [
    (TechnologyProfile, ("v_dd", "v_thn", "v_thp", "temperature", "v_t", "i_0", "gamma", "mu_wl_cox")),
    (CellDesign, ("c_star", "c_s_eff", "dq_of_md", "dq_of_pd", "c_re", "i_star", "v_a0")),
    (MultiplierSpec, ("i_star_fastest", "v_a0")),
    (JitterFit, ("k1", "p1", "k2", "q2")),
]

# every config key whose value is a float (the rest are integers, bit lists
# or the unit-scale pair)
FLOAT_KEYS = sorted(KNOWN_KEYS - {"n_bits", "sign", "weight_bits", "unit_scale"})

COMMANDS = {
    "region": ("region", "--bits", 5, "--grid-points", 16, "--out", "r.csv"),
    "simulate": ("simulate", "--weights", 3, "--va", 1.0, "--model", "noisy", "--trials", 4, "--out", "s.csv"),
    "energy": ("energy", "--out", "e"),
}


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("cls, name", [(cls, name) for cls, names in FLOAT_FIELDS for name in names])
def test_record_rejects_non_finite_field(cls, name, value):
    with pytest.raises(FieldValidationError, match=f"^{name}: "):
        cls(**{name: value})


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_overflowing_config_value_fails_cleanly(fails_cleanly, tmp_path, key, command):
    # JSON 1e309 parses to inf, a 400-digit JSON integer to an int too large for a float
    cfg = tmp_path / "c.json"
    argv = COMMANDS[command]
    for value in ("1e309", "1" + "0" * 400):
        cfg.write_text(f'{{"{key}": {value}}}')
        err = fails_cleanly(argv[0], "--config", cfg, *argv[1:])
        assert err.startswith(f"error: {key}: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]
