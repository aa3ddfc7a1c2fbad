"""One bound on every bit count, checked before anything is sized by it."""

import json

import pytest

from delaymac import cli
from delaymac.config import resolve_config
from delaymac.errors import FieldValidationError
from delaymac.params import MAX_BITS_CAP, MultiplierSpec


def written(tmp_path):
    return sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*") if p.is_file())


def test_wide_config_weight_exits_one(fails_cleanly, tmp_path):
    (tmp_path / "big.json").write_text(json.dumps({"n_bits": 70}))
    err = fails_cleanly("simulate", "--config", "big.json", "--weights", 2**65, "--va", 1.0, "--out", "s.csv")
    assert "n_bits" in err
    assert written(tmp_path) == ["big.json"]


@pytest.mark.parametrize(
    "build",
    [
        lambda: resolve_config({"n_bits": MAX_BITS_CAP + 1}),
        lambda: MultiplierSpec(n_bits=MAX_BITS_CAP + 1),
        lambda: MultiplierSpec.from_weight(1, MAX_BITS_CAP + 1),
    ],
    ids=["config", "spec", "from_weight"],
)
def test_n_bits_above_the_cap_is_rejected(build):
    with pytest.raises(FieldValidationError) as exc:
        build()
    assert exc.value.field == "n_bits"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv",
    [("energy", "--bits", 49), ("region", "--bits", 49), ("region", "--bits", 2000)],
    ids=["energy-49", "region-49", "region-2000"],
)
def test_cli_bits_above_the_cap_exit_one(fails_cleanly, tmp_path, argv):
    assert f"1 to {MAX_BITS_CAP}" in fails_cleanly(*argv, "--out", "o.csv")
    assert written(tmp_path) == []


def test_huge_energy_bits_rejected_before_any_weight_is_built(fails_cleanly, tmp_path, monkeypatch):
    def sized(*args, **kwargs):
        raise AssertionError("a weight was built before --bits was checked")

    monkeypatch.setattr(MultiplierSpec, "from_weight", sized)
    assert "--bits" in fails_cleanly("energy", "--bits", 10**9, "--out", "e")
    assert written(tmp_path) == []


@pytest.mark.parametrize("command", ["region", "energy"])
def test_help_gives_the_bit_range(capsys, command):
    with pytest.raises(SystemExit):
        cli.main([command, "--help"])
    assert f"1 to {MAX_BITS_CAP}" in capsys.readouterr().out
