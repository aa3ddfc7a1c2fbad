import csv
import hashlib
import json
import math
import sys

import pytest

from delaymac.cli import main


@pytest.fixture()
def run(tmp_path, monkeypatch):
    """Invoke the CLI in-process with an isolated config directory."""
    monkeypatch.setenv("DELAYMAC_CONFIG_DIR", str(tmp_path / "confdir"))
    monkeypatch.chdir(tmp_path)

    def _run(*args):
        try:
            return main([str(a) for a in args])
        except SystemExit as exc:
            return exc.code

    return _run


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestRegion:
    def test_feasible_five_bits(self, run, tmp_path):
        code = run("region", "--bits", 5, "--out", tmp_path / "r5.csv")
        assert code == 0
        rows = read_csv(tmp_path / "r5.csv")
        assert rows[0] == ["c_star", "i_star", "c1", "c2", "c3", "feasible"]
        assert len(rows) == 1 + 64 * 64
        summary = json.loads((tmp_path / "r5.summary.json").read_text())
        assert summary["feasible"]
        opt = summary["optimum"]
        assert abs(math.log(opt["c_star"] / 2.2e-15)) <= math.log(100 ** (1 / 63)) * 1.001
        assert abs(math.log(opt["i_star"] / 1e-6)) <= math.log(400 ** (1 / 63)) * 1.001
        manifest = json.loads((tmp_path / "r5.manifest.json").read_text())
        assert manifest["command"] == "region"
        assert str(tmp_path / "r5.csv") in manifest["outputs"]

    def test_six_bits_exit_code_two(self, run, tmp_path):
        assert run("region", "--bits", 6, "--out", tmp_path / "r6.csv") == 2
        assert (tmp_path / "r6.csv").exists()  # masks still emitted

    def test_zero_bits_is_usage_error(self, run, tmp_path):
        assert run("region", "--bits", 0, "--out", tmp_path / "r0.csv") == 1

    def test_unknown_flag(self, run, tmp_path):
        assert run("region", "--bits", 5, "--frobnicate", 1, "--out", tmp_path / "x.csv") == 1

    def test_rerun_is_byte_identical(self, run, tmp_path):
        run("region", "--bits", 5, "--out", tmp_path / "a.csv")
        first = {p.name: p.read_bytes() for p in tmp_path.glob("a.*")}
        run("region", "--bits", 5, "--out", tmp_path / "a.csv")
        second = {p.name: p.read_bytes() for p in tmp_path.glob("a.*")}
        assert first == second


class TestMaxBits:
    def test_fig_curve(self, run, tmp_path):
        assert run("maxbits", "--epsilon-grid", "1:16:31", "--out", tmp_path / "mb.csv") == 0
        rows = read_csv(tmp_path / "mb.csv")
        assert rows[0] == ["epsilon", "n_max"]
        data = [(float(e), int(n)) for e, n in rows[1:]]
        assert data[0] == (1.0, 5)
        values = [n for _, n in data]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert 1 in values

    def test_single_row(self, run, tmp_path):
        assert run("maxbits", "--epsilon-grid", "1:1:1", "--out", tmp_path / "one.csv") == 0
        assert len(read_csv(tmp_path / "one.csv")) == 2

    def test_bad_grid(self, run, tmp_path):
        assert run("maxbits", "--epsilon-grid", "16:1:5", "--out", tmp_path / "bad.csv") == 1
        assert run("maxbits", "--epsilon-grid", "junk", "--out", tmp_path / "bad.csv") == 1


class TestSimulate:
    def test_zero_weight_gives_zero_column(self, run, tmp_path):
        assert run(
            "simulate", "--weights", "0", "--va", "1.0",
            "--seed", 1, "--trials", 8, "--model", "noisy", "--out", tmp_path / "z.csv",
        ) == 0
        rows = read_csv(tmp_path / "z.csv")
        trials = [float(v) for t, v in rows[1:] if t not in ("mean", "sigma")]
        assert trials == [0.0] * 8

    def test_noisy_sigma_matches_model(self, run, tmp_path):
        assert run(
            "simulate", "--weights", "31", "--va", "1.0",
            "--seed", 7, "--trials", 100000, "--model", "noisy", "--out", tmp_path / "n.csv",
        ) == 0
        rows = read_csv(tmp_path / "n.csv")
        sigma = float(dict((r[0], r[1]) for r in rows[1:])["sigma"])

        from delaymac.jitter import total_jitter
        from delaymac.params import CellDesign, JitterFit, MultiplierSpec

        cell, fit = CellDesign(), JitterFit()
        spec = MultiplierSpec.from_weight(31, 5)
        model_var = sum(
            total_jitter(cell.with_current(spec.bit_current(i)), fit).var_sd
            + total_jitter(cell.with_current(spec.bit_current(i)), fit).var_td
            for i in range(5)
        )
        assert sigma == pytest.approx(math.sqrt(model_var), rel=0.05)

    def test_deterministic_output(self, run, tmp_path):
        args = (
            "simulate", "--weights", "3,-2", "--va", "1.0,0.9",
            "--seed", 11, "--trials", 64, "--model", "noisy", "--out", tmp_path / "d.csv",
        )
        run(*args)
        first = (tmp_path / "d.csv").read_bytes()
        run(*args)
        assert (tmp_path / "d.csv").read_bytes() == first

    def test_length_mismatch(self, run, tmp_path):
        assert run(
            "simulate", "--weights", "1,2", "--va", "1.0", "--out", tmp_path / "m.csv"
        ) == 1

    def test_ideal_value(self, run, tmp_path):
        assert run(
            "simulate", "--weights", "3,-2", "--va", "1.0,0.9", "--out", tmp_path / "i.csv"
        ) == 0
        rows = read_csv(tmp_path / "i.csv")
        assert float(rows[1][1]) == pytest.approx(-1.035e-10, rel=1e-12, abs=0)


class TestEnergy:
    def test_total_near_reference(self, run, tmp_path):
        assert run("energy", "--out", tmp_path / "e") == 0
        data = json.loads((tmp_path / "e.json").read_text())
        assert data["total"] == pytest.approx(110e-15, rel=0.15, abs=0)
        rows = read_csv(tmp_path / "e.csv")
        assert rows[0][0] == "component"

    def test_acceleration_zero_weight(self, run, tmp_path):
        assert run(
            "energy", "--weight", 0, "--mode", "acceleration", "--out", tmp_path / "a"
        ) == 0
        data = json.loads((tmp_path / "a.json").read_text())
        assert data["e_cstar"] == 0.0


class TestBias:
    def test_halving_currents(self, run, tmp_path):
        assert run("bias", "--bits", 5, "--ibias", "1u", "--out", tmp_path / "b") == 0
        rows = read_csv(tmp_path / "b.csv")
        currents = [float(r[1]) for r in rows[1:]]
        for a, b in zip(currents, currents[1:]):
            assert b == pytest.approx(a / 2, rel=1e-12, abs=0)
        plan = json.loads((tmp_path / "b.json").read_text())
        assert plan["n_bits"] == 5

    def test_bits_out_of_range(self, run, tmp_path):
        assert run("bias", "--bits", 9, "--out", tmp_path / "b9") == 1


class TestCalibrate:
    def test_persists_scale(self, run, tmp_path):
        assert run("calibrate") == 0
        path = tmp_path / "confdir" / "calibration.json"
        assert path.exists()
        data = json.loads(path.read_text())
        assert len(data["unit_scale"]) == 2
        assert all(data["targets_met"])

        # subsequent commands pick the persisted scale up
        assert run("region", "--bits", 5, "--out", tmp_path / "after.csv") == 0

    @pytest.mark.parametrize("text", ["{}", "{bad", '{"unit_scale": [1]}'])
    def test_rewrites_a_malformed_calibration(self, run, tmp_path, text):
        confdir = tmp_path / "confdir"
        confdir.mkdir()
        (confdir / "calibration.json").write_text(text)
        assert run("calibrate", "--grid-points", 16) == 0
        data = json.loads((confdir / "calibration.json").read_text())
        assert len(data["unit_scale"]) == 2 and all(data["targets_met"])


class TestConfigHandling:
    def test_config_flag(self, run, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"i_star_fastest": "2u", "i_star": "2u"}))
        assert run(
            "simulate", "--config", cfg, "--weights", "31", "--va", "1.2",
            "--out", tmp_path / "c.csv",
        ) == 0
        rows = read_csv(tmp_path / "c.csv")
        # doubled current halves the unit referential delay
        assert float(rows[1][1]) == pytest.approx(-3.2085e-9 / 2, rel=1e-12, abs=0)

    def test_bad_config_exit_one(self, run, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"c_star": -1}')
        assert run("region", "--config", cfg, "--bits", 5, "--out", tmp_path / "x.csv") == 1

    def test_version(self, run, capsys):
        assert run("--version") == 0


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestGoldenOutputs:
    """Default config, 64 x 64 grid: outputs pinned byte for byte."""

    def test_region_five_bits(self, run, tmp_path):
        assert run("region", "--bits", 5, "--out", tmp_path / "r5.csv") == 0
        assert sha256(tmp_path / "r5.csv") == "497039385953d7793c488b7a48fe505ffb90121086936a2c0011689f5f22813d"
        assert sha256(tmp_path / "r5.summary.json") == (
            "493cb8d09fe5d3db1e36e936baa4016cd522046e6a51b3afb0df948003b6a833"
        )

    def test_maxbits_curve(self, run, tmp_path):
        assert run("maxbits", "--epsilon-grid", "1:30:300", "--out", tmp_path / "mb.csv") == 0
        assert sha256(tmp_path / "mb.csv") == "b8c6828fa3667ebe1f29e4d9b82f488cd7e15b407774804647719605c35553b3"


class TestBoundaryErrors:
    """Malformed input exits 1 with a one-line message, never a traceback."""

    @pytest.fixture()
    def fails_cleanly(self, run, capsys):
        def _check(*args):
            capsys.readouterr()
            code = run(*args)
            err = capsys.readouterr().err
            assert code == 1, err
            assert err.startswith("error: ") and err.count("\n") == 1, err
            return err

        return _check

    @pytest.mark.parametrize("eps", ["nan", "inf"])
    def test_region_non_finite_epsilon(self, fails_cleanly, tmp_path, eps):
        assert "epsilon" in fails_cleanly("region", "--bits", 5, "--epsilon", eps, "--out", tmp_path / "r.csv")

    @pytest.mark.parametrize("grid", ["nan:nan:3", "1:inf:3", "1:x:5", "1:2:x"])
    def test_maxbits_malformed_grid(self, fails_cleanly, tmp_path, grid):
        fails_cleanly("maxbits", "--epsilon-grid", grid, "--out", tmp_path / "mb.csv")
        assert not (tmp_path / "mb.csv").exists()

    @pytest.mark.parametrize(
        "text",
        [
            "{bad",
            '[{"kind": "max_bits"}]',
            '[{"kind": "max_bits", "bits": -1}]',
            '[{"kind": "feasible", "n": 49}]',
            '{"kind": "max_bits", "bits": 5}',
        ],
    )
    def test_calibrate_malformed_targets(self, fails_cleanly, tmp_path, text):
        targets = tmp_path / "targets.json"
        targets.write_text(text)
        assert "target" in fails_cleanly("calibrate", "--targets", targets)
        assert not (tmp_path / "confdir" / "calibration.json").exists()

    @pytest.mark.parametrize(
        "text",
        [
            "{bad",
            '{"unit_scale": ["a", 1]}',
            "{}",
            "[1, 2]",
            '{"unit_scale": null}',
            '{"unit_scale": [1]}',
            '{"unit_scale": [1, 2, 3]}',
        ],
    )
    def test_malformed_calibration_overlay(self, fails_cleanly, tmp_path, text):
        confdir = tmp_path / "confdir"
        confdir.mkdir()
        (confdir / "calibration.json").write_text(text)
        assert "calibration.json" in fails_cleanly("energy", "--out", tmp_path / "e")
