"""Which files each subcommand writes, and what its manifest lists."""

import json

import pytest

GRID = ("--grid-points", 16)
SIM = ("simulate", "--weights", "3,-2", "--va", "1.0,0.9")


def files(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


@pytest.mark.parametrize(
    "argv, code, outputs, manifest",
    [
        # region, maxbits and simulate: an --out with a suffix names the CSV
        (("region", "--bits", 5, *GRID, "--out", "r.txt"), 0, ["r.txt", "r.summary.json"], "r.manifest.json"),
        (("region", "--bits", 5, *GRID, "--out", "r"), 0, ["r.csv", "r.summary.json"], "r.manifest.json"),
        (("region", "--bits", 7, *GRID, "--out", "r7.csv"), 2, ["r7.csv", "r7.summary.json"], "r7.manifest.json"),
        (("maxbits", "--epsilon-grid", "1:3:3", *GRID, "--out", "m.dat"), 0, ["m.dat"], "m.manifest.json"),
        (("maxbits", "--epsilon-grid", "1:3:3", *GRID, "--out", "m"), 0, ["m.csv"], "m.manifest.json"),
        ((*SIM, "--out", "s.txt"), 0, ["s.txt", "s.trace.json"], "s.manifest.json"),
        ((*SIM, "--model", "noisy", "--trials", 1, "--out", "s1"), 0, ["s1.csv", "s1.trace.json"], "s1.manifest.json"),
        ((*SIM, "--model", "noisy", "--trials", 4, "--out", "s4.csv"), 0, ["s4.csv"], "s4.manifest.json"),
        # energy and bias use only the stem
        (("energy", "--out", "e2.csv"), 0, ["e2.json", "e2.csv"], "e2.manifest.json"),
        (("energy", "--out", "e.txt"), 0, ["e.json", "e.csv"], "e.manifest.json"),
        (("bias", "--bits", 5, "--out", "b.txt"), 0, ["b.json", "b.csv"], "b.manifest.json"),
        (("calibrate",), 0, ["confdir/calibration.json"], "confdir/calibration.manifest.json"),
    ],
)
def test_manifest_lists_the_files_written(run, tmp_path, argv, code, outputs, manifest):
    assert run(*argv) == code
    written = files(tmp_path)
    assert sorted(written) == sorted(outputs + [manifest])
    data = json.loads(written[manifest])
    assert data["command"] == argv[0]
    assert data["outputs"] == [str(tmp_path / p) if p.startswith("confdir/") else p for p in outputs]
    assert data["seed"] == (0 if argv[0] == "simulate" else None)


@pytest.mark.parametrize(
    "argv",
    [
        ("region", "--bits", 0, "--out", "r.csv"),
        ("region", "--bits", 5, *GRID, "--out", "missing/r.csv"),
        ("region", "--config", "bad.json", "--bits", 5, "--out", "r.csv"),
        ("maxbits", "--epsilon-grid", "junk", "--out", "m.csv"),
        (*SIM, "--seed", -1, "--out", "s.csv"),
        ("energy", "--bits", 0, "--out", "e"),
        ("bias", "--bits", 9, "--out", "b"),
        ("calibrate", "--targets", "bad.json"),
    ],
)
def test_exit_one_writes_no_file(run, tmp_path, argv):
    (tmp_path / "bad.json").write_text("{bad")
    assert run(*argv) == 1
    assert sorted(files(tmp_path)) == ["bad.json"]


def test_failed_calibrate_keeps_the_earlier_calibration(run, tmp_path):
    assert run("calibrate") == 0
    before = files(tmp_path)
    assert sorted(before) == ["confdir/calibration.json", "confdir/calibration.manifest.json"]
    (tmp_path / "t.json").write_text(json.dumps([{"kind": "max_bits", "epsilon": 1.0, "bits": 40}]))
    assert run("calibrate", "--targets", "t.json") == 2
    after = files(tmp_path)
    del after["t.json"]
    assert after == before


@pytest.mark.parametrize("out", [".", "", ".."])
@pytest.mark.parametrize(
    "argv",
    [
        ("region", "--bits", 5, *GRID),
        ("maxbits", "--epsilon-grid", "1:3:3", *GRID),
        SIM,
        ("energy",),
        ("bias", "--bits", 5),
    ],
)
def test_out_without_a_file_name_is_rejected(fails_cleanly, tmp_path, argv, out):
    err = fails_cleanly(*argv, "--out", out)
    assert "--out" in err
    assert files(tmp_path) == {}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv",
    [
        ("region", "--bits", 5, *GRID, "--c-span", "1f:1e309", "--out", "r.csv"),
        ("region", "--bits", 5, *GRID, "--i-span", "1n:1e309", "--out", "r.csv"),
        ("maxbits", "--epsilon-grid", "1:3:3", *GRID, "--i-span", "1n:1e309", "--out", "m.csv"),
        ("calibrate", *GRID, "--c-span", "1f:1e309"),
    ],
)
def test_infinite_span_bound_is_one_line(fails_cleanly, tmp_path, argv):
    assert "finite" in fails_cleanly(*argv)
    assert files(tmp_path) == {}


@pytest.mark.parametrize(
    "argv, word",
    [
        (("energy", "--weight", 40, "--out", "e"), "2**n_bits"),
        (("energy", "--bits", 3, "--weight", -40, "--out", "e"), "2**n_bits"),
        (("region", "--bits", 5, "--grid-points", -1, "--out", "r.csv"), "grid_points"),
        (("maxbits", "--epsilon-grid", "1:3:3", "--grid-points", -1, "--out", "m.csv"), "grid_points"),
        (("calibrate", "--grid-points", -1), "grid_points"),
        # argparse usage errors
        (("region", "--bits", "x", "--out", "r.csv"), "--bits"),
        (("region", "--bits", 5, "--no-such-flag", "--out", "r.csv"), "--no-such-flag"),
        (("region", "--bits", 5), "--out"),
    ],
)
def test_rejected_input_is_one_line(fails_cleanly, tmp_path, argv, word):
    assert word in fails_cleanly(*argv)
    assert files(tmp_path) == {}
