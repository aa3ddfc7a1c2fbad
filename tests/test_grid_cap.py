"""--grid-points is capped before any grid is allocated."""

import numpy as np
import pytest

from delaymac import design_space as ds
from delaymac.errors import FieldValidationError


@pytest.fixture()
def no_geomspace(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(np, "geomspace", refuse)


@pytest.mark.parametrize("points", (ds.MAX_GRID_POINTS + 1, 10**9, 10**30))
def test_default_grids_rejects_before_allocating(no_geomspace, points):
    with pytest.raises(FieldValidationError, match="grid_points"):
        ds.default_grids(points)


@pytest.mark.parametrize(
    "argv",
    (
        ("region", "--bits", 5, "--grid-points", 1000000000, "--out", "r.csv"),
        ("maxbits", "--epsilon-grid", "1:3:3", "--grid-points", 1000000000, "--out", "m.csv"),
        ("calibrate", "--grid-points", 1000000000),
    ),
)
def test_cli_rejects_huge_grid_in_one_line(no_geomspace, fails_cleanly, tmp_path, argv):
    assert "grid_points" in fails_cleanly(*argv)
    assert not any(tmp_path.iterdir())


def test_cap_is_inclusive():
    c_grid, i_grid = ds.default_grids(ds.MAX_GRID_POINTS, (1.0, 2.0), (1.0, 2.0))
    assert c_grid.size == i_grid.size == ds.MAX_GRID_POINTS


def test_cap_in_help(capsys):
    from delaymac import cli

    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["region", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())  # argparse wraps lines
    assert f"{ds.MIN_GRID_POINTS} to {ds.MAX_GRID_POINTS}" in help_text
