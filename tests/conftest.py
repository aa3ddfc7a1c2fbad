import pytest

from delaymac.design_space import default_grids
from delaymac.params import CellDesign, JitterFit, MultiplierSpec, TechnologyProfile


@pytest.fixture(scope="session")
def tech():
    return TechnologyProfile()


@pytest.fixture(scope="session")
def cell():
    return CellDesign()


@pytest.fixture(scope="session")
def fit():
    return JitterFit()


@pytest.fixture(scope="session")
def spec31():
    """5-bit multiplier with every weight bit set (W = 31)."""
    return MultiplierSpec()


@pytest.fixture(scope="session")
def grids():
    return default_grids()


@pytest.fixture()
def run(tmp_path, monkeypatch):
    """Invoke the CLI in-process with an isolated config directory."""
    from delaymac.cli import main

    monkeypatch.setenv("DELAYMAC_CONFIG_DIR", str(tmp_path / "confdir"))
    monkeypatch.chdir(tmp_path)

    def _run(*args):
        try:
            return main([str(a) for a in args])
        except SystemExit as exc:
            return exc.code

    return _run


@pytest.fixture()
def fails_cleanly(run, capsys):
    """Run the CLI, assert exit 1 with a one-line error, return that line."""

    def _check(*args):
        capsys.readouterr()
        code = run(*args)
        err = capsys.readouterr().err
        assert code == 1, err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        return err

    return _check
