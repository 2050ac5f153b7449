"""Every script under demos/ runs to the end against the current API."""

import runpy
import tempfile
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs_cleanly(path, tmp_path, monkeypatch, capsys):
    # The demos' temporary files land under tmp_path, and must be gone
    # once the demo ends.
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.chdir(tmp_path)
    try:
        runpy.run_path(str(path), run_name="__main__")
    except SystemExit as exc:
        assert exc.code in (None, 0)
    assert capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []
