"""Every demo script runs to completion against the package in ``src``."""

import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from interpreter import interpreter_flags

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_script(path, flags, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    return subprocess.run(
        [sys.executable, *flags, str(path)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path, pytestconfig):
    proc = run_script(demo, interpreter_flags(pytestconfig), tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_a_warning_fails_a_script_under_the_flags_of_a_run_that_errors_on_it(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "warnoptions", ["default"])
    config = SimpleNamespace(
        getoption=lambda name: ["error::RuntimeWarning", "error::pytest.PytestUnraisableExceptionWarning"]
    )
    flags = interpreter_flags(config)
    assert flags[-2:] == ["-Wdefault", "-Werror::RuntimeWarning"]
    script = tmp_path / "warns.py"
    script.write_text('import warnings\nwarnings.warn("overflow", RuntimeWarning)\n', encoding="utf-8")
    proc = run_script(script, flags, tmp_path)
    assert proc.returncode == 1 and "RuntimeWarning: overflow" in proc.stderr
    assert run_script(script, [], tmp_path).returncode == 0
