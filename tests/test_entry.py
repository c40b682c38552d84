"""The program entry ``macwtfb.__main__.main``: one OpenBLAS thread unless
the user chose a count, and the installed command runs through it."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from macwtfb import cli
from macwtfb.__main__ import BLAS_THREAD_VARIABLES, main

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


@pytest.fixture
def environ(monkeypatch):
    """A copy of the environment without the BLAS thread variables, standing
    in for ``os.environ`` during the test."""
    env = {name: value for name, value in os.environ.items() if name not in BLAS_THREAD_VARIABLES}
    monkeypatch.setattr(os, "environ", env)
    return env


@pytest.fixture
def cli_calls(monkeypatch):
    """Replace ``cli.main`` by a stub that records its argument and the BLAS
    thread count it would run with, and exits 7."""
    calls = []

    def fake_main(argv=None):
        calls.append((argv, os.environ.get("OPENBLAS_NUM_THREADS")))
        return 7

    monkeypatch.setattr(cli, "main", fake_main)
    return calls


def test_entry_pins_one_blas_thread_when_no_count_was_chosen(environ, cli_calls):
    before = dict(environ)
    assert main(["figure", "--which", "4"]) == 7
    assert cli_calls == [(["figure", "--which", "4"], "1")]
    assert environ == {**before, "OPENBLAS_NUM_THREADS": "1"}


@pytest.mark.parametrize("name", BLAS_THREAD_VARIABLES)
def test_entry_leaves_a_chosen_count_alone(environ, cli_calls, name):
    environ[name] = "3"
    before = dict(environ)
    assert main(["powersweep"]) == 7
    assert environ == before
    assert cli_calls == [(["powersweep"], environ.get("OPENBLAS_NUM_THREADS"))]


# Runs in a fresh interpreter, so that numpy loads after the entry has set
# the thread count; prints the command's exit code, whether numpy is loaded
# (so the thread count cannot pass for a command that never loads it) and
# the thread count.
_THREAD_COUNT_SCRIPT = """
import os, sys
from macwtfb.__main__ import main
code = main(["region", "discrete", "--channel", sys.argv[2], "--bounds", "df", "--umax", "1",
             "--restarts", "1", "--iterations", "2", "--output-dir", sys.argv[1]])
print(code, "numpy" in sys.modules, len(os.listdir("/proc/self/task")))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_numpy_command_runs_on_one_thread(tmp_path):
    channel = tmp_path / "channel.json"
    doc = {"x1_size": 1, "x2_size": 1, "y_size": 1, "z_size": 1, "transition": [[[[1.0]]]]}
    channel.write_text(json.dumps(doc), encoding="utf-8")
    env = {name: value for name, value in os.environ.items() if name not in BLAS_THREAD_VARIABLES}
    proc = subprocess.run(
        [sys.executable, "-c", _THREAD_COUNT_SCRIPT, str(tmp_path / "out"), str(channel)],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 True 1"
    assert (tmp_path / "out" / "region_df.csv").is_file()


def test_installed_command_runs_through_the_entry():
    tomllib = pytest.importorskip("tomllib", reason="tomllib is new in Python 3.11")
    scripts = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]["scripts"]
    assert scripts["macwtfb"] == "macwtfb.__main__:main"
