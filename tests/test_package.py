"""The package root exports what the README's library example imports,
every command but ``region discrete`` runs without loading numpy or
``dataclasses``,
``json`` loads only when a command needs it, and only fm-verify loads the
elimination module."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import macwtfb

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_imports_are_exported_from_the_package_root():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks, "README has no python block"
    imported = {
        alias.name
        for block in blocks
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module == "macwtfb"
        for alias in node.names
    }
    assert imported, "README's python block imports nothing from macwtfb"
    assert imported <= set(macwtfb.__all__), sorted(imported - set(macwtfb.__all__))
    assert all(hasattr(macwtfb, name) for name in macwtfb.__all__)


# Runs in a fresh interpreter, so that no test has loaded a watched module
# before it; prints one record per step with ``repr``, since json is watched:
# [step or command, exit code, then whether each WATCHED module is loaded].
_IMPORT_RULE_SCRIPT = """
import sys

WATCHED = ("numpy", "macwtfb.fm", "macwtfb.info", "macwtfb.channels", "dataclasses", "inspect", "json")

def record(step, code=0):
    print(repr([step, code, *(name in sys.modules for name in WATCHED)]))

out, channel = sys.argv[1], sys.argv[2]
import macwtfb.cli as cli
record("import macwtfb.cli")
gaussian = ["region", "gaussian", "--p1", "1", "--p2", "1", "--sigma1sq", "1", "--sigma2sq", "10"]
powersweep = ["powersweep", "--pmax", "10", "--steps", "3", "--sigma1sq", "5", "--sigma2sq", "2"]
for step, argv in (
    ("region gaussian", [*gaussian, "--bounds", "df,hybrid,ty,outer"]),
    ("figure --which 2", ["figure", "--which", "2"]),
    ("powersweep", powersweep),
    ("figure --which 4", ["figure", "--which", "4"]),
    ("figure --which 5", ["figure", "--which", "5"]),
    ("fm-verify", ["fm-verify", "--samples", "3"]),
    ("region gaussian --format json", [*gaussian, "--bounds", "df", "--format", "json"]),
    ("powersweep --format json", [*powersweep, "--format", "json"]),
    ("region discrete", ["region", "discrete", "--channel", channel, "--bounds", "df,outer",
                         "--umax", "1", "--restarts", "1", "--iterations", "2"]),
):
    record(step, cli.main([*argv, "--output-dir", out]))
from macwtfb import optimal_power, search_inner
record("from macwtfb import search_inner, optimal_power")
"""


def test_closed_form_commands_never_import_numpy(tmp_path):
    """Nor ``dataclasses`` and with it ``inspect``; ``json`` loads only
    for JSON output or a channel file."""
    channel = tmp_path / "channel.json"
    doc = {"x1_size": 1, "x2_size": 1, "y_size": 1, "z_size": 1, "transition": [[[[1.0]]]]}
    channel.write_text(json.dumps(doc), encoding="utf-8")
    env = dict(os.environ)
    env.pop("MACWTFB_OUTPUT_DIR", None)
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_RULE_SCRIPT, str(tmp_path / "out"), str(channel)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    records = [ast.literal_eval(line) for line in proc.stdout.splitlines() if line.startswith("[")]
    # numpy, fm, info, channels, dataclasses, inspect, json
    assert records == [
        ["import macwtfb.cli", 0, False, False, False, False, False, False, False],
        ["region gaussian", 0, False, False, False, False, False, False, False],
        ["figure --which 2", 0, False, False, False, False, False, False, False],
        ["powersweep", 0, False, False, False, False, False, False, False],
        ["figure --which 4", 0, False, False, False, False, False, False, False],
        ["figure --which 5", 0, False, False, False, False, False, False, False],
        ["fm-verify", 0, False, True, False, False, False, False, False],
        ["region gaussian --format json", 0, False, True, False, False, False, False, True],
        ["powersweep --format json", 0, False, True, False, False, False, False, True],
        ["region discrete", 0, True, True, True, True, True, True, True],
        ["from macwtfb import search_inner, optimal_power", 0, True, True, True, True, True, True, True],
    ], proc.stderr
