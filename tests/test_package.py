"""The package root exports what the README's library example imports,
and the closed-form commands run without loading numpy."""

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


# Runs in a fresh interpreter, so that no test has loaded numpy before it;
# prints one JSON record per step: [step or command, exit code, numpy loaded].
_IMPORT_RULE_SCRIPT = """
import json, sys

def record(step, code=0):
    print(json.dumps([step, code, "numpy" in sys.modules]))

out, channel = sys.argv[1], sys.argv[2]
import macwtfb.cli as cli
record("import macwtfb.cli")
for argv in (
    ["region", "gaussian", "--p1", "1", "--p2", "1", "--sigma1sq", "1", "--sigma2sq", "10",
     "--bounds", "df,hybrid,ty,outer"],
    ["figure", "--which", "2"],
    ["fm-verify", "--samples", "3"],
    ["region", "discrete", "--channel", channel, "--bounds", "df,outer",
     "--umax", "1", "--restarts", "1", "--iterations", "2"],
    ["powersweep", "--pmax", "10", "--steps", "3", "--sigma1sq", "5", "--sigma2sq", "2"],
):
    record(argv[0], cli.main([*argv, "--output-dir", out]))
from macwtfb import optimal_power, search_inner
record("from macwtfb import search_inner, optimal_power")
"""


def test_closed_form_commands_never_import_numpy(tmp_path):
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
    records = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("[")]
    assert records == [
        ["import macwtfb.cli", 0, False],
        ["region", 0, False],
        ["figure", 0, False],
        ["fm-verify", 0, False],
        ["region", 0, True],
        ["powersweep", 0, True],
        ["from macwtfb import search_inner, optimal_power", 0, True],
    ], proc.stderr
