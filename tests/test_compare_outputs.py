"""The parent-vs-change output comparison of ``tools/compare_outputs.py``."""

import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "compare_outputs.py"


def copy_tree(dest: Path) -> Path:
    shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def changed_closed_form_tree(dest: Path) -> Path:
    change = copy_tree(dest)
    gaussian = change / "src" / "macwtfb" / "gaussian.py"
    source = gaussian.read_text(encoding="utf-8")
    old = "return 0.5 * math.log2(1.0 + snr)"
    assert old in source
    gaussian.write_text(source.replace(old, old + " * (1.0 + 1e-12)"), encoding="utf-8")
    return change


def compare(parent: Path, change: Path, *options: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(TOOL), str(parent), str(change), "--workloads", "closed-form-cli", "--seeds", "0",
         *options],
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_identical_trees_differ_in_no_command(tmp_path):
    # each tree writes to its own directories, so this also checks that the
    # printed "wrote <path>" lines are compared with the directory normalized
    proc = compare(copy_tree(tmp_path / "a"), copy_tree(tmp_path / "b"))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert re.fullmatch(r"compare_outputs: 0 of [1-9]\d* commands differ", proc.stdout.splitlines()[-1])


def test_a_changed_closed_form_is_listed(tmp_path):
    proc = compare(copy_tree(tmp_path / "a"), changed_closed_form_tree(tmp_path / "b"))
    assert proc.returncode == 1
    lines = proc.stdout.splitlines()
    assert any(line.startswith("closed-form-cli seed 0 #") for line in lines)
    assert any("sha256" in line for line in lines)
    assert re.fullmatch(r"compare_outputs: [1-9]\d* of \d+ commands differ", lines[-1])


def test_set_replaces_a_flag_in_every_command_that_has_it(tmp_path):
    # Every region gaussian and powersweep command has --format; with
    # --set format=json each one runs, and is listed, as a json command.
    parent = copy_tree(tmp_path / "a")
    proc = compare(parent, changed_closed_form_tree(tmp_path / "b"), "--set", "format=json")
    assert proc.returncode == 1, proc.stdout + proc.stderr
    listed = {}
    for line in proc.stdout.splitlines()[:-1]:
        if line.startswith("closed-form-cli seed 0 #"):
            command = line
            listed[command] = []
        else:
            listed[command].append(line.strip())
    formatted = [command for command in listed if "--format" in command]
    assert formatted
    for command in formatted:
        assert "--format json" in command and "--format csv" not in command
        files = [line.split()[1] for line in listed[command] if line.startswith("file ")]
        assert files and all(name.endswith(".json:") for name in files)
    proc = compare(parent, parent, "--set", "nosuchflag=1")
    assert proc.returncode == 2
    assert "no command has --nosuchflag" in proc.stderr
