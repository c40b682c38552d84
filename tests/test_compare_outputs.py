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


def compare(parent: Path, change: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(TOOL), str(parent), str(change), "--workloads", "closed-form-cli", "--seeds", "0"],
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
    change = copy_tree(tmp_path / "b")
    gaussian = change / "src" / "macwtfb" / "gaussian.py"
    source = gaussian.read_text(encoding="utf-8")
    old = "return 0.5 * math.log2(1.0 + snr)"
    assert old in source
    gaussian.write_text(source.replace(old, old + " * (1.0 + 1e-12)"), encoding="utf-8")
    proc = compare(copy_tree(tmp_path / "a"), change)
    assert proc.returncode == 1
    lines = proc.stdout.splitlines()
    assert any(line.startswith("closed-form-cli seed 0 #") for line in lines)
    assert any("sha256" in line for line in lines)
    assert re.fullmatch(r"compare_outputs: [1-9]\d* of \d+ commands differ", lines[-1])
