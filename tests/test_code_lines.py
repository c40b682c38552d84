"""The code-line count of ``tools/code_lines.py``."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

# Code lines: the import, the two lines of NOTE, the class and def lines,
# the two lines of the sum and the return.  Docstrings, comments and blank
# lines do not count; a string that is not a docstring does.
MODULE = '''"""Module docstring
over two lines."""

import os  # a trailing comment

NOTE = """a string that is
not a docstring"""


# a comment line
class Box:
    """Class docstring."""

    def size(self):
        """Function
        docstring."""
        total = (1 +
                 2)
        return total
'''


def test_counts_code_lines_of_a_module(tmp_path):
    (tmp_path / "pkg").mkdir()
    module = tmp_path / "pkg" / "box.py"
    module.write_text(MODULE, encoding="utf-8")
    (tmp_path / "pkg" / "empty.py").write_text("# only a comment\n", encoding="utf-8")
    result = subprocess.run(
        [sys.executable, str(TOOL), str(tmp_path / "pkg")], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "    8  %s" % module,
        "    0  %s" % (tmp_path / "pkg" / "empty.py"),
        "    8  total",
    ]
