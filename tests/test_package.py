"""The package root exports what the README's library example imports."""

import ast
import re
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
