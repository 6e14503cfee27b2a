"""The package promises no runtime dependencies: it imports only the stdlib."""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "cosmos").glob("*.py"))


def test_package_imports_only_the_standard_library():
    assert SOURCES
    foreign = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [
                f"{path.name}: {name}" for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert foreign == []
