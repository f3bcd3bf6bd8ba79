"""The library imports nothing outside the standard library and itself."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "editdict"


def _outside_imports(source: str) -> list[str]:
    """Names of the modules that source imports from neither the standard
    library nor editdict."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name for name in names
            if name.partition(".")[0] not in sys.stdlib_module_names | {"editdict"}]


def test_outside_imports_are_found():
    assert _outside_imports("import numpy.linalg\nfrom hypothesis import given\n"
                            "import os, sys\nfrom . import util\nfrom .errors import X\n"
                            "from collections import Counter\n"
                            "def f():\n    import yaml\n") == ["numpy.linalg", "hypothesis",
                                                               "yaml"]


def test_library_imports_only_the_standard_library():
    files = sorted(SRC.glob("*.py"))
    assert len(files) >= 10
    outside = {path.name: _outside_imports(path.read_text()) for path in files}
    assert {name: found for name, found in outside.items() if found} == {}
