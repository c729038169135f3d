"""The runtime stays numpy-only: the package imports nothing else from outside
the standard library."""

import ast
import sys
from pathlib import Path

import prodmlp

SOURCES = sorted(Path(prodmlp.__file__).parent.glob("*.py"))


def test_package_imports_only_numpy_and_the_standard_library():
    assert len(SOURCES) > 1
    outside = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}:{node.lineno} {name}" for name in names
                        if name.split(".")[0] != "numpy"
                        and name.split(".")[0] not in sys.stdlib_module_names]
    assert not outside, outside
