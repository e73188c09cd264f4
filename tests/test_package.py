import ast
from pathlib import Path

import translab

SOURCES = sorted(Path(translab.__file__).parent.rglob("*.py"))


def imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            yield node.module


def test_no_module_imports_fractions():
    # level geometry is exact doubles; Fraction arithmetic lives only in test oracles
    assert SOURCES
    offenders = [
        path.name
        for path in SOURCES
        if any(name.split(".")[0] == "fractions" for name in imported_modules(path))
    ]
    assert offenders == []
