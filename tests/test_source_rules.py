import ast
from pathlib import Path

import qreliab
from qreliab import kernels

PACKAGE = Path(qreliab.__file__).parent


def test_no_assert_statements_in_package():
    # python -O strips assert statements, so checks must raise instead.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_every_exported_name_resolves():
    # A removed name must not stay behind in __all__.
    for module in (qreliab, kernels):
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], module.__name__
