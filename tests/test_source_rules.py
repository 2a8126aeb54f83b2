import ast
import sys
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


def test_package_imports_only_the_standard_library():
    # The package is pure Python with no dependencies: a fast path may not
    # reach for a third-party module.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "qreliab" and top not in sys.stdlib_module_names:
                    found.append(f"{path.name}:{node.lineno}: {name}")
    assert found == []


def test_no_private_names_imported_across_modules():
    # An underscore-prefixed name is private to the module that defines it;
    # a name another module needs is made public there.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("qreliab")):
                found += [
                    f"{path.name}:{node.lineno}: {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert found == []


def test_modular_inverses_only_in_the_batch_helper():
    # Residues are inverted a list at a time, by one pow(v, -1, q) in
    # vandermonde.mod_inverses: a pow(v, -1, q) anywhere else is one more
    # modular inverse per value.
    def is_inverse(node):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
            return False
        if node.func.id != "pow" or len(node.args) != 3:
            return False
        try:
            return ast.literal_eval(node.args[1]) == -1
        except ValueError:
            return False

    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = {
            id(call)
            for node in ast.walk(tree)
            if path.name == "vandermonde.py"
            and isinstance(node, ast.FunctionDef)
            and node.name == "mod_inverses"
            for call in ast.walk(node)
        }
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if is_inverse(node) and id(node) not in allowed
        ]
    assert found == []


def test_rationals_reduced_only_through_mod_values():
    # Residues are inverted in vandermonde alone, where the solve divides by
    # Q'(x_k): a module that imports mod_inverses to reduce values of its
    # own is a second place that reduces modulo a prime.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "vandermonde.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ImportFrom)
        and any(alias.name == "mod_inverses" for alias in node.names)
    ]
    assert found == []


def test_vandermonde_imports_no_rationals():
    # Both reductions hand the solver integer nodes and right-hand sides: a
    # Fraction reaching the solve path would be one more rational reducer.
    tree = ast.parse((PACKAGE / "vandermonde.py").read_text())
    found = [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "fractions")
    ]
    assert found == []


def test_only_evaluate_reads_the_environment():
    # The enumeration cap is the package's one setting, and evaluate reads
    # it: a module that reads os.environ or os.getenv itself is a second
    # place to look for it.
    def reads_environment(node):
        if isinstance(node, ast.Attribute):
            return (
                isinstance(node.value, ast.Name)
                and node.value.id == "os"
                and node.attr in ("environ", "getenv")
            )
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            return any(alias.name in ("environ", "getenv") for alias in node.names)
        return False

    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "evaluate.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if reads_environment(node)
    ]
    assert found == []
