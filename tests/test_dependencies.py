"""``pgd`` depends on NumPy alone: every module imports only the standard library, NumPy and ``pgd``.

scipy and other packages may be installed where the tests run, so importing
the package proves nothing; the import statements of each module are read
instead, function-local ones included.
"""

import ast
import sys
from pathlib import Path

import pytest

import pgd

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "pgd"}
MODULES = sorted(Path(pgd.__file__).parent.glob("*.py"))


def imported_packages(tree: ast.AST) -> set[str]:
    """Top-level package of every absolute import in ``tree``; relative imports are the package itself."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_the_package_has_modules():
    assert len(MODULES) > 1


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_imports_only_the_standard_library_numpy_and_pgd(path):
    foreign = imported_packages(ast.parse(path.read_text(), filename=str(path))) - ALLOWED
    assert not foreign, f"{path.name} imports {sorted(foreign)}"


def test_the_check_sees_a_foreign_import():
    tree = ast.parse("import numpy as np\nfrom .grid import Field\n\ndef f():\n    from scipy import linalg\n")
    assert imported_packages(tree) - ALLOWED == {"scipy"}
