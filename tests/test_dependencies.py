"""``pgd`` depends on NumPy alone: every module imports only the standard library, NumPy and ``pgd``.

scipy and other packages may be installed where the tests run, so importing
the package proves nothing; the import statements of each module are read
instead, function-local ones included. Every module also reads each name it
imports, unless the benchmark tracer (``bench/tracer.py``, ``MODULE_TARGETS``)
rebinds that name in that module.
"""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

import pgd

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "pgd"}
MODULES = sorted(Path(pgd.__file__).parent.glob("*.py"))
TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def tracer_bound_names() -> set[tuple[str, str]]:
    """(module, name) of every name that the benchmark tracer rebinds in a ``pgd`` module."""
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {(module.removeprefix("pgd."), name) for module, name, _ in tracer.MODULE_TARGETS}


def imported_packages(tree: ast.AST) -> set[str]:
    """Top-level package of every absolute import in ``tree``; relative imports are the package itself."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def unused_imports(tree: ast.AST) -> set[str]:
    """Names that an import in ``tree`` binds and no expression in ``tree`` reads."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            bound.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    return bound - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_the_package_has_modules():
    assert len(MODULES) > 1


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_imports_only_the_standard_library_numpy_and_pgd(path):
    foreign = imported_packages(ast.parse(path.read_text(), filename=str(path))) - ALLOWED
    assert not foreign, f"{path.name} imports {sorted(foreign)}"


def test_the_check_sees_a_foreign_import():
    tree = ast.parse("import numpy as np\nfrom .grid import Field\n\ndef f():\n    from scipy import linalg\n")
    assert imported_packages(tree) - ALLOWED == {"scipy"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_reads_every_name_it_imports(path):
    unused = unused_imports(ast.parse(path.read_text(), filename=str(path)))
    unused -= {name for module, name in tracer_bound_names() if module == path.stem}
    assert not unused, f"{path.name} imports {sorted(unused)} and never reads them"


def test_the_check_sees_an_unused_import():
    tree = ast.parse(
        "from __future__ import annotations\nimport numpy as np\nimport os.path\n"
        "from .grid import Field, shift\n\ndef f() -> Field:\n    return np.zeros(len(os.path.sep))\n"
    )
    assert unused_imports(tree) == {"shift"}
