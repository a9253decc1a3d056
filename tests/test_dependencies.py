"""``pgd`` depends on NumPy alone: every module imports only the standard library, NumPy and ``pgd``.

scipy and other packages may be installed where the tests run, so importing
the package proves nothing; the import statements of each module are read
instead, function-local ones included. Every module also reads each name it
imports, except the four that ``TRACER_PINNED_UNUSED`` lists by name, and
draws randomness only from generators built from an explicit seed, so that
every run is fixed by its seeds. No module uses the NumPy helpers of
``SLOW_HELPERS``, whose checks and copies cost more than the arithmetic they stand for.
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
# (module, name) of the only imports that no module reads: the benchmark tracer
# (``bench/tracer.py``, ``MODULE_TARGETS``) rebinds these names until ROADMAP
# item 1b re-maps its spans, and then they are deleted. The list is exact.
TRACER_PINNED_UNUSED = {
    ("guidance", "residual"),
    ("residuals", "flux_divergence_2d"),
    ("residuals", "flux_divergence_2d_adjoint_coef"),
    ("solvers", "flux_divergence_2d"),
}

# NumPy helpers kept out of ``pgd``, each with what to write instead. On an (m, m)
# array with m = 12, np.diag_indices_from takes about 14 us, mostly its own shape
# checks; np.append copies both parts into a new array.
SLOW_HELPERS = {
    "diag_indices_from": "add to the diagonal of an (m, m) array through its strided view, a.flat[:: m + 1]",
    "append": "keep the parts as two arrays (say r modes and one scalar) instead of copying them into one",
}


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


def package_unused_imports(sources: dict[str, str]) -> set[tuple[str, str]]:
    """(module, name) of every unused import in the modules' ``sources``, keyed by module name."""
    return {(module, name) for module, text in sources.items() for name in unused_imports(ast.parse(text))}


def unseeded_random_calls(tree: ast.AST) -> set[str]:
    """``np.random`` functions that ``tree`` calls other than ``SeedSequence`` and a seeded ``default_rng``.

    Those two build a generator from an explicit seed; any other call, such as
    ``np.random.seed``, ``rand`` or ``choice``, or ``default_rng()``, draws from
    or seeds global or fresh entropy. Importing from ``numpy.random`` would hide
    its calls from this check, so such an import counts too.
    """
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module in ("numpy", "numpy.random"):
            found.update(a.name for a in node.names if node.module == "numpy.random" or a.name == "random")
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        owner, name = node.func.value, node.func.attr
        if not (isinstance(owner, ast.Attribute) and owner.attr == "random" and isinstance(owner.value, ast.Name)):
            continue
        if owner.value.id in ("np", "numpy") and (
            name not in ("default_rng", "SeedSequence") or (name == "default_rng" and not (node.args or node.keywords))
        ):
            found.add(name)
    return found


def slow_helper_uses(tree: ast.AST) -> set[str]:
    """Helpers of ``SLOW_HELPERS`` that ``tree`` reads as ``np.<name>`` or ``numpy.<name>``, or imports from numpy."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "numpy":
            found.update(a.name for a in node.names if a.name in SLOW_HELPERS)
        elif isinstance(node, ast.Attribute) and node.attr in SLOW_HELPERS and isinstance(node.value, ast.Name):
            if node.value.id in ("np", "numpy"):
                found.add(node.attr)
    return found


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
    unused -= {name for module, name in TRACER_PINNED_UNUSED if module == path.stem}
    assert not unused, f"{path.name} imports {sorted(unused)} and never reads them"


def test_the_unused_imports_are_exactly_the_four_the_tracer_pins():
    # an import that becomes read, or is deleted, must leave the list too
    assert TRACER_PINNED_UNUSED <= tracer_bound_names()
    assert package_unused_imports({path.stem: path.read_text() for path in MODULES}) == TRACER_PINNED_UNUSED


def test_the_pinned_list_check_sees_a_fifth_a_read_and_a_deleted_import():
    sources = {path.stem: path.read_text() for path in MODULES}
    solvers = sources["solvers"].replace("import flux_divergence_2d, laplacian_2d", "import laplacian_2d")
    assert solvers != sources["solvers"]
    for changed in (
        {"grid": sources["grid"] + "\nimport os\n"},
        {"guidance": sources["guidance"] + "\n_ = residual\n"},
        {"solvers": solvers},
    ):
        assert package_unused_imports(sources | changed) != TRACER_PINNED_UNUSED


def test_the_check_sees_an_unused_import():
    tree = ast.parse(
        "from __future__ import annotations\nimport numpy as np\nimport os.path\n"
        "from .grid import Field, shift\n\ndef f() -> Field:\n    return np.zeros(len(os.path.sep))\n"
    )
    assert unused_imports(tree) == {"shift"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_draws_randomness_only_from_seeded_generators(path):
    calls = unseeded_random_calls(ast.parse(path.read_text(), filename=str(path)))
    assert not calls, f"{path.name} calls np.random.{sorted(calls)} outside a seeded generator"


def test_the_check_sees_unseeded_randomness():
    tree = ast.parse(
        "import numpy as np\nfrom numpy.random import shuffle\n\ndef f(seed, rng):\n"
        "    np.random.seed(seed)\n    a = np.random.rand(3) + rng.choice(3)\n"
        "    g = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))\n"
        "    return np.random.default_rng(), np.random.choice(3), g.standard_normal(3), a\n"
    )
    assert unseeded_random_calls(tree) == {"shuffle", "seed", "rand", "default_rng", "choice"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_uses_none_of_the_slow_numpy_helpers(path):
    used = slow_helper_uses(ast.parse(path.read_text(), filename=str(path)))
    assert not used, f"{path.name} uses " + "; ".join(f"np.{name}: {SLOW_HELPERS[name]}" for name in sorted(used))


def test_the_check_sees_the_slow_helpers():
    tree = ast.parse(
        "import numpy as np\nfrom numpy import append\n\ndef f(a, b, rows):\n"
        "    a[np.diag_indices_from(a)] += 1.0\n    rows.append(b)\n    a.flat[:: len(a) + 1] += 1.0\n"
        "    return np.append(b, 0.0), np.diag(a), rows\n"
    )
    assert slow_helper_uses(tree) == {"diag_indices_from", "append"}
    assert slow_helper_uses(ast.parse("import numpy as np\nx = []\nx.append(np.diag([1.0]))\n")) == set()
