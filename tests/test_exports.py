"""Every exported name resolves, no removed name comes back, and no module
imports a name it never uses, so a deletion cannot leave a stale export or
import behind."""

import ast
import importlib
import pkgutil
from pathlib import Path

import didlab
from didlab import core


def test_every_exported_name_resolves():
    modules = [didlab] + [
        importlib.import_module(f"didlab.{info.name}") for info in pkgutil.iter_modules(didlab.__path__)
    ]
    checked = 0
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"
            checked += 1
    assert checked > len(didlab.__all__)  # the submodules' lists were read too


def test_atom_is_not_exported():
    # joints are columns only, and a decision rule reads a type index and a
    # tuple of outcomes: there is no per-atom or per-state object to export
    for name in ("Atom", "LatentState", "PotentialOutcomes", "TreatmentPair"):
        assert name not in didlab.__all__ and not hasattr(didlab, name) and not hasattr(core, name), name


def _unused_imports(tree: ast.Module) -> list[str]:
    """The names tree's import statements bind that no other node reads;
    a name listed in its __all__ counts as read."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


def test_no_module_imports_a_name_it_never_uses():
    sources = sorted(Path(didlab.__file__).parent.glob("*.py"))
    assert len(sources) > 10
    unused = {path.name: _unused_imports(ast.parse(path.read_text(encoding="utf-8"))) for path in sources}
    assert {name: found for name, found in unused.items() if found} == {}


def test_the_unused_import_check_sees_a_stale_import():
    tree = ast.parse("from .core import CELLS, Panel\nimport numpy as np\n__all__ = ['Panel']\nnp.zeros(len(CELLS))\n")
    assert _unused_imports(tree) == []
    tree = ast.parse("from .core import CELLS, Panel\nimport numpy as np\nnp.zeros(1)\n")
    assert _unused_imports(tree) == ["CELLS (line 1)", "Panel (line 1)"]
