"""Every exported name resolves, so a deletion cannot leave a stale export."""

import importlib
import pkgutil

import didlab


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
    # joints are columns only: there is no per-atom object to export
    assert "Atom" not in didlab.__all__ and not hasattr(didlab, "Atom")
