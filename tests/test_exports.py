"""Every exported name resolves, so a removal leaves no stale export."""

import importlib
import pkgutil

import pytest

import gcgeig

MODULES = ["gcgeig"] + [
    f"gcgeig.{m.name}" for m in pkgutil.iter_modules(gcgeig.__path__) if m.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names what it does not define: {missing}"
