"""Every prodmlp module's __all__ names only what the module defines."""

import importlib
import pkgutil

import pytest

import prodmlp

# __main__ runs the command line when imported
MODULES = sorted(m.name for m in pkgutil.iter_modules(prodmlp.__path__, "prodmlp.")
                 if m.name != "prodmlp.__main__")


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_exist_and_star_import(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)
