"""Every ``lapbs`` module's ``__all__`` names only what the module has."""

import importlib
import pkgutil

import pytest

import lapbs

MODULES = sorted(m.name for m in pkgutil.iter_modules(lapbs.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist_and_star_import_works(name):
    module = importlib.import_module(f"lapbs.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"lapbs.{name}.__all__ names missing {missing}"
    namespace = {}
    exec(f"from lapbs.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)
