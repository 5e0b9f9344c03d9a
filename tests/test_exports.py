"""Every ``lapbs`` module's ``__all__`` names only what the module has and
every public function and class it defines, every cache is bounded, every
checked float field rejects a bool, a string and NaN, and ``import lapbs``
stays light."""

import dataclasses
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys

import pytest

import lapbs
from lapbs.contour import ContourParams
from lapbs.fem1d import Market1D
from lapbs.fem2d import Basket2D

MODULES = sorted(m.name for m in pkgutil.iter_modules(lapbs.__path__))

# one valid instance of each dataclass that checks float fields
VALID = {
    "fem1d.Market1D": Market1D(0.05, 0.3, 50.0, 1.0, 200.0),
    "fem2d.Basket2D": Basket2D(0.05, 0.09, 0.09, -0.018, 100.0, 1.0, 300.0,
                               300.0),
    "contour.ContourParams": ContourParams(67.38, 62.09, 0.4213, 0.04556, 15),
}


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist_and_star_import_works(name):
    module = importlib.import_module(f"lapbs.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"lapbs.{name}.__all__ names missing {missing}"
    public = [n for n, x in vars(module).items() if not n.startswith("_")
              and (inspect.isfunction(x) or inspect.isclass(x))
              and x.__module__ == module.__name__]
    unlisted = sorted(set(public) - set(module.__all__))
    assert not unlisted, f"lapbs.{name} leaves {unlisted} out of __all__"
    namespace = {}
    exec(f"from lapbs.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)


def test_every_cache_is_bounded():
    # an unbounded lru_cache would keep a 512^2 build for the life of the
    # process; each module's functions and its classes' methods are walked
    caches = {}
    for name in MODULES:
        module = importlib.import_module(f"lapbs.{name}")
        scopes = [vars(module)] + [vars(c) for c in vars(module).values()
                                   if isinstance(c, type)
                                   and c.__module__ == module.__name__]
        for scope in scopes:
            for attr, x in scope.items():
                if hasattr(x, "cache_parameters"):
                    caches[f"{name}.{attr}"] = x.cache_parameters()["maxsize"]
    assert {"fem2d._stencil_pattern", "fem2d._layout"} <= set(caches)
    unbounded = [name for name, size in caches.items() if size is None]
    assert not unbounded, f"unbounded caches: {unbounded}"


def test_every_checked_float_field_rejects_bool_str_and_nan():
    # the walk finds each class whose __post_init__ checks float fields;
    # a new one fails here until VALID has an instance of it
    found = {}
    for name in MODULES:
        module = importlib.import_module(f"lapbs.{name}")
        for attr, c in vars(module).items():
            if (dataclasses.is_dataclass(c) and c.__module__ == module.__name__
                    and "__post_init__" in vars(c)):
                floats = [f.name for f in dataclasses.fields(c)
                          if f.type in (float, "float")]
                if floats:
                    found[f"{name}.{attr}"] = floats
    assert set(found) == set(VALID)
    for key, floats in found.items():
        for field in floats:
            for bad in (True, "1", float("nan")):
                with pytest.raises(ValueError, match=f"^{field} must be"):
                    dataclasses.replace(VALID[key], **{field: bad})


def test_import_does_not_load_scipy_special():
    # scipy.special is imported at the first bs_put call: loading
    # it with the package would add to every run's start-up
    src = os.path.dirname(os.path.dirname(lapbs.__file__))
    code = "import sys, lapbs; print('scipy.special' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
