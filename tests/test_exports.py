import importlib
import pkgutil

import pytest

import damped_szego

MODULES = sorted(m.name for m in pkgutil.iter_modules(damped_szego.__path__)
                 if m.name != "__main__")


def test_every_module_is_listed():
    assert {"cli", "hankel", "presets", "reporting", "solver", "wmanifold"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(f"damped_szego.{name}")
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"damped_szego.{name}.__all__ lists undefined names {missing}"
