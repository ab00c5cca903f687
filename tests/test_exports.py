import ast
import importlib
import pkgutil
import types
from pathlib import Path

import pytest

import damped_szego

MODULES = sorted(m.name for m in pkgutil.iter_modules(damped_szego.__path__)
                 if m.name != "__main__")
PACKAGE_DIR = Path(damped_szego.__file__).parent
SOURCES = sorted([*PACKAGE_DIR.glob("*.py"),
                  *(Path(__file__).resolve().parents[1] / "perfbench").glob("*.py")])


def test_every_module_is_listed():
    assert {"cli", "hankel", "presets", "reporting", "solver", "wmanifold"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(f"damped_szego.{name}")
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"damped_szego.{name}.__all__ lists undefined names {missing}"


def _reads(module_name):
    """Names of ``damped_szego.<module_name>`` read in the package and benchmark sources.

    A read is a load of the bare name inside the module itself or in a file
    that imports the name from the module, or an attribute ``alias.name`` on
    the module imported as ``alias``.  A ``def``/``class`` line, an
    ``__all__`` entry or an import alone is not a read.
    """
    full = f"damped_szego.{module_name}"
    reads = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        own = path.parent == PACKAGE_DIR and path.stem == module_name
        names, aliases = {}, set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            source = "." * node.level + (node.module or "")
            if source in (f".{module_name}", full):
                names.update((a.asname or a.name, a.name) for a in node.names)
            elif source in (".", "damped_szego"):
                aliases.update(a.asname or a.name for a in node.names if a.name == module_name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if own:
                    reads.add(node.id)
                elif node.id in names:
                    reads.add(names[node.id])
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in aliases):
                reads.add(node.attr)
    return reads


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_have_a_caller(name):
    module = importlib.import_module(f"damped_szego.{name}")
    unused = sorted(set(getattr(module, "__all__", ())) - _reads(name))
    assert not unused, (f"damped_szego.{name}.__all__ lists names that neither the package "
                        f"nor perfbench uses: {unused}")


def test_package_exposes_only_its_version():
    public = sorted(n for n, v in vars(damped_szego).items()
                    if not n.startswith("_") and not isinstance(v, types.ModuleType))
    assert public == []
    assert isinstance(damped_szego.__version__, str)
