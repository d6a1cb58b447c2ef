"""Names other code reaches by string or from outside Tier-1: the benchmark
tracer's layers, the names the benchmark reads from the ``hecke`` shim,
``__all__`` and the imports of the bench files."""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import hecke2
from hecke2 import hecke

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
MODULES = sorted(m.name for m in pkgutil.iter_modules(hecke2.__path__) if m.name != "__main__")
BENCHES = sorted(path.stem for path in Path(__file__).parent.glob("bench_*.py"))


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_layers_resolve():
    # the tracer wraps each (module, function) by name; a renamed one breaks traced runs
    layers = _load_tracing().LAYERS
    assert layers
    for module, function, _span in layers:
        assert callable(getattr(importlib.import_module(f"hecke2.{module}"), function, None)), (
            module,
            function,
        )


def _names_perfbench_reads_from_hecke() -> set[str]:
    """Every name a ``perfbench/*.py`` file takes from the ``hecke`` shim.

    That is each ``from hecke2.hecke import a``, each attribute read of a
    local bound by ``from hecke2 import hecke [as hk]``, and the function of
    each ``hecke`` layer the tracer wraps.
    """
    names = {function for module, function, _span in _load_tracing().LAYERS if module == "hecke"}
    for path in TRACING.parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        bound = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "hecke2.hecke":
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module == "hecke2":
                bound.update(alias.asname or alias.name for alias in node.names if alias.name == "hecke")
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in bound:
                names.add(node.attr)
    return names


def test_hecke_shim_holds_exactly_what_perfbench_reads():
    # the shim exists only for the benchmark: each name it reads must resolve,
    # and __all__ names nothing more (the tracer finds _solve_relation by name)
    read = _names_perfbench_reads_from_hecke()
    assert sorted(name for name in read if not hasattr(hecke, name)) == []
    assert set(hecke.__all__) == read - {"_solve_relation"}


@pytest.mark.parametrize("module", MODULES)
def test_module_all_resolves(module):
    mod = importlib.import_module(f"hecke2.{module}")
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []


def test_package_all_resolves():
    assert [name for name in hecke2.__all__ if not hasattr(hecke2, name)] == []


@pytest.mark.parametrize("name", BENCHES)
def test_bench_file_imports(name):
    # the bench files run outside Tier-1: a name one imports that moves or
    # goes fails here, not only in a later bench run
    module = importlib.import_module(name)
    assert any(attr.startswith("test_") for attr in vars(module)), name
