"""Names other code reaches by string or from outside Tier-1: the benchmark
tracer's layers, ``__all__`` and the imports of the bench files."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import hecke2

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
