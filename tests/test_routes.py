"""The routes to T_p and F_p are modules that do not read each other.

``naive``, ``relation``, ``newton`` and ``fast`` each compute an answer
that another route checks, so a route that imported the code it is checked
against would check nothing.  These tests read each module's imports with
``ast`` and hold them to the rules below; ``hecke`` only re-exports.
"""

import ast
import inspect
from pathlib import Path

import pytest

import hecke2
from hecke2 import hecke

PACKAGE = Path(hecke2.__file__).parent
ROUTES = ("naive", "relation", "newton", "fast")

# module -> the routes it may take nothing from, except the names in ALLOWED
FORBIDDEN = {
    "primes": set(ROUTES),
    # the kernel layer holds the one elimination both derivations of F_p run
    "gf2series": set(ROUTES),
    "naive": {"relation", "newton", "fast"},
    "relation": {"naive", "newton", "fast"},
    "fast": {"naive", "newton"},
    "newton": {"naive", "fast"},
}
# the Newton oracle compares its relation with the naive power sums and
# closes it through the odd stream, the two comparisons its docstring declares
ALLOWED = {"newton": {"naive": {"_naive_monomial_range"}, "fast": {"_packed_stream"}}}


def taken(module: str) -> dict[str, set[str]]:
    """Per ``hecke2`` module, the names ``module`` takes from it.

    ``from .m import a`` takes ``a``; ``from . import m`` takes each ``m.a``
    the module reads, and ``"*"`` if it uses ``m`` any other way.  The
    package root and ``hecke`` re-export every route, so taking anything
    from them takes ``"*"`` from every route.
    """
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    names: dict[str, set[str]] = {}
    bound: dict[str, str] = {}  # local name -> the hecke2 module it is bound to
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(a.name.split(".")[0] == "hecke2" for a in node.names):
                names.setdefault("", set()).add("*")
        elif isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if not node.level:  # absolute: only hecke2's own modules count
                if source.split(".")[0] != "hecke2":
                    continue
                source = source.removeprefix("hecke2").lstrip(".")
            for alias in node.names:
                if not source and (PACKAGE / f"{alias.name}.py").is_file():
                    bound[alias.asname or alias.name] = alias.name
                else:
                    names.setdefault(source, set()).add(alias.name)
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in bound:
            names.setdefault(bound[node.value.id], set()).add(node.attr)
            read.add(id(node.value))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in bound and id(node) not in read:
            names.setdefault(bound[node.id], set()).add("*")
    if "" in names or "hecke" in names:
        for route in ROUTES:
            names.setdefault(route, set()).add("*")
    return names


def violations(module: str) -> list[tuple[str, str]]:
    allowed = ALLOWED.get(module, {})
    return [
        (source, name)
        for source, got in sorted(taken(module).items())
        if source in FORBIDDEN[module]
        for name in sorted(got - allowed.get(source, set()))
    ]


@pytest.mark.parametrize("module", sorted(FORBIDDEN))
def test_route_imports_no_route_it_is_checked_against(module):
    assert violations(module) == []


def test_newton_takes_its_two_comparisons():
    got = taken("newton")
    assert (got["naive"], got["fast"]) == ({"_naive_monomial_range"}, {"_packed_stream"})


def test_hecke_defines_nothing():
    # every function and class reachable through the re-export surface is
    # defined in a route module
    exposed = [v for v in vars(hecke).values() if inspect.isfunction(v) or inspect.isclass(v)]
    assert exposed
    assert [v for v in exposed if v.__module__ == hecke.__name__] == []
    assert hecke._solve_relation.__module__ == "hecke2.relation"
