"""Public-name hygiene: every name a module exports exists, the package
namespace re-exports the library modules' names, and it exports nothing
else.  A name left in ``__all__`` after its definition is deleted, or a
re-export left behind after a name leaves ``__all__``, would otherwise only
fail when used."""

import ast
import importlib
import inspect
import types

import pytest

import gge_thermo

LIBRARY = ("hermitian", "fermions", "dense", "protocols")


@pytest.mark.parametrize("module", LIBRARY + ("cli",))
def test_all_names_resolve(module):
    mod = importlib.import_module(f"gge_thermo.{module}")
    assert not [name for name in mod.__all__ if not hasattr(mod, name)]


@pytest.mark.parametrize("module", LIBRARY)
def test_package_reexports_library_names(module):
    # cli is the command-line entry point and is not re-exported
    mod = importlib.import_module(f"gge_thermo.{module}")
    assert not [name for name in mod.__all__
                if getattr(gge_thermo, name, None) is not getattr(mod, name)]


def test_package_exports_only_library_names():
    exported = set().union(*(importlib.import_module(f"gge_thermo.{m}").__all__ for m in LIBRARY))
    public = {name for name, value in vars(gge_thermo).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert not public - exported


def _library_imports(module: str) -> tuple[set, set, set]:
    """The library modules that ``module``'s source imports, each (module, name)
    it takes from one: by ``from .m import name``, or as ``alias.name`` after
    ``from . import m as alias`` or ``import gge_thermo.m as alias``, and each
    (module, name) it calls as ``alias.name(...)``."""
    tree = ast.parse(inspect.getsource(importlib.import_module(f"gge_thermo.{module}")))
    aliases, imported, names, called = {}, set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            path = ".".join(filter(None, ("gge_thermo" if node.level else "", node.module or "")))
            for alias in node.names:
                if path == "gge_thermo":
                    imported.add(alias.name)
                    aliases[alias.asname or alias.name] = alias.name
                elif path.startswith("gge_thermo."):
                    imported.add(path.split(".")[1])
                    names.add((path.split(".")[1], alias.name))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("gge_thermo."):
                    imported.add(alias.name.split(".")[1])
                    aliases[alias.asname or alias.name] = alias.name.split(".")[1]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
            names.add((aliases[node.value.id], node.attr))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id in aliases):
            called.add((aliases[node.func.value.id], node.func.attr))
    return imported, names, called


@pytest.mark.parametrize("module, other", [("dense", "fermions"), ("fermions", "dense")])
def test_back_ends_do_not_import_each_other(module, other):
    # the rules both back ends share live in hermitian, which both import
    imported, _, _ = _library_imports(module)
    assert "hermitian" in imported and other not in imported


def test_protocols_takes_only_the_state_types_from_the_back_ends():
    # a back end's checks and kernels are its state type's methods; protocols
    # names no other private of dense or fermions
    _, names, called = _library_imports("protocols")
    private = {(m, name) for m, name in names if m in ("dense", "fermions") and name.startswith("_")}
    assert private == {("dense", "_State"), ("fermions", "_ModeState")}
    # every protocol schedule is built by the state's schedule, so protocols takes
    # no record type, decomposition or check of its own from hermitian
    assert not names & {("hermitian", name) for name in ("_Hamiltonian", "_eigh", "require_hermitian")}
    # its builders hand the state trusted records, so it never calls the checking
    # constructor meant for user input (a sanity pin shows the walk sees calls)
    assert ("fermions", "build_chain") in called
    assert ("fermions", "QuadraticHamiltonian") not in called
