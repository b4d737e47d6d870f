"""Public-name hygiene: every name a module exports exists, the package
namespace re-exports the library modules' names, and it exports nothing
else.  A name left in ``__all__`` after its definition is deleted, or a
re-export left behind after a name leaves ``__all__``, would otherwise only
fail when used."""

import importlib
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
