"""Every module's ``__all__`` names only what the module defines."""

import importlib
import pkgutil

import pytest

import sirblab

MODULES = sorted(m.name for m in pkgutil.iter_modules(sirblab.__path__))


def test_every_module_is_listed():
    assert {"cli", "grid", "integrator", "kernels", "model", "scenario",
            "stability", "steady", "sweep"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"sirblab.{name}")
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
