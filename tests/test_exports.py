"""Every name the package or one of its modules lists in ``__all__``
resolves, so a removed name cannot linger in an export list."""

import importlib
import pkgutil

import pytest

import teleo

MODULES = ["teleo", *(f"teleo.{m.name}" for m in pkgutil.iter_modules(teleo.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_the_package_exports_its_modules_objects():
    for name in teleo.__all__:
        obj = getattr(teleo, name)
        home = getattr(obj, "__module__", None)
        if home is not None and home.startswith("teleo."):
            assert getattr(importlib.import_module(home), name) is obj
