"""Every exported name resolves, and the package exports each name once."""

import importlib
import pkgutil

import pytest

import boolrel

MODULES = sorted(m.name for m in pkgutil.iter_modules(boolrel.__path__))


def test_package_exports_resolve():
    missing = [n for n in boolrel.__all__ if not hasattr(boolrel, n)]
    assert not missing


def test_package_exports_are_unique():
    assert len(boolrel.__all__) == len(set(boolrel.__all__))


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"boolrel.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing
