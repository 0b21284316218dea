"""Every name in an ``__all__`` of the package resolves.

Tools that walk ``__all__`` (star imports, the benchmark's per-layer
tracer) fail on a name that was deleted but is still exported.
"""

import importlib
import pkgutil

import pytest

import splinegauss

MODULES = ["splinegauss"] + [
    f"splinegauss.{info.name}" for info in pkgutil.iter_modules(splinegauss.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
