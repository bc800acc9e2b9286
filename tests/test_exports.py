"""Every name a ``repro`` module lists in ``__all__`` resolves.

A stale export — a deleted class still listed in ``__all__`` — breaks
``from module import *`` and misleads readers; this catches one in the
tier-1 suite without a linter.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro

MODULES = sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if info.name.rsplit(".", 1)[-1] != "__main__"
)


@pytest.mark.parametrize("name", ["repro", *MODULES])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert not missing, f"{name}.__all__ lists names it does not define: {missing}"
