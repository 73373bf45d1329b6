"""Public-API integrity: every module's ``__all__`` names something real.

A deleted definition whose name stays in an ``__all__`` (or in a package's
re-export list) breaks ``from module import *`` only for the users who try
it; this sweep makes it fail the suite instead.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro

MODULES = ("repro",) + tuple(
    info.name for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
)


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve_once(name):
    module = importlib.import_module(name)
    exported = list(getattr(module, "__all__", ()))
    missing = [entry for entry in exported if not hasattr(module, entry)]
    assert not missing, f"{name}.__all__ names undefined {missing}"
    duplicates = sorted({entry for entry in exported if exported.count(entry) > 1})
    assert not duplicates, f"{name}.__all__ repeats {duplicates}"


def test_star_import_of_the_package():
    namespace: dict[str, object] = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)
