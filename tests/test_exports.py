"""Every ``__all__`` in the package lists each public name once, and each
listed name resolves — so a deleted module cannot leave a dangling
re-export behind."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro


def _modules_with_all():
    names = ["repro"] + [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
        if not info.name.endswith(".__main__")  # importing it runs the CLI
    ]
    modules = [importlib.import_module(name) for name in names]
    return [module for module in modules if hasattr(module, "__all__")]


@pytest.mark.parametrize(
    "module", _modules_with_all(), ids=lambda module: module.__name__
)
def test_all_is_unique_and_resolves(module):
    exported = list(module.__all__)
    assert len(set(exported)) == len(exported), sorted(
        name for name in set(exported) if exported.count(name) > 1
    )
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, missing
