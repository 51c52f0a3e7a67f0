"""The public surface: every exported name resolves."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import specguard

MODULES = sorted(
    info.name
    for info in pkgutil.iter_modules(specguard.__path__, "specguard.")
    if info.name != "specguard.__main__"
)


@pytest.mark.parametrize("name", ["specguard", *MODULES])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
