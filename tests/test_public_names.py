"""Every name an echoguide module lists in __all__ exists on that module, so
a name deleted from the code cannot linger in its module's __all__."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import echoguide

MODULES = [info.name for info in pkgutil.iter_modules(echoguide.__path__, "echoguide.")]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(name)
    public = getattr(module, "__all__", [])
    assert [n for n in public if not hasattr(module, n)] == []
