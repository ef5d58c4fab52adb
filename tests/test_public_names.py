"""Every name an echoguide module lists in __all__ exists on that module, so
a name deleted from the code cannot linger in its module's __all__, and is
used outside that module, in src/, tests/ or perfbench/, so a name nothing
else reads is not published."""

from __future__ import annotations

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import echoguide

MODULES = [info.name for info in pkgutil.iter_modules(echoguide.__path__, "echoguide.")]
REPO_ROOT = Path(__file__).resolve().parent.parent
SOURCES = {path: path.read_text(encoding="utf-8")
           for folder in ("src", "tests", "perfbench")
           for path in sorted((REPO_ROOT / folder).rglob("*.py"))}


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(name)
    public = getattr(module, "__all__", [])
    assert [n for n in public if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_is_used_outside_its_module(name):
    module = importlib.import_module(name)
    own = Path(module.__file__).resolve()
    others = [text for path, text in SOURCES.items() if path.resolve() != own]
    unused = [n for n in getattr(module, "__all__", [])
              if not any(re.search(rf"\b{re.escape(n)}\b", text) for text in others)]
    assert unused == []
