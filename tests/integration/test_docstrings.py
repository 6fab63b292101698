"""Quality gate: every public module, class, and function is documented."""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import repro


def _public_members(module):
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if getattr(obj, "__module__", "").startswith("repro"):
                yield name, obj


def _walk_modules():
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if "__main__" in info.name:
            continue
        yield importlib.import_module(info.name)


def test_all_modules_have_docstrings():
    undocumented = [m.__name__ for m in _walk_modules() if not m.__doc__]
    assert not undocumented, undocumented


def test_all_public_callables_have_docstrings():
    undocumented = []
    for module in _walk_modules():
        for name, obj in _public_members(module):
            if obj.__module__ != module.__name__:
                continue  # re-export; documented at its home
            if not inspect.getdoc(obj):
                undocumented.append(f"{module.__name__}.{name}")
    assert not undocumented, undocumented


def test_public_methods_documented_on_key_classes():
    from repro.harness.runner import Runner
    from repro.minigraph.selectors import Selector
    from repro.pipeline.core import OoOCore
    for cls in (Runner, Selector, OoOCore):
        for name, member in vars(cls).items():
            if name.startswith("_") or not inspect.isfunction(member):
                continue
            assert inspect.getdoc(member), f"{cls.__name__}.{name}"


#: One single-line ``from repro... import a, b as c`` statement.
_DOCUMENTED_IMPORT = re.compile(
    r"^\s*(?:>>> )?from (repro[\w.]*) import ([\w ,]+?)\s*$", re.M)


def test_documented_imports_resolve():
    """Every import the docs and module docstrings show names an
    attribute or a submodule of its module."""
    root = Path(repro.__file__).resolve().parents[2]
    pages = [root / "README.md", root / "DESIGN.md",
             *sorted((root / "docs").glob("*.md"))]
    texts = [(page.name, page.read_text()) for page in pages]
    texts += [(module.__name__, module.__doc__ or "")
              for module in [repro, *_walk_modules()]]
    broken = []
    for where, text in texts:
        for match in _DOCUMENTED_IMPORT.finditer(text):
            module = importlib.import_module(match.group(1))
            for name in match.group(2).split(","):
                name = name.split(" as ")[0].strip()
                if hasattr(module, name):
                    continue
                try:
                    importlib.import_module(f"{module.__name__}.{name}")
                except ModuleNotFoundError:
                    broken.append(f"{where}: {match.group(0).strip()}")
    assert not broken, broken
