"""Every cross-reference in the ``tsgad`` sources names something that exists.

A ``:func:``, ``:data:``, ``:class:`` or ``:exc:`` reference goes stale
without a sound when the name it points at moves or is deleted.  Each one is
resolved here as the docs would resolve it: a ``tsgad.``-dotted name from
the package, any other name in the module that holds the reference, then in
the builtins.  A leading ``~`` only shortens the rendered text.
"""

import builtins
import importlib
import inspect
import pkgutil
import re
from pathlib import Path
from types import SimpleNamespace

import pytest

import tsgad

REFERENCE = re.compile(r":(func|data|class|exc):`~?([^`]+)`")

MODULES = {
    name: importlib.import_module(f"tsgad.{name}")
    for name in sorted(info.name for info in pkgutil.iter_modules(tsgad.__path__))
}

# what each role may name
KIND_OK = {
    "func": callable,
    "data": lambda obj: not inspect.ismodule(obj),
    "class": inspect.isclass,
    "exc": lambda obj: inspect.isclass(obj) and issubclass(obj, BaseException),
}


def _references(module) -> list[tuple[int, str, str]]:
    """``(line, role, target)`` of each reference in the module's source."""
    source = Path(module.__file__).read_text()
    return [
        (source.count("\n", 0, match.start()) + 1, match[1], match[2])
        for match in REFERENCE.finditer(source)
    ]


def _resolves(module, role: str, target: str) -> bool:
    first, *rest = target.split(".")
    for scope in (SimpleNamespace(tsgad=tsgad), module, builtins):
        if hasattr(scope, first):
            obj = getattr(scope, first)
            for name in rest:
                if not hasattr(obj, name):
                    return False
                obj = getattr(obj, name)
            return KIND_OK[role](obj)
    return False


def test_references_are_found():
    # a pattern that matched nothing would pass every module below
    assert sum(len(_references(module)) for module in MODULES.values()) >= 50


@pytest.mark.parametrize("name", sorted(MODULES))
def test_every_reference_resolves(name):
    module = MODULES[name]
    stale = [
        f"{name}.py:{line}: :{role}:`{target}`"
        for line, role, target in _references(module)
        if not _resolves(module, role, target)
    ]
    assert not stale
