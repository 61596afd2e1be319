"""Every function the benchmark's traced runs patch still exists.

``bench/tracer.py`` replaces each ``TARGETS`` entry by name; a renamed or
deleted function would break every traced bench run while the rest of this
suite passes.
"""

import importlib
import runpy
from pathlib import Path

import pytest

# run_path compiles the file without writing bytecode under bench/
TARGETS = runpy.run_path(str(Path(__file__).parents[1] / "bench" / "tracer.py"))["TARGETS"]


@pytest.mark.parametrize(
    "module, attr", [(module, attr) for module, attr, _, _ in TARGETS],
    ids=[f"{module}.{attr}" for module, attr, _, _ in TARGETS],
)
def test_traced_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))
