"""The traced benchmark's span targets resolve against the library.

``perfbench/spans.py`` wraps library entry points from the outside:
``install`` looks a ``Class.method`` target up in the class's own
``__dict__`` and a plain function up as a module attribute.  A refactor
that renames or deletes a target, or moves a method into a base class,
breaks the traced benchmark run; this test catches it with the tier-1
suite.  The benchmark file is only read (``runpy``, no bytecode
written), never changed.
"""

from __future__ import annotations

import importlib
import runpy
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
_SPANS = runpy.run_path(str(SPANS), run_name="perfbench_spans")


@pytest.mark.parametrize(
    "module_name, attribute, layer",
    [(module_name, attribute, layer)
     for module_name, attribute, _, layer in _SPANS["TARGETS"]],
    ids=[f"{module_name}:{attribute}"
         for module_name, attribute, _, _ in _SPANS["TARGETS"]])
def test_target_resolves_the_way_install_looks_it_up(module_name, attribute,
                                                     layer):
    assert layer in _SPANS["LAYERS"]
    module = importlib.import_module(module_name)
    owner_name, _, member = attribute.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name)
        assert member in owner.__dict__, (
            f"{attribute} is not defined on {owner_name} itself")
        raw = owner.__dict__[member]
        assert callable(raw) or isinstance(raw, classmethod)
    else:
        assert callable(getattr(module, member))
