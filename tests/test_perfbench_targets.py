"""The functions the explain() benchmark traces by name still exist.

``perfbench/tracing.py`` wraps ``repro`` functions given as (owner,
attribute) pairs. Renaming or deleting one of them breaks the benchmark
but no other test, so this checks that every pair resolves.
"""
import importlib
import importlib.util
import os
import sys


def test_traced_targets_resolve(monkeypatch):
    path = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up in sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for owner, attr, *_ in tracing.TARGETS:
        if isinstance(owner, str):
            assert callable(getattr(importlib.import_module(owner), attr)), (owner, attr)
        else:
            assert hasattr(owner, attr), (owner.__name__, attr)
