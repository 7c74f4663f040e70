"""The benchmark's tracer wraps irslab functions by name; every name it
lists must exist, or a traced benchmark run fails on a missing attribute."""

import importlib
from itertools import islice
from pathlib import Path

from irslab._backend import kernels
from irslab.words import Word

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def test_traced_targets_exist():
    trace = {"__name__": "layertrace"}
    exec(compile(LAYERTRACE.read_text(), str(LAYERTRACE), "exec"), trace)
    for layer, module_name, attr in trace["TARGETS"]:
        owner = kernels if module_name is None else importlib.import_module(module_name)
        assert callable(getattr(owner, attr, None)), "%s.%s" % (layer, attr)
    for layer, module_name, cls_name, attr in trace["METHOD_TARGETS"]:
        cls = getattr(importlib.import_module(module_name), cls_name)
        assert attr in cls.__dict__, "%s.%s.%s" % (layer, cls_name, attr)


def test_conjugate_depths_calls_traced_kernels_by_module_name(monkeypatch):
    """The tracer counts the depth walk's work through the kernel module's
    attributes, so the walk must look these up there on every call."""
    calls = {}
    for name in ("depth_syllables", "spiral_index", "spiral_point"):
        def counted(*args, _fn=getattr(kernels, name), _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args)
        monkeypatch.setattr(kernels, name, counted)
    w = Word.parse("aaBabAAA").letters
    depths = list(islice(kernels.conjugate_depths(w), 81))
    assert all(depths)
    assert calls["spiral_point"] == 81
    assert calls["depth_syllables"] == 81
    assert calls["spiral_index"] > 0
