"""The benchmark's tracer wraps irslab functions by name; every name it
lists must exist, or a traced benchmark run fails on a missing attribute."""

import importlib
from pathlib import Path

from irslab._backend import kernels

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
