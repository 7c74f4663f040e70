"""The benchmark's tracer wraps irslab functions by name, and its runner
and checks import irslab names; every such name must exist, or a benchmark
run fails on a missing attribute."""

import ast
import importlib
from itertools import islice
from pathlib import Path

import pytest

from _helpers import planted_seed
from irslab._backend import kernels
from irslab.dyadic import Dyadic
from irslab.measures import MU_G, family_measure
from irslab.sampler import SampledSubgroup, depth_profile, membership_matrix
from irslab.words import Word
from irslab.ywords import expand, y

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
LAYERTRACE = PERFBENCH / "layertrace.py"


def test_traced_targets_exist():
    trace = {"__name__": "layertrace"}
    exec(compile(LAYERTRACE.read_text(), str(LAYERTRACE), "exec"), trace)
    for layer, module_name, attr in trace["TARGETS"]:
        owner = kernels if module_name is None else importlib.import_module(module_name)
        assert callable(getattr(owner, attr, None)), "%s.%s" % (layer, attr)
    for layer, module_name, cls_name, attr in trace["METHOD_TARGETS"]:
        cls = getattr(importlib.import_module(module_name), cls_name)
        assert attr in cls.__dict__, "%s.%s.%s" % (layer, cls_name, attr)


def _perfbench_imports():
    """(file, module, name) for every import of irslab in perfbench/*.py,
    function-local ones included; name is None for a plain import."""
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "irslab":
                        yield path.name, alias.name, None
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "irslab":
                for alias in node.names:
                    yield path.name, node.module, alias.name


def test_perfbench_imports_resolve():
    found = set()
    for filename, module, name in _perfbench_imports():
        statement = "import %s" % module if name is None else "from %s import %s" % (module, name)
        try:
            exec(statement, {})
        except ImportError as exc:
            pytest.fail("%s: %s: %s" % (filename, statement, exc))
        found.add((filename, module, name))
    # the sample check's imports run only inside the benchmark
    assert ("workloads.py", "irslab.grid", "transversal_word_at") in found
    assert ("workloads.py", "irslab.sampler", "membership_window") in found
    assert ("worker.py", "irslab._backend", "BACKEND") in found


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
    depths = list(islice(kernels.conjugate_depths(w, kernels.rewrite_points(w)), 81))
    assert all(depths)
    assert calls["spiral_point"] == 81
    assert calls["depth_syllables"] == 81
    assert calls["spiral_index"] > 0


def test_scan_draws_happen_inside_member_scan(monkeypatch):
    """membership_matrix draws only inside kernels.member_scan, through its
    draw argument SampledSubgroup.coordinate, both of which the tracer
    wraps by name.  Block 0 decides every lane of depth <= 64, so seeds are
    planted whose block 0 is all zeros (geometric inner) or all ones
    (family) at the window's deeper coordinates, which makes those lanes
    drawn."""
    w = expand(y(20))
    deep = [i for i, d in enumerate(depth_profile(w), start=1) if d > 64 and i <= 16]
    assert len(deep) == 7
    open_calls = []
    draws = {}

    def scan(*args, _fn=kernels.member_scan):
        open_calls.append("member_scan")
        try:
            return _fn(*args)
        finally:
            open_calls.pop()

    def coordinate(self, i, _fn=SampledSubgroup.coordinate):
        parent = open_calls[-1] if open_calls else None
        draws[parent] = draws.get(parent, 0) + 1
        return _fn(self, i)

    monkeypatch.setattr(kernels, "member_scan", scan)
    monkeypatch.setattr(SampledSubgroup, "coordinate", coordinate)
    for mu, block0 in ((MU_G, 0), (family_measure(Dyadic(1, 2)), kernels.MASK64)):
        draws.clear()
        seeds = list(range(20)) + [planted_seed(i, block0) for i in deep]
        for _ in membership_matrix(seeds, [w], mu):
            pass
        assert draws.get("member_scan", 0) > 0, mu
        assert set(draws) == {"member_scan"}, mu
