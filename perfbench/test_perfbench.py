"""Tests of the benchmark's own code.

Run from the repository root: python3 -m pytest perfbench/test_perfbench.py
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import irslab.cli  # noqa: E402,F401  (loads every layer)
import irslab.verify  # noqa: E402
import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from irslab.measures import DiracGamma  # noqa: E402
from irslab.words import COMMUTATOR  # noqa: E402


def _irslab_namespaces():
    mods = [m for n, m in sys.modules.items()
            if m is not None and (n == "irslab" or n.startswith("irslab."))]
    snap = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    snap.update({("SUITES", k): v for k, v in irslab.verify.SUITES.items()})
    snap[("SampledSubgroup", "coordinate")] = \
        sys.modules["irslab.sampler"].SampledSubgroup.__dict__["coordinate"]
    return snap


def test_wrappers_restore_the_originals():
    before = _irslab_namespaces()
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        from irslab._backend import kernels

        assert hasattr(kernels.spiral_index, "__wrapped__")
        assert hasattr(sys.modules["irslab.cli"].env_prob, "__wrapped__")
        assert hasattr(sys.modules["irslab.verify"].kernel_contains, "__wrapped__")
        assert hasattr(irslab.verify.SUITES["mixing"], "__wrapped__")
        changed = [k for k, v in _irslab_namespaces().items() if before.get(k) is not v]
        assert changed
    finally:
        tracer.uninstall()
    after = _irslab_namespaces()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_self_time_excludes_child_time():
    now = [0.0]
    tracer = layertrace.Tracer(clock=lambda: now[0])

    def inner():
        now[0] += 3.0

    wrapped_inner = tracer.wrap("t.inner", inner)

    def outer():
        now[0] += 2.0
        wrapped_inner()
        wrapped_inner()

    tracer.wrap("t.outer", outer)()
    assert tracer.acc["t.outer"] == {"calls": 1, "total_s": 8.0, "self_s": 2.0}
    assert tracer.acc["t.inner"] == {"calls": 2, "total_s": 6.0, "self_s": 6.0}


def test_self_time_survives_exceptions():
    now = [0.0]
    tracer = layertrace.Tracer(clock=lambda: now[0])

    def failing():
        now[0] += 1.0
        raise ValueError("boom")

    wrapped = tracer.wrap("t.failing", failing)
    try:
        wrapped()
    except ValueError:
        pass
    assert tracer.acc["t.failing"]["calls"] == 1
    assert tracer.parent() is None


def test_seed_changes_inputs_deterministically():
    for workload in ("enclose", "sample"):
        a = workloads.make_inputs(workload, 1)
        assert a == workloads.make_inputs(workload, 1)
        assert a != workloads.make_inputs(workload, 2)
        assert workloads.make_commands(workload, a) == workloads.make_commands(workload, a)
    with open(run.REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    for workload in workloads.WORKLOADS:
        recorded = reference["inputs"][workload]
        assert workloads.make_inputs(workload, reference["default_seed"]) == recorded


def test_generated_words_are_reduced_commutator_words():
    inputs = workloads.make_inputs("sample", 7)
    assert inputs["words"][0] == ""
    for w in inputs["words"][1:]:
        assert w == workloads.reduce_word(w) and w
        assert w.count("a") == w.count("A") and w.count("b") == w.count("B")
    rings = workloads.make_inputs("enclose", 7)["rings"]
    assert [rings[str(r)]["t"][0] for r in workloads.ENCLOSE_RINGS] == list(workloads.ENCLOSE_RINGS)


def _traced_counts(argv_list, tmp_path):
    """Per-function counters, summed over one fresh traced worker per command."""
    total = {}
    for k, argv in enumerate(argv_list):
        result = run.launch(argv + ["--out", str(tmp_path / ("%d.json" % k))], True,
                            time.monotonic() + 120)
        assert result["rc"] in (0, 1), result
        for name, acc in result["trace"].items():
            into = total.setdefault(name, {})
            for field, value in acc.items():
                if not field.endswith("_s"):
                    into[field] = into.get(field, 0) + value
    return total


def test_counters_repeat_exactly(tmp_path):
    words = workloads.make_inputs("sample", 3)["words"]
    argv_list = [
        ["eval", "--measure", "mu_G", "--word", workloads.conjugate_y(2, 1),
         "--width", "1/2^30"],
        ["sample", "--n", "200", "--seed", "5"] + [x for w in words for x in ("--word", w)],
        ["sample", "--measure", "mu_aG:1/4", "--n", "100", "--word", words[1]],
        ["verify", "faithful", "--max-len", "4"],
    ]
    first = _traced_counts(argv_list, tmp_path)
    second = _traced_counts(argv_list, tmp_path)
    assert first == second
    assert first["kernels.prf_block"]["calls"] > 0
    assert first["kernels.geometric_coordinate"]["in_scans"] > 0
    assert first["sampler.SampledSubgroup.coordinate"]["calls"] > 0
    product = first["dyadic.certified_product"]
    assert product["factors"] > 0
    assert product["exact"] + product["width_reached"] + product["not_reached"] == product["calls"]
    assert first["measures.kernel_contains"]["calls"] == 4 * (3 ** 4 - 1) // 2


def test_full_eval_counts_probes_that_fall_through():
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        # through the module, where the suites look it up
        sys.modules["irslab.measures"].kernel_contains(DiracGamma(1), COMMUTATOR)
    finally:
        tracer.uninstall()
    assert tracer.acc["measures.kernel_contains"]["full_eval"] == 1
    assert tracer.acc["measures.env_prob"]["calls"] == 1


def test_benchmark_json_names_match_the_runner():
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def _enclose_outputs(values):
    return {key: {"report": {"results": [{"value": value}]}, "csv": None}
            for key, value in values.items()}


def test_enclose_check_accepts_reference_and_rejects_a_shifted_value():
    with open(run.REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    inputs = reference["inputs"]["enclose"]
    values = dict(reference["enclose"])
    problems, _ = workloads.check_outputs("enclose", inputs, _enclose_outputs(values),
                                          reference, True)
    assert not any(problems.values())
    shifted = dict(values["ring6-w60"], lo="1/2^1", hi="3/2^2")
    values["ring6-w60"] = shifted
    problems, _ = workloads.check_outputs("enclose", inputs, _enclose_outputs(values),
                                          reference, False)
    assert problems["ring6-w60"]
    values["ring6-w60"] = dict(shifted, width_reached=False)
    problems, _ = workloads.check_outputs("enclose", inputs, _enclose_outputs(values),
                                          reference, False)
    assert "width not reached" in problems["ring6-w60"]


def _traced_op(key, calls, self_s):
    trace = {"kernels.prf_block": {"calls": calls, "total_s": self_s, "self_s": self_s}}
    return {"key": key, "traced": True, "problems": [], "result": {"trace": trace}}


def test_counts_that_differ_between_traced_passes_fail_the_op():
    passes = [[_traced_op("a", 7, 0.1), _traced_op("b", 3, 0.1)],
              [_traced_op("a", 7, 0.5), _traced_op("b", 4, 0.1)]]
    run.check_counts_repeat(passes)
    assert [op["problems"] for op in passes[0]] == [[], []]
    assert passes[1][0]["problems"] == []
    assert passes[1][1]["problems"] == [
        "counts differ from the first traced pass: kernels.prf_block.calls"]
    lone = [[_traced_op("a", 7, 0.1)]]
    run.check_counts_repeat(lone)
    assert lone[0][0]["problems"]


def test_setup_and_wall_are_scaled_by_the_best_probe():
    def op(key, wall_s, setup_s, probe_s):
        return {"key": key, "traced": False, "result": {
            "wall_s": wall_s, "setup_s": setup_s, "probe_s": probe_s, "maxrss_kb": 2048}}

    passes = [[op("a", 2.0, 0.3, 2 * run.PROBE_REF_S), op("b", 1.0, 0.2, 4 * run.PROBE_REF_S)],
              [op("a", 3.0, 0.4, 3 * run.PROBE_REF_S), op("b", 0.5, 0.5, 2 * run.PROBE_REF_S)]]
    series = run.end_to_end(passes)
    assert series["wall_s"][0] == (2.0 + 0.5) / 2
    assert series["setup_s"][0] == 0.2 / 2
    assert series["wall_s"][1] == [3.0, 3.5]
    assert series["peak_rss_mb"][0] == 2.0


def test_host_probe_reports_its_time_since_launch():
    probe_s = float(run.last_line(run.HOSTPROBE, [], time.monotonic() + 60))
    assert 0 < probe_s < 60
