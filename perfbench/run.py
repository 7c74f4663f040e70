"""Layered end-to-end benchmark of the irslab command line.

Usage (from the repository root):

    python3 perfbench/run.py --workload enclose|sample|verify \
        [--seed N] [--seconds S] [--trace 0|1]

A workload is a fixed list of ``irslab`` commands whose inputs come from
--seed.  A pass runs every command once, each in a fresh worker process
(one at a time: every CLI user pays a fresh process, so a cache kept
across commands cannot show up as a gain).  Passes repeat while the next
one still fits in --seconds.  Output checks run after timing stops.

--seconds defaults to run_seconds of BENCHMARK.json.  --trace 0 prints
the end-to-end metrics: setup_s, wall_s and peak_rss_mb (see
end_to_end).  --trace 1 alternates untraced and traced passes, at least
two of each, and prints the per-layer metrics of the traced ones, plus the
tracing overhead; traced and untraced reports must be byte-identical, and
every count must repeat between traced passes.  The last stdout line is
one JSON object; the exit code is 1 when any op failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
HOSTPROBE = HERE / "hostprobe.py"
REFERENCE = HERE / "reference.json"
BENCHMARK = ROOT / "BENCHMARK.json"
HARD_LIMIT_S = 170.0
# setup_s and wall_s are given at the host speed at which hostprobe.py
# takes this long: a round figure in the range of the probe's best times
# on a 2-vCPU shared VM, 0.06 to 0.10 s.
PROBE_REF_S = 0.08

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

# (accumulator, fields) reported per layer; times are self times.
LAYER_FIELDS = (
    ("kernels.depth_syllables", ("calls", "syllables", "self_s")),
    ("kernels.rewrite_syllables", ("calls", "syllables", "self_s")),
    ("kernels.shifted_depth", ("calls", "self_s")),
    ("sampler.depth_profile", ("calls", "entries", "self_s")),
    ("kernels.member_scan", ("calls", "self_s")),
    ("kernels.geometric_coordinate", ("calls",)),
    ("kernels.prf_block", ("calls",)),
    ("kernels.spiral_point", ("calls",)),
    ("kernels.spiral_index", ("calls",)),
    ("dyadic.certified_product",
     ("calls", "factors", "self_s", "exact", "width_reached", "not_reached")),
    ("measures.env_prob", ("calls", "self_s")),
    ("measures.kernel_contains", ("calls", "self_s", "full_eval")),
    ("ywords.rewrite_to_y", ("calls", "self_s")),
    ("ywords.depth", ("calls", "self_s")),
    ("words.conjugate", ("calls", "self_s")),
    ("sampler.membership_matrix", ("self_s",)),
    ("sampler.SampledSubgroup.coordinate", ("calls",)),
    ("cli.main", ("self_s",)),
)
# Whole-call times, including callees.
TOTAL_TIMES = ("measures.mixing_defect",) + tuple(
    "verify.%s" % s for s in ("faithful", "invariance", "closure", "chain-limits",
                              "combination", "mixing"))


def per_layer_units() -> dict:
    units = {}
    for acc, fields in LAYER_FIELDS:
        for field in fields:
            units["%s.%s" % (acc, field)] = "s" if field.endswith("_s") else "count"
    for acc in TOTAL_TIMES:
        units[acc + ".s"] = "s"
    units.update({
        "cli.import_s": "s",
        "sampler.coords_scanned": "count",
        "sampler.coords_per_scan": "ratio",
        "dyadic.factors_per_product": "ratio",
        "measures.kernel_contains.full_eval_ratio": "ratio",
        "trace.wall_s": "s",
        "trace.untraced_wall_s": "s",
        "trace.overhead_ratio": "ratio",
    })
    return units


# ---------------------------------------------------------------------------
# running commands
# ---------------------------------------------------------------------------

def worker_env() -> dict:
    env = dict(os.environ)
    for name in ("IRSLAB_THREADS", "IRSLAB_BACKEND"):
        env.pop(name, None)
    return env


def last_line(script: Path, args, deadline: float):
    """Run script in a fresh process, passing it its launch time first;
    returns its last stdout line, or raises RuntimeError."""
    launched = time.monotonic()
    cmd = [sys.executable, str(script), repr(launched)] + args
    try:
        proc = subprocess.run(cmd, env=worker_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=max(1.0, deadline - launched))
    except subprocess.TimeoutExpired:
        raise RuntimeError("%s timed out" % script.name)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s exited %d: %s" % (script.name, proc.returncode,
                                                 proc.stderr.strip()[-2000:]))
    return lines[-1]


def launch(argv, traced: bool, deadline: float) -> dict:
    """Run one worker, then (untraced) one host probe; returns the worker's
    report with the probe's time as probe_s, or {"error": ...}."""
    try:
        result = json.loads(last_line(
            WORKER, [str(SRC), "1" if traced else "0", json.dumps(argv)], deadline))
        if not traced:
            result["probe_s"] = float(last_line(HOSTPROBE, [], deadline))
    except RuntimeError as exc:
        return {"error": str(exc)}
    return result


def run_pass(commands, pass_dir: Path, traced: bool, deadline: float) -> list:
    pass_dir.mkdir(parents=True)
    ops = []
    for cmd in commands:
        argv = list(cmd["argv"])
        files = []
        for flag in workloads.output_flags(argv):
            path = pass_dir / ("%s%s" % (cmd["key"], ".csv" if flag == "--csv" else ".json"))
            argv += [flag, str(path)]
            files.append(path)
        ops.append({"key": cmd["key"], "traced": traced, "files": files,
                    "result": launch(argv, traced, deadline)})
    return ops


def run_passes(commands, work: Path, trace: bool, seconds: float, deadline: float) -> list:
    """Untraced passes (alternating with traced ones under --trace 1) while
    the next cycle is expected to end within `seconds`.  Under --trace 1
    there are at least two cycles, so that counts can be compared."""
    kinds = (False, True) if trace else (False,)
    durations = {kind: [] for kind in kinds}
    passes = []
    start = time.monotonic()
    while True:
        for kind in kinds:
            t0 = time.monotonic()
            passes.append(run_pass(commands, work / ("pass%03d" % len(passes)), kind, deadline))
            durations[kind].append(time.monotonic() - t0)
        cycle = sum(statistics.median(d) for d in durations.values())
        now = time.monotonic()
        if trace and len(durations[True]) < 2 and now + cycle <= deadline:
            continue
        if now - start + cycle > seconds or now + cycle > deadline:
            return passes


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def digest(files) -> tuple:
    return tuple(workloads.sha256_file(f) if f.is_file() else None for f in files)


def trace_counts(result) -> dict:
    """The deterministic part of a traced op: every accumulator field that
    is not a time."""
    return {"%s.%s" % (name, field): value
            for name, acc in result.get("trace", {}).items()
            for field, value in acc.items() if not field.endswith("_s")}


def check_counts_repeat(passes) -> None:
    """Fail every traced op whose counts differ from the same command's
    first traced op, and every op of a lone traced pass."""
    traced = [p for p in passes if p[0]["traced"]]
    if len(traced) == 1:
        for op in traced[0]:
            op["problems"].append("one traced pass only: counts not compared")
    first_counts = {}
    for op in (op for p in traced for op in p if "error" not in op["result"]):
        counts = trace_counts(op["result"])
        first = first_counts.setdefault(op["key"], counts)
        if counts != first:
            differ = sorted(k for k in set(counts) | set(first) if counts.get(k) != first.get(k))
            op["problems"].append("counts differ from the first traced pass: %s"
                                  % ", ".join(differ))


def judge(workload, inputs, passes, seed) -> dict:
    """Mark every op ok or failed; returns counts and seed-dependent notes."""
    ops = [op for p in passes for op in p]
    for op in ops:
        op["problems"] = []
        if "error" in op["result"]:
            op["problems"].append(op["result"]["error"])
        op["digest"] = digest(op["files"])
        if None in op["digest"]:
            op["problems"].append("output file missing")
    by_key = {}
    for op in ops:
        if not op["problems"]:
            by_key.setdefault(op["key"], set()).add(op["digest"])
    for op in ops:
        if len(by_key.get(op["key"], ())) > 1:
            op["problems"].append("outputs differ between passes (traced or not)")
    check_counts_repeat(passes)
    outputs = {}
    for op in ops:  # one problem-free op per command stands for all of its passes
        if not op["problems"] and op["key"] not in outputs:
            outputs[op["key"]] = {"files": op["files"],
                                  "csv": op["files"][1] if len(op["files"]) > 1 else None}
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    try:
        for out in outputs.values():
            with open(out["files"][0], encoding="utf-8") as fh:
                out["report"] = json.load(fh)
        problems, notes = workloads.check_outputs(
            workload, inputs, outputs, reference, seed == reference["default_seed"])
    except Exception as exc:  # a malformed report must fail the run, not crash it
        problems = {key: ["check raised %r" % (exc,)] for key in outputs}
        notes = {}
    for op in ops:
        if op["problems"]:
            continue
        report = outputs[op["key"]].get("report", {})
        op["problems"] += problems.get(op["key"], [])
        rc = op["result"]["rc"]
        if rc not in workloads.allowed_exit_codes(op["key"], report):
            op["problems"].append("exit code %r" % (rc,))
    return {"attempted": len(ops), "failed": sum(1 for op in ops if op["problems"]),
            "notes": notes}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def quartiles(values) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def pass_sum(ops, field) -> float:
    return sum(op["result"].get(field, 0.0) for op in ops if "error" not in op["result"])


def best_probe(passes) -> float:
    """The best hostprobe.py time of the run."""
    return min((op["result"]["probe_s"] for p in passes for op in p
                if "probe_s" in op["result"]), default=PROBE_REF_S)


def host_scale(passes) -> float:
    """PROBE_REF_S over the run's best probe time.  In the six sets of ten
    runs of baseline.json, the best probe time of a run had a correlation
    of 0.5 to 0.7 with its unscaled wall_s on enclose and verify, and 0.2
    to 0.3 on sample, where a run has only about eight probes.  Scaling
    cut the mean spread (IQR over median) of setup_s from 0.15 to 0.09
    and that of wall_s from 0.12 to 0.11."""
    return PROBE_REF_S / best_probe(passes)


def end_to_end(passes) -> dict:
    """name -> (value, samples).  wall_s sums each command's best time
    over passes, and setup_s is the best over launches: load from other
    tenants of a shared host only adds time, and it comes in bursts of
    seconds that slow single commands by up to half, so the best of N is
    the steadiest estimate of the engine's own cost.  The host's speed
    also drifts by up to 1.6x for minutes at a time, longer than a run, so
    both are then scaled by host_scale(); the samples are unscaled (the
    launches for setup_s, the pass sums for wall_s).  peak_rss_mb is the
    median over passes of the largest worker RSS."""
    plain = [[op for op in p if "error" not in op["result"]]
             for p in passes if not p[0]["traced"]]
    launches = [op["result"]["setup_s"] for p in plain for op in p] or [0.0]
    per_cmd = {}
    for p in plain:
        for op in p:
            per_cmd.setdefault(op["key"], []).append(op["result"]["wall_s"])
    rss = [max((op["result"]["maxrss_kb"] for op in p), default=0) / 1024.0 for p in plain]
    scale = host_scale(passes)
    return {
        "setup_s": (min(launches) * scale, launches),
        "wall_s": (sum(min(v) for v in per_cmd.values()) * scale,
                   [sum(op["result"]["wall_s"] for op in p) for p in plain]),
        "peak_rss_mb": (statistics.median(rss), rss),
    }


def layer_sums(ops) -> dict:
    total = {}
    for op in ops:
        for name, acc in op["result"].get("trace", {}).items():
            into = total.setdefault(name, {})
            for field, value in acc.items():
                into[field] = into.get(field, 0) + value
    return total


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer(passes) -> dict:
    """Per-layer metrics: counts from the first traced pass (judge() fails
    every op whose counts differ in a later one), times as the median over
    traced passes."""
    plain_walls = [pass_sum(p, "wall_s") for p in passes if not p[0]["traced"]]
    traced = [p for p in passes if p[0]["traced"]]
    units = per_layer_units()
    samples = {name: [] for name in units}
    for p in traced:
        acc = layer_sums(p)

        def get(name, field):
            return acc.get(name, {}).get(field, 0)

        values = {}
        for name, fields in LAYER_FIELDS:
            for field in fields:
                values["%s.%s" % (name, field)] = get(name, field)
        for name in TOTAL_TIMES:
            values[name + ".s"] = get(name, "total_s")
        scanned = get("kernels.geometric_coordinate", "in_scans")
        values.update({
            "cli.import_s": statistics.median(
                op["result"]["import_s"] for op in p if "error" not in op["result"]),
            "sampler.coords_scanned": scanned,
            "sampler.coords_per_scan": _ratio(scanned, get("kernels.member_scan", "calls")),
            "dyadic.factors_per_product": _ratio(get("dyadic.certified_product", "factors"),
                                                 get("dyadic.certified_product", "calls")),
            "measures.kernel_contains.full_eval_ratio": _ratio(
                get("measures.kernel_contains", "full_eval"),
                get("measures.kernel_contains", "calls")),
            "trace.wall_s": pass_sum(p, "wall_s"),
        })
        for name, value in values.items():
            samples[name].append(value)
    metrics = {}
    for name, unit in units.items():
        vals = samples[name]
        if unit in ("count", "ratio") and name != "trace.overhead_ratio":
            metrics[name] = vals[0] if vals else 0
        elif vals:
            metrics[name] = statistics.median(vals)
    untraced = statistics.median(plain_walls)
    metrics["trace.untraced_wall_s"] = untraced
    metrics["trace.overhead_ratio"] = _ratio(metrics["trace.wall_s"], untraced)
    return {name: {"value": metrics[name], "unit": units[name]} for name in units}


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def print_summary(args, passes, verdict, series):
    ops = [op for p in passes for op in p]
    print("workload %s  seed %d  trace %d  backend %s  python %s  nproc %d" % (
        args.workload, args.seed, args.trace,
        next((op["result"]["backend"] for op in ops if "backend" in op["result"]), "?"),
        platform.python_version(), os.cpu_count() or 0))
    print("passes %d  ops %d  failed %d  failed_ratio %.4g ratio (%d/%d)  notes %s" % (
        len(passes), verdict["attempted"], verdict["failed"],
        verdict["failed"] / verdict["attempted"], verdict["failed"], verdict["attempted"],
        json.dumps(verdict["notes"], sort_keys=True)))
    print("host probe best %.4f s: setup_s and wall_s are scaled by %.4f" % (
        best_probe(passes), host_scale(passes)))
    for name, (value, samples) in series.items():
        q1, q2, q3 = quartiles(samples)
        print("%-12s %.4f %s  (unscaled samples: best %.4f  median %.4f  q1 %.4f  q3 %.4f  n %d)"
              % (name, value, END_TO_END_UNITS[name], min(samples), q2, q1, q3, len(samples)))
    per_cmd = {}
    for op in ops:
        if not op["traced"] and "error" not in op["result"]:
            per_cmd.setdefault(op["key"], []).append(op["result"]["wall_s"])
    for key, values in per_cmd.items():
        print("  %-14s wall best %.4f s  median %.4f s" % (key, min(values), statistics.median(values)))
    for op in ops:
        for problem in op["problems"]:
            print("FAILED %s: %s" % (op["key"], problem))


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + HARD_LIMIT_S
    if args.seconds is None:
        with open(BENCHMARK, encoding="utf-8") as fh:
            args.seconds = json.load(fh)["run_seconds"]
    if not (SRC / "irslab" / "cli.py").is_file():
        sys.stderr.write("error: %s/irslab not found; run from a checkout of the repository\n" % SRC)
        return 2
    for name in ("IRSLAB_THREADS", "IRSLAB_BACKEND"):
        os.environ.pop(name, None)
    inputs = workloads.make_inputs(args.workload, args.seed)
    commands = workloads.make_commands(args.workload, inputs)
    work = ROOT / ".perfbench_work" / ("%s-%d" % (args.workload, os.getpid()))
    try:
        warm = launch(None, False, deadline)  # compiles bytecode before timing
        if "error" in warm:
            sys.stderr.write("error: %s\n" % warm["error"])
            return 2
        passes = run_passes(commands, work, bool(args.trace), args.seconds, deadline)
        sys.path.insert(0, str(SRC))
        verdict = judge(args.workload, inputs, passes, args.seed)
        series = end_to_end(passes)
        print_summary(args, passes, verdict, series)
        if args.trace:
            metrics = per_layer(passes)
        else:
            metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                       for name, (value, _) in series.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    correct = verdict["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": verdict["attempted"],
                      "failed": verdict["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
