"""Run-to-run spread of the end-to-end metrics.

Usage (from the repository root):

    python3 perfbench/spread.py --workload enclose --seeds 1-10

Runs run.py once per seed, one run at a time, each for run_seconds of
BENCHMARK.json (run.py's default), and prints for each metric
the median over the runs and the distance between the first and third
quartile as a share of the median (``statistics.quantiles(values, n=4)``).
The last stdout line is the same summary as JSON, with every run's values.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = parser.parse_args()
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    runs = []
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--trace", "0"],
            cwd=HERE.parent, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stdout + proc.stderr)
            return 1
        result = json.loads(lines[-1])  # run.py exits 1 unless every op passed
        values = {name: m["value"] for name, m in result["metrics"].items()}
        runs.append({"seed": seed, "metrics": values})
        print("seed %d  %s" % (seed, "  ".join("%s %.4f" % kv for kv in values.items())),
              flush=True)
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        summary[name] = {"median": med, "iqr_share": (q3 - q1) / med}
        print("%-12s median %.4f  iqr/median %.4f" % (name, med, (q3 - q1) / med))
    print(json.dumps({"workload": args.workload, "seconds": seconds,
                      "summary": summary, "runs": runs}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
