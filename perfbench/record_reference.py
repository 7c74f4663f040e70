"""Record the reference outputs that run.py checks later runs against.

Usage (from the repository root): python3 perfbench/record_reference.py

Runs one untraced pass of every workload at the default seed and writes
perfbench/reference.json: the generated inputs, the enclosures of the
``enclose`` queries, the SHA-256 of the ``sample`` CSVs and faithful's word
count and depth histogram.  Re-record only when a change to the program is
meant to change these outputs, and say why.
"""

import json
import shutil
import sys
import time

import run
import workloads


def main() -> int:
    seed = workloads.DEFAULT_SEED
    reference = {"default_seed": seed, "inputs": {}}
    work = run.ROOT / ".perfbench_work" / "reference"
    deadline = time.monotonic() + 600
    try:
        for workload in workloads.WORKLOADS:
            inputs = workloads.make_inputs(workload, seed)
            commands = workloads.make_commands(workload, inputs)
            ops = run.run_pass(commands, work / workload, False, deadline)
            outputs = {}
            for op in ops:
                if "error" in op["result"]:
                    sys.stderr.write("%s failed: %s\n" % (op["key"], op["result"]["error"]))
                    return 1
                with open(op["files"][0], encoding="utf-8") as fh:
                    outputs[op["key"]] = {"report": json.load(fh),
                                          "csv": op["files"][1] if len(op["files"]) > 1 else None}
            reference["inputs"][workload] = inputs
            reference[workload] = workloads.reference_entry(workload, outputs)
    finally:
        shutil.rmtree(work.parent, ignore_errors=True)
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
