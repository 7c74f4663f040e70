"""Run one irslab command in a fresh process and report its cost.

Usage: python3 worker.py LAUNCH_T SRC_DIR TRACE ARGV_JSON

LAUNCH_T is the parent's time.monotonic() just before the launch (the
clock is shared by all processes on the host), SRC_DIR holds the irslab
package to import, TRACE is 0 or 1, and ARGV_JSON is the CLI argument
list, or "null" to only import the package.  The last stdout line is a JSON object
with the exit code, set-up time, time in cli.main, peak RSS and, when
traced, the per-function accumulators.
"""

import json
import os
import resource
import sys
import time


def main():
    launched, src, trace, argv_json = sys.argv[1:5]
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import irslab.cli as cli
    import_s = time.perf_counter() - t0
    import irslab
    if not os.path.abspath(irslab.__file__).startswith(os.path.abspath(src) + os.sep):
        sys.exit("irslab imported from %s, not from %s" % (irslab.__file__, src))
    from irslab._backend import BACKEND

    argv = json.loads(argv_json)
    setup_s = time.monotonic() - float(launched)
    out = {"backend": BACKEND, "import_s": import_s, "setup_s": setup_s}
    if argv is not None:
        entry = cli.main
        tracer = None
        if trace == "1":
            from layertrace import Tracer  # this script's directory is on sys.path

            tracer = Tracer()
            tracer.install()
            entry = tracer.wrap("cli.main", cli.main)
        t0 = time.perf_counter()
        try:
            rc = entry(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            rc = exc.code
        out["wall_s"] = time.perf_counter() - t0
        out["rc"] = rc
        if tracer is not None:
            tracer.uninstall()
            out["trace"] = tracer.acc
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
