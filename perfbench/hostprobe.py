"""Time a fixed, irslab-free job in a fresh process, to gauge host speed.

Usage: python3 hostprobe.py LAUNCH_T

LAUNCH_T is the parent's time.monotonic() just before the launch.  The
job is what a worker does before its command, without irslab: interpreter
start-up, a few imports from the standard library and some big-integer
and rational arithmetic.  Prints the seconds from launch to the end of
the job.  run.py scales its end-to-end times by the best of these over a
run, because on a shared host this start-up time tracks the speed at
which the engine runs from one minute to the next.
"""

import sys
import time

launched = float(sys.argv[1])

import argparse  # noqa: E402,F401
import csv  # noqa: E402,F401
import dataclasses  # noqa: E402,F401
import decimal  # noqa: E402,F401
import fractions  # noqa: E402
import hashlib  # noqa: E402,F401
import json  # noqa: E402,F401
import statistics  # noqa: E402,F401

total = fractions.Fraction(0)
for i in range(1, 300):
    total += fractions.Fraction(1, i * i)
s, seen = 1, {}
for i in range(40_000):
    s = (s * 0x9E3779B97F4A7C15 + i) & ((1 << 128) - 1)
    seen[s >> 120] = seen.get(s >> 120, 0) + 1
print(time.monotonic() - launched)
