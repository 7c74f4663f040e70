"""Benchmark the kernel backends against each other.

Exercises the hot loops (free reduction, rewriting plus depth, conjugate
depth profiles, and membership scans over the radius-2 band words) on both
backends when the compiled extension is present.
"""

from __future__ import annotations

import random
import time

from irslab._backend import available_backends, get_backend
from irslab.sampler import depth_profile
from irslab.ywords import expand, y


def _make_words(rng: random.Random, count: int, length: int):
    words = []
    for _ in range(count):
        letters = []
        for _ in range(length):
            choices = [x for x in (1, -1, 2, -2) if not letters or x != -letters[-1]]
            letters.append(rng.choice(choices))
        words.append(tuple(letters))
    return words


def _commutator_words(kernels, rng: random.Random, count: int, syllables: int):
    out = []
    for _ in range(count):
        sylls = []
        for _ in range(syllables):
            sylls.append((rng.randint(1, 40), rng.choice((-2, -1, 1, 2))))
        out.append(kernels.expand_syllables(kernels.normalize_syllables(tuple(sylls))))
    return out


def _time(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def run_benchmarks(quick: bool = False) -> dict:
    scale = 1 if quick else 5
    rng = random.Random(7)
    raw = _make_words(rng, 200 * scale, 400)
    # scans shaped like a sample command's: the radius-2 band words y_16..y_25
    band_profiles = [depth_profile(expand(y(i))) for i in range(16, 26)]
    results = {}
    for name in available_backends():
        kernels = get_backend(name)
        comm = _commutator_words(kernels, random.Random(11), 50 * scale, 8)

        def bench_reduce():
            for w in raw:
                kernels.free_reduce(w + tuple(-x for x in reversed(w)))

        def bench_rewrite():
            for w in comm:
                kernels.depth_syllables(kernels.rewrite_syllables(w))

        def bench_shifted():
            for w in comm[: 10 * scale]:
                for i in range(1, 82):
                    p, q = kernels.spiral_point(i)
                    kernels.shifted_depth(w, p, q)

        def bench_sampling():
            for seed in range(200 * scale):
                for depths in band_profiles:
                    kernels.member_scan(seed, depths)

        results[name] = {
            "free_reduce_s": _time(bench_reduce),
            "rewrite_depth_s": _time(bench_rewrite),
            "conjugate_profiles_s": _time(bench_shifted),
            "membership_scans_s": _time(bench_sampling),
        }
    report = {"tool": "irslab-bench", "quick": quick, "backends": results}
    if "compiled" in results and "pure" in results:
        report["speedup"] = {
            key.rsplit("_s", 1)[0]: round(results["pure"][key] / results["compiled"][key], 2)
            for key in results["pure"]
            if results["compiled"][key] > 0
        }
    return report
