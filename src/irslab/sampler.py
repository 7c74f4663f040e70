"""Sampling random subgroups with exactly-controlled error.

A sampled subgroup is the intersection of conjugates of chain subgroups,
one independent chain level per transversal coordinate.  Levels are a
deterministic function of (seed, coordinate) through a counter-based
keyed PRF, so queries are reproducible and levels are drawn on demand.
Membership checks scan coordinates out to a ring where the certified
residual violation mass drops below 2^-tolerance_exp; the answer
distribution is within that total-variation budget of the exact law, per
query.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import islice
from typing import Iterable, Iterator, List, Sequence

from irslab._backend import kernels
from irslab.dyadic import Enclosure, pow2, quoted
from irslab.measures import (
    MU_G,
    CoinducedProduct,
    GeomGamma,
    Measure,
    ParamFamily,
    _grid_tail,
    check_rewrite_length,
)
from irslab.words import Word

DEFAULT_TOLERANCE_EXP = 60

# fewest seeds for which the z-tests' normal approximation is used
MIN_SAMPLE_SEEDS = 100
# largest |z| at which a cell of chi_square_report passes
Z_THRESHOLD = 3.0
# a word of about 100 letters whose column cores do not shrink takes 2-2.5 s
# to profile at this window ([a^24,b^24] at tolerance 2^-1, [a^21,b^21]
# [a^2,b^2] at the default 2^-60; best of 3, 2-vCPU VM); the cost grows
# about as window^1.5 times the word's length
MAX_MEMBERSHIP_WINDOW = 2401
# a depth profile costs about 10 us per letter and window coordinate: at
# window 2209 (radius 20) [a^20,b^20] (80 letters) took 1.9 s and its
# fourth power (320 letters) 7.5 s
MAX_PROFILE_CELLS = 100 * MAX_MEMBERSHIP_WINDOW
# membership windows grow about linearly in the tolerance exponent, and
# membership_window compares each ring's tail with 2^-tolerance_exp
MAX_TOLERANCE_EXP = 1024


def sampled_inner(mu: Measure):
    """The chain inner whose levels a sample of mu draws; ValueError unless
    mu is co-induced over GeomGamma or ParamFamily."""
    if not isinstance(mu, CoinducedProduct):
        raise ValueError("sampling requires a co-induced measure")
    return _drawable(mu.inner)


def _drawable(inner):
    """inner, once checked to be a chain measure whose levels can be drawn."""
    if not isinstance(inner, (GeomGamma, ParamFamily)):
        raise ValueError(
            "sampling supports GeomGamma or ParamFamily coordinates, got %r"
            % (type(inner).__name__,)
        )
    return inner


class SampledSubgroup:
    """A sample of a co-induced random subgroup, its levels drawn on demand."""

    def __init__(self, inner, seed: int, tolerance_exp: int = DEFAULT_TOLERANCE_EXP):
        _check_tolerance(tolerance_exp)
        self.inner = _drawable(inner)
        self.seed = seed & kernels.MASK64
        self.tolerance_exp = tolerance_exp
        self._is_family = isinstance(inner, ParamFamily)

    def coordinate(self, i: int) -> int:
        """Chain level at transversal coordinate i, drawn afresh from
        (seed, i) on each call."""
        if i < 1:
            raise ValueError("coordinate index must be >= 1")
        if self._is_family:
            return kernels.family_coordinate(self.seed, i, self.inner.a.num, self.inner.a.exp)
        return kernels.geometric_coordinate(self.seed, i)

    def member(self, w: Word) -> bool:
        """Whether w lies in the sampled subgroup, within the tolerance: one
        row of membership_matrix."""
        mu = CoinducedProduct(self.inner)
        return next(membership_matrix((self.seed,), (w,), mu, self.tolerance_exp))[0]


def sample(mu: Measure, seed: int, tolerance_exp: int = DEFAULT_TOLERANCE_EXP) -> SampledSubgroup:
    """Draw the random subgroup determined by (mu, seed)."""
    return SampledSubgroup(sampled_inner(mu), seed, tolerance_exp)


def _check_tolerance(tolerance_exp: int) -> None:
    """Refuse a tolerance exponent outside 1..MAX_TOLERANCE_EXP."""
    if not 1 <= tolerance_exp <= MAX_TOLERANCE_EXP:
        raise ValueError("tolerance exponent must lie in [1, %d], got %r"
                         % (MAX_TOLERANCE_EXP, tolerance_exp))


def membership_window(radius: int, tolerance_exp: int) -> int:
    """Number of leading spiral coordinates to check so the unchecked
    violation mass is certified below 2^-tolerance_exp."""
    _check_tolerance(tolerance_exp)
    budget = pow2(tolerance_exp)
    ring = radius + 1
    while _grid_tail((2 * ring + 1) ** 2, radius) > budget:
        ring += 1
    return (2 * ring + 1) ** 2


def depth_profile(w: Word, tolerance_exp: int = DEFAULT_TOLERANCE_EXP) -> tuple:
    """Conjugate depths of a nontrivial [F,F] word w at each spiral
    coordinate of its membership window, each at least 1; w is rewritten
    from the origin once, and refused over a cap before any walk."""
    check_rewrite_length((w,))
    origin = kernels.rewrite_points(w.letters)
    window = membership_window(kernels.support_radius(origin), tolerance_exp)
    if window > MAX_MEMBERSHIP_WINDOW:
        raise ValueError("%s needs a membership window of %d coordinates at tolerance 2^-%d; at most %d "
                         "are scanned" % (quoted(str(w)), window, tolerance_exp, MAX_MEMBERSHIP_WINDOW))
    if len(w) * window > MAX_PROFILE_CELLS:
        raise ValueError("%s has %d letters and a membership window of %d coordinates; letters times "
                         "window may be at most %d" % (quoted(str(w)), len(w), window, MAX_PROFILE_CELLS))
    return tuple(islice(kernels.conjugate_depths(w.letters, origin), window))


def membership_matrix(
    seeds: Iterable[int],
    words: Sequence[Word],
    mu: Measure = MU_G,
    tolerance_exp: int = DEFAULT_TOLERANCE_EXP,
) -> Iterator[List[bool]]:
    """Rows, seed by seed, of whether each word lies in the subgroup
    sampled from (mu, seed).  Every word is profiled, or refused, when this
    is called; at most kernels.SEED_CHUNK seeds are read ahead of the rows."""
    inner = sampled_inner(mu)
    ones = isinstance(inner, ParamFamily)
    cells: list = []  # per word: its fixed answer, or its profile to scan
    for w in words:
        if w.is_identity():
            cells.append(True)
        elif w.abelianization() != (0, 0):
            cells.append(False)
        else:
            cells.append(depth_profile(w, tolerance_exp))
    scanned = [j for j, c in enumerate(cells) if not isinstance(c, bool)]
    profiles = [cells[j] for j in scanned]
    seeds = iter(seeds)

    def rows():
        # seeds are read and scanned a chunk at a time, each word's depth at
        # a coordinate tested once for the whole chunk
        while chunk := [SampledSubgroup(inner, seed, tolerance_exp)
                        for seed in islice(seeds, kernels.SEED_CHUNK)]:
            answers = kernels.member_scan(
                [s.seed for s in chunk], profiles, ones, lambda j, i: chunk[j].coordinate(i))
            for k in range(len(chunk)):
                row = list(cells)
                for j, column in zip(scanned, answers):
                    row[j] = column[k]
                yield row

    return rows()


def z_score(frequency: Fraction, p: Fraction, n: int) -> float:
    """Normal-approximation z-score of an observed frequency."""
    sigma = math.sqrt(float(p) * (1.0 - float(p)) / n)
    diff = Fraction(frequency) - Fraction(p)
    if sigma == 0.0:
        if diff == 0:
            return 0.0
        return math.inf if diff > 0 else -math.inf
    return float(diff) / sigma


def check_z_test_inputs(exact: Sequence[Enclosure], n: int) -> None:
    """Raise ValueError unless the z-tests of n samples against these
    probabilities are sound: n reaches MIN_SAMPLE_SEEDS and no enclosure
    is wider than a tenth of its binomial sigma."""
    if n < MIN_SAMPLE_SEEDS:
        raise ValueError("need at least %d samples, got %d" % (MIN_SAMPLE_SEEDS, n))
    for value in exact:
        p_mid = float(value.midpoint().as_fraction())
        sigma = math.sqrt(p_mid * (1.0 - p_mid) / n)
        width = float(value.width().as_fraction())
        if sigma > 0 and width > sigma / 10:
            raise ValueError(
                "enclosure width %g too wide for sigma %g at n=%d" % (width, sigma, n)
            )


def chi_square_report(
    empirical: Sequence[Fraction],
    exact: Sequence[Enclosure],
    n: int,
    labels: Sequence[str],
) -> dict:
    """Per-cell z-scores of empirical frequencies against exact or
    enclosed probabilities, after check_z_test_inputs, each cell named by
    its label; a cell passes when its z-score is finite and at most
    Z_THRESHOLD in absolute value."""
    check_z_test_inputs(exact, n)
    if not len(empirical) == len(exact) == len(labels):
        raise ValueError("frequency, probability and label tables differ in length")
    rows = []
    all_pass = True
    for label, freq, value in zip(labels, empirical, exact):
        p_mid = value.midpoint().as_fraction()
        z = z_score(Fraction(freq), p_mid, n)
        ok = abs(z) <= Z_THRESHOLD if math.isfinite(z) else False
        all_pass = all_pass and ok
        rows.append(
            {
                "label": label,
                "frequency": float(freq),
                "p": float(p_mid),
                "z": z,
                "pass": ok,
            }
        )
    return {"n": n, "z_threshold": Z_THRESHOLD, "pass": all_pass, "cells": rows}
