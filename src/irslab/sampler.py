"""Sampling random subgroups with exactly-controlled error.

A sampled subgroup is the intersection of conjugates of chain subgroups,
one independent chain level per transversal coordinate.  Coordinate
levels are a deterministic function of (seed, coordinate) through a
counter-based keyed PRF, so queries are reproducible and lazily
materialized.  Membership checks scan coordinates out to a ring where the
certified residual violation mass drops below 2^-tolerance_exp; the
answer distribution is within that total-variation budget of the exact
law, per query.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence

from irslab._backend import kernels
from irslab.dyadic import ZERO, ONE, Dyadic, ProbabilityValue, pow2
from irslab.measures import (
    MU_G,
    CoinducedProduct,
    GeomGamma,
    Measure,
    ParamFamily,
    _grid_tail,
    _support_radius,
    chain_env_weight,
    env_prob,
)
from irslab.words import Word

DEFAULT_TOLERANCE_EXP = 60

# fewest seeds for which the z-tests' normal approximation is used
MIN_SAMPLE_SEEDS = 100

# 0.9973 quantiles (the two-sided 3-sigma level) of chi-square, df 1..15
_CHI2_Q9973 = [
    8.999861956749672,
    11.82900701194368,
    14.1562525005409,
    16.251171152210564,
    18.205136741736066,
    20.061901972375512,
    21.84639107125362,
    23.574394426213484,
    25.256663611356526,
    26.900911788614067,
    28.512896011076947,
    30.097049086891978,
    31.656870891079826,
    33.19518240734935,
    34.714297143777436,
]


def _unwrap_inner(mu: Measure):
    """Chain inner of a co-induced descriptor."""
    if not isinstance(mu, CoinducedProduct):
        raise ValueError("sampling is defined for co-induced descriptors only")
    inner = mu.inner
    if not isinstance(inner, (GeomGamma, ParamFamily)):
        raise ValueError(
            "sampling supports GeomGamma or ParamFamily coordinates, got %r"
            % (type(inner).__name__,)
        )
    return inner


def _param_coordinate(seed: int, index: int, a: Dyadic) -> int:
    """Exact inverse-CDF draw of a chain level for the parametrized family.

    Consumes PRF bits until the dyadic interval [x, x+1] / 2^n pinned by
    the consumed prefix x lies inside one CDF cell: [0, a), [a, 3/4), and
    [1 - 2^-(k-1), 1 - 2^-k) for k >= 3.  Every comparison is exact and in
    integers: x / 2^n against a = A / 2^e compares x * 2^e with A * 2^n.
    """
    a_num, a_exp = a.num, a.exp
    n = 0
    prefix = 0
    block = 0
    buf = 0
    avail = 0
    while True:
        if avail == 0:
            buf = kernels.prf_block(seed, index, block)
            block += 1
            avail = 64
        prefix = (prefix << 1) | (buf & 1)
        buf >>= 1
        avail -= 1
        n += 1
        lo = prefix << a_exp
        a_n = a_num << n
        if lo + (1 << a_exp) <= a_n:
            return 1
        three_quarters = 3 << n  # 3/4 in units of 2^-(n+2)
        if lo >= a_n and (prefix + 1) << 2 <= three_quarters:
            return 2
        if prefix << 2 >= three_quarters:
            # gap r = 2^n - x; the smallest k with x / 2^n < 1 - 2^-k is
            # the smallest k with r * 2^k > 2^n (k >= 3 since r <= 2^n / 4)
            r = (1 << n) - prefix
            k = n + 2 - r.bit_length() - (1 if r & (r - 1) else 0)
            if (r - 1) << k >= 1 << n:
                return k


class SampledSubgroup:
    """A lazily materialized sample of a co-induced random subgroup."""

    def __init__(self, inner, seed: int, tolerance_exp: int = DEFAULT_TOLERANCE_EXP):
        if tolerance_exp < 1:
            raise ValueError("tolerance exponent must be >= 1")
        if not isinstance(inner, (GeomGamma, ParamFamily)):
            raise ValueError(
                "coordinates can be drawn for GeomGamma or ParamFamily only"
            )
        self.inner = inner
        self.seed = seed & kernels.MASK64
        self.tolerance_exp = tolerance_exp
        self.resolved: Dict[int, int] = {}
        self._is_geometric = isinstance(inner, GeomGamma)

    def coordinate(self, i: int) -> int:
        """Chain level at transversal coordinate i (deterministic in
        (seed, i); memoized)."""
        if i < 1:
            raise ValueError("coordinate index must be >= 1")
        k = self.resolved.get(i)
        if k is None:
            if self._is_geometric:
                k = kernels.geometric_coordinate(self.seed, i)
            else:
                k = _param_coordinate(self.seed, i, self.inner.a)
            self.resolved[i] = k
        return k

    def member(self, w: Word, profile: Optional[Sequence[int]] = None) -> bool:
        """Whether w lies in the sampled subgroup, within the tolerance."""
        if w.is_identity():
            return True
        if w.abelianization() != (0, 0):
            return False
        if profile is None:
            profile = depth_profile(w, self.tolerance_exp)
        return self.scan(profile)

    def scan(self, profile: Sequence[int]) -> bool:
        """Whether no coordinate level exceeds its entry of the depth
        profile of a nontrivial [F,F] word (entry 0: unbounded).

        For the family, k > d >= 2 holds iff the first d bits of the stream,
        the low d bits of block 0, are ones (k >= 3 iff x >= 3/4 needs
        a < 3/4, which ParamFamily enforces).  One packed draw of the
        seed's block 0s (lanes 128 bits apart) picks the coordinates where
        that can hold, plus every depth-1 one, and only those are drawn.
        """
        if self._is_geometric:
            return kernels.member_scan(self.seed, profile)
        profile = tuple(profile)
        for i in kernels._candidates(self.seed, profile, True):
            if self.coordinate(i) > profile[i - 1]:
                return False
        return True


def sample(mu: Measure, seed: int, tolerance_exp: int = DEFAULT_TOLERANCE_EXP) -> SampledSubgroup:
    """Draw the random subgroup determined by (mu, seed)."""
    return SampledSubgroup(_unwrap_inner(mu), seed, tolerance_exp)


def membership_window(radius: int, tolerance_exp: int) -> int:
    """Number of leading spiral coordinates to check so the unchecked
    violation mass is certified below 2^-tolerance_exp."""
    budget = pow2(tolerance_exp)
    ring = radius + 1
    while _grid_tail((2 * ring + 1) ** 2, radius) > budget:
        ring += 1
    return (2 * ring + 1) ** 2


# cmd_sample checks every word's window before membership_matrix builds the
# word's profile; the memo keeps that to one y-rewrite per word
@lru_cache(maxsize=256)
def word_window(w: Word, tolerance_exp: int = DEFAULT_TOLERANCE_EXP) -> int:
    """Membership window of a nontrivial commutator-subgroup word."""
    if w.is_identity() or w.abelianization() != (0, 0):
        raise ValueError("depth profiles exist for nontrivial commutator-subgroup words")
    return membership_window(_support_radius((w,)), tolerance_exp)


def depth_profile(w: Word, tolerance_exp: int = DEFAULT_TOLERANCE_EXP) -> tuple:
    """Conjugate depths of w at each spiral coordinate of its membership
    window (entry 0 would mean an identity conjugate, which cannot occur
    for nontrivial words)."""
    count = word_window(w, tolerance_exp)
    letters = w.letters
    out = []
    for i in range(1, count + 1):
        p, q = kernels.spiral_point(i)
        out.append(kernels.shifted_depth(letters, p, q))
    return tuple(out)


def membership_matrix(
    seeds: Sequence[int],
    words: Sequence[Word],
    mu: Measure = MU_G,
    tolerance_exp: int = DEFAULT_TOLERANCE_EXP,
    target_width: Dyadic = None,
) -> dict:
    """Membership booleans for every (seed, word) pair plus per-word
    frequency summaries against the exact envelope probabilities."""
    inner = _unwrap_inner(mu)
    cells: list = []  # per word: its fixed answer, or its profile to scan
    for w in words:
        if w.is_identity():
            cells.append(True)
        elif w.abelianization() != (0, 0):
            cells.append(False)
        else:
            cells.append(depth_profile(w, tolerance_exp))
    matrix: List[List[bool]] = []
    for seed in seeds:
        scan = SampledSubgroup(inner, seed, tolerance_exp).scan
        matrix.append([c if isinstance(c, bool) else scan(c) for c in cells])
    n = len(seeds)
    summary = []
    for j, w in enumerate(words):
        hits = sum(1 for row in matrix if row[j])
        exact = env_prob(mu, (w,), target_width)
        summary.append(
            {
                "word": str(w),
                "hits": hits,
                "n": n,
                "frequency": hits / n if n else 0.0,
                "exact": exact.to_json(),
            }
        )
    return {
        "tolerance_exp": tolerance_exp,
        "n_seeds": n,
        "words": [str(w) for w in words],
        "matrix": matrix,
        "summary": summary,
    }


def z_score(frequency: Fraction, p: Fraction, n: int) -> float:
    """Normal-approximation z-score of an observed frequency."""
    sigma = math.sqrt(float(p) * (1.0 - float(p)) / n)
    diff = Fraction(frequency) - Fraction(p)
    if sigma == 0.0:
        if diff == 0:
            return 0.0
        return math.inf if diff > 0 else -math.inf
    return float(diff) / sigma


def chi_square_report(
    empirical: Sequence[Fraction],
    exact: Sequence[ProbabilityValue],
    n: int,
    labels: Optional[Sequence[str]] = None,
    z_threshold: float = 3.0,
) -> dict:
    """Per-cell z-scores of empirical frequencies against exact or
    enclosed probabilities; refuses enclosures wider than a tenth of the
    binomial sigma."""
    if n < MIN_SAMPLE_SEEDS:
        raise ValueError("need at least %d samples, got %d" % (MIN_SAMPLE_SEEDS, n))
    if len(empirical) != len(exact):
        raise ValueError("frequency and probability tables differ in length")
    rows = []
    all_pass = True
    for j, (freq, value) in enumerate(zip(empirical, exact)):
        p_mid = value.midpoint().as_fraction()
        sigma = math.sqrt(float(p_mid) * (1.0 - float(p_mid)) / n)
        width = float(value.width().as_fraction())
        if sigma > 0 and width > sigma / 10:
            raise ValueError(
                "enclosure width %g too wide for sigma %g at n=%d" % (width, sigma, n)
            )
        z = z_score(Fraction(freq), p_mid, n)
        ok = abs(z) <= z_threshold if math.isfinite(z) else False
        all_pass = all_pass and ok
        rows.append(
            {
                "label": labels[j] if labels else str(j),
                "frequency": float(freq),
                "p": float(p_mid),
                "z": z,
                "pass": ok,
            }
        )
    return {"n": n, "z_threshold": z_threshold, "pass": all_pass, "cells": rows}


def coordinate_chi_square(
    seeds: Iterable[int],
    coordinate: int = 1,
    inner=None,
    max_bin: int = 10,
) -> dict:
    """Goodness of fit of the sampled chain level at one coordinate against
    its exact law, at the 3-sigma-equivalent chi-square level."""
    if inner is None:
        inner = GeomGamma()
    if not isinstance(inner, (GeomGamma, ParamFamily)):
        raise ValueError("sampleable chain inner required")
    counts: Dict[int, int] = {}
    n = 0
    for seed in seeds:
        s = SampledSubgroup(inner, seed)
        k = s.coordinate(coordinate)
        bin_k = min(k, max_bin + 1)
        counts[bin_k] = counts.get(bin_k, 0) + 1
        n += 1
    stat = 0.0
    prev_cdf = ZERO
    for k in range(1, max_bin + 2):
        if k <= max_bin:
            cdf = chain_env_weight(inner, k)
            p = cdf - prev_cdf
            prev_cdf = cdf
        else:
            p = ONE - prev_cdf
        expected = float(p.as_fraction()) * n
        observed = counts.get(k, 0)
        if expected > 0:
            stat += (observed - expected) ** 2 / expected
        elif observed:
            stat = math.inf
    df = max_bin  # max_bin + 1 cells
    threshold = _CHI2_Q9973[df - 1]
    return {
        "n": n,
        "df": df,
        "statistic": stat,
        "threshold": threshold,
        "pass": stat <= threshold,
    }
