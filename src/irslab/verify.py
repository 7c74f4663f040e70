"""Batch verification suites behind the CLI.

Each suite returns a JSON-ready report with a top-level "pass" flag; the
CLI turns that into its exit code.  All randomness is seeded and echoed
into the report so runs replay byte-identically.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterator, List

from irslab.dyadic import ONE, Dyadic, one_minus_pow2, pow2
from irslab.measures import (
    DEFAULT_TARGET_WIDTH,
    MU_F,
    MU_G,
    CertifiedBool,
    DiracTrivial,
    GeneratePower,
    IntersectPower,
    ParamFamily,
    Region,
    combination_checks,
    env_prob,
    essential,
    kernel_contains,
    mixing_defect,
    supported_in,
)
from irslab.words import A, COMMUTATOR, IDENTITY, Word, conjugate
from irslab.ywords import YWord, depth, expand

DEFAULT_SEED = 20240801


_STEPS = ((1, 1, 0), (-1, -1, 0), (2, 0, 1), (-2, 0, -1))  # letter, its (p, q)


class CommutatorWords:
    """The nontrivial [F,F] words of length <= max_len, shortest first and
    in letter order a, A, b, B within each length, as a sequence that
    builds only the words it is asked for.  random.choice draws the same
    index from it as from the list of those words.

    _walks[r][(p, q, x)] counts the reduced letter strings of length r with
    exponent sums (p, q) that do not start with the inverse of letter x
    (x = 0: any start), so word k is found one letter at a time."""

    def __init__(self, max_len: int):
        self._walks = [{(0, 0, x): 1 for x in (0, 1, -1, 2, -2)}]
        for r in range(1, max_len + 1):
            prev = self._walks[-1]
            self._walks.append({
                (p, q, x): n
                for p in range(-r, r + 1)
                for q in range(-r, r + 1)
                for x in (0, 1, -1, 2, -2)
                if (n := sum(prev.get((p - dp, q - dq, y), 0)
                             for y, dp, dq in _STEPS if y != -x))
            })
        self._counts = [self._walks[n].get((0, 0, 0), 0) for n in range(1, max_len + 1)]

    def __len__(self) -> int:
        return sum(self._counts)

    def __getitem__(self, k: int) -> Word:
        if not 0 <= k < len(self):
            raise IndexError(k)
        n = 1
        for count in self._counts:
            if k < count:
                break
            k -= count
            n += 1
        letters = []
        p = q = x = 0
        for r in range(n - 1, -1, -1):
            for y, dp, dq in _STEPS:
                if y == -x:
                    continue
                count = self._walks[r].get((-p - dp, -q - dq, y), 0)
                if k < count:
                    break
                k -= count
            letters.append(y)
            p, q, x = p + dp, q + dq, y
        return Word._raw(tuple(letters))


def random_reduced_word(rng: random.Random, max_len: int) -> Word:
    n = rng.randint(1, max_len)
    letters = []
    for _ in range(n):
        choices = [x for x in (1, -1, 2, -2) if not letters or x != -letters[-1]]
        letters.append(rng.choice(choices))
    return Word._raw(tuple(letters))


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def suite_faithful(max_len: int = 8) -> dict:
    """Every nontrivial word up to the length bound is certified outside
    the kernel of the co-induced measure.  A word outside [F,F] is so by
    its nonzero abelianization, and those words are counted in closed form:
    all 2 (3^max_len - 1) reduced words of length 1..max_len, less the
    [F,F] ones.  Each [F,F] word is judged one by one, by kernel_contains,
    and its depth fills the histogram."""
    words = CommutatorWords(max_len)
    n_words = 2 * (3**max_len - 1)
    depth_hist: dict = {}
    failures = []
    for w in words:
        if kernel_contains(MU_G, w) is not CertifiedBool.FALSE:
            failures.append(str(w))
        key = str(depth(w))
        depth_hist[key] = depth_hist.get(key, 0) + 1
    return {
        "suite": "faithful",
        "params": {"max_len": max_len},
        "n_words": n_words,
        "n_certified_outside_kernel": n_words - len(failures),
        "n_outside_commutator": n_words - len(words),
        "depth_histogram": dict(sorted(depth_hist.items(), key=lambda kv: int(kv[0]))),
        "failures": failures,
        "pass": not failures,
    }


def suite_invariance(
    pairs: int = 100,
    max_len: int = 6,
    width: Dyadic = DEFAULT_TARGET_WIDTH,
    seed: int = DEFAULT_SEED,
) -> dict:
    """Envelope enclosures before and after conjugating the event must
    intersect (invariance holds exactly; enclosures witness it at width)."""
    rng = random.Random(seed)
    pool = CommutatorWords(max_len)
    checks = []
    n_fail = 0
    for _ in range(pairs):
        g = random_reduced_word(rng, max_len)
        w = rng.choice(pool) if rng.random() < 0.5 else random_reduced_word(rng, max_len)
        moved = conjugate(g.inverse(), w)
        v1 = env_prob(MU_G, (w,), width)
        v2 = env_prob(MU_G, (moved,), width)
        ok = v1.intersects(v2)
        n_fail += 0 if ok else 1
        checks.append(
            {
                "g": str(g),
                "w": str(w),
                "value": v1.to_json(),
                "conjugated_value": v2.to_json(),
                "intersects": ok,
            }
        )
    return {
        "suite": "invariance",
        "params": {"pairs": pairs, "max_len": max_len, "width": str(width), "seed": seed},
        "n_failures": n_fail,
        "checks": checks,
        "pass": n_fail == 0,
    }


def suite_closure(width: Dyadic = DEFAULT_TARGET_WIDTH) -> dict:
    """Nontriviality and closure flags of the co-induced measure."""
    ess_comm = essential(MU_G, COMMUTATOR, width)
    supp_comm = supported_in(MU_G, Region.COMMUTATOR)
    ess_a = essential(MU_G, A, width)
    supp_triv = supported_in(MU_G, Region.TRIVIAL)
    checks = [
        {
            "check": "commutator_is_essential",
            "got": ess_comm.value,
            "ok": ess_comm is CertifiedBool.TRUE,
        },
        {
            "check": "supported_in_commutator_subgroup",
            "got": supp_comm,
            "ok": supp_comm is True,
        },
        {
            "check": "generator_a_not_essential",
            "got": ess_a.value,
            "ok": ess_a is CertifiedBool.FALSE,
        },
        {
            "check": "not_supported_in_trivial_subgroup",
            "got": supp_triv,
            "ok": supp_triv is False,
        },
    ]
    return {
        "suite": "closure",
        "params": {"width": str(width)},
        "checks": checks,
        "pass": all(c["ok"] for c in checks),
    }


def chain_limit_words() -> List[Word]:
    return [
        COMMUTATOR,
        expand(YWord(((2, 1),))),
        expand(YWord(((3, 1), (1, 1), (3, -1), (1, -1)))),
    ]


def suite_chain_limits(n_max: int = 10) -> dict:
    """Exact power laws for intersection and generation powers of the
    chain measure, monotone in the power."""
    checks = []
    all_ok = True
    for w in chain_limit_words():
        K = depth(w)
        cdf = one_minus_pow2(K)
        want_inter = ONE
        for n in range(1, n_max + 1):
            inter = env_prob(IntersectPower(n, MU_F), (w,))
            gen = env_prob(GeneratePower(n, MU_F), (w,))
            want_inter = want_inter * cdf
            want_gen = one_minus_pow2(n * K)
            ok = inter.value == want_inter and gen.value == want_gen
            all_ok = all_ok and ok
            checks.append(
                {
                    "word": str(w),
                    "depth": K,
                    "n": n,
                    "intersect_power": str(inter.value),
                    "generate_power": str(gen.value),
                    "ok": ok,
                }
            )
    return {
        "suite": "chain-limits",
        "params": {"n_max": n_max},
        "checks": checks,
        "pass": all_ok,
    }


def _combination_words(sample_size: int, seed: int) -> Iterator[Word]:
    """The suite's words, drawn as they are needed; equal seeds give equal
    words."""
    rng = random.Random(seed)
    pool = CommutatorWords(6)
    yield IDENTITY
    yield COMMUTATOR
    for _ in range(sample_size - 2):
        if rng.random() < 0.5:
            yield rng.choice(pool)
        else:
            yield random_reduced_word(rng, 8)


def suite_combination(sample_size: int = 200, seed: int = DEFAULT_SEED) -> dict:
    """Kernel and essential identities for convex combinations, on the two
    standard measure pairs.  Each pair draws the words afresh from the seed
    and judges them one at a time, so memory stays flat in sample_size."""
    pairs = [
        ("geom_vs_dirac_trivial", MU_F, DiracTrivial()),
        ("geom_vs_param_quarter", MU_F, ParamFamily(Dyadic(1, 2))),
    ]
    reports = {}
    all_ok = True
    for name, m1, m2 in pairs:
        n_words = 0
        ok = True
        for passed in combination_checks(m1, m2, _combination_words(sample_size, seed)):
            n_words += 1
            ok = ok and passed
        reports[name] = {"n_words": n_words, "pass": ok}
        all_ok = all_ok and ok
    return {
        "suite": "combination",
        "params": {"sample_size": sample_size, "seed": seed},
        "pairs": reports,
        "pass": all_ok,
    }


def suite_mixing(shift_exp: int = 10, width: Dyadic = DEFAULT_TARGET_WIDTH) -> dict:
    """Independence defect of the shifted pair must vanish below 1e-6
    while the unshifted (dependent) pair stays near p - p^2."""
    shifted = mixing_defect(COMMUTATOR, COMMUTATOR, A ** shift_exp, width)
    dependent = mixing_defect(COMMUTATOR, COMMUTATOR, IDENTITY, width)
    p = env_prob(MU_G, (COMMUTATOR,), pow2(24))
    reference = (p - p * p).abs()
    ok_shifted = shifted.hi.as_fraction() <= Fraction(1, 10**6)
    ok_dependent = dependent.intersects(reference) and abs(
        float(dependent.midpoint().as_fraction() - reference.midpoint().as_fraction())
    ) <= 1e-4
    return {
        "suite": "mixing",
        "params": {"shift_exp": shift_exp, "width": str(width)},
        "shifted_defect": shifted.to_json(),
        "dependent_defect": dependent.to_json(),
        "dependent_reference": reference.to_json(),
        "checks": [
            {"check": "shifted_defect_below_1e-6", "ok": ok_shifted},
            {"check": "dependent_defect_near_reference", "ok": ok_dependent},
        ],
        "pass": ok_shifted and ok_dependent,
    }


SUITES = {
    "faithful": suite_faithful,
    "invariance": suite_invariance,
    "closure": suite_closure,
    "chain-limits": suite_chain_limits,
    "combination": suite_combination,
    "mixing": suite_mixing,
}
