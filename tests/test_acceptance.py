"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run as:  pytest tests/test_acceptance.py -v -s
"""

import json
import random
import time
from fractions import Fraction

from _helpers import (
    check_combination_identities,
    commutator_pool,
    dst_constant_interval,
    random_commutator_word,
    random_yword,
)
from irslab.cli import EXIT_OK, main
from irslab.dyadic import Dyadic, Exact, parse_target_width
from irslab.measures import (
    MU_F,
    MU_G,
    CertifiedBool,
    DiracTrivial,
    GeneratePower,
    IntersectPower,
    ParamFamily,
    Region,
    env_prob,
    essential,
    family_measure,
    mixing_defect,
    supported_in,
)
from irslab.verify import (
    random_reduced_word,
    suite_faithful,
    suite_invariance,
)
from irslab.words import A, COMMUTATOR, IDENTITY, Word
from irslab.ywords import YWord, depth, expand, rewrite_to_y, y

WIDTH_1E6 = parse_target_width("1e-6")
Y2_WORD = Word.parse("aabABA")
ONE_MICRO = Fraction(1, 10**6)


def verdict(n, ok, text):
    print("ACCEPTANCE %2d: %s - %s" % (n, "PASS" if ok else "FAIL", text))
    assert ok, text


def test_criterion_01_exact_chain_values():
    t0 = time.perf_counter()
    v1 = env_prob(MU_F, COMMUTATOR)
    t1 = time.perf_counter()
    v2 = env_prob(MU_F, Y2_WORD)
    t2 = time.perf_counter()
    ok = (
        v1 == Exact(Dyadic(1, 1))
        and v2 == Exact(Dyadic(3, 2))
        and (t1 - t0) < 0.010
        and (t2 - t1) < 0.010
    )
    verdict(
        1,
        ok,
        "exact chain values 1/2 and 3/4 in %.2f ms / %.2f ms"
        % (1000 * (t1 - t0), 1000 * (t2 - t1)),
    )


def test_criterion_02_coinduced_product_enclosure():
    t0 = time.perf_counter()
    v = env_prob(MU_G, COMMUTATOR, WIDTH_1E6)
    elapsed = time.perf_counter() - t0
    lo_ref, hi_ref = dst_constant_interval()
    ok = (
        v.width().as_fraction() <= ONE_MICRO
        and v.contains(Fraction("0.2887880951"))
        and v.lo.as_fraction() <= hi_ref
        and lo_ref <= v.hi.as_fraction()
        and elapsed < 1.0
    )
    verdict(2, ok, "mu_G(Env [a,b]) in [%.10f, %.10f], width <= 1e-6, %.3fs"
            % (v.lo.as_float(), v.hi.as_float(), elapsed))


def test_criterion_03_faithfulness_sweep():
    t0 = time.perf_counter()
    report = suite_faithful(max_len=8)
    elapsed = time.perf_counter() - t0
    ok = (
        report["n_words"] == 13120
        and report["pass"]
        and not report["failures"]
        and elapsed < 300.0
    )
    verdict(3, ok, "all %d nontrivial words of length <= 8 certified outside "
            "ker(mu_G) in %.1fs" % (report["n_words"], elapsed))


def test_criterion_04_invariance_suite():
    report = suite_invariance(pairs=100, max_len=6, width=WIDTH_1E6, seed=17)
    ok = report["pass"] and report["n_failures"] == 0 and len(report["checks"]) == 100
    verdict(4, ok, "100 conjugation pairs: enclosures intersect, %d failures"
            % report["n_failures"])


def test_criterion_05_closure_nontriviality():
    ess = essential(MU_G, COMMUTATOR, WIDTH_1E6)
    supp = supported_in(MU_G, Region.COMMUTATOR)
    not_span = essential(MU_G, A, WIDTH_1E6)
    ok = (
        ess is CertifiedBool.TRUE
        and supp is True
        and not_span is CertifiedBool.FALSE
    )
    verdict(5, ok, "essential([a,b])=%s, supported in commutator=%s, "
            "essential(a)=%s" % (ess.value, supp, not_span.value))


def test_criterion_06_chain_limit_laws():
    words = [COMMUTATOR, expand(y(2)), expand(YWord(((3, 1), (1, 1), (3, -1), (1, -1))))]
    ok = True
    for w, want_k in zip(words, (1, 2, 3)):
        K = depth(w)
        ok = ok and K == want_k
        for n in range(1, 11):
            inter = env_prob(IntersectPower(n, MU_F), w)
            gen = env_prob(GeneratePower(n, MU_F), w)
            ok = ok and inter.value.as_fraction() == (1 - Fraction(1, 2**K)) ** n
            ok = ok and gen.value.as_fraction() == 1 - Fraction(1, 2 ** (n * K))
    verdict(6, ok, "intersect/generate power laws exact for depths 1,2,3 and n <= 10")


def test_criterion_07_combination_identities():
    rng = random.Random(70707)
    pool = commutator_pool(6)
    words = [IDENTITY, COMMUTATOR]
    while len(words) < 200:
        if rng.random() < 0.5:
            words.append(rng.choice(pool))
        else:
            words.append(random_reduced_word(rng, 8))
    rep1 = check_combination_identities(MU_F, DiracTrivial(), words)
    rep2 = check_combination_identities(MU_F, ParamFamily(Dyadic(1, 2)), words)
    ok = rep1["pass"] and rep2["pass"] and rep1["n_words"] == 200
    verdict(7, ok, "kernel/essential identities on 200 words for both measure pairs")


def test_criterion_08_parametrized_family():
    lo_ref, hi_ref = dst_constant_interval()
    values = []
    ok = True
    for num in (1, 2, 3, 4, 5):
        a = Dyadic(num, 3)  # 1/8 .. 5/8
        v = env_prob(family_measure(a), COMMUTATOR, WIDTH_1E6)
        ok = ok and v.width().as_fraction() <= ONE_MICRO
        two_a = 2 * a.as_fraction()
        # closed form 2a * prod(1 - 2^-j), to within the enclosure widths
        ok = ok and v.lo.as_fraction() <= two_a * hi_ref
        ok = ok and two_a * lo_ref <= v.hi.as_fraction()
        values.append(v)
    for prev, cur in zip(values, values[1:]):
        ok = ok and prev.hi < cur.lo  # strictly increasing, disjoint enclosures
    v_half = values[3]
    v_mu_g = env_prob(MU_G, COMMUTATOR, WIDTH_1E6)
    ok = ok and v_half.intersects(v_mu_g)
    verdict(8, ok, "family values strictly increasing, disjoint, matching "
            "2a*prod(1-2^-j); a=1/2 meets mu_G")


def test_criterion_09_sampler_fidelity(tmp_path):
    t0 = time.perf_counter()
    args = [
        "sample", "--n", "10000", "--seed", "42",
        "--word", "", "--word", "a", "--word", "abAB",
        "--word", "aabABA", "--word", str(expand(y(1, 2))),
    ]
    out1, out2 = tmp_path / "s1.json", tmp_path / "s2.json"
    code1 = main(args + ["--out", str(out1)])
    code2 = main(args + ["--out", str(out2)])
    elapsed = time.perf_counter() - t0
    rep = json.loads(out1.read_text())
    z_ok = rep["z_tests"]["pass"]
    by_word = {c["word"]: c for c in rep["summary"]}
    ok = (
        code1 == EXIT_OK
        and code2 == EXIT_OK
        and out1.read_bytes() == out2.read_bytes()
        and z_ok
        and by_word[""]["frequency"] == 1.0
        and by_word["a"]["frequency"] == 0.0
        and elapsed < 120.0
    )
    verdict(9, ok, "10^4-seed frequencies within 3 sigma, byte-identical replay, "
            "%.1fs for both runs" % elapsed)


def test_criterion_10_mixing_proxy():
    shifted = mixing_defect(COMMUTATOR, COMMUTATOR, A**10, WIDTH_1E6)
    dependent = mixing_defect(COMMUTATOR, COMMUTATOR, IDENTITY, WIDTH_1E6)
    lo_ref, hi_ref = dst_constant_interval()
    ref_mid = (lo_ref - lo_ref * lo_ref + hi_ref - hi_ref * hi_ref) / 2
    ok = (
        shifted.width_reached
        and shifted.hi.as_fraction() <= ONE_MICRO
        and abs(dependent.midpoint().as_fraction() - ref_mid) <= Fraction(1, 10**4)
    )
    verdict(10, ok, "defect(a^10 shift) <= 1e-6 certified; defect(e) = %.6f "
            "within 1e-4 of p - p^2" % dependent.midpoint().as_float())


def test_criterion_11_rewriting_oracle():
    rng = random.Random(1111)
    ok = True
    for _ in range(10000):
        v = random_yword(rng)
        w = expand(v)
        ok = ok and rewrite_to_y(w) == v
    for _ in range(10000):
        w = random_commutator_word(rng, 24)
        ok = ok and expand(rewrite_to_y(w)) == w

    def a_pow(n):
        return A**n

    def b_pow(n):
        return Word.parse("b") ** n

    def z_word(p, q):
        return a_pow(p) * b_pow(q) * A * b_pow(-q) * a_pow(-p - 1)

    def x_word(p, q):
        return a_pow(p) * b_pow(q) * COMMUTATOR * b_pow(-q) * a_pow(-p)

    for p in range(-5, 6):
        for q in range(-5, 6):
            ok = ok and x_word(p, q) == z_word(p, q) * z_word(p, q + 1).inverse()
            # the telescoped forms the rewriter relies on
            if q == 0:
                ok = ok and z_word(p, q) == IDENTITY
            elif q >= 1:
                prod = IDENTITY
                for j in range(q - 1, -1, -1):
                    prod = prod * x_word(p, j).inverse()
                ok = ok and z_word(p, q) == prod
            else:
                prod = IDENTITY
                for j in range(q, 0):
                    prod = prod * x_word(p, j)
                ok = ok and z_word(p, q) == prod
    verdict(11, ok, "10^4 + 10^4 rewriting round trips exact; basis-change "
            "identities verified by expansion for |p|,|q| <= 5")
