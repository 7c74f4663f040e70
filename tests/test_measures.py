import itertools
import json
import math
import random
import time
import tracemalloc
from fractions import Fraction

import pytest

from _helpers import (
    DESCRIPTOR_JSON,
    check_combination_identities,
    dst_constant_interval,
    iter_reduced,
    random_commutator_word,
    random_word,
)
from irslab import measures
from irslab.dyadic import HALF, ONE, ZERO, Dyadic, Exact, certified_product, one_minus_pow2, pow2
from irslab.measures import (
    KINDS,
    MAX_EXACT_BITS,
    MAX_POWER,
    MU_F,
    MU_G,
    CertifiedBool,
    CoinducedProduct,
    Convex,
    DiracGamma,
    DiracTrivial,
    GeneratePower,
    GeomGamma,
    IntersectPower,
    ParamFamily,
    Pushforward,
    Region,
    chain_env_weight,
    descriptor_from_json,
    descriptor_to_json,
    env_prob,
    essential,
    family_measure,
    kernel_contains,
    mixing_defect,
    parse_measure,
    supported_in,
)
from irslab.words import A, COMMUTATOR, IDENTITY, Word, conjugate
from irslab.ywords import YWord, depth, expand, y

Y2_WORD = Word.parse("aabABA")
WIDTH6 = pow2(21)  # < 1e-6


def induced_json(reps, inner):
    """JSON of the average of an inner descriptor over representatives."""
    return {
        "type": "induced_finite",
        "reps": [str(r) for r in reps],
        "inner": descriptor_to_json(inner),
    }


def geometric_weight_sum(K: int) -> Fraction:
    return sum((Fraction(1, 2**k) for k in range(1, K + 1)), Fraction(0))


def family_weight_sum(a: Fraction, K: int) -> Fraction:
    # head weights a and 3/4 - a, then the plain geometric tail
    total = Fraction(0)
    if K >= 1:
        total += a
    if K >= 2:
        total += Fraction(3, 4) - a
    for k in range(3, K + 1):
        total += Fraction(1, 2**k)
    return total


def test_chain_env_weight_against_summation_oracle():
    for K in range(1, 25):
        assert chain_env_weight(MU_F, K).as_fraction() == geometric_weight_sum(K)
    assert chain_env_weight(MU_F, math.inf) == ONE
    a = Dyadic(1, 3)
    fam = ParamFamily(a)
    for K in range(1, 25):
        assert chain_env_weight(fam, K).as_fraction() == family_weight_sum(
            a.as_fraction(), K
        )
    assert chain_env_weight(fam, math.inf) == ONE
    # the family passes through the plain chain measure at a = 1/2
    half = ParamFamily(HALF)
    for K in list(range(1, 22)) + [math.inf]:
        assert chain_env_weight(half, K) == chain_env_weight(MU_F, K)


def test_param_family_validation():
    with pytest.raises(ValueError):
        ParamFamily(Dyadic(3, 2))  # 3/4 boundary excluded
    with pytest.raises(ValueError):
        ParamFamily(ZERO)
    ParamFamily(Dyadic(5, 3))  # 5/8 fine


def test_env_prob_chain_examples():
    assert env_prob(MU_F, COMMUTATOR) == Exact(HALF)
    assert env_prob(MU_F, Y2_WORD) == Exact(Dyadic(3, 2))
    assert env_prob(MU_F, A) == Exact(ZERO)
    for mu in (MU_F, MU_G, DiracTrivial(), ParamFamily(Dyadic(1, 2))):
        assert env_prob(mu, IDENTITY) == Exact(ONE)


def test_env_prob_normalizes_its_event():
    # a repeated word, an added identity, another order of the words, and
    # a lone Word against its 1-tuple leave the value unchanged
    conv = Convex(((HALF, MU_F), (HALF, DiracTrivial())))
    for mu in (MU_F, MU_G, conv):
        value = env_prob(mu, (COMMUTATOR, Y2_WORD))
        assert env_prob(mu, (COMMUTATOR, Y2_WORD, COMMUTATOR)) == value
        assert env_prob(mu, (COMMUTATOR, IDENTITY, Y2_WORD)) == value
        assert env_prob(mu, (Y2_WORD, COMMUTATOR)) == value
        assert env_prob(mu, COMMUTATOR) == env_prob(mu, (COMMUTATOR,))


def test_env_prob_event_uses_min_depth():
    # joint event: depth min(1, 2) = 1
    assert env_prob(MU_F, (COMMUTATOR, Y2_WORD)) == Exact(HALF)
    # monotone event law
    assert env_prob(MU_F, (COMMUTATOR,)).value >= env_prob(MU_F, (COMMUTATOR, Y2_WORD)).value
    assert env_prob(MU_F, (Y2_WORD, A)) == Exact(ZERO)


def test_dirac_descriptors():
    assert env_prob(DiracTrivial(), COMMUTATOR) == Exact(ZERO)
    assert env_prob(DiracGamma(1), COMMUTATOR) == Exact(ONE)
    assert env_prob(DiracGamma(2), COMMUTATOR) == Exact(ZERO)
    assert env_prob(DiracGamma(2), Y2_WORD) == Exact(ONE)
    assert kernel_contains(DiracGamma(1), COMMUTATOR) is CertifiedBool.TRUE


def test_coinduced_depth_profile_is_negation_permutation():
    # oracle for the closed form: the i-th conjugate of the commutator has
    # depth spiral_index(-spiral_point(i)), a ring-preserving permutation
    # of the indices
    from irslab._backend import kernels

    for i in range(1, (2 * 6 + 1) ** 2 + 1):
        p, q = kernels.spiral_point(i)
        assert kernels.shifted_depth(COMMUTATOR.letters, p, q) == kernels.spiral_index(-p, -q)


def test_coinduced_value_matches_direct_product_oracle():
    v = env_prob(MU_G, COMMUTATOR, WIDTH6)
    assert v.width().as_fraction() <= Fraction(1, 10**6)
    lo_ref, hi_ref = dst_constant_interval()
    assert v.lo.as_fraction() <= hi_ref and lo_ref <= v.hi.as_fraction()
    assert v.contains(Fraction("0.2887880951"))
    # co-inducing an induced average gives the same value
    induced = descriptor_from_json(
        {"type": "coinduced_product", "inner": induced_json((IDENTITY, COMMUTATOR), MU_F)}
    )
    v2 = env_prob(induced, COMMUTATOR, WIDTH6)
    assert v2.intersects(v)


def test_coinduced_single_syllable_words_share_the_constant():
    # the shifted support is still a bijective relabeling of the grid
    for word in (Y2_WORD, expand(y(5)), expand(y(1, 2))):
        v = env_prob(MU_G, word, WIDTH6)
        assert v.contains(Fraction("0.2887880951"))


def test_coinduced_param_family_closed_form():
    # oracle: a * (3/4) * prod_{j>=3}(1 - 2^-j) computed directly
    for a in (Dyadic(1, 3), Dyadic(1, 2), Dyadic(5, 3)):
        def factors():
            yield a
            yield Dyadic(3, 2)
            j = 3
            while True:
                yield one_minus_pow2(j)
                j += 1

        oracle = certified_product(factors(), lambda n: pow2(max(n, 2)), pow2(30))
        got = env_prob(family_measure(a), COMMUTATOR, pow2(30))
        assert got.intersects(oracle)
        # equivalently 2a * prod_{j>=1}(1 - 2^-j)
        lo_ref, hi_ref = dst_constant_interval()
        two_a = 2 * a.as_fraction()
        assert got.lo.as_fraction() <= two_a * hi_ref
        assert two_a * lo_ref <= got.hi.as_fraction()


def test_intersect_generate_powers_with_enumeration_oracle():
    # enumerate i.i.d. level tuples to weight 2^-20 per coordinate
    for w, K in ((COMMUTATOR, 1), (Y2_WORD, 2)):
        assert depth(w) == K
        for n in (1, 2, 3):
            inter = env_prob(IntersectPower(n, MU_F), w).value.as_fraction()
            gen = env_prob(GeneratePower(n, MU_F), w).value.as_fraction()
            p_inter = Fraction(0)
            p_gen = Fraction(0)
            for levels in itertools.product(range(1, 21), repeat=n):
                weight = Fraction(1, 2 ** sum(levels))
                if max(levels) <= K:
                    p_inter += weight
                if min(levels) <= K:
                    p_gen += weight
            slack = n * Fraction(1, 2**20)
            assert p_inter <= inter <= p_inter + slack
            assert p_gen <= gen <= p_gen + slack
    # the spec instance values
    assert env_prob(IntersectPower(2, MU_F), COMMUTATOR) == Exact(Dyadic(1, 2))
    assert env_prob(GeneratePower(2, MU_F), COMMUTATOR) == Exact(Dyadic(3, 2))


def test_power_descriptors_reject_non_chain():
    with pytest.raises(ValueError):
        IntersectPower(2, MU_G)
    with pytest.raises(ValueError):
        GeneratePower(2, Convex(((HALF, MU_F), (HALF, DiracTrivial()))))
    with pytest.raises(ValueError):
        IntersectPower(0, MU_F)
    with pytest.raises(ValueError):
        GeneratePower(MAX_POWER + 1, MU_F)
    assert IntersectPower(MAX_POWER, MU_F).n == MAX_POWER


def test_coinduced_point_mass_inners():
    # intersections of conjugates of a point mass are exactly decidable:
    # level one is the whole commutator subgroup, higher levels meet in
    # the trivial subgroup because some conjugate depth is one
    assert env_prob(CoinducedProduct(DiracGamma(1)), COMMUTATOR) == Exact(ONE)
    assert env_prob(CoinducedProduct(DiracGamma(2)), COMMUTATOR) == Exact(ZERO)
    assert env_prob(CoinducedProduct(DiracGamma(7)), Y2_WORD) == Exact(ZERO)
    assert env_prob(CoinducedProduct(DiracGamma(3)), expand(y(9, -2))) == Exact(ZERO)
    assert env_prob(CoinducedProduct(DiracTrivial()), COMMUTATOR) == Exact(ZERO)
    assert env_prob(CoinducedProduct(DiracTrivial()), IDENTITY) == Exact(ONE)
    mu = descriptor_from_json(
        {"type": "coinduced_product", "inner": induced_json((IDENTITY,), DiracGamma(1))}
    )
    assert env_prob(mu, COMMUTATOR) == Exact(ONE)


def test_coinduced_rejects_unsupported_inner():
    with pytest.raises(ValueError):
        CoinducedProduct(Pushforward(A, MU_F))
    with pytest.raises(ValueError):
        CoinducedProduct(IntersectPower(2, MU_F))
    with pytest.raises(ValueError):
        descriptor_from_json(induced_json((A,), MU_F))  # rep outside the commutator subgroup
    with pytest.raises(ValueError):
        # count not a power of two
        descriptor_from_json(induced_json((IDENTITY, COMMUTATOR, IDENTITY), MU_F))
    with pytest.raises(ValueError):
        descriptor_from_json(induced_json((IDENTITY,), Pushforward(A, MU_F)))


def test_pushforward_convention():
    g = Word.parse("ab")
    mu = Pushforward(g, MU_F)
    for w in (COMMUTATOR, Y2_WORD, expand(y(3))):
        moved = conjugate(g.inverse(), w)
        assert env_prob(mu, w) == env_prob(MU_F, moved)
    # pushing forward by a commutator-subgroup element fixes every chain
    # subgroup, so probabilities are unchanged
    c = expand(y(2))
    for w in (COMMUTATOR, Y2_WORD):
        assert env_prob(Pushforward(c, MU_F), w) == env_prob(MU_F, w)


def test_induced_average_equals_chain_on_commutator_reps():
    # each chain subgroup is normal in the commutator subgroup, so the
    # average parses to its inner measure (tests/test_lemmas.py checks the
    # normality by brute force)
    reps = (IDENTITY, expand(y(1)), expand(y(2)), expand(y(4, -1)))
    for inner in (MU_F, ParamFamily(Dyadic(1, 3)), DiracGamma(2)):
        assert descriptor_from_json(induced_json(reps, inner)) == inner
    mu = descriptor_from_json(induced_json(reps, MU_F))
    for w in (COMMUTATOR, Y2_WORD, A):
        assert env_prob(mu, w) == env_prob(MU_F, w)
    assert env_prob(parse_measure("mu_HF"), COMMUTATOR) == Exact(HALF)


def test_convex_combination():
    mu = Convex(((HALF, MU_F), (HALF, DiracTrivial())))
    # (1/2) * (1/2) + (1/2) * 0 = 1/4
    assert env_prob(mu, COMMUTATOR) == Exact(Dyadic(1, 2))
    with pytest.raises(ValueError):
        Convex(((HALF, MU_F), (Dyadic(1, 2), MU_F), (HALF, MU_F)))


def _conjugated_commutator(k: int) -> Word:
    """a^k [a,b] a^-k, of depth ring_start(k) = (2k - 1)^2 + 1."""
    return Word.parse("a" * k + "abAB" + "A" * k)


def test_chain_values_past_the_bit_cap_are_refused_before_they_are_built():
    at_cap = _conjugated_commutator(128)
    assert env_prob(MU_F, at_cap) == Exact(one_minus_pow2(65026))
    # depth 1,599,920,002: 1 - 2^-K alone would take 200 MB
    deep = _conjugated_commutator(20000)
    tracemalloc.start()
    try:
        for mu in (MU_F, ParamFamily(Dyadic(1, 2))):
            with pytest.raises(ValueError, match=r"denominator 2\^1599920002; at most 2\^65536"):
                env_prob(mu, deep)
        # a point mass's value is 0 or 1 at every depth
        assert env_prob(DiracGamma(3), deep) == Exact(ONE)
        assert tracemalloc.get_traced_memory()[1] < 10 * 2**20
    finally:
        tracemalloc.stop()


def test_power_values_are_capped_at_the_exact_bits():
    w = _conjugated_commutator(5)  # depth 82, and 799 * 82 <= 2^16 < 800 * 82
    assert depth(w) == 82
    for power in (IntersectPower, GeneratePower):
        assert env_prob(power(799, MU_F), w).value.exp == 799 * 82
        with pytest.raises(ValueError, match=r"power 800 .* 2\^65600; at most 2\^65536"):
            env_prob(power(800, MU_F), w)


def test_convex_combinations_are_capped_at_their_ends():
    fine = Dyadic(1, MAX_EXACT_BITS)
    rest = ONE - fine
    # 0 and 1 keep the weights' bits, which the cap admits
    assert env_prob(Convex(((rest, DiracGamma(1)), (fine, DiracTrivial()))), COMMUTATOR) == Exact(rest)
    # the bits of an exact value or of an enclosure's ends add to them
    for inner, bits in ((MU_F, 65537), (MU_G, 65621)):
        with pytest.raises(ValueError, match=r"convex combination has denominator 2\^%d" % bits):
            env_prob(Convex(((rest, inner), (fine, DiracTrivial()))), COMMUTATOR)


def test_pushforward_moved_words_count_against_the_rewrite_cap(monkeypatch):
    # the moved word b [a,b] B = babABB rewrites to 3 syllables before reduction
    mu = Pushforward(Word.parse("B"), MU_F)
    monkeypatch.setattr(measures, "MAX_REWRITE_SYLLABLES", 3)
    assert env_prob(mu, COMMUTATOR) == env_prob(MU_F, conjugate(Word.parse("b"), COMMUTATOR))
    monkeypatch.setattr(measures, "MAX_REWRITE_SYLLABLES", 2)
    with pytest.raises(ValueError, match="rewrite to 3 syllables before reduction; at most 2"):
        env_prob(mu, COMMUTATOR)


@pytest.mark.parametrize("mu", [MU_F, MU_G], ids=["mu_F", "mu_G"])
def test_env_prob_counts_the_rewrite_before_it_runs(mu):
    # [b^1000,a^1000] rewrites to 10^6 syllables: mu_F returned after 2.1 s,
    # and mu_G rewrote for 1.6 s before its support radius was refused
    w = Word.parse("b" * 1000 + "a" * 1000 + "B" * 1000 + "A" * 1000)
    started = time.perf_counter()
    with pytest.raises(ValueError, match="rewrite to 1000000 syllables before reduction"):
        env_prob(mu, w)
    assert time.perf_counter() - started < 0.1


def _kernel_verdict_by_definition(mu, w):
    """mu(Env w) = 1, read off one full evaluation."""
    v = env_prob(mu, (w,))
    if isinstance(v, Exact):
        return CertifiedBool.TRUE if v.value == ONE else CertifiedBool.FALSE
    if v.hi < ONE:
        return CertifiedBool.FALSE
    return CertifiedBool.TRUE if v.lo == ONE else CertifiedBool.UNKNOWN


def _essential_verdict_by_definition(mu, w):
    """mu(Env w) > 0, read off one full evaluation."""
    v = env_prob(mu, (w,))
    if isinstance(v, Exact):
        return CertifiedBool.TRUE if v.value > ZERO else CertifiedBool.FALSE
    if v.lo > ZERO:
        return CertifiedBool.TRUE
    return CertifiedBool.FALSE if v.hi == ZERO else CertifiedBool.UNKNOWN


# descriptors and words on which the predicates meet their definitions;
# the point masses take exact values 0 and 1
VERDICT_DESCRIPTORS = [
    MU_G,
    Pushforward(A, MU_G),
    Convex(((HALF, MU_F), (HALF, DiracTrivial()))),
    family_measure(Dyadic(1, 2)),
    IntersectPower(3, MU_F),
    DiracGamma(3),
    DiracTrivial(),
]
VERDICT_WORDS = [IDENTITY] + list(iter_reduced(5)) + [expand(y(5)), expand(y(2, 3))]


def test_kernel_contains_examples():
    assert kernel_contains(MU_F, IDENTITY) is CertifiedBool.TRUE
    assert kernel_contains(MU_F, COMMUTATOR) is CertifiedBool.FALSE
    assert kernel_contains(MU_G, COMMUTATOR) is CertifiedBool.FALSE
    assert kernel_contains(MU_G, A) is CertifiedBool.FALSE
    assert kernel_contains(DiracGamma(3), expand(y(5))) is CertifiedBool.TRUE
    # the cheap probe agrees with the definition, fixed-answer words included
    for mu in VERDICT_DESCRIPTORS:
        for w in VERDICT_WORDS:
            assert kernel_contains(mu, w) is _kernel_verdict_by_definition(mu, w), (mu, str(w))


def test_essential_examples():
    assert essential(MU_G, COMMUTATOR) is CertifiedBool.TRUE
    assert essential(MU_G, A) is CertifiedBool.FALSE
    v = env_prob(MU_F, expand(y(5)))
    assert v == Exact(one_minus_pow2(5))
    assert essential(MU_F, expand(y(5))) is CertifiedBool.TRUE
    assert essential(DiracGamma(3), expand(y(2))) is CertifiedBool.FALSE
    assert essential(DiracTrivial(), IDENTITY) is CertifiedBool.TRUE
    verdicts = set()
    for mu in VERDICT_DESCRIPTORS:
        for w in VERDICT_WORDS:
            verdict = _essential_verdict_by_definition(mu, w)
            assert essential(mu, w) is verdict, (mu, str(w))
            verdicts.add(verdict)
    assert verdicts == {CertifiedBool.TRUE, CertifiedBool.FALSE}


def test_supported_in():
    assert supported_in(MU_F, Region.COMMUTATOR) is True
    assert supported_in(MU_G, Region.COMMUTATOR) is True
    assert supported_in(MU_F, Region.TRIVIAL) is False
    assert supported_in(MU_G, Region.TRIVIAL) is False
    assert supported_in(DiracTrivial(), Region.TRIVIAL) is True
    assert supported_in(Pushforward(A, MU_F), Region.COMMUTATOR) is True
    assert supported_in(Convex(((HALF, MU_F), (HALF, DiracTrivial()))), Region.TRIVIAL) is False
    assert supported_in(MU_G, Region.WHOLE) is True


def test_combination_identities_examples():
    rep = check_combination_identities(MU_F, DiracTrivial(), [COMMUTATOR])
    assert rep["pass"]
    # essential from the chain side: (1/2) * (1/2) = 1/4 > 0
    conv = Convex(((HALF, MU_F), (HALF, DiracTrivial())))
    assert env_prob(conv, COMMUTATOR) == Exact(Dyadic(1, 2))
    assert kernel_contains(conv, COMMUTATOR) is CertifiedBool.FALSE
    assert essential(conv, COMMUTATOR) is CertifiedBool.TRUE

    rep = check_combination_identities(MU_F, MU_F, [COMMUTATOR, Y2_WORD, A])
    assert rep["pass"]
    rep = check_combination_identities(MU_F, ParamFamily(Dyadic(1, 2)), [IDENTITY])
    assert rep["pass"]


def test_combination_identities_random_words():
    rng = random.Random(808)
    words = [IDENTITY, COMMUTATOR, A]
    words += [random_word(rng, 8) for _ in range(30)]
    words += [random_commutator_word(rng, 10) for _ in range(20)]
    for other in (DiracTrivial(), ParamFamily(Dyadic(1, 2)), DiracGamma(2)):
        rep = check_combination_identities(MU_F, other, words)
        assert rep["pass"], rep


def test_chain_limit_laws():
    words = [COMMUTATOR, Y2_WORD, expand(YWord(((3, 1), (1, 1), (3, -1), (1, -1))))]
    for w in words:
        K = depth(w)
        for n in range(1, 11):
            inter = env_prob(IntersectPower(n, MU_F), w).value
            gen = env_prob(GeneratePower(n, MU_F), w).value
            want_inter = ONE
            for _ in range(n):
                want_inter = want_inter * one_minus_pow2(K)
            assert inter == want_inter
            assert gen == one_minus_pow2(n * K)
        # limits: intersect powers vanish, generate powers fill up
        p10_inter = env_prob(IntersectPower(10, MU_F), w).value.as_fraction()
        p10_gen = env_prob(GeneratePower(10, MU_F), w).value.as_fraction()
        assert p10_inter < Fraction(1, 1000) or K > 1
        assert p10_gen > Fraction(999, 1000)


def test_invariance_spot_checks():
    rng = random.Random(4040)
    for _ in range(12):
        g = random_word(rng, 6)
        w = random_commutator_word(rng, 6) if rng.random() < 0.7 else random_word(rng, 6)
        v1 = env_prob(MU_G, w, WIDTH6)
        v2 = env_prob(MU_G, conjugate(g.inverse(), w), WIDTH6)
        assert v1.intersects(v2)


def test_faithfulness_small_sweep():
    for w in iter_reduced(5):
        assert kernel_contains(MU_G, w) is CertifiedBool.FALSE


def test_mixing_defect_dependent_case():
    # oracle: p - p^2 for p the digital-search-tree constant
    lo_ref, hi_ref = dst_constant_interval()
    d = mixing_defect(COMMUTATOR, COMMUTATOR, IDENTITY, WIDTH6)
    ref_lo = lo_ref - hi_ref * hi_ref
    ref_hi = hi_ref - lo_ref * lo_ref
    assert d.lo.as_fraction() <= ref_hi and ref_lo <= d.hi.as_fraction()
    assert abs(float(d.midpoint().as_fraction()) - 0.2053895) < 1e-4


def test_mixing_defect_shifted_case():
    d = mixing_defect(COMMUTATOR, COMMUTATOR, A**10, WIDTH6)
    assert d.hi.as_fraction() <= Fraction(1, 10**6)


def test_mixing_defect_identity_word():
    d = mixing_defect(IDENTITY, COMMUTATOR, A, WIDTH6)
    assert d.lo == ZERO and d.hi == ZERO
    with pytest.raises(ValueError):
        mixing_defect(A, COMMUTATOR, IDENTITY)


def test_param_family_agrees_with_geom_at_half():
    fam = ParamFamily(HALF)
    rng = random.Random(11)
    for _ in range(20):
        w = random_commutator_word(rng, 10) if rng.random() < 0.5 else random_word(rng, 6)
        assert env_prob(fam, w) == env_prob(MU_F, w)
    vg = env_prob(MU_G, COMMUTATOR, WIDTH6)
    vf = env_prob(family_measure(HALF), COMMUTATOR, WIDTH6)
    assert vg.intersects(vf)


def test_monotone_event_law():
    rng = random.Random(202)
    for _ in range(20):
        e_small = [random_commutator_word(rng, 8)]
        e_big = e_small + [random_commutator_word(rng, 8)]
        for mu in (MU_F, ParamFamily(Dyadic(1, 3))):
            assert env_prob(mu, e_small).value >= env_prob(mu, e_big).value
        v_small = env_prob(MU_G, e_small, WIDTH6)
        v_big = env_prob(MU_G, e_big, WIDTH6)
        assert v_small.hi >= v_big.lo


def test_descriptor_json_round_trip():
    examples = {
        "geom_gamma": MU_F,
        "param_family": ParamFamily(Dyadic(3, 3)),
        "dirac_trivial": DiracTrivial(),
        "dirac_gamma": DiracGamma(4),
        "pushforward": Pushforward(Word.parse("aB"), MU_F),
        "convex": Convex(((Dyadic(3, 2), MU_G), (Dyadic(1, 2), DiracGamma(1)))),
        "coinduced_product": family_measure(Dyadic(1, 2)),
        "intersect_power": IntersectPower(3, MU_F),
        "generate_power": GeneratePower(2, DiracTrivial()),
    }
    assert list(examples) == list(KINDS) == list(DESCRIPTOR_JSON)
    for tag, mu in examples.items():
        assert json.dumps(descriptor_to_json(mu), sort_keys=True) == DESCRIPTOR_JSON[tag]
        assert descriptor_from_json(json.loads(DESCRIPTOR_JSON[tag])) == mu
    descriptors = [
        MU_G,
        Convex(((HALF, MU_F), (HALF, DiracTrivial()))),
        GeneratePower(2, ParamFamily(Dyadic(1, 2))),
        family_measure(Dyadic(1, 3)),
    ]
    for mu in descriptors:
        assert descriptor_from_json(descriptor_to_json(mu)) == mu
    assert descriptor_to_json(MU_G) == {
        "type": "coinduced_product",
        "inner": {"type": "geom_gamma"},
    }


def test_random_descriptors_round_trip():
    rng = random.Random(4242)
    for _ in range(200):
        mu = _random_descriptor(rng, depth_budget=3)
        assert descriptor_from_json(json.loads(json.dumps(descriptor_to_json(mu)))) == mu


def test_descriptor_keys_nothing_reads_are_refused():
    # each kind's own keys: test_eval_refuses_a_descriptor_key_nothing_reads
    part = {"weight": "1", "inner": {"type": "geom_gamma"}, "type": "geom_gamma"}
    with pytest.raises(ValueError, match="a convex part does not read the key 'type'"):
        descriptor_from_json({"type": "convex", "parts": [part]})
    with pytest.raises(ValueError, match="a convex part must be a JSON object"):
        descriptor_from_json({"type": "convex", "parts": ["ab"]})
    induced = induced_json((IDENTITY,), MU_F)
    induced["weight"] = "1"
    with pytest.raises(ValueError, match="induced_finite does not read the key 'weight'"):
        descriptor_from_json(induced)


def test_parse_measure():
    assert parse_measure("mu_F") == MU_F
    assert parse_measure("mu_HF") == MU_F
    assert parse_measure("mu_G") == MU_G
    assert MU_G == CoinducedProduct(GeomGamma())
    assert parse_measure("mu_aG:1/2^2") == family_measure(Dyadic(1, 2))
    assert parse_measure("mu_aF:1/4") == ParamFamily(Dyadic(1, 2))
    assert parse_measure('{"type": "geom_gamma"}') == MU_F
    with pytest.raises(ValueError):
        parse_measure("mu_aG:3/4")
    with pytest.raises(ValueError):
        parse_measure('{"type": "nope"}')


def test_env_prob_width_flag_propagates():
    v = env_prob(MU_G, COMMUTATOR, pow2(40), factor_cap=4)
    assert not v.width_reached
    assert v.lo <= v.hi


def _random_descriptor(rng, depth_budget=2):
    atoms = [
        MU_F,
        ParamFamily(Dyadic(rng.choice((1, 3, 5)), 3)),
        DiracTrivial(),
        DiracGamma(rng.randint(1, 5)),
    ]
    if depth_budget == 0:
        return rng.choice(atoms)
    kind = rng.randrange(6)
    if kind == 0:
        return Pushforward(random_word(rng, 5), _random_descriptor(rng, depth_budget - 1))
    if kind == 1:
        return Convex(
            (
                (HALF, _random_descriptor(rng, depth_budget - 1)),
                (HALF, _random_descriptor(rng, depth_budget - 1)),
            )
        )
    if kind == 2:
        return IntersectPower(rng.randint(1, 4), rng.choice(atoms))
    if kind == 3:
        return GeneratePower(rng.randint(1, 4), rng.choice(atoms))
    if kind == 4:
        return CoinducedProduct(rng.choice(atoms[:2]))
    return rng.choice(atoms)


def test_coinduced_enclosure_nesting_fuzz():
    rng = random.Random(909)
    for _ in range(8):
        w = random_commutator_word(rng, 10)
        coarse = env_prob(MU_G, w, pow2(10))
        fine = env_prob(MU_G, w, pow2(30))
        assert coarse.lo <= fine.lo <= fine.hi <= coarse.hi


def test_env_prob_randomized_descriptor_soundness():
    # probabilities stay in [0, 1], enclosures stay ordered, and shrinking
    # the event can only shrink the probability
    rng = random.Random(606060)
    for _ in range(60):
        mu = _random_descriptor(rng)
        words = [random_commutator_word(rng, 8)]
        if rng.random() < 0.4:
            words.append(random_word(rng, 5))
        v = env_prob(mu, words, pow2(12))
        assert ZERO <= v.lo <= v.hi <= ONE
        sub = env_prob(mu, words[:1], pow2(12))
        assert sub.hi >= v.lo
        if isinstance(v, Exact) and isinstance(sub, Exact):
            assert sub.value >= v.value
