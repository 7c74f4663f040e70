"""Shared generators and independent oracles for the test suite."""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import inf

from irslab._backend import kernels

from irslab.dyadic import DEFAULT_FACTOR_CAP, ONE, ZERO, Dyadic, Enclosure, Exact, pow2
from irslab.measures import (
    MU_G, CertifiedBool, GeomGamma, ParamFamily, chain_env_weight, combination_checks,
)
from irslab.sampler import SampledSubgroup
from irslab.verify import CommutatorWords
from irslab.words import Word
from irslab.ywords import YWord, depth

LETTERS = (1, -1, 2, -2)


def random_reduced_letters(rng: random.Random, length: int) -> tuple:
    letters = []
    for _ in range(length):
        choices = [x for x in LETTERS if not letters or x != -letters[-1]]
        letters.append(rng.choice(choices))
    return tuple(letters)


def random_word(rng: random.Random, max_len: int, min_len: int = 0) -> Word:
    return Word._raw(random_reduced_letters(rng, rng.randint(min_len, max_len)))


@lru_cache(maxsize=None)
def _commutator_lengths(max_len: int):
    """CommutatorWords(max_len), and for each length n its first rank, its
    count c_n of words and the weight 3^(max_len - n) of each of them."""
    words = CommutatorWords(max_len)
    lengths, first = [], 0
    for n, c in enumerate(words._counts, start=1):
        lengths.append((first, c, 3 ** (max_len - n)))
        first += c
    return words, lengths, sum(c * weight for _, c, weight in lengths)


def random_commutator_word(rng: random.Random, max_len: int) -> Word:
    """Random nontrivial reduced word with zero abelianization: a uniform
    reduced word of a uniform even length in 4..max_len, conditioned on
    lying in [F,F].  Each of the 4 3^(n-1) reduced words of length n has
    probability 1/3^n up to a common factor, so the length n is drawn with
    weight c_n 3^(max_len - n) and the word uniformly among the c_n, by
    rank, with no rejection."""
    words, lengths, total = _commutator_lengths(max_len)
    r = rng.randrange(total)
    for first, c, weight in lengths:
        if r < c * weight:
            return words[first + r // weight]
        r -= c * weight


def random_yword(rng: random.Random, max_syllables=12, max_index=50, max_exp=3) -> YWord:
    sylls = []
    for _ in range(rng.randint(0, max_syllables)):
        e = 0
        while e == 0:
            e = rng.randint(-max_exp, max_exp)
        sylls.append((rng.randint(1, max_index), e))
    return YWord(sylls)


def iter_reduced(max_len: int):
    """All nontrivial freely reduced words of length <= max_len."""
    frontier = [()]
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            for x in LETTERS:
                if w and w[-1] == -x:
                    continue
                nw = w + (x,)
                nxt.append(nw)
                yield Word._raw(nw)
        frontier = nxt


def commutator_pool(max_len: int):
    """Nontrivial commutator-subgroup words of length <= max_len, in the
    order of iter_reduced."""
    return [w for w in iter_reduced(max_len) if w.abelianization() == (0, 0)]


def faithful_report(max_len: int, judge) -> dict:
    """suite_faithful's report built the long way: every reduced word of
    length 1..max_len, [F,F] or not, in the order of iter_reduced, each
    judged by judge(MU_G, w)."""
    n_words = n_outside = 0
    depth_hist = {}
    failures = []
    for w in iter_reduced(max_len):
        n_words += 1
        if judge(MU_G, w) is not CertifiedBool.FALSE:
            failures.append(str(w))
        if w.abelianization() != (0, 0):
            n_outside += 1
        else:
            key = str(depth(w))
            depth_hist[key] = depth_hist.get(key, 0) + 1
    return {
        "suite": "faithful",
        "params": {"max_len": max_len},
        "n_words": n_words,
        "n_certified_outside_kernel": n_words - len(failures),
        "n_outside_commutator": n_outside,
        "depth_histogram": dict(sorted(depth_hist.items(), key=lambda kv: int(kv[0]))),
        "failures": failures,
        "pass": not failures,
    }


def linear_scan_depth(sylls) -> int:
    """Reference depth of a nonempty normalized syllable word: try every
    distinct index in increasing order and return the first whose
    restriction to the indices <= it does not cancel."""
    for t in sorted({i for i, _ in sylls}):
        stack = []
        for i, e in sylls:
            if i > t:
                continue
            if stack and stack[-1][0] == i:
                stack[-1][1] += e
                if stack[-1][1] == 0:
                    stack.pop()
            else:
                stack.append([i, e])
        if stack:
            return t
    raise AssertionError("normalized nonempty syllable word cancelled")


def in_gamma(w: Word, k: int) -> bool:
    """Whether w lies in the k-th chain subgroup (kernel of phi_k)."""
    if k < 1:
        raise ValueError("chain level must be >= 1, got %r" % (k,))
    a0, a1 = w.abelianization()
    if a0 or a1:
        return False
    return depth(w) >= k


# The conjugate-depth walk as it was before columns were shared: one
# Schreier rewrite per coordinate, then a binary search over every index.
# The three functions below are that code, with only the names of the
# functions they call changed, kept as an oracle.

def _reference_reduce_syllables(sylls, limit=inf):
    stack = []
    for s in sylls:
        if s[0] < limit:
            if stack and stack[-1][0] == s[0]:
                e = stack[-1][1] + s[1]
                if e:
                    stack[-1] = (s[0], e)
                else:
                    stack.pop()
            else:
                stack.append(s)
    return stack


def _reference_rewrite_from(w, p0, q0):
    sylls = []
    p, q = p0, q0
    for x in w:
        if x == 1 or x == -1:
            if q:
                js = range(q - 1, -1, -1) if q > 0 else range(q, 0)
                e = -1 if q > 0 else 1
                if x == -1:
                    js, e = reversed(js), -e
                pz = p if x == 1 else p - 1
                sylls.extend([(kernels.spiral_index(pz, j), e) for j in js])
            p += x
        elif x == 2:
            q += 1
        else:
            q -= 1
    if p != p0 or q != q0:
        raise ValueError(
            "word has abelianization (%d, %d); not in the commutator subgroup"
            % (p - p0, q - q0)
        )
    return _reference_reduce_syllables(sylls)


def _reference_depth_syllables(sylls):
    idxs = sorted({s[0] for s in sylls})
    lo, hi = 0, len(idxs)
    while lo < hi:
        mid = (lo + hi) // 2
        if _reference_reduce_syllables(sylls, idxs[mid] + 1):
            hi = mid
        else:
            lo = mid + 1
    if lo == len(idxs):
        raise AssertionError("normalized nonempty syllable word cancelled")
    return idxs[lo]


def reference_conjugate_depths(w):
    """Depth of t^-1 w t at the spiral points t = a^p b^q of 1, 2, ...,
    rewriting the nontrivial [F,F] word w from (-p, -q) afresh at each
    one."""
    for i in count(1):
        p, q = kernels.spiral_point(i)
        yield _reference_depth_syllables(_reference_rewrite_from(w, -p, -q))


def naive_free_reduce(letters) -> tuple:
    """Quadratic reference reduction: rescan until no adjacent cancellation."""
    out = list(letters)
    changed = True
    while changed:
        changed = False
        for k in range(len(out) - 1):
            if out[k] == -out[k + 1]:
                del out[k : k + 2]
                changed = True
                break
    return tuple(out)


def partial_product_interval(exps, tail: Fraction):
    """[lo, hi] Fractions containing prod(1 - 2^-e) given a tail bound on
    the summed defects of the omitted factors."""
    prod = Fraction(1)
    for e in exps:
        prod *= 1 - Fraction(1, 2**e)
    return prod * (1 - tail), prod


def round_down(d: Dyadic, bits: int) -> Dyadic:
    """Largest multiple of 2^-bits that is <= d."""
    if d.exp <= bits:
        return d
    return Dyadic(d.num >> (d.exp - bits), bits)


def round_up(d: Dyadic, bits: int) -> Dyadic:
    """Smallest multiple of 2^-bits that is >= d."""
    if d.exp <= bits:
        return d
    return Dyadic(-((-d.num) >> (d.exp - bits)), bits)


def reference_certified_product(factors, tail_bound, target_width, factor_cap=DEFAULT_FACTOR_CAP):
    """certified_product with the partial product kept exact throughout."""
    it = iter(factors)
    prod = ONE
    count = 0
    bits = target_width.exp + 64

    def enclose(tb: Dyadic, reached: bool) -> Enclosure:
        lo = round_down(prod * (ONE - tb), bits)
        hi = round_up(prod, bits)
        if lo < ZERO:
            lo = ZERO
        return Enclosure(lo, hi, reached)

    while True:
        tb = tail_bound(count)
        if tb > ONE:
            tb = ONE
        if tb.is_zero():
            return Exact(prod)
        width = prod * tb + pow2(bits - 1)
        if width <= target_width:
            return enclose(tb, True)
        if count >= factor_cap:
            return enclose(tb, False)
        f = next(it, None)
        if f is None:
            return enclose(tb, width <= target_width)
        if f < ZERO or f > ONE:
            raise ValueError("product factor %s outside [0, 1]" % (f,))
        if f.is_zero():
            return Exact(ZERO)
        if f != ONE:
            prod = prod * f
        count += 1


def dyadic_bracket_product(seen, it, tail_bound, target_width, factor_cap, bits, prec):
    """dyadic._product with the bracket carried as two Dyadics, each
    product rounded by round_down / round_up at prec."""
    lo = hi = ONE
    count = 0
    slack = pow2(bits - 1)
    while True:
        tb = tail_bound(count)
        if tb > ONE:
            tb = ONE
        if tb.is_zero():
            return Exact(lo) if lo == hi else None
        reached = lo * tb + slack <= target_width
        if reached and hi * tb + slack > target_width:
            return None
        if reached or count >= factor_cap or (f := next(it, None)) is None:
            keep = ONE - tb
            lo_end = round_down(lo * keep, bits)
            hi_end = round_up(hi, bits)
            if lo_end != round_down(hi * keep, bits) or hi_end != round_up(lo, bits):
                return None
            return Enclosure(lo_end, hi_end, reached)
        seen.append(f)
        if f < ZERO or f > ONE:
            raise ValueError("product factor %s outside [0, 1]" % (f,))
        if f.is_zero():
            return Exact(ZERO)
        if f != ONE:
            if prec is None:
                lo = hi = lo * f
            else:
                lo = round_down(lo * f, prec)
                hi = round_up(hi * f, prec)
        count += 1


def dst_constant_interval():
    """Fraction interval pinning prod_{j>=1} (1 - 2^-j) via 40 exact
    factors and the tail inequality."""
    return partial_product_interval(range(1, 41), Fraction(1, 2**40))


MASK64 = (1 << 64) - 1
SALT = 0xA0761D6478BD642F


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def _unshift(y: int, s: int) -> int:
    """The x with x ^ (x >> s) == y: each pass fixes s more high bits."""
    x = y
    for _ in range(64 // s):
        x = y ^ (x >> s)
    return x


def reference_unmix(z: int) -> int:
    """The inverse of one splitmix64 round: each step of _splitmix64
    undone in reverse order, the multipliers by their inverses mod 2^64."""
    z = _unshift(z, 31)
    z = _unshift(z * pow(0x94D049BB133111EB, -1, 1 << 64) & MASK64, 27)
    z = _unshift(z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & MASK64, 30)
    return (z - 0x9E3779B97F4A7C15) & MASK64


def planted_seed(index: int, block0: int) -> int:
    """The seed below 2^64 whose reference_prf_block(seed, index, 0) is
    block0: the three rounds of the PRF run backwards."""
    return reference_unmix(reference_unmix(reference_unmix(block0)) ^ index) ^ SALT


def reference_prf_block(seed: int, index: int, block: int) -> int:
    """The keyed PRF as three separate splitmix64 rounds: seed, then
    index, then block, each masked to 64 bits."""
    z = _splitmix64((seed & MASK64) ^ SALT)
    z = _splitmix64(z ^ (index & MASK64))
    return _splitmix64(z ^ (block & MASK64))


def reference_geometric_coordinate(prf_block, seed: int, index: int) -> int:
    """One plus the number of zero bits before the first one bit of the
    blocks prf_block(seed, index, 0), (.., 1), ..., each read from its
    least significant bit."""
    k = 1
    block = 0
    while True:
        x = prf_block(seed, index, block)
        for bit in range(64):
            if x >> bit & 1:
                return k + bit
        k += 64
        block += 1


# parameters a of the family inner, each with 0 < a < 3/4; 2^-70 needs
# bits beyond the first block
FAMILY_PARAMS = [Dyadic(1, 2), Dyadic(1, 3), Dyadic(5, 4), Dyadic(1, 1), Dyadic(23, 5), Dyadic(1, 70)]


def dyadic_param_coordinate(prf_block, seed: int, index: int, a: Dyadic) -> int:
    """Reference inverse-CDF draw of the parametrized family, comparing the
    consumed prefix's interval with every CDF cell as Dyadic values."""
    head2 = Dyadic(3, 2)
    n_bits = 0
    prefix = 0
    block = 0
    buf = 0
    avail = 0
    while True:
        if avail == 0:
            buf = prf_block(seed, index, block)
            block += 1
            avail = 64
        prefix = (prefix << 1) | (buf & 1)
        buf >>= 1
        avail -= 1
        n_bits += 1
        lo = Dyadic(prefix, n_bits)
        hi = Dyadic(prefix + 1, n_bits)
        if hi <= a:
            return 1
        if lo >= a and hi <= head2:
            return 2
        if lo >= head2:
            k = 3
            while not lo < Dyadic((1 << k) - 1, k):
                k += 1
            if hi <= Dyadic((1 << k) - 1, k):
                return k


def scalar_member_scan(draw, depths) -> bool:
    """Reference membership scan: draw(i) is the chain level at spiral
    coordinate i, drawn for every coordinate in order until one exceeds
    its depth."""
    return all(draw(i) <= d for i, d in enumerate(depths, start=1))


def family_param(inner):
    """member_scan's family parameter for a sampled inner: (num, exp) of a
    ParamFamily's a, None for the geometric inner."""
    return (inner.a.num, inner.a.exp) if isinstance(inner, ParamFamily) else None


def scan_profiles(subgroup: SampledSubgroup, profiles) -> list:
    """kernels.member_scan of bare depth profiles (every entry >= 1) for a
    sampled subgroup alone, a chunk of one seed with its draw as
    membership_matrix passes it: one answer per profile."""
    answers = kernels.member_scan([subgroup.seed], profiles, family_param(subgroup.inner),
                                  lambda j, i: subgroup.coordinate(i))
    return [column[0] for column in answers]


def scan_profile(subgroup: SampledSubgroup, depths) -> bool:
    """scan_profiles of one profile."""
    return scan_profiles(subgroup, [depths])[0]


def packed_lanes(values) -> int:
    """values[j] (each below 2^128) in the 128-bit lane j of one int."""
    return int.from_bytes(b"".join(v.to_bytes(16, "little") for v in values), "little")


def reference_key_lanes(seeds) -> int:
    """The seed round of reference_prf_block for seeds[j], in lane j."""
    return packed_lanes([_splitmix64((seed & MASK64) ^ SALT) for seed in seeds])


def check_combination_identities(mu1, mu2, words) -> dict:
    """combination_checks over a finite word list, with every verdict kept."""
    checks = list(combination_checks(mu1, mu2, words))
    return {"n_words": len(checks), "pass": all(checks), "checks": checks}


# 0.9973 quantiles (the two-sided 3-sigma level) of chi-square, df 1..15
CHI2_Q9973 = [
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


def coordinate_chi_square(seeds, coordinate: int = 1, inner=None, max_bin: int = 10) -> dict:
    """Goodness of fit of the sampled chain level at one coordinate against
    its exact law, at the 3-sigma-equivalent chi-square level.  The levels
    come from SampledSubgroup, which rejects an inner it cannot draw."""
    if inner is None:
        inner = GeomGamma()
    if not 1 <= max_bin <= len(CHI2_Q9973):
        raise ValueError("max_bin must lie in 1..%d, got %r" % (len(CHI2_Q9973), max_bin))
    counts = {}
    n = 0
    for seed in seeds:
        k = SampledSubgroup(inner, seed).coordinate(coordinate)
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
            stat = inf
    df = max_bin  # max_bin + 1 cells
    threshold = CHI2_Q9973[df - 1]
    return {
        "n": n,
        "df": df,
        "statistic": stat,
        "threshold": threshold,
        "pass": stat <= threshold,
    }


# One descriptor of each kind as reports echo it under config.measure
# (json.dumps with sorted keys), keyed by its JSON tag.
DESCRIPTOR_JSON = {
    "geom_gamma": '{"type": "geom_gamma"}',
    "param_family": '{"a": "3/2^3", "type": "param_family"}',
    "dirac_trivial": '{"type": "dirac_trivial"}',
    "dirac_gamma": '{"k": 4, "type": "dirac_gamma"}',
    "pushforward": '{"g": "aB", "inner": {"type": "geom_gamma"}, "type": "pushforward"}',
    "convex": '{"parts": [{"inner": {"inner": {"type": "geom_gamma"}, "type": "coinduced_product"}, '
              '"weight": "3/2^2"}, {"inner": {"k": 1, "type": "dirac_gamma"}, "weight": "1/2^2"}], '
              '"type": "convex"}',
    "coinduced_product": '{"inner": {"a": "1/2^2", "type": "param_family"}, "type": "coinduced_product"}',
    "intersect_power": '{"inner": {"type": "geom_gamma"}, "n": 3, "type": "intersect_power"}',
    "generate_power": '{"inner": {"type": "dirac_trivial"}, "n": 2, "type": "generate_power"}',
}
