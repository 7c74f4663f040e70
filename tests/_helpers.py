"""Shared generators and independent oracles for the test suite."""

import random
from fractions import Fraction
from itertools import count
from math import inf

from irslab._backend import kernels

from irslab.dyadic import ONE, ZERO, Dyadic, Enclosure, Exact, pow2
from irslab.words import Word
from irslab.ywords import YWord

LETTERS = (1, -1, 2, -2)


def random_reduced_letters(rng: random.Random, length: int) -> tuple:
    letters = []
    for _ in range(length):
        choices = [x for x in LETTERS if not letters or x != -letters[-1]]
        letters.append(rng.choice(choices))
    return tuple(letters)


def random_word(rng: random.Random, max_len: int, min_len: int = 0) -> Word:
    return Word._raw(random_reduced_letters(rng, rng.randint(min_len, max_len)))


def random_commutator_word(rng: random.Random, max_len: int, tries: int = 10000) -> Word:
    """Random nontrivial reduced word with zero abelianization, by rejection."""
    for _ in range(tries):
        n = 2 * rng.randint(2, max_len // 2)
        w = Word._raw(random_reduced_letters(rng, n))
        if len(w) and w.abelianization() == (0, 0) and len(w) <= max_len:
            return w
    raise AssertionError("rejection sampling failed")


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
    rewriting w from (-p, -q) afresh at each one; 0 for an identity
    conjugate and -1 for every t when w is not in the commutator subgroup."""
    a0, a1 = kernels.abelianize(w)
    for i in count(1):
        if a0 or a1:
            yield -1
            continue
        p, q = kernels.spiral_point(i)
        sylls = _reference_rewrite_from(w, -p, -q)
        yield _reference_depth_syllables(sylls) if sylls else 0


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


def reference_certified_product(factors, tail_bound, target_width, factor_cap=10**6):
    """certified_product with the partial product kept exact throughout."""
    it = iter(factors)
    prod = ONE
    count = 0
    bits = target_width.exp + 64

    def enclose(tb: Dyadic, reached: bool) -> Enclosure:
        lo = (prod * (ONE - tb)).round_down(bits)
        hi = prod.round_up(bits)
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
    product rounded by round_down(prec) / round_up(prec)."""
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
            lo_end = (lo * keep).round_down(bits)
            hi_end = hi.round_up(bits)
            if lo_end != (hi * keep).round_down(bits) or hi_end != lo.round_up(bits):
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
                lo = (lo * f).round_down(prec)
                hi = (hi * f).round_up(prec)
        count += 1


def dst_constant_interval():
    """Fraction interval pinning prod_{j>=1} (1 - 2^-j) via 40 exact
    factors and the tail inequality."""
    return partial_product_interval(range(1, 41), Fraction(1, 2**40))


MASK64 = (1 << 64) - 1


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def reference_prf_block(seed: int, index: int, block: int) -> int:
    """The keyed PRF as three separate splitmix64 rounds: seed, then
    index, then block, each masked to 64 bits."""
    z = _splitmix64((seed & MASK64) ^ 0xA0761D6478BD642F)
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
    coordinate i, drawn for every coordinate in order until one exceeds a
    nonzero depth (0 encodes unbounded depth)."""
    for i, d in enumerate(depths, start=1):
        if d and draw(i) > d:
            return False
    return True
