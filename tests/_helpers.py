"""Shared generators and independent oracles for the test suite."""

import random
from fractions import Fraction

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


def dst_constant_interval():
    """Fraction interval pinning prod_{j>=1} (1 - 2^-j) via 40 exact
    factors and the tail inequality."""
    return partial_product_interval(range(1, 41), Fraction(1, 2**40))
