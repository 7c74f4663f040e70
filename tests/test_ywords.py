import math
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from _helpers import commutator_pool, in_gamma, random_commutator_word, random_yword
from irslab._backend import kernels
from irslab.words import COMMUTATOR, IDENTITY, Word, conjugate
from irslab.ywords import (
    YWord,
    depth,
    expand,
    phi_k,
    rewrite_to_y,
    y,
)

syllable_st = st.tuples(
    st.integers(min_value=1, max_value=50),
    st.integers(min_value=-3, max_value=3).filter(lambda e: e != 0),
)
yword_st = st.builds(YWord, st.lists(syllable_st, max_size=12))


def test_expand_examples():
    assert expand(y(1)) == COMMUTATOR  # t_1 = e
    assert expand(y(2)) == Word.parse("aabABA")  # t_2 = a
    assert expand(YWord()) == IDENTITY


def test_rewrite_examples_with_expand_oracle():
    # each expected normal form is validated by expanding it back first
    cases = [
        (COMMUTATOR, YWord(((1, 1),))),
        (Word.parse("aabABA"), YWord(((2, 1),))),
        (COMMUTATOR * COMMUTATOR, YWord(((1, 2),))),
        (
            Word.parse("ab") * COMMUTATOR * Word.parse("BA") * COMMUTATOR,
            YWord(((3, 1), (1, 1))),  # idx(1,1) = 3
        ),
    ]
    for word, expected in cases:
        assert expand(expected) == word
        assert rewrite_to_y(word) == expected


def test_rewrite_rejects_outside_commutator():
    for text in ("a", "ab", "aab", "B"):
        with pytest.raises(ValueError, match="not in the commutator subgroup"):
            rewrite_to_y(Word.parse(text))
        with pytest.raises(ValueError, match="not in the commutator subgroup"):
            depth(Word.parse(text))


@pytest.mark.parametrize("view", [rewrite_to_y, depth])
def test_outside_commutator_is_refused_before_the_rewrite(view):
    # b^1000 a^1000 rewrites into 10^6 syllables before its walk ends away
    # from the origin; the kernel refuses it from its abelianization first
    w = Word.parse("b" * 1000 + "a" * 1000)
    started = time.perf_counter()
    with pytest.raises(ValueError, match=r"^word has abelianization \(1000, 1000\); "
                                         r"not in the commutator subgroup$"):
        view(w)
    assert time.perf_counter() - started < 0.01


def test_shifted_depth_refuses_outside_commutator_before_the_rewrite(monkeypatch):
    # the coset-start rewrite of b^1000 a^1000 would emit 10^6 points first
    def rewrite(w, q0):
        raise AssertionError("the rewrite ran")

    monkeypatch.setattr(kernels, "_rewrite_points", rewrite)
    with pytest.raises(ValueError, match=r"^word has abelianization \(1000, 1000\); "
                                         r"not in the commutator subgroup$"):
        kernels.shifted_depth(Word.parse("b" * 1000 + "a" * 1000).letters, 0, 1)


def test_phi_examples():
    v = YWord(((3, 1), (1, 1), (3, -1)))
    assert phi_k(v, 2) == y(1)
    assert phi_k(v, 1) == YWord()
    assert phi_k(YWord(((3, 1), (1, 1), (3, -1), (1, -1))), 3) == YWord()
    assert phi_k(YWord(((3, 1), (1, 1), (3, -1), (1, -1))), 4) != YWord()


def test_depth_examples_with_phi_oracle():
    assert depth(IDENTITY) == math.inf
    word = expand(YWord(((3, 1), (1, 1), (3, -1), (1, -1))))
    for w, want in ((COMMUTATOR, 1), (word, 3)):
        got = depth(w)
        assert got == want
        v = rewrite_to_y(w)
        # oracle: the retraction at the depth kills the word, one past it does not
        assert phi_k(v, got).is_identity()
        assert not phi_k(v, got + 1).is_identity()


def test_in_gamma_examples():
    assert in_gamma(COMMUTATOR, 1) is True
    assert in_gamma(COMMUTATOR, 2) is False
    assert in_gamma(IDENTITY, 10**6) is True
    assert in_gamma(Word.parse("a"), 1) is False


def test_round_trip_bulk_10k():
    rng = random.Random(2024)
    for _ in range(10000):
        v = random_yword(rng)
        w = expand(v)
        assert rewrite_to_y(w) == v
        assert expand(rewrite_to_y(w)) == w


@settings(max_examples=150)
@given(yword_st)
def test_round_trip_hypothesis(v):
    assert rewrite_to_y(expand(v)) == v


def test_chain_monotonicity():
    rng = random.Random(55)
    for _ in range(300):
        w = expand(random_yword(rng, max_syllables=6, max_index=12))
        for k in range(1, 14):
            if in_gamma(w, k + 1):
                assert in_gamma(w, k)


def test_conjugation_depth_law():
    rng = random.Random(911)
    for _ in range(400):
        c = expand(random_yword(rng, max_syllables=5, max_index=20))
        j = rng.randint(1, 30)
        assert depth(conjugate(c, expand(y(j)))) == j
        # powers keep the depth of the base
        m = rng.choice((-2, 2, 3))
        assert depth(conjugate(c, expand(y(j, m)))) == j


def test_phi_is_retraction_and_homomorphism():
    rng = random.Random(4242)
    for _ in range(500):
        u = random_yword(rng, max_syllables=8, max_index=15)
        v = random_yword(rng, max_syllables=8, max_index=15)
        k = rng.randint(1, 16)
        assert phi_k(phi_k(u, k), k) == phi_k(u, k)
        assert phi_k(u * v, k) == phi_k(u, k) * phi_k(v, k)


def test_depth_bounded_by_max_index():
    rng = random.Random(77)
    for _ in range(500):
        v = random_yword(rng, max_syllables=8, max_index=25)
        if v.is_identity():
            continue
        assert 1 <= depth(expand(v)) <= 1 + max(i for i, _ in v.syllables)


def test_yword_normal_form_invariants():
    v = YWord(((3, 2), (3, -2), (5, 1)))
    assert v == y(5)
    u = YWord(((2, 1), (2, 1), (7, -1)))
    assert u.syllables == ((2, 2), (7, -1))
    for s, t in zip(u.syllables, u.syllables[1:]):
        assert s[0] != t[0]
    assert all(e != 0 for _, e in u.syllables)
    with pytest.raises(ValueError):
        YWord(((0, 1),))


def test_yword_format():
    assert str(YWord(((3, 2), (1, -1)))) == "y3^2 y1^-1"
    assert str(YWord()) == ""
    assert str(y(4)) == "y4"


def test_yword_group_ops():
    u = YWord(((3, 1), (1, 2)))
    assert (u * u.inverse()).is_identity()
    assert u.inverse().syllables == ((1, -2), (3, -1))
    assert expand(u.inverse()) == expand(u).inverse()


def test_rewrite_of_random_commutator_words():
    rng = random.Random(31337)
    for _ in range(300):
        w = random_commutator_word(rng, 24)
        assert expand(rewrite_to_y(w)) == w


def test_rewrite_length_counts_the_emitted_syllables(monkeypatch):
    # the rewrite hands its whole emission to one free reduction
    emitted = []

    def reduce(sylls, limit=None, _fn=kernels.reduce_syllables):
        emitted.append(len(sylls))
        return _fn(sylls, limit)

    monkeypatch.setattr(kernels, "reduce_syllables", reduce)
    rng = random.Random(3)
    words = commutator_pool(6) + [random_commutator_word(rng, 40) for _ in range(50)]
    words += [Word.parse("a" * 300 + "abAB" + "A" * 300),
              Word.parse(("a" * 20 + "b" * 20 + "A" * 20 + "B" * 20) * 4)]
    for w in words:
        emitted.clear()
        kernels.rewrite_syllables(w.letters)
        assert emitted == [kernels.rewrite_length(w.letters)], str(w)
    assert kernels.rewrite_length(words[-2].letters) == 1
    assert kernels.rewrite_length(words[-1].letters) == 1600
    assert kernels.rewrite_length(Word.parse("b" * 7 + "a" * 9 + "B" * 7 + "A" * 9).letters) == 63
