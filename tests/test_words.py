import random

import pytest
from hypothesis import given, strategies as st

from _helpers import (
    commutator_pool,
    iter_reduced,
    naive_free_reduce,
    random_reduced_letters,
    random_word,
)
from irslab.words import A, B, COMMUTATOR, IDENTITY, Word, commutator, conjugate

letters_st = st.lists(st.sampled_from([1, -1, 2, -2]), max_size=40)


def test_reduce_examples():
    assert Word([1, -1]) == IDENTITY
    assert Word([1, 2, -2, 1]) == Word.parse("aa")
    # already reduced, length 4
    assert Word([1, 2, -1, -2]) == Word.parse("abAB")
    assert len(Word([1, 2, -1, -2])) == 4


def test_multiply_examples():
    assert Word.parse("a") * Word.parse("A") == IDENTITY
    assert Word.parse("ab") * Word.parse("Ba") == Word.parse("aa")
    assert IDENTITY * Word.parse("bAb") == Word.parse("bAb")


def test_invert_examples():
    assert Word.parse("ab").inverse() == Word.parse("BA")
    assert IDENTITY.inverse() == IDENTITY
    assert Word.parse("abA").inverse() == Word.parse("aBA")


def test_conjugate_examples():
    assert conjugate(A, B) == Word.parse("abA")
    assert conjugate(Word.parse("bA"), IDENTITY) == IDENTITY
    assert conjugate(A, COMMUTATOR) == Word.parse("aabABA")


def test_abelianize_examples():
    assert COMMUTATOR.abelianization() == (0, 0)
    assert Word.parse("aaB").abelianization() == (2, -1)
    assert IDENTITY.abelianization() == (0, 0)


def test_parse_format_round_trip():
    for text in ("", "a", "abAB", "aaBBA", "bbbAA"):
        assert str(Word.parse(text)) == text
    with pytest.raises(ValueError):
        Word.parse("xyz")
    with pytest.raises(ValueError):
        Word((3,))


@given(letters_st)
def test_reduce_matches_naive_oracle(raw):
    assert Word(raw).letters == naive_free_reduce(raw)


@given(letters_st)
def test_reduce_is_idempotent_and_reduced(raw):
    w = Word(raw)
    assert Word(w.letters) == w
    assert all(w.letters[k] != -w.letters[k + 1] for k in range(len(w) - 1))


def test_group_laws_bulk():
    rng = random.Random(12345)
    for _ in range(10000):
        u = random_word(rng, 32)
        v = random_word(rng, 32)
        w = random_word(rng, 32)
        assert (u * v) * w == u * (v * w)
        assert u * u.inverse() == IDENTITY
        assert u.inverse() * u == IDENTITY
        assert u * IDENTITY == u and IDENTITY * u == u


def test_abelianize_is_homomorphism():
    rng = random.Random(777)
    for _ in range(2000):
        u = random_word(rng, 24)
        v = random_word(rng, 24)
        pu, qu = u.abelianization()
        pv, qv = v.abelianization()
        assert (u * v).abelianization() == (pu + pv, qu + qv)


def test_product_length_bound():
    rng = random.Random(31)
    for _ in range(2000):
        u = random_word(rng, 24)
        v = random_word(rng, 24)
        assert len(u * v) <= len(u) + len(v)


def test_powers_and_commutator():
    a, b = A, B
    assert commutator(a, b) == COMMUTATOR
    assert a**3 == Word.parse("aaa")
    assert a**-2 == Word.parse("AA")
    assert (a * b) ** 0 == IDENTITY
    rng = random.Random(5)
    raw = random_reduced_letters(rng, 9)
    w = Word(raw)
    assert w**2 == w * w and w**-1 == w.inverse()


def test_word_hash_eq():
    assert Word.parse("ab") == Word.parse("ab")
    assert hash(Word.parse("ab")) == hash(Word.parse("ab"))
    assert Word.parse("ab") != Word.parse("ba")
    assert len({Word.parse("ab"), Word.parse("ab"), Word.parse("ba")}) == 2


def test_commutator_words_unrank_the_pool():
    # seeded suites draw [F,F] words by position through CommutatorWords,
    # so every position must hold the word commutator_pool puts there
    from irslab.verify import CommutatorWords

    for max_len in range(9):
        pool = commutator_pool(max_len)
        words = CommutatorWords(max_len)
        assert len(words) == len(pool)
        assert [words[k] for k in range(len(pool))] == pool
        with pytest.raises(IndexError):
            words[len(pool)]


def test_iter_reduced_words_keeps_breadth_first_order():
    # suite_faithful lists its failures in this order, so the
    # prefix-and-tail enumeration must match the plain level-by-level one
    from irslab.verify import iter_reduced_words

    for max_len in (0, 1, 6, 7, 9):
        got = [w.letters for w in iter_reduced_words(max_len)]
        assert got == [w.letters for w in iter_reduced(max_len)]
