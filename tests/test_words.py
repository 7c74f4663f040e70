import random

import pytest
from hypothesis import given, strategies as st

from _helpers import (
    commutator_pool,
    faithful_report,
    iter_reduced,
    naive_free_reduce,
    random_reduced_letters,
    random_word,
)
from irslab.words import A, B, COMMUTATOR, IDENTITY, Word, conjugate

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


def test_parse_error_quotes_a_prefix_and_the_length():
    with pytest.raises(ValueError) as exc:
        Word.parse("c" * 10**5)
    assert str(exc.value) == (
        "invalid word %r... (100000 characters): letters must be among a, b, A, B" % ("c" * 40)
    )
    with pytest.raises(ValueError, match="^invalid word 'abc': "):
        Word.parse("abc")


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
    assert a * b * a.inverse() * b.inverse() == COMMUTATOR
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
        # iteration walks the same words in the same order, unranking none
        assert list(words) == pool
        with pytest.raises(IndexError):
            words[len(pool)]


@pytest.mark.parametrize("max_len", range(9))
def test_faithful_matches_the_all_words_report(max_len, monkeypatch):
    # suite_faithful judges only the [F,F] words and counts the rest in
    # closed form; the report must equal the one judging every word
    from irslab import verify
    from irslab.measures import CertifiedBool, kernel_contains
    from irslab.ywords import depth

    assert list(verify.CommutatorWords(max_len)) == commutator_pool(max_len)
    assert verify.suite_faithful(max_len) == faithful_report(max_len, kernel_contains)

    # a judge failing the [F,F] words of even depth: failures keep the
    # order of the all-words loop
    def judge(mu, w):
        if w.abelianization() == (0, 0) and depth(w) % 2 == 0:
            return CertifiedBool.UNKNOWN
        return kernel_contains(mu, w)

    monkeypatch.setattr(verify, "kernel_contains", judge)
    report = verify.suite_faithful(max_len)
    assert report == faithful_report(max_len, judge)
    assert (max_len < 4) == (not report["failures"])
