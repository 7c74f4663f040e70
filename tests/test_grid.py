import pytest

from irslab import _purekernels as kernels
from irslab.grid import (
    GridPoint,
    coset,
    idx,
    point,
    ring_start,
    transversal_word,
    transversal_word_at,
)
from irslab.words import Word


def test_idx_examples():
    assert idx((0, 0)) == 1
    assert idx((1, 0)) == 2
    assert idx((1, 1)) == 3
    assert idx((0, 1)) == 4
    assert idx((-1, 0)) == 6
    assert idx((0, -1)) == 8


def test_point_examples():
    assert point(1) == GridPoint(0, 0)
    assert point(5) == GridPoint(-1, 1)
    assert point(10) == GridPoint(2, 0)
    with pytest.raises(ValueError):
        point(0)


def test_transversal_word_examples():
    assert transversal_word((0, 0)) == Word.parse("")
    assert transversal_word((2, -1)) == Word.parse("aaB")
    assert transversal_word((-1, 1)) == Word.parse("Ab")
    assert transversal_word_at(2) == Word.parse("a")


def test_coset_matches_abelianization():
    for text in ("", "abAB", "aaB", "Abba", "BBBa"):
        w = Word.parse(text)
        assert coset(w) == GridPoint(*w.abelianization())


def test_round_trip_exhaustive_rings_up_to_20():
    for i in range(1, (2 * 20 + 1) ** 2 + 1):
        assert idx(point(i)) == i
    for p in range(-20, 21):
        for q in range(-20, 21):
            assert point(idx((p, q))) == GridPoint(p, q)


def test_spiral_round_trip_on_ring_2_pow_22():
    big = 1 << 22
    for p, q in ((big, 0), (big, -big)):
        j = kernels.spiral_index(p, q)
        assert kernels.ring_start(big) <= j < kernels.ring_start(big + 1)
        assert kernels.spiral_point(j) == (p, q)
        assert kernels.spiral_ring(j) == big


def test_negation_is_ring_preserving_involution():
    for i in range(1, 10001):
        x = point(i)
        j = idx(-x)
        assert j >= 1
        assert (-x).ring == x.ring
        assert ring_start(x.ring) <= j < ring_start(x.ring + 1)
        assert idx(-point(j)) == i


def test_ring_partition_up_to_100():
    # ring 0 is the origin alone, and ring l >= 1 holds 8l points
    assert ring_start(0) == 1 and ring_start(1) == 2
    for l in range(1, 101):
        assert ring_start(l) == (2 * l - 1) ** 2 + 1
        assert ring_start(l) + 8 * l == ring_start(l + 1)
        assert kernels.spiral_ring(ring_start(l)) == l
        assert kernels.spiral_ring(ring_start(l) - 1) == l - 1
    # every index sits on the ring its start interval says it does
    for i in range(1, 2000):
        l = point(i).ring
        assert ring_start(l) <= i < ring_start(l + 1)
        assert kernels.spiral_ring(i) == l


def test_index_growth_bound():
    # idx(x) >= (2 max(|p|,|q|) - 1)^2 + 1, the bound the tails rely on
    for i in range(1, 5000):
        x = point(i)
        assert i >= ring_start(x.ring)


def test_gridpoint_format():
    assert str(GridPoint(-2, 7)) == "-2,7"
    assert str(GridPoint(3, -4)) == "3,-4"
