import pytest

from irslab import _purekernels as kernels
from irslab.grid import GridPoint, point, transversal_word_at
from irslab.words import Word


def test_idx_examples():
    assert kernels.spiral_index(0, 0) == 1
    assert kernels.spiral_index(1, 0) == 2
    assert kernels.spiral_index(1, 1) == 3
    assert kernels.spiral_index(0, 1) == 4
    assert kernels.spiral_index(-1, 0) == 6
    assert kernels.spiral_index(0, -1) == 8


def test_point_examples():
    assert point(1) == GridPoint(0, 0)
    assert point(5) == GridPoint(-1, 1)
    assert point(10) == GridPoint(2, 0)
    with pytest.raises(ValueError):
        point(0)


def test_transversal_word_examples():
    assert Word(kernels.transversal_letters(0, 0)) == Word.parse("")
    assert Word(kernels.transversal_letters(2, -1)) == Word.parse("aaB")
    assert Word(kernels.transversal_letters(-1, 1)) == Word.parse("Ab")
    assert transversal_word_at(2) == Word.parse("a")
    assert transversal_word_at(9) == Word.parse("aB")


def test_round_trip_exhaustive_rings_up_to_20():
    for i in range(1, (2 * 20 + 1) ** 2 + 1):
        assert kernels.spiral_index(*point(i)) == i
    for p in range(-20, 21):
        for q in range(-20, 21):
            assert point(kernels.spiral_index(p, q)) == GridPoint(p, q)


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
        j = kernels.spiral_index(-x.p, -x.q)
        assert kernels.ring_start(x.ring) <= j < kernels.ring_start(x.ring + 1)
        assert point(j) == GridPoint(-x.p, -x.q)


def test_ring_partition_up_to_100():
    # ring 0 is the origin alone, and ring l >= 1 holds 8l points
    assert kernels.ring_start(0) == 1 and kernels.ring_start(1) == 2
    for l in range(1, 101):
        assert kernels.ring_start(l) == (2 * l - 1) ** 2 + 1
        assert kernels.ring_start(l) + 8 * l == kernels.ring_start(l + 1)
        assert kernels.spiral_ring(kernels.ring_start(l)) == l
        assert kernels.spiral_ring(kernels.ring_start(l) - 1) == l - 1
    # every index sits on the ring its start interval says it does
    for i in range(1, 2000):
        l = point(i).ring
        assert kernels.ring_start(l) <= i < kernels.ring_start(l + 1)
        assert kernels.spiral_ring(i) == l


def test_index_growth_bound():
    # spiral_index(x) >= (2 max(|p|,|q|) - 1)^2 + 1, the bound the tails rely on
    for i in range(1, 5000):
        x = point(i)
        assert i >= kernels.ring_start(x.ring)
