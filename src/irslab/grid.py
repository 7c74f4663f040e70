"""The transversal grid: Z^2 cosets of the commutator subgroup.

The coset of a word under abelianization is a point (p, q); the coset
representative is a^p b^q.  A fixed square-spiral enumeration assigns
index 1 to the origin and walks each ring l >= 1 starting at (l, 0),
counterclockwise, covering its 8l points with indices
(2l-1)^2 + 1 .. (2l+1)^2.  Negation maps each ring to itself, so x -> -x
permutes the indices within every ring.
"""

from __future__ import annotations

from typing import NamedTuple

from irslab._backend import kernels
from irslab.words import Word


class GridPoint(NamedTuple):
    p: int
    q: int

    def __neg__(self) -> "GridPoint":
        return GridPoint(-self.p, -self.q)

    @property
    def ring(self) -> int:
        return max(abs(self.p), abs(self.q))

    def __str__(self) -> str:
        return "%d,%d" % (self.p, self.q)


def idx(x) -> int:
    """Spiral index of a grid point; bijective with point()."""
    p, q = x
    return kernels.spiral_index(p, q)


def point(i: int) -> GridPoint:
    """Grid point at spiral index i >= 1."""
    if i < 1:
        raise ValueError("transversal index must be >= 1, got %r" % (i,))
    return GridPoint(*kernels.spiral_point(i))


def ring_start(l: int) -> int:
    """Smallest spiral index on ring l: every point x on ring l has
    idx(x) >= ring_start(l) = (2l-1)^2 + 1 (and ring_start(0) = 1).

    This lower bound drives the certified tails of the infinite products.
    """
    return kernels.ring_start(l)


def transversal_word(x) -> Word:
    """The coset representative a^p b^q as a reduced word."""
    p, q = x
    return Word._raw(kernels.transversal_letters(p, q))


def transversal_word_at(i: int) -> Word:
    return transversal_word(point(i))


def coset(w: Word) -> GridPoint:
    """Projection of a word to its coset in the grid."""
    return GridPoint(*w.abelianization())
