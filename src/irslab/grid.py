"""The transversal grid: Z^2 cosets of the commutator subgroup.

The coset of a word under abelianization is a point (p, q); the coset
representative is a^p b^q.  A fixed square-spiral enumeration assigns
index 1 to the origin and walks each ring l >= 1 starting at (l, 0),
counterclockwise, covering its 8l points with indices
(2l-1)^2 + 1 .. (2l+1)^2.  Negation maps each ring to itself, so
x -> -x permutes the indices within every ring.  The kernels compute the
index of a point (spiral_index), the point of an index (spiral_point) and
the rings (ring_start, spiral_ring); this module keeps the named point
and coset representative that the benchmark's sample check reads.
"""

from __future__ import annotations

from typing import NamedTuple

from irslab._backend import kernels
from irslab.words import Word


class GridPoint(NamedTuple):
    p: int
    q: int

    @property
    def ring(self) -> int:
        return max(abs(self.p), abs(self.q))


def point(i: int) -> GridPoint:
    """Grid point at spiral index i >= 1."""
    return GridPoint(*kernels.spiral_point(i))


def transversal_word_at(i: int) -> Word:
    """The coset representative a^p b^q of spiral index i, as a reduced word."""
    return Word._raw(kernels.transversal_letters(*point(i)))
