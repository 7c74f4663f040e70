"""The free-product structure of the commutator subgroup.

The commutator subgroup of F2 is free on the conjugates
y_i = t_i [a,b] t_i^-1 of the commutator by the grid transversal.  A
YWord is a word in that basis in normal form: a sequence of
(index, exponent) syllables with adjacent indices distinct and exponents
nonzero.

phi_k is the retraction killing every y_i with i >= k; its kernels form
the descending subgroup chain the measures live on, and depth(w) is the
largest k whose retraction still kills w.
"""

from __future__ import annotations

import math
from typing import Iterable, Tuple

from irslab._backend import kernels
from irslab.words import Word


Syllable = Tuple[int, int]


class YWord:
    """Normal form in the conjugate basis: ((index, exponent), ...)."""

    __slots__ = ("_syllables",)

    def __init__(self, syllables: Iterable[Syllable] = ()):
        sylls = []
        for i, e in syllables:
            if i < 1:
                raise ValueError("syllable index must be >= 1, got %r" % (i,))
            e = int(e)
            if e:
                sylls.append((int(i), e))
        self._syllables = tuple(kernels.reduce_syllables(sylls))

    @classmethod
    def _raw(cls, normalized: tuple) -> "YWord":
        v = object.__new__(cls)
        v._syllables = normalized
        return v

    @property
    def syllables(self) -> tuple:
        return self._syllables

    def is_identity(self) -> bool:
        return not self._syllables

    def inverse(self) -> "YWord":
        return YWord._raw(tuple((i, -e) for i, e in reversed(self._syllables)))

    def __mul__(self, other: "YWord") -> "YWord":
        return YWord._raw(
            tuple(kernels.reduce_syllables(self._syllables + other._syllables))
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, YWord) and self._syllables == other._syllables

    def __hash__(self) -> int:
        return hash(self._syllables)

    def __len__(self) -> int:
        return len(self._syllables)

    def __str__(self) -> str:
        return " ".join(
            "y%d" % i if e == 1 else "y%d^%d" % (i, e) for i, e in self._syllables
        )

    def __repr__(self) -> str:
        return "YWord(%r)" % (str(self),)


def y(i: int, e: int = 1) -> YWord:
    """The basis element y_i (or a power of it)."""
    return YWord(((i, e),))


def expand(v: YWord) -> Word:
    """Substitute y_i -> t_i [a,b] t_i^-1 and reduce."""
    return Word._raw(kernels.expand_syllables(v.syllables))


def rewrite_to_y(w: Word) -> YWord:
    """Normal form of a commutator-subgroup word in the conjugate basis.

    The round trip expand(rewrite_to_y(w)) == w is the correctness
    contract.  The kernel refuses a word outside the commutator subgroup
    with a ValueError.
    """
    return YWord._raw(kernels.rewrite_syllables(w.letters))


def phi_k(v: YWord, k: int) -> YWord:
    """Retraction killing all syllables with index >= k."""
    if k < 1:
        raise ValueError("retraction level must be >= 1, got %r" % (k,))
    return YWord._raw(tuple(kernels.reduce_syllables(v.syllables, k)))


def depth(w: Word):
    """Largest k whose retraction kills w; math.inf for the identity.  The
    kernel refuses a word outside the commutator subgroup."""
    if not w.letters:
        return math.inf
    return kernels.depth_syllables(kernels.rewrite_syllables(w.letters))
