"""Reduced words in the free group on a and b.

Words are immutable and always stored freely reduced.  The serialized
form is an ASCII string over {a, b, A, B} with A = a^-1, B = b^-1 and the
empty string denoting the identity.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from irslab._backend import kernels


_CHAR_TO_LETTER = {"a": 1, "A": -1, "b": 2, "B": -2}
_LETTER_TO_CHAR = {1: "a", -1: "A", 2: "b", -2: "B"}


class Word:
    """A freely reduced word; the identity is the empty word."""

    __slots__ = ("_letters",)

    def __init__(self, letters: Iterable[int] = ()):
        letters = tuple(letters)
        for x in letters:
            if x not in (1, -1, 2, -2):
                raise ValueError("invalid letter code %r" % (x,))
        self._letters = kernels.free_reduce(letters)

    @classmethod
    def _raw(cls, reduced: tuple) -> "Word":
        w = object.__new__(cls)
        w._letters = reduced
        return w

    @classmethod
    def parse(cls, text: str) -> "Word":
        try:
            letters = tuple(_CHAR_TO_LETTER[c] for c in text)
        except KeyError as exc:
            raise ValueError(
                "invalid word %r: letters must be among a, b, A, B" % (text,)
            ) from exc
        return cls._raw(kernels.free_reduce(letters))

    @property
    def letters(self) -> tuple:
        return self._letters

    def is_identity(self) -> bool:
        return not self._letters

    def inverse(self) -> "Word":
        return Word._raw(kernels.inv_word(self._letters))

    def abelianization(self) -> tuple:
        return kernels.abelianize(self._letters)

    def __mul__(self, other: "Word") -> "Word":
        return Word._raw(kernels.mul_words(self._letters, other._letters))

    def __pow__(self, n: int) -> "Word":
        if n == 0:
            return IDENTITY
        base = self._letters if n > 0 else kernels.inv_word(self._letters)
        out = base
        for _ in range(abs(n) - 1):
            out = kernels.mul_words(out, base)
        return Word._raw(out)

    def __len__(self) -> int:
        return len(self._letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self._letters)

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self._letters == other._letters

    def __hash__(self) -> int:
        return hash(self._letters)

    def __str__(self) -> str:
        return "".join(_LETTER_TO_CHAR[x] for x in self._letters)

    def __repr__(self) -> str:
        return "Word(%r)" % (str(self),)


IDENTITY = Word()
A = Word((1,))
B = Word((2,))
COMMUTATOR = Word((1, 2, -1, -2))  # [a,b] = a b a^-1 b^-1


def conjugate(g: Word, w: Word) -> Word:
    """g w g^-1."""
    return Word._raw(kernels.conj_word(g.letters, w.letters))


def commutator(u: Word, v: Word) -> Word:
    return u * v * u.inverse() * v.inverse()
