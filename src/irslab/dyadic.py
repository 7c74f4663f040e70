"""Exact dyadic rationals and certified interval enclosures.

Every probability handled by the engine is a certified enclosure
[lo, hi] whose endpoints are exact dyadics (numerator over a power of two,
kept in lowest terms) and which provably contains the true value; an
exactly known value is the enclosure with lo == hi.  Infinite products
are enclosed with the tail inequality

    prod_{i>I} (1 - x_i)  >=  1 - sum_{i>I} x_i,

which keeps every bound inside dyadic arithmetic; no floating point or
logarithms enter any certified quantity.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from itertools import chain
from typing import Callable, Iterable


# bits of an exact value's denominator, checked by env_prob before it builds
# one, and the exponent bound of a literal, so every value eval prints reads
# back.  Values print through Decimal, quadratic in the digits: one at this
# cap (19,737 characters) took 0.008 s, a depth-358,802 value of mu_F 0.34 s,
# and 10^MAX_EXACT_BITS builds in milliseconds where 1e-100000000 took minutes
MAX_EXACT_BITS = 1 << 16
# significant digits of a literal: as many as 2^MAX_EXACT_BITS has (19,729),
# so the num/2^exp form of every value in [-1, 1] within the exponent bound
# reads.  Decimal to int is quadratic in the digits (10^5 of them took 0.4 s
# and 10^6 took 37 s, 2-vCPU VM), so a longer literal is refused unconverted
MAX_LITERAL_DIGITS = int(MAX_EXACT_BITS * math.log10(2)) + 1

# an optionally signed decimal integer literal, as int() reads it
_INTEGER = re.compile(r"[+-]?[0-9](?:_?[0-9])*")


def quoted(value) -> str:
    """An input as an error message quotes it: the repr of a string, or of
    another JSON value's text, cut to 40 characters and its length."""
    text = value if isinstance(value, str) else json.dumps(value)
    return repr(text) if len(text) <= 40 else "%r... (%d characters)" % (text[:40], len(text))


def _short_decimal(d: Decimal) -> Decimal:
    """d, if it has at most MAX_LITERAL_DIGITS significant digits."""
    digits = len(d.as_tuple().digits)
    if digits > MAX_LITERAL_DIGITS:
        raise ValueError("a literal of %d significant digits exceeds the %d digits of 2^%d"
                         % (digits, MAX_LITERAL_DIGITS, MAX_EXACT_BITS))
    return d


def _decimal_integer(text: str) -> Decimal:
    """The integer an int() literal denotes, as a Decimal, which reads and
    compares in linear time."""
    text = text.strip()
    if not _INTEGER.fullmatch(text):
        raise ValueError("invalid integer %s" % (quoted(text),))
    return Decimal(text)


def _int_from_text(text: str) -> int:
    """The integer an int() literal denotes.  Decimal converts without the
    digit limit of int's own conversion (sys.get_int_max_str_digits)."""
    return int(_short_decimal(_decimal_integer(text)))


def _decimal_fraction(text: str) -> Fraction:
    """The value of a decimal literal, read once through Decimal.  A
    non-finite literal, one whose exponent lies outside +-MAX_EXACT_BITS,
    or one longer than MAX_LITERAL_DIGITS is rejected before any Fraction
    is built."""
    try:
        d = Decimal(text)
    except InvalidOperation:
        raise ValueError("invalid number %s" % (quoted(text),)) from None
    if not d.is_finite() or abs(d.as_tuple().exponent) > MAX_EXACT_BITS:
        raise ValueError(
            "%s is not a finite decimal with exponent in [-%d, %d]"
            % (quoted(text), MAX_EXACT_BITS, MAX_EXACT_BITS)
        )
    return Fraction(_short_decimal(d))


class NotDyadic(ValueError):
    """A well-formed number whose value is not dyadic; `value` holds it."""

    def __init__(self, text: str, value: Fraction):
        super().__init__("%s is not dyadic" % (quoted(text),))
        self.value = value


class Dyadic:
    """num / 2**exp in lowest terms (num odd, or exp == 0)."""

    __slots__ = ("num", "exp")

    def __init__(self, num: int, exp: int = 0):
        if exp < 0:
            num <<= -exp
            exp = 0
        if exp > 0 and not num & 1:
            # strip the trailing zero bits in one shift, at most exp of them
            shift = min((num & -num).bit_length() - 1, exp) if num else exp
            num >>= shift
            exp -= shift
        self.num = num
        self.exp = exp

    @classmethod
    def _raw(cls, num: int, exp: int) -> "Dyadic":
        d = object.__new__(cls)
        d.num = num
        d.exp = exp
        return d

    @classmethod
    def parse(cls, text: str) -> "Dyadic":
        """Accepts 'num/2^exp', 'p/q' whose value is dyadic, a decimal
        string with dyadic value, or a plain integer.  A well-formed value
        that is not dyadic raises NotDyadic; an exponent outside
        +-MAX_EXACT_BITS, or a literal of more than MAX_LITERAL_DIGITS
        significant digits, raises ValueError before any integer is built."""
        text = text.strip()
        if "/" in text:
            num_str, den_str = text.split("/", 1)
            num = _int_from_text(num_str)
            if den_str.startswith("2^"):
                exp = _decimal_integer(den_str[2:])
                if not -MAX_EXACT_BITS <= exp <= MAX_EXACT_BITS:
                    raise ValueError(
                        "%s is not num/2^exp with exponent in [-%d, %d]"
                        % (quoted(text), MAX_EXACT_BITS, MAX_EXACT_BITS)
                    )
                return cls(num, int(exp))
            den = _int_from_text(den_str)
            if den <= 0:
                raise ValueError("denominator of %s is not positive" % (quoted(text),))
            f = Fraction(num, den)
        elif "." in text or "e" in text or "E" in text:
            f = _decimal_fraction(text)
        else:
            return cls(_int_from_text(text))
        den = f.denominator
        if den & (den - 1):
            raise NotDyadic(text, f)
        return cls(f.numerator, den.bit_length() - 1)

    def is_zero(self) -> bool:
        return self.num == 0

    def as_fraction(self) -> Fraction:
        return Fraction(self.num, 1 << self.exp)

    def as_float(self) -> float:
        return float(self.as_fraction())

    def __add__(self, o: "Dyadic") -> "Dyadic":
        e = max(self.exp, o.exp)
        return Dyadic((self.num << (e - self.exp)) + (o.num << (e - o.exp)), e)

    def __sub__(self, o: "Dyadic") -> "Dyadic":
        e = max(self.exp, o.exp)
        return Dyadic((self.num << (e - self.exp)) - (o.num << (e - o.exp)), e)

    def __mul__(self, o: "Dyadic") -> "Dyadic":
        return Dyadic(self.num * o.num, self.exp + o.exp)

    def __neg__(self) -> "Dyadic":
        return Dyadic._raw(-self.num, self.exp)

    def __abs__(self) -> "Dyadic":
        return Dyadic._raw(abs(self.num), self.exp)

    def _cmp(self, o: "Dyadic") -> int:
        lhs = self.num << o.exp
        rhs = o.num << self.exp
        return (lhs > rhs) - (lhs < rhs)

    def __eq__(self, o) -> bool:
        return isinstance(o, Dyadic) and self.num == o.num and self.exp == o.exp

    def __lt__(self, o) -> bool:
        return self._cmp(o) < 0

    def __le__(self, o) -> bool:
        return self._cmp(o) <= 0

    def __gt__(self, o) -> bool:
        return self._cmp(o) > 0

    def __ge__(self, o) -> bool:
        return self._cmp(o) >= 0

    def __hash__(self) -> int:
        return hash(self.as_fraction())

    def __str__(self) -> str:
        # through Decimal, as in _int_from_text: no limit on the digits
        return "%s/2^%d" % (Decimal(self.num), self.exp)

    def __repr__(self) -> str:
        return "Dyadic(%s, %d)" % (Decimal(self.num), self.exp)

    def halve(self) -> "Dyadic":
        return Dyadic(self.num, self.exp + 1)


ZERO = Dyadic(0)
ONE = Dyadic(1)
HALF = Dyadic(1, 1)


def pow2(k: int) -> Dyadic:
    """2^-k."""
    return Dyadic(1, k)


def one_minus_pow2(k) -> Dyadic:
    """1 - 2^-k for k >= 1; math.inf maps to 1."""
    if k is math.inf:
        return ONE
    if k < 1:
        raise ValueError("exponent must be >= 1 or inf, got %r" % (k,))
    return Dyadic((1 << k) - 1, k)


def parse_target_width(text: str) -> Dyadic:
    """Width targets need not be dyadic; non-dyadic requests are tightened
    to the largest power of two below them."""
    try:
        width = Dyadic.parse(text)
    except NotDyadic as exc:
        f = exc.value
        if f <= 0:
            raise ValueError("target width must be positive") from None
        # the smallest k with 2^-k <= f, i.e. 2^k >= ceil(1 / f)
        return pow2((-(-f.denominator // f.numerator) - 1).bit_length())
    if width <= ZERO:
        raise ValueError("target width must be positive")
    return width


@dataclass(frozen=True)
class Interval:
    """Closed interval with dyadic endpoints; the true value lies inside."""

    lo: Dyadic
    hi: Dyadic

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("interval endpoints out of order")

    def width(self) -> Dyadic:
        return self.hi - self.lo

    def midpoint(self) -> Dyadic:
        return (self.lo + self.hi).halve()

    def contains(self, x) -> bool:
        if isinstance(x, Dyadic):
            return self.lo <= x <= self.hi
        f = Fraction(x)
        return self.lo.as_fraction() <= f <= self.hi.as_fraction()

    def intersects(self, other: "Interval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def __add__(self, o: "Interval") -> "Interval":
        return Interval(self.lo + o.lo, self.hi + o.hi)

    def __sub__(self, o: "Interval") -> "Interval":
        return Interval(self.lo - o.hi, self.hi - o.lo)

    def __mul__(self, o: "Interval") -> "Interval":
        if self.lo < ZERO or o.lo < ZERO:
            raise ValueError("interval product only defined for nonnegative intervals")
        return Interval(self.lo * o.lo, self.hi * o.hi)

    def abs(self) -> "Interval":
        if self.lo >= ZERO:
            return self
        if self.hi <= ZERO:
            return Interval(-self.hi, -self.lo)
        m = -self.lo
        return Interval(ZERO, m if m > self.hi else self.hi)

    def to_json(self) -> dict:
        return {
            "lo": str(self.lo),
            "hi": str(self.hi),
            "lo_approx": self.lo.as_float(),
            "hi_approx": self.hi.as_float(),
        }


@dataclass(frozen=True)
class Enclosure(Interval):
    """A certified interval enclosure of a probability.

    width_reached is False when a factor cap stopped refinement before the
    requested width; the enclosure is still sound.
    """

    width_reached: bool = True

    def is_exact(self) -> bool:
        return False

    def to_json(self) -> dict:
        d = super().to_json()
        d["width_reached"] = self.width_reached
        return d


class Exact(Enclosure):
    """An exactly known probability: the one-point enclosure [value, value]."""

    def __init__(self, value: Dyadic):
        super().__init__(value, value)

    @property
    def value(self) -> Dyadic:
        return self.lo

    def is_exact(self) -> bool:
        return True

    def to_json(self) -> dict:
        return {"exact": str(self.value), "approx": self.value.as_float()}


# factors a certified product may consume before it stops, flagged
DEFAULT_FACTOR_CAP = 10**6


def certified_product(
    factors: Iterable[Dyadic],
    tail_bound: Callable[[int], Dyadic],
    target_width: Dyadic,
    factor_cap: int = DEFAULT_FACTOR_CAP,
) -> Enclosure:
    """Enclose an infinite product of factors in [0, 1].

    tail_bound(I) must be a certified upper bound on
    sum_{i > I} (1 - factor_i), nonincreasing in I.  After I factors the
    product lies in [P_I * (1 - tail), P_I]; refinement continues until
    the width drops to target_width, the tail vanishes (exact value), or
    the factor cap binds (flagged, still sound).

    The returned endpoints are rounded outward to multiples of 2^-bits,
    bits = target_width.exp + 64, far below the target width, so reports
    stay compact.  P_I is carried as a bracket lo <= P_I <= hi, rounded
    outward to 64 more bits after each factor.  Every decision (the width
    test, the rounded endpoints, an exact value) is monotone in P_I and is
    taken from the bracket when both ends agree on it; when they do not,
    the loop reruns with exact partial products.  The result is therefore
    the one exact arithmetic gives (Ziv's rounding test).
    """
    bits = target_width.exp + 64
    it = iter(factors)
    seen = []
    value = _product(seen, it, tail_bound, target_width, factor_cap, bits, bits + 64)
    if value is None:
        # the stored factors first, so the caller's iterator is read once
        value = _product([], chain(seen, it), tail_bound, target_width, factor_cap, bits, None)
    return value


def _at_scale(num: int, exp: int, bits: int, up: bool) -> int:
    """num / 2^exp rounded down (up when `up`) to a multiple of 2^-bits,
    as the integer count of 2^-bits."""
    if exp <= bits:
        return num << (bits - exp)
    if up:
        return -((-num) >> (exp - bits))
    return num >> (exp - bits)


def _product(seen, it, tail_bound, target_width, factor_cap, bits, prec):
    """The refinement loop of certified_product over a bracket lo <= P <= hi
    of the partial product, rounded outward to 2^-prec (exact when prec is
    None).  Appends each factor it pulls to seen; returns None when the
    bracket's ends disagree on a decision.

    The bracket is two integers over one scale, P in [lo, hi] / 2^e.  Each
    product of an end with a factor is rounded to a multiple of 2^-prec:
    lo to its floor and hi to its ceiling.  Dyadics are built only for the
    result."""
    lo = hi = 1
    e = 0
    count = 0
    # the width test P * tb + 2^-(bits-1) <= target_width, in units of
    # 2^-(bits-1), is P * tb <= limit (bits - 1 > target_width.exp)
    limit = (target_width.num << (bits - 1 - target_width.exp)) - 1
    while True:
        tb = tail_bound(count)
        tn, te = tb.num, tb.exp
        if tn > 1 << te:
            tn, te = 1, 0
        if not tn:
            return Exact(Dyadic(lo, e)) if lo == hi else None
        # P * tb is (lo * tn) / 2^(e+te): compare at 2^-max(e + te, bits - 1)
        s = e + te - bits + 1
        up, bound = (-s, limit) if s < 0 else (0, limit << s)
        reached = (lo * tn) << up <= bound
        if reached and (hi * tn) << up > bound:
            return None
        if reached or count >= factor_cap or (f := next(it, None)) is None:
            # lo * (1 - tb) rounded down and hi rounded up, at 2^-bits
            kn = (1 << te) - tn
            lo_end = _at_scale(lo * kn, e + te, bits, False)
            hi_end = _at_scale(hi, e, bits, True)
            if (lo_end != _at_scale(hi * kn, e + te, bits, False)
                    or hi_end != _at_scale(lo, e, bits, True)):
                return None
            return Enclosure(Dyadic(lo_end, bits), Dyadic(hi_end, bits), reached)
        seen.append(f)
        fn, fe = f.num, f.exp
        if fn < 0 or fn > 1 << fe:
            raise ValueError("product factor %s outside [0, 1]" % (f,))
        if not fn:
            return Exact(ZERO)
        if fe:
            lo *= fn
            hi *= fn
            e += fe
            if prec is not None and e > prec:
                lo >>= e - prec
                hi = -((-hi) >> (e - prec))
                e = prec
        count += 1
