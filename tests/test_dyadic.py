import inspect
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from _helpers import (
    dst_constant_interval,
    dyadic_bracket_product,
    reference_certified_product,
    round_down,
    round_up,
)
from irslab import dyadic
from irslab.dyadic import (
    HALF,
    ONE,
    ZERO,
    Dyadic,
    Enclosure,
    Exact,
    Interval,
    NotDyadic,
    certified_product,
    one_minus_pow2,
    parse_target_width,
    pow2,
)

dyadic_st = st.builds(
    Dyadic,
    st.integers(min_value=-(2**40), max_value=2**40),
    st.integers(min_value=0, max_value=40),
)


def test_arithmetic_examples():
    assert Dyadic(1, 1) + Dyadic(1, 2) == Dyadic(3, 2)
    assert ONE - pow2(3) == Dyadic(7, 3)
    assert Dyadic(3, 2) * HALF == Dyadic(3, 3)


def test_normalization_lowest_terms():
    d = Dyadic(4, 3)
    assert (d.num, d.exp) == (1, 1)
    z = Dyadic(0, 9)
    assert (z.num, z.exp) == (0, 0)
    n = Dyadic(-6, 4)
    assert (n.num, n.exp) == (-3, 3)
    e = Dyadic(5, -2)  # negative exponent folds into the numerator
    assert (e.num, e.exp) == (20, 0)
    # more trailing zeros than the exponent: only exp of them are stripped
    m = Dyadic(3 << 10, 4)
    assert (m.num, m.exp) == (3 << 6, 0)
    neg = Dyadic(-(5 << 7), 3)
    assert (neg.num, neg.exp) == (-(5 << 4), 0)
    # a 5000-bit numerator with 1200 trailing zeros
    odd = (1 << 3799) + 1
    big = Dyadic(odd << 1200, 2000)
    assert (big.num, big.exp) == (odd, 800)
    assert big.as_fraction() == Fraction(odd << 1200, 1 << 2000)
    huge = Dyadic(odd << 1200, 700)
    assert (huge.num, huge.exp) == (odd << 500, 0)


@given(dyadic_st, dyadic_st)
def test_ops_match_fractions(a, b):
    fa, fb = a.as_fraction(), b.as_fraction()
    assert (a + b).as_fraction() == fa + fb
    assert (a - b).as_fraction() == fa - fb
    assert (a * b).as_fraction() == fa * fb
    assert (a < b) == (fa < fb)
    assert (a <= b) == (fa <= fb)
    assert (a == b) == (fa == fb)


def test_parse_and_format():
    assert Dyadic.parse("3/2^2") == Dyadic(3, 2)
    assert Dyadic.parse("1/8") == pow2(3)
    assert Dyadic.parse("0.375") == Dyadic(3, 3)
    assert Dyadic.parse("-5") == Dyadic(-5)
    assert str(Dyadic(3, 2)) == "3/2^2"
    assert Dyadic.parse(str(Dyadic(-7, 5))) == Dyadic(-7, 5)
    with pytest.raises(ValueError):
        Dyadic.parse("1/3")
    with pytest.raises(ValueError):
        Dyadic.parse("0.1")
    # p/q is read by its value, so a non-reduced dyadic quotient parses
    assert Dyadic.parse("3/6") == HALF
    with pytest.raises(ValueError, match="not positive"):
        Dyadic.parse("1/0")
    # the power-of-two exponent bound is inclusive on both sides
    assert Dyadic.parse("1/2^65536") == Dyadic(1, 65536)
    assert Dyadic.parse("1/2^-65536") == Dyadic(1 << 65536)


@pytest.mark.parametrize("text", ["1e-65537", "1e65537", "1e-100000000", "0.5e-99999999",
                                  "1/2^65537", "1/2^-65537",
                                  pytest.param("1/2^" + "9" * 10**6, id="1/2^(10^6 nines)")])
def test_parse_rejects_decimal_exponents_beyond_the_cap(text):
    with pytest.raises(ValueError, match="exponent"):
        Dyadic.parse(text)
    with pytest.raises(ValueError, match="exponent"):
        parse_target_width(text)


def test_parse_caps_significant_digits_at_those_of_the_largest_power():
    # 2^65536 has 19,729 digits: that many read, one more is refused
    assert dyadic.MAX_LITERAL_DIGITS == 19729
    top = "9" * 19729
    assert Dyadic.parse(top + "/2^65536") == Dyadic(10**19729 - 1, 65536)
    assert Dyadic.parse("-" + top) == Dyadic(1 - 10**19729)
    assert Dyadic.parse("0" * 30000 + "1/2^3") == Dyadic(1, 3)
    for text in ("9" + top + "/2^65536", "1/" + "1" + top, "1" + top, "0." + top + "1e1000"):
        with pytest.raises(ValueError, match="19730 significant digits"):
            Dyadic.parse(text)


def test_not_dyadic_carries_the_text_and_the_value():
    with pytest.raises(NotDyadic) as exc:
        Dyadic.parse(" 0.1 ")
    assert str(exc.value) == "'0.1' is not dyadic"
    assert exc.value.value == Fraction(1, 10)
    # at the exponent cap the value is still built, and tightened as a width
    assert parse_target_width("1e-65536") == pow2(217706)


def test_rounding():
    d = Dyadic(5, 4)  # 0.3125
    assert round_down(d, 2) == Dyadic(1, 2)
    assert round_up(d, 2) == Dyadic(2, 2)
    assert round_down(d, 8) == d
    neg = Dyadic(-5, 4)
    assert round_down(neg, 2) == Dyadic(-2, 2)
    assert round_up(neg, 2) == Dyadic(-1, 2)


def test_one_minus_pow2():
    assert one_minus_pow2(1) == HALF
    assert one_minus_pow2(3) == Dyadic(7, 3)
    assert one_minus_pow2(math.inf) == ONE
    with pytest.raises(ValueError):
        one_minus_pow2(0)


def test_parse_target_width():
    assert parse_target_width("1/2^10") == pow2(10)
    assert parse_target_width("1e-6") == pow2(20)
    assert parse_target_width("1e-6").as_fraction() <= Fraction(1, 10**6)
    with pytest.raises(ValueError):
        parse_target_width("0")


def test_certified_product_short_circuits():
    ones = itertools.repeat(ONE)
    v = certified_product(ones, lambda n: ZERO, pow2(20))
    assert v == Exact(ONE)

    def factors_with_zero():
        yield HALF
        yield ZERO
        yield HALF

    v = certified_product(factors_with_zero(), lambda n: ONE, pow2(20))
    assert v == Exact(ZERO)


def test_certified_product_dst_constant():
    # oracle: forty exact factors plus the tail inequality
    lo_ref, hi_ref = dst_constant_interval()
    assert Fraction("0.288788094") <= lo_ref <= hi_ref <= Fraction("0.288788096")

    def factors():
        j = 1
        while True:
            yield one_minus_pow2(j)
            j += 1

    v = certified_product(factors(), lambda n: pow2(n), parse_target_width("1e-9"))
    assert isinstance(v, Enclosure) and not v.is_exact() and v.width_reached
    assert v.width().as_fraction() <= Fraction(1, 10**9)
    # the enclosure and the oracle interval must overlap ...
    assert v.lo.as_fraction() <= hi_ref and lo_ref <= v.hi.as_fraction()
    # ... and the enclosure sits inside the stated digits
    assert Fraction("0.288788094") <= v.lo.as_fraction()
    assert v.hi.as_fraction() <= Fraction("0.288788096")
    assert v.contains(Fraction("0.2887880951"))


def test_certified_product_finite_tail_soundness():
    # finitely many non-1 factors: tail vanishes, result is exact
    facts = [Dyadic(3, 2), Dyadic(7, 3), ONE, ONE]

    def tail(n):
        return ZERO if n >= 2 else ONE

    v = certified_product(iter(facts), tail, pow2(30))
    assert v == Exact(Dyadic(21, 5))


def test_certified_product_monotone_refinement():
    def make():
        def factors():
            j = 1
            while True:
                yield one_minus_pow2(j)
                j += 1

        return factors()

    coarse = certified_product(make(), lambda n: pow2(n), pow2(8))
    mid = certified_product(make(), lambda n: pow2(n), pow2(16))
    fine = certified_product(make(), lambda n: pow2(n), pow2(28))
    assert coarse.lo <= mid.lo <= fine.lo
    assert fine.hi <= mid.hi <= coarse.hi
    assert fine.width() <= mid.width() <= coarse.width()


def test_certified_product_factor_cap_flag():
    def factors():
        j = 1
        while True:
            yield one_minus_pow2(j)
            j += 1

    v = certified_product(factors(), lambda n: pow2(n), pow2(40), factor_cap=5)
    assert isinstance(v, Enclosure) and not v.is_exact()
    assert not v.width_reached
    assert v.lo <= v.hi
    # still sound
    lo_ref, hi_ref = dst_constant_interval()
    assert v.lo.as_fraction() <= lo_ref and hi_ref <= v.hi.as_fraction()


def test_factor_cap_default_is_stated_once():
    from irslab import cli, measures

    cap = dyadic.DEFAULT_FACTOR_CAP
    assert inspect.signature(certified_product).parameters["factor_cap"].default == cap
    assert inspect.signature(measures.env_prob).parameters["factor_cap"].default == cap
    assert measures.DEFAULT_FACTOR_CAP is cap
    assert cli.build_parser().parse_args(["eval"]).factor_cap == cap


def test_certified_product_rejects_bad_factors():
    with pytest.raises(ValueError):
        certified_product(iter([Dyadic(3, 1)]), lambda n: ONE, pow2(4))


def _random_factor(rng: random.Random, kind: str) -> Dyadic:
    roll = rng.random()
    if roll < 0.05:
        return ONE
    if roll < 0.07:
        return ZERO
    if kind == "chain":
        return one_minus_pow2(rng.randint(1, 400))
    if kind == "family":
        # parametrized-family CDF values: a at level 1, 3/4 at level 2
        return rng.choice([Dyadic(rng.randint(1, 15), 4), Dyadic(3, 2),
                           one_minus_pow2(rng.randint(3, 400))])
    e = rng.randint(0, 400)
    return Dyadic(rng.randint(0, 1 << e), e)


def _random_tail(rng: random.Random):
    m = rng.randint(0, 40)
    k = rng.randint(1, 8)
    return rng.choice([
        lambda n: pow2(n),
        lambda n: pow2(k * n),
        lambda n: ZERO if n >= m else ONE,
        lambda n: ZERO if n >= m else pow2(n),
        lambda n: Dyadic(3) if n < m else pow2(k * n),  # clamped to one
    ])


def test_certified_product_matches_exact_loop():
    rng = random.Random(20260)
    for case in range(600):
        kind = ("chain", "family", "arbitrary")[case % 3]
        factors = [_random_factor(rng, kind) for _ in range(rng.randint(0, 60))]
        tail = _random_tail(rng)
        width = rng.choice([pow2(rng.randint(0, 128)), Dyadic(rng.randint(1, 7), rng.randint(3, 100))])
        cap = rng.choice([1, 5, 10**6])
        got = certified_product(iter(factors), tail, width, cap)
        assert got == reference_certified_product(iter(factors), tail, width, cap), case


def test_fixed_point_bracket_matches_the_dyadic_bracket():
    """_product's integer bracket takes every decision the Dyadic bracket
    rounded by the round_down/round_up oracles takes, at precisions far below the
    factors' exponents as well as at certified_product's own."""
    rng = random.Random(14)
    outcomes = set()
    for case in range(1500):
        kind = ("chain", "family", "arbitrary")[case % 3]
        factors = [_random_factor(rng, kind) for _ in range(rng.randint(0, 60))]
        tail = _random_tail(rng)
        width = rng.choice([pow2(rng.randint(0, 128)), Dyadic(rng.randint(1, 7), rng.randint(3, 100))])
        cap = rng.choice([1, 5, 10**6])
        bits = width.exp + 64
        prec = rng.choice([None, bits + 64, rng.randint(1, 16), rng.randint(1, bits + 64)])
        got_seen, ref_seen = [], []
        got = dyadic._product(got_seen, iter(factors), tail, width, cap, bits, prec)
        ref = dyadic_bracket_product(ref_seen, iter(factors), tail, width, cap, bits, prec)
        assert got == ref, (case, prec)
        assert got_seen == ref_seen, case
        outcomes.add(type(got).__name__)
    assert outcomes == {"Exact", "Enclosure", "NoneType"}


def test_fixed_point_bracket_is_the_rounded_product():
    """With the tail cut after the stream, _product returns Exact exactly
    when both ends of its bracket agree; at a precision above every partial
    product's exponent they agree on the exact product."""
    rng = random.Random(41)
    for case in range(300):
        factors = [_random_factor(rng, ("chain", "family")[case % 2]) for _ in range(rng.randint(0, 12))]
        exact = ONE
        for f in factors:
            exact = exact * f
        n = len(factors)

        def tail(count):
            return ZERO if count >= n else ONE

        for prec in (4, 64, 5000):
            got = dyadic._product([], iter(factors), tail, pow2(20), 10**6, 84, prec)
            ref = dyadic_bracket_product([], iter(factors), tail, pow2(20), 10**6, 84, prec)
            assert got == ref, (case, prec)
        if exact.exp <= 5000 or exact.is_zero():
            assert dyadic._product([], iter(factors), tail, pow2(20), 10**6, 84, 5000) == Exact(exact)


# At width 2^-20 the report rounds to 2^-84 and the bracket to 2^-148.  Each
# stream puts the exact partial product a sub-ulp of the bracket away from a
# point where a decision changes: the Exact value (tail vanishes), the
# rounded endpoints (both, and the lower one alone), and the width test.
NEAR_TIES = {
    "exact": ([ONE - pow2(300)], lambda n: ONE if n == 0 else ZERO),
    "endpoints": ([HALF + pow2(84 + 70)], lambda n: ONE if n == 0 else pow2(200)),
    "lower_endpoint": ([HALF + pow2(148) + pow2(160)], lambda n: ONE if n == 0 else pow2(147)),
    "width": (
        [HALF + pow2(160)],
        lambda n: ONE if n == 0 else (pow2(19) - pow2(82) if n == 1 else pow2(200)),
    ),
}


class _CountedIter:
    def __init__(self, items):
        self._it = iter(items)
        self.pulled = 0

    def __iter__(self):
        return self

    def __next__(self):
        item = next(self._it)
        self.pulled += 1
        return item


@pytest.mark.parametrize("name", sorted(NEAR_TIES))
def test_certified_product_near_tie_reruns_exactly(name, monkeypatch):
    factors, tail = NEAR_TIES[name]
    precs = []
    bracket_loop = dyadic._product

    def spy(seen, it, tail_bound, target_width, factor_cap, bits, prec):
        precs.append(prec)
        return bracket_loop(seen, it, tail_bound, target_width, factor_cap, bits, prec)

    monkeypatch.setattr(dyadic, "_product", spy)
    # an endless stream after the tie: the caller's iterator must be
    # advanced exactly as often as the exact loop advances it
    got_it = _CountedIter(itertools.chain(factors, itertools.repeat(HALF)))
    ref_it = _CountedIter(itertools.chain(factors, itertools.repeat(HALF)))
    got = certified_product(got_it, tail, pow2(20))
    assert got == reference_certified_product(ref_it, tail, pow2(20))
    assert precs == [148, None]
    assert got_it.pulled == ref_it.pulled
    if name == "width":
        # the exact loop continues past the tie, so the rerun reads the
        # stored factor and then pulls a new one from the caller
        assert ref_it.pulled == 2


def test_interval_ops():
    i1 = Interval(Dyadic(1, 2), Dyadic(1, 1))
    i2 = Interval(Dyadic(1, 3), Dyadic(1, 2))
    assert (i1 + i2).lo == Dyadic(3, 3)
    assert (i1 - i2).lo == ZERO
    assert (i1 * i2).hi == Dyadic(1, 3)
    assert i1.intersects(i2)
    assert not Interval(ZERO, pow2(4)).intersects(Interval(HALF, ONE))
    assert Interval(Dyadic(-1, 1), pow2(2)).abs() == Interval(ZERO, HALF)
    assert Interval(Dyadic(-3, 2), Dyadic(-1, 2)).abs() == Interval(Dyadic(1, 2), Dyadic(3, 2))
    with pytest.raises(ValueError):
        Interval(ONE, ZERO)


def test_probability_value_json():
    e = Exact(Dyadic(3, 2))
    assert e.to_json() == {"exact": "3/2^2", "approx": 0.75}
    enc = Enclosure(Dyadic(1, 2), Dyadic(3, 2), False)
    assert enc.to_json() == {
        "lo": "1/2^2",
        "hi": "3/2^2",
        "lo_approx": 0.25,
        "hi_approx": 0.75,
        "width_reached": False,
    }
    assert enc.midpoint() == HALF
    assert enc.width() == HALF


def test_exact_is_the_one_point_enclosure():
    x = Dyadic(3, 2)
    e = Exact(x)
    assert isinstance(e, Enclosure) and e.is_exact() and e.width_reached
    assert (e.lo, e.hi, e.value) == (x, x, x)
    assert e.width() == ZERO and e.midpoint() == x
    assert e.contains(x) and e.intersects(Interval(ZERO, x))
    # the kind of value is part of its identity, and of its report
    assert e != Enclosure(x, x) and Enclosure(x, x) != e
    assert e == Exact(Dyadic(6, 3))
    assert Enclosure(x, x).to_json() != e.to_json()
    with pytest.raises(ValueError):
        Enclosure(ONE, ZERO)
