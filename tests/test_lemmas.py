"""Brute-force guards for the lemmas that evaluation and sampling rest on.

- Each chain subgroup Gamma_k is normal in the commutator subgroup, so
  conjugating by a commutator-subgroup element keeps every depth.  This is
  why an induced_finite descriptor, an average over representatives in the
  commutator subgroup, parses to its inner measure.
- Ring lower bound: a conjugate by a transversal element on ring l has
  depth at least ring_start(l - radius) once l exceeds the support radius.
  Every grid-tail bound, hence every co-induced enclosure and the
  sampler's membership window, is certified by it.
- Series closure: _grid_tail dominates the summed ring bounds of every
  coordinate it skips.
- Membership window: membership_window(radius, t) is (2l+1)^2 for the
  least ring l > radius whose _grid_tail is at most 2^-t, which bounds
  the sampler's per-query total-variation error by 2^-t.
- Downward closure: the levels whose restriction cancels form an initial
  segment, which lets depth_syllables binary-search them.
- Abelian upper bound: the depth is at most the least index ub whose
  exponents sum to nonzero, with equality exactly when the restriction
  below ub cancels.  It still holds and is tested, but depth_syllables no
  longer uses it to cut its search.
- Coset start: the depth of t^-1 w t is the depth of w rewritten from the
  coset of t^-1, which is what shifted_depth computes.
- Column shift: the rewrite from (-p, -q) is the rewrite from (0, -q) with
  every point moved by -p, so conjugate_depths rewrites once per column.
- One origin rewrite: rewrite_points gives a word's y-form, its support
  radius (the largest ring of the whole list, not of its core) and column
  0 of its walk, so each word is rewritten from the origin once.
- Cyclic core: x^e M x^-e is a conjugate of M and x^e M x^f one of
  M x^(e+f), and conjugation keeps every depth (the first lemma, in the
  basis), so each column keeps only its rewrite's cyclic core.
- Block-0 decision: for 1 <= d <= 64 the geometric level exceeds d iff the
  low d bits of the first PRF block are zeros, and for 2 <= d <= 64 the
  family level (0 < a < 3/4) exceeds d iff they are ones; it exceeds 1 iff
  x >= a, with x's digits the block's bits read from bit 0 up, which the
  block's first min(exp, 64) digits decide unless they tie with a's and
  exp > 64.  So member_scan tests each depth with one packed mask or
  comparison for a whole chunk of seeds, skips a coordinate where no lane
  exceeds the least depth, and draws a level only beyond depth 64 or at a
  family tie.
- Point-mass tail: a co-induced DiracGamma(k) has factors of exactly 0 or
  1, and by the ring lower bound every factor is 1 from the first ring
  l > radius with ring_start(l - radius) >= k, so the rings inside it
  decide the value.
- Depth contract: every conjugate depth of a nontrivial [F,F] word is at
  least 1 and the depth routines refuse a word outside [F,F], so the
  kernels need no sentinel depth, and SampledSubgroup.member is one row of
  membership_matrix, which answers the identity and outside words itself.
"""

import math
import random
import tracemalloc
from fractions import Fraction
from itertools import count, islice

import pytest

from _helpers import (
    FAMILY_PARAMS,
    MASK64,
    _reference_rewrite_from,
    commutator_pool,
    dyadic_param_coordinate,
    linear_scan_depth,
    packed_lanes,
    random_reduced_letters,
    random_yword,
    reference_conjugate_depths,
    reference_geometric_coordinate,
    reference_prf_block,
)
from irslab import measures
from irslab._backend import kernels
from irslab.dyadic import ONE, ZERO, Dyadic, Exact
from irslab.measures import (
    MU_G,
    CoinducedProduct,
    DiracGamma,
    _grid_tail,
    env_prob,
    family_measure,
)
from irslab.sampler import depth_profile, membership_matrix, membership_window, sample
from irslab.verify import CommutatorWords
from irslab.words import A, COMMUTATOR, IDENTITY, Word, conjugate
from irslab.ywords import YWord, depth, expand, rewrite_to_y, y

REPS = (expand(y(1)), expand(y(2)), expand(y(4, -1)), expand(y(3, 2)))
# a deep conjugate whose columns all strip to one point
DEEP_CONJUGATE = Word.parse("a" * 40 + "abAB" + "A" * 40)


def _walk(letters):
    """The conjugate depths of a word, from its one origin rewrite."""
    return kernels.conjugate_depths(letters, kernels.rewrite_points(letters))


def test_commutator_conjugation_keeps_depth():
    for c in commutator_pool(8):
        d = depth(c)
        for r in REPS:
            assert depth(conjugate(r.inverse(), c)) == d, (str(c), str(r))
            assert depth(conjugate(r, c)) == d, (str(c), str(r))


def test_ring_lower_bound_on_conjugate_depths():
    min_slack = None
    n_checks = 0
    for w in commutator_pool(8):
        radius = kernels.support_radius(kernels.rewrite_points(w.letters))
        last_ring = radius + 2
        for i in range(kernels.ring_start(radius + 1), (2 * last_ring + 1) ** 2 + 1):
            p, q = kernels.spiral_point(i)
            ring = max(abs(p), abs(q))
            slack = kernels.shifted_depth(w.letters, p, q) - kernels.ring_start(ring - radius)
            assert slack >= 0, (str(w), p, q)
            min_slack = slack if min_slack is None else min(min_slack, slack)
            n_checks += 1
    assert n_checks > 10000
    # the bound is attained, so any loosening of the rewrite or the spiral
    # order that lowers a depth breaks it
    assert min_slack == 0


def test_point_mass_tail_matches_a_direct_depth_scan():
    # CoinducedProduct(DiracGamma(k)) contains w iff every conjugate depth
    # of w is at least k.  From the first ring l > radius with
    # ring_start(l - radius) >= k on, the ring lower bound makes every
    # depth so, and the rings inside it are scanned here one coordinate at
    # a time.  Commutators of basis elements reach that last inner ring
    # with a depth just below k, which a tail closed one ring early misses
    answers = []
    for j in range(2, 13):
        for i in range(1, j):
            w = expand(YWord([(i, 1), (j, 1), (i, -1), (j, -1)]))
            radius = kernels.support_radius(kernels.rewrite_points(w.letters))
            for k in range(2, 13):
                clear = next(l for l in count(radius + 1) if kernels.ring_start(l - radius) >= k)
                inside = range(1, kernels.ring_start(clear))
                member = all(kernels.shifted_depth(w.letters, *kernels.spiral_point(c)) >= k for c in inside)
                assert env_prob(CoinducedProduct(DiracGamma(k)), w) == Exact(ONE if member else ZERO), (i, j, k)
                answers.append(member)
    assert len(answers) == 726 and 0 < sum(answers) < 726


def test_grid_tail_dominates_skipped_ring_bounds():
    """_grid_tail(count_done, radius) >= sum over the skipped spiral indices
    i > count_done of 2^-ring_start(ring(i) - radius).

    Rings l0 .. l0+20 are summed exactly, with ring sizes counted from
    spiral_point; sums are integers in units of 2^-bits.  Every later ring
    has m = l - radius >= 21 and l <= m + 30, so its 8l <= 2^m coordinates
    each carry 2^-ring_start(m) with ring_start(m) = 4m^2 - 4m + 2 >=
    2m + 1000; the ring then adds at most 2^-(m + 1000), and all of them
    together at most 2^-1020.
    """
    max_radius = 30
    last_ring = max_radius + 9 + 20
    ring_size = [0] * (last_ring + 1)
    for i in range(1, (2 * last_ring + 1) ** 2 + 1):
        p, q = kernels.spiral_point(i)
        ring_size[max(abs(p), abs(q))] += 1
    bits = kernels.ring_start(last_ring)
    beyond = 1 << (bits - 1020)
    n_checks = 0
    for radius in range(max_radius + 1):
        # unit[l]: one coordinate's bound on ring l > radius;
        # below[l]: the exact bound of all coordinates on rings radius+1 .. l-1
        unit = {l: 1 << (bits - kernels.ring_start(l - radius))
                for l in range(radius + 1, last_ring + 1)}
        below = {radius + 1: 0}
        for l in range(radius + 1, last_ring + 1):
            below[l + 1] = below[l] + ring_size[l] * unit[l]
        ring_end = 0  # count of spiral indices on rings <= l0
        l_end = -1
        for count_done in range((2 * (radius + 8) + 1) ** 2 + 1):
            p, q = kernels.spiral_point(count_done + 1)
            l0 = max(abs(p), abs(q))
            while l_end < l0:
                l_end += 1
                ring_end += ring_size[l_end]
            tail = _grid_tail(count_done, radius)
            if l0 <= radius:
                assert (tail.num, tail.exp) == (1, 0), (count_done, radius)
                continue
            exact = (ring_end - count_done) * unit[l0] + below[l0 + 21] - below[l0 + 1]
            assert tail.num << (bits - tail.exp) >= exact + beyond, (count_done, radius)
            n_checks += 1
    assert n_checks > 38000


def test_grid_tail_is_the_fraction_sum_of_its_terms():
    """_grid_tail, summed as integers at its finest exponent, equals its
    defining series in exact rationals: the rest of ring l0 and rings
    l0+1 .. l0+6 at 2^-ring_start(l - radius) per coordinate, plus twice
    the ring l0+7 term."""
    for radius in range(31):
        for count_done in range((2 * (radius + 8) + 1) ** 2 + 1):
            p, q = kernels.spiral_point(count_done + 1)
            l0 = max(abs(p), abs(q))
            tail = _grid_tail(count_done, radius)
            got = Fraction(tail.num, 1 << tail.exp)
            if l0 <= radius:
                assert got == 1, (count_done, radius)
                continue
            want = Fraction((2 * l0 + 1) ** 2 - count_done, 1 << kernels.ring_start(l0 - radius))
            for l in range(l0 + 1, l0 + 7):
                want += Fraction(8 * l, 1 << kernels.ring_start(l - radius))
            want += Fraction(16 * (l0 + 7), 1 << kernels.ring_start(l0 + 7 - radius))
            assert got == want, (count_done, radius)


def _eight_term_tail(count_done, radius):
    """_grid_tail summed term by term for one count: the rest of ring l0,
    rings l0+1 .. l0+6, and twice the ring l0+7 term, at the finest unit."""
    l0 = kernels.spiral_ring(count_done + 1)
    if l0 <= radius:
        return ONE
    finest = kernels.ring_start(l0 + 7 - radius)
    total = ((2 * l0 + 1) ** 2 - count_done) << (finest - kernels.ring_start(l0 - radius))
    for l in range(l0 + 1, l0 + 7):
        total += (8 * l) << (finest - kernels.ring_start(l - radius))
    return Dyadic(total + 16 * (l0 + 7), finest)


def test_tail_from_ring_constants_equals_the_term_sum(monkeypatch):
    """_grid_tail and the tail_bound of a co-induced product, which keeps
    one ring's constants between calls, give the term sum's Dyadic at every
    count out to ring radius + 12, for every radius 0..48, also when the
    product reruns from count 0 after a pass."""
    bounds = []

    def spy(factors, tail_bound, target_width, factor_cap):
        bounds.append(tail_bound)
        return Exact(ONE)

    monkeypatch.setattr(measures, "certified_product", spy)
    for radius in range(49):
        # a^radius [a,b] a^-radius has support radius `radius`
        w = Word((1,) * radius + (1, 2, -1, -2) + (-1,) * radius)
        assert kernels.support_radius(kernels.rewrite_points(w.letters)) == radius
        env_prob(MU_G, w)
        tail_bound = bounds.pop()
        counts = range((2 * (radius + 12) + 1) ** 2 + 1)
        want = [_eight_term_tail(c, radius) for c in counts]
        for walk in (counts, counts):  # a pass, then the exact rerun's restart
            for c in walk:
                got, grid = tail_bound(c), _grid_tail(c, radius)
                assert (got.num, got.exp) == (grid.num, grid.exp) == (want[c].num, want[c].exp), (radius, c)


def test_membership_window_is_the_least_certified_ring():
    """Each window is a full square of rings out to some l > radius, its
    tail is at most 2^-tolerance, and the square one ring smaller is not,
    unless that ring is at or below the radius."""
    for radius in range(8):
        for tolerance in (1, 2, 8, 21, 60, 128, 512, 1024):
            window = membership_window(radius, tolerance)
            side = math.isqrt(window)
            assert side * side == window and side % 2 == 1, (radius, tolerance)
            ring = side // 2
            assert ring > radius, (radius, tolerance)
            budget = Fraction(1, 1 << tolerance)
            tail = _grid_tail(window, radius)
            assert Fraction(tail.num, 1 << tail.exp) <= budget, (radius, tolerance)
            if ring - 1 > radius:
                smaller = _grid_tail((2 * ring - 1) ** 2, radius)
                assert Fraction(smaller.num, 1 << smaller.exp) > budget, (radius, tolerance)


def test_depth_matches_linear_scan():
    rng = random.Random(1729)
    words = [random_yword(rng, max_syllables=30, max_index=60) for _ in range(2000)]
    # conjugates r s r^-1 keep the depth of s while mixing in lower indices
    # that cancel, so the binary search has to move past them
    for _ in range(1000):
        r = random_yword(rng, max_syllables=8, max_index=40)
        s = YWord([(i + 20, e) for i, e in random_yword(rng, max_syllables=6).syllables])
        words.append(r * s * r.inverse())
    n_checks = 0
    for v in words:
        if v.is_identity():
            continue
        assert kernels.depth_syllables(v.syllables) == linear_scan_depth(v.syllables), str(v)
        n_checks += 1
    assert n_checks > 2700


def test_shifted_depth_is_conjugate_depth():
    pool = commutator_pool(8)
    assert len(pool) == 360
    for i in range(1, 82):
        p, q = kernels.spiral_point(i)
        t = Word(kernels.transversal_letters(p, q))
        for w in pool:
            assert kernels.shifted_depth(w.letters, p, q) == depth(conjugate(t.inverse(), w)), (
                str(w), p, q)
        for outside in ((), Word.parse("ab").letters):
            with pytest.raises(ValueError):
                kernels.shifted_depth(outside, p, q)


def _exponent_sums(sylls):
    sums = {}
    for i, e in sylls:
        sums[i] = sums.get(i, 0) + e
    return sums


def _abelian_bound(sylls):
    """Least index whose exponents sum to nonzero, or None."""
    sums = _exponent_sums(sylls)
    return min((i for i, e in sums.items() if e), default=None)


def _restriction_below(sylls, t):
    """The restriction to the indices below t, freely reduced by brute force."""
    return YWord([(i, e) for i, e in sylls if i < t]).syllables


def test_depth_at_most_least_nonzero_exponent_sum():
    rng = random.Random(4099)
    words = [random_yword(rng, max_syllables=30, max_index=40) for _ in range(3000)]
    # r s r^-1 and [u, r] s with s deep: every index of r and u sums to
    # zero, so ub lies in s; the restriction below it cancels in the first
    # form when r sits below s, and need not in the second, so the bound
    # is met with equality and missed both many times
    for _ in range(1000):
        r = random_yword(rng, max_syllables=10, max_index=30)
        u = random_yword(rng, max_syllables=3, max_index=30)
        deep = random_yword(rng, max_syllables=6, max_index=20)
        s = YWord([(i + 15, e) for i, e in deep.syllables])
        words.append(r * s * r.inverse())
        words.append(u * r * u.inverse() * r.inverse() * s)
    n_equal = n_below = 0
    for v in words:
        if v.is_identity():
            continue
        sylls = v.syllables
        ub = _abelian_bound(sylls)
        if ub is None:
            continue
        want = linear_scan_depth(sylls)
        assert want <= ub, str(v)
        # equality exactly when the restriction below ub cancels
        assert (want == ub) == (not _restriction_below(sylls, ub)), str(v)
        assert kernels.depth_syllables(sylls) == want, str(v)
        if want == ub:
            n_equal += 1
        else:
            n_below += 1
    assert n_equal > 2000 and n_below > 300, (n_equal, n_below)


def test_depth_of_products_of_commutators_of_the_basis():
    """Every exponent sum of a product of [y_i, y_j] is zero, so these
    words have no abelian bound at all."""
    rng = random.Random(8191)
    n_checks = 0
    for _ in range(1500):
        v = YWord(())
        for _ in range(rng.randint(1, 4)):
            u = random_yword(rng, max_syllables=3, max_index=25)
            w = random_yword(rng, max_syllables=3, max_index=25)
            v = v * u * w * u.inverse() * w.inverse()
        if v.is_identity():
            continue
        assert _abelian_bound(v.syllables) is None, str(v)
        assert kernels.depth_syllables(v.syllables) == linear_scan_depth(v.syllables), str(v)
        n_checks += 1
    assert n_checks > 1000


def test_column_shift_of_the_rewrite():
    """shifted_depth(w, p, q) is the depth of the column-q points moved by
    -p, and the moved points give the rewrite from (-p, -q) exactly."""
    pool = commutator_pool(8)
    n_checks = 0
    for i in range(1, 82):
        p, q = kernels.spiral_point(i)
        for w in pool:
            moved = [(kernels.spiral_index(x - p, j), e)
                     for (x, j), e in kernels._rewrite_points(w.letters, -q)]
            assert moved == _reference_rewrite_from(w.letters, -p, -q), (str(w), p, q)
            want = linear_scan_depth(moved)
            assert kernels.shifted_depth(w.letters, p, q) == want, (str(w), p, q)
            n_checks += 1
    assert n_checks == 81 * 360


def _random_points(rng, n):
    """A random point list over a 7 x 7 block of columns; not reduced."""
    points = []
    for _ in range(n):
        e = rng.choice((-2, -1, 1, 2))
        points.append(((rng.randint(-3, 3), rng.randint(-3, 3)), e))
    return points


def _inverse_points(points):
    return [(x, -e) for x, e in reversed(points)]


def test_cyclic_core_keeps_the_depth():
    """The depth of a column's core, moved by -p, against a linear scan of
    the whole moved list, on lists built as U C U^-1 (mostly stripped) and
    as x^e M x^f (mostly merged)."""
    rng = random.Random(6007)
    n_strip = n_merge = n_checks = 0
    for trial in range(4000):
        if trial % 2:
            u = _random_points(rng, rng.randint(1, 6))
            full = u + _random_points(rng, rng.randint(1, 6)) + _inverse_points(u)
        else:
            x = (rng.randint(-3, 3), rng.randint(-3, 3))
            middle = _random_points(rng, rng.randint(1, 8))
            full = [(x, rng.choice((-2, -1, 1, 2)))] + middle + [(x, rng.choice((-2, -1, 1, 2)))]
        full = kernels.reduce_syllables(full)
        if not full:
            continue
        # which branch the core takes, read off the list itself
        lo, hi = 0, len(full) - 1
        while lo < hi and full[lo][0] == full[hi][0] and full[lo][1] + full[hi][1] == 0:
            lo, hi = lo + 1, hi - 1
        n_strip += lo > 0
        n_merge += lo < hi and full[lo][0] == full[hi][0]
        core = kernels._cyclic_core(full)
        assert core and len(core) <= len(full), full
        p = rng.randint(-5, 5)
        moved = [(kernels.spiral_index(x - p, j), e) for (x, j), e in full]
        want = linear_scan_depth(moved)
        assert kernels._moved_depth(core, p) == want, (full, core, p)
        n_checks += 1
    assert n_checks > 3500 and n_strip > 300 and n_merge > 300, (n_checks, n_strip, n_merge)


def test_cyclic_core_merges_with_the_summed_exponent():
    # y1 y3 y1^-2 y3^-1 y1 has depth 3: its core is y3 y1^-2 y3^-1 y1^2,
    # while a difference of the end exponents would leave y1^0 and depth 1
    sylls = [(1, 1), (3, 1), (1, -2), (3, -1), (1, 1)]
    assert linear_scan_depth(sylls) == 3
    assert kernels._cyclic_core(sylls) == [(3, 1), (1, -2), (3, -1), (1, 2)]
    assert kernels.depth_syllables(kernels._cyclic_core(sylls)) == 3


def test_conjugate_depths_match_the_per_coordinate_walk():
    """The column-shared walk against one rewrite and one full binary
    search per coordinate."""
    for w in commutator_pool(6):
        got = list(islice(_walk(w.letters), 225))
        assert got == list(islice(reference_conjugate_depths(w.letters), 225)), str(w)
    # conjugates of [a,b] on rings 0, 2, 6 and 10, and a joint partner
    events = [conjugate(Word(kernels.transversal_letters(*t)), COMMUTATOR)
              for t in ((0, 0), (2, -1), (6, 2), (10, -9))]
    events.append(Word.parse("AAbabABBaaaaBBabAbAA"))
    for w in events:
        got = list(islice(_walk(w.letters), 841))
        assert got == list(islice(reference_conjugate_depths(w.letters), 841)), str(w)
    # conjugates by long random words, whose columns strip long outer parts
    rng = random.Random(3571)
    pool = commutator_pool(6)
    for _ in range(12):
        g = Word._raw(random_reduced_letters(rng, rng.randint(20, 40)))
        w = conjugate(g, rng.choice(pool)).letters
        got = list(islice(_walk(w), 225))
        assert got == list(islice(reference_conjugate_depths(w), 225)), str(Word._raw(w))
    deep = DEEP_CONJUGATE.letters
    got = list(islice(_walk(deep), 200))
    assert got == list(islice(reference_conjugate_depths(deep), 200))
    for w in ((), Word.parse("ab").letters):
        with pytest.raises(ValueError):
            next(_walk(w))


def test_conjugate_depths_memory_stays_small():
    # keeping every column's full rewrite peaked at 8.4 MB here
    tracemalloc.start()
    try:
        for _ in islice(_walk(DEEP_CONJUGATE.letters), 3000):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 1024 * 1024, peak


def test_one_origin_rewrite_gives_syllables_radius_and_column_zero(monkeypatch):
    """rewrite_points is a word's one rewrite from the origin: through
    spiral_index it is the y-form, its largest ring is the ring of the
    y-form's largest index, and the walk it seeds starts at the depth."""
    pool = list(CommutatorWords(8))
    assert len(pool) == 360
    rng = random.Random(6151)
    words = pool + [DEEP_CONJUGATE] + [
        conjugate(Word._raw(random_reduced_letters(rng, rng.randint(20, 60))), rng.choice(pool))
        for _ in range(40)]
    for w in words:
        origin = kernels.rewrite_points(w.letters)
        sylls = rewrite_to_y(w).syllables
        assert kernels.rewrite_syllables(w.letters) == tuple(
            (kernels.spiral_index(*x), e) for x, e in origin), str(w)
        assert kernels.support_radius(origin) == kernels.spiral_ring(max(i for i, _ in sylls)), str(w)
        assert next(kernels.conjugate_depths(w.letters, origin)) == depth(w), str(w)
    # the co-induced value and the depth profile each rewrite a word from
    # the origin once, and the walk reads that rewrite as its column 0
    origins = []

    def rewrite(w, q0, _fn=kernels._rewrite_points):
        origins.extend([w] if q0 == 0 else [])
        return _fn(w, q0)

    monkeypatch.setattr(kernels, "_rewrite_points", rewrite)
    for w in pool[:40] + [Word.parse("aaabAAABabaaBAAA")]:
        origins.clear()
        env_prob(MU_G, w)
        depth_profile(w, 8)
        assert origins == [w.letters] * 2, str(w)


def test_support_radius_reads_the_whole_rewrite_not_its_core():
    # [a^3,b] conjugating [a,b]: its rewrite reaches ring 2, while the
    # cyclic core of column 0 is the y_1 of [a,b], on ring 0
    w = Word.parse("aaabAAABabaaBAAA")
    origin = kernels.rewrite_points(w.letters)
    assert kernels.support_radius(origin) == 2
    assert kernels.support_radius(kernels._cyclic_core(origin)) == 0
    # conjugated by [a^50,b] it has radius 49, one over the co-induced cap;
    # a radius read from the core would accept it at ring 0
    far = conjugate(Word.parse("a" * 50 + "b" + "A" * 50 + "B"), COMMUTATOR)
    with pytest.raises(ValueError, match="support radius at most 48, got 49"):
        env_prob(MU_G, far)
    with pytest.raises(ValueError, match="needs a membership window"):
        depth_profile(far)


# parameters with more than 64 digits, whose block-0 ties are drawn
TIE_PARAMS = [Dyadic(1, 70), Dyadic(12345, 66)]


def _leading_digits(x, m):
    """The first m digits of a block read from bit 0 up, as an m-digit
    integer."""
    return int(format(x, "064b")[::-1][:m], 2)


def _tie_block0(a):
    """The low m = min(exp, 64) bits of a block 0 whose first m digits, read
    from bit 0 up, are a's."""
    m = min(a.exp, 64)
    return int(format(a.num >> a.exp - m, "0%db" % m)[::-1], 2)


def _block0_patterns():
    """(seed, block 0) pairs: the real first blocks of 32 seeds; all zeros
    and all ones at 8 seeds, whose later blocks then decide; for each d in
    1..63 exactly d low zeros, or ones, with bit d flipped and random bits
    above it; and the ties of TIE_PARAMS at 16 seeds each."""
    rng = random.Random(6464)
    patterns = [(seed, reference_prf_block(seed, 1, 0)) for seed in range(32)]
    patterns += [(seed, x) for x in (0, MASK64) for seed in range(8)]
    for d in range(1, 64):
        high = rng.getrandbits(63 - d) << d + 1
        patterns += [(d, high | 1 << d), (d, high | (1 << d) - 1)]
    patterns += [(seed, _tie_block0(a)) for a in TIE_PARAMS for seed in range(100, 116)]
    return patterns


def test_block0_decides_levels_up_to_depth_64(monkeypatch):
    patterns = _block0_patterns()

    def prf(seed, index, block):
        # pattern `index` fixes block 0; later blocks are the seed's own
        return patterns[index - 1][1] if block == 0 else reference_prf_block(seed, index, block)

    # one chunk holding every pattern, pattern j's block 0 in lane j
    seeds = [seed for seed, _ in patterns]
    packed = packed_lanes([x for _, x in patterns])
    monkeypatch.setattr(kernels, "block0_lanes", lambda keys, index, n: packed)
    drawn_answers = {}
    for a in [None] + FAMILY_PARAMS + TIE_PARAMS[1:]:  # FAMILY_PARAMS holds 2^-70
        ties = set()
        levels = []
        for index, (seed, x) in enumerate(patterns, start=1):
            if a is None:
                k = reference_geometric_coordinate(prf, seed, index)
                assert (k > 1) == (x & 1 == 0), (a, x)
            else:
                k = dyadic_param_coordinate(prf, seed, index, a)
                # level 1 iff x < a, read from a's first m digits unless
                # they tie with x's and a has more
                m = min(a.exp, 64)
                head, digits = a.num >> a.exp - m, _leading_digits(x, m)
                if digits == head and a.exp > 64:
                    ties.add(index - 1)
                else:
                    assert (k > 1) == (digits >= head), (a, x)
            levels.append(k)
            for d in range(2, 65):
                low = x & (1 << d) - 1
                assert (k > d) == (low == (0 if a is None else (1 << d) - 1)), (a, d, x)
        # member_scan of the chunk answers as each lane's level does, and
        # draws a lane only where its block 0 cannot decide
        for d in range(1, 66):
            drawn = []

            def draw(j, i):
                drawn.append(j)
                return levels[j]

            answers = kernels.member_scan(seeds, [(d,)], a and (a.num, a.exp), draw)[0]
            assert answers == [k <= d for k in levels], (a, d)
            if d == 1:
                assert set(drawn) == ties, a
            elif drawn:
                assert d == 65, (a, d)
            if drawn:
                drawn_answers.setdefault((a is not None, d), set()).update(answers[j] for j in drawn)
    # the drawn lanes see both answers, so a scan that decided them from
    # block 0 would fail above
    assert drawn_answers == {(False, 65): {True, False}, (True, 65): {True, False}, (True, 1): {True, False}}


def _comparison_params():
    """Every a = num/2^exp with exp <= 8 and 0 < a < 3/4, FAMILY_PARAMS, and
    one a each with exp 63, 64, 65 and 70."""
    rng = random.Random(6565)
    params = [Dyadic(num, exp) for exp in range(1, 9) for num in range(1, 1 << exp, 2) if 4 * num < 3 << exp]
    params += FAMILY_PARAMS
    params += [Dyadic(rng.randrange(1, 3 << exp - 2, 2), exp) for exp in (63, 64, 65, 70)]
    return params


def test_packed_comparison_matches_the_scalar_draw(monkeypatch):
    """At family depth 1, member_scan's packed comparison of block 0 with
    a's first min(exp, 64) digits decides level > 1 exactly as
    family_coordinate does, and draws only a tie when exp > 64.

    Block 0 of each lane is random, a tie with a's first m digits (random
    bits above them), or a near-tie: the tie with digit m flipped, or with
    one digit before it flipped.  A tie's block 1 is all zeros at one seed
    (x < a when exp > 64) and all ones at another (x > a)."""
    rng = random.Random(6666)
    checked_ties = 0
    for a in _comparison_params():
        m = min(a.exp, 64)
        tie = _tie_block0(a)
        above = (lambda: rng.getrandbits(64 - m) << m) if m < 64 else (lambda: 0)
        block0 = [rng.getrandbits(64) for _ in range(24)]
        block0 += [tie | above(), tie | above()]
        block0 += [tie ^ 1 << t | above() for t in range(m)]
        block1 = {24: 0, 25: MASK64}  # lane -> its pinned block 1
        seeds = list(range(len(block0)))

        def prf(seed, index, block):
            if block == 0:
                return block0[seed]
            if block == 1 and seed in block1:
                return block1[seed]
            return reference_prf_block(seed, index, block)

        monkeypatch.setattr(kernels, "prf_block", prf)
        monkeypatch.setattr(kernels, "block0_lanes", lambda keys, index, n: packed_lanes(block0))
        levels = [kernels.family_coordinate(seed, 1, a.num, a.exp) for seed in seeds]
        drawn = []

        def draw(j, i):
            drawn.append(j)
            return levels[j]

        answers = kernels.member_scan(seeds, [(1,)], (a.num, a.exp), draw)[0]
        assert answers == [k == 1 for k in levels], a
        assert drawn == ([24, 25] if a.exp > 64 else []), a
        if a.exp > 64:
            assert [levels[24], levels[25]] == [1, 2], a
            checked_ties += 1
    assert checked_ties == 3  # 2^-70 and the drawn a of exp 65 and 70


def test_conjugate_depths_of_commutator_words_are_at_least_one():
    words = CommutatorWords(8)
    assert len(words) == 360
    for w in words:
        assert min(depth_profile(w, 8)) >= 1, str(w)
    outside = Word.parse("ab").letters
    with pytest.raises(ValueError):
        next(_walk(outside))
    with pytest.raises(ValueError):
        kernels.shifted_depth(outside, 0, 0)


def test_member_is_a_row_of_the_membership_matrix():
    # fixed answers (the identity and words outside [F,F]) beside radius-2
    # words, whose scans decide from block 0 and draw
    pool = [IDENTITY, A, Word.parse("ab"), expand(y(16)), expand(y(20, -1)),
            expand(YWord([(17, 1), (21, 1)]))]
    for mu in (MU_G, family_measure(Dyadic(1, 1))):
        rows = list(membership_matrix(range(40), pool, mu))
        for seed, row in enumerate(rows):
            assert [sample(mu, seed).member(w) for w in pool] == row, seed
        # each radius-2 word is in some samples and not in others
        assert all(0 < sum(column) < 40 for column in list(zip(*rows))[3:]), mu
