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
- Cyclic core: x^e M x^-e is a conjugate of M and x^e M x^f one of
  M x^(e+f), and conjugation keeps every depth (the first lemma, in the
  basis), so each column keeps only its rewrite's cyclic core.
- Block-0 decision: for 1 <= d <= 64 the geometric level exceeds d iff the
  low d bits of the first PRF block are zeros, and for 2 <= d <= 64 the
  family level (0 < a < 3/4) exceeds d iff they are ones, so member_scan
  draws a level only beyond depth 64 or at family depth 1.
"""

import math
import random
import tracemalloc
from fractions import Fraction
from itertools import islice

from _helpers import (
    FAMILY_PARAMS,
    MASK64,
    _reference_rewrite_from,
    commutator_pool,
    dyadic_param_coordinate,
    linear_scan_depth,
    random_reduced_letters,
    random_yword,
    reference_conjugate_depths,
    reference_geometric_coordinate,
    reference_prf_block,
)
from irslab._backend import kernels
from irslab.grid import transversal_word
from irslab.measures import _grid_tail, _support_radius
from irslab.sampler import membership_window
from irslab.words import COMMUTATOR, Word, conjugate
from irslab.ywords import YWord, depth, expand, y

REPS = (expand(y(1)), expand(y(2)), expand(y(4, -1)), expand(y(3, 2)))
# a deep conjugate whose columns all strip to one point
DEEP_CONJUGATE = Word.parse("a" * 40 + "abAB" + "A" * 40)


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
        radius = _support_radius((w,))
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
        t = transversal_word((p, q))
        for w in pool:
            assert kernels.shifted_depth(w.letters, p, q) == depth(conjugate(t.inverse(), w)), (
                str(w), p, q)
        assert kernels.shifted_depth((), p, q) == 0
        assert kernels.shifted_depth(Word.parse("ab").letters, p, q) == -1


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
            want = linear_scan_depth(moved) if moved else 0
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
        got = list(islice(kernels.conjugate_depths(w.letters), 225))
        assert got == list(islice(reference_conjugate_depths(w.letters), 225)), str(w)
    # conjugates of [a,b] on rings 0, 2, 6 and 10, and a joint partner
    events = [conjugate(transversal_word(t), COMMUTATOR)
              for t in ((0, 0), (2, -1), (6, 2), (10, -9))]
    events.append(Word.parse("AAbabABBaaaaBBabAbAA"))
    for w in events:
        got = list(islice(kernels.conjugate_depths(w.letters), 841))
        assert got == list(islice(reference_conjugate_depths(w.letters), 841)), str(w)
    # conjugates by long random words, whose columns strip long outer parts
    rng = random.Random(3571)
    pool = commutator_pool(6)
    for _ in range(12):
        g = Word._raw(random_reduced_letters(rng, rng.randint(20, 40)))
        w = conjugate(g, rng.choice(pool)).letters
        got = list(islice(kernels.conjugate_depths(w), 225))
        assert got == list(islice(reference_conjugate_depths(w), 225)), str(Word._raw(w))
    deep = DEEP_CONJUGATE.letters
    got = list(islice(kernels.conjugate_depths(deep), 200))
    assert got == list(islice(reference_conjugate_depths(deep), 200))
    for w in ((), Word.parse("ab").letters):
        got = list(islice(kernels.conjugate_depths(w), 25))
        assert got == list(islice(reference_conjugate_depths(w), 25))


def test_conjugate_depths_memory_stays_small():
    # keeping every column's full rewrite peaked at 8.4 MB here
    tracemalloc.start()
    try:
        for _ in islice(kernels.conjugate_depths(DEEP_CONJUGATE.letters), 3000):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 1024 * 1024, peak


def _block0_patterns():
    """(seed, block 0) pairs: the real first blocks of 32 seeds; all zeros
    and all ones at 8 seeds, whose later blocks then decide; and for each
    d in 1..63 exactly d low zeros, or ones, with bit d flipped and random
    bits above it."""
    rng = random.Random(6464)
    patterns = [(seed, reference_prf_block(seed, 1, 0)) for seed in range(32)]
    patterns += [(seed, x) for x in (0, MASK64) for seed in range(8)]
    for d in range(1, 64):
        high = rng.getrandbits(63 - d) << d + 1
        patterns += [(d, high | 1 << d), (d, high | (1 << d) - 1)]
    return patterns


def test_block0_decides_levels_up_to_depth_64():
    patterns = _block0_patterns()

    def prf(seed, index, block):
        # pattern `index` fixes block 0; later blocks are the seed's own
        return patterns[index - 1][1] if block == 0 else reference_prf_block(seed, index, block)

    kinds = [(False, None)] + [(True, a) for a in FAMILY_PARAMS]
    masks = {
        (d, ones): kernels.lane_masks((d,), ones) for d in range(1, 66) for ones in (False, True)
    }
    drawn_answers = {}
    for index, (seed, x) in enumerate(patterns, start=1):
        for ones, a in kinds:
            if ones:
                k = dyadic_param_coordinate(prf, seed, index, a)
            else:
                k = reference_geometric_coordinate(prf, seed, index)
            for d in range(1 + ones, 65):
                low = x & (1 << d) - 1
                assert (k > d) == (low == ((1 << d) - 1 if ones else 0)), (ones, a, d, x)
            # member_scan on this lane alone answers as the level does, and
            # draws it only where block 0 cannot decide
            for d in range(1, 66):
                drawn = []

                def draw(i):
                    drawn.append(i)
                    return k

                answer = kernels.member_scan((d,), x, masks[d, ones], ones, draw)
                assert answer == (k <= d), (ones, a, d, x)
                if drawn:
                    assert d == 65 or ones and d == 1, (ones, a, d, x)
                    drawn_answers.setdefault((ones, d), set()).add(answer)
    # the drawn lanes see both answers, so a scan that decided them from
    # block 0 would fail above
    assert drawn_answers == {(False, 65): {True, False}, (True, 65): {True, False}, (True, 1): {True, False}}
