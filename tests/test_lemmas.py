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
- Downward closure: the levels whose restriction cancels form an initial
  segment, which lets depth_syllables binary-search them.
- Coset start: the depth of t^-1 w t is the depth of w rewritten from the
  coset of t^-1, which is what shifted_depth computes.
"""

import random

from _helpers import linear_scan_depth, random_yword
from irslab._backend import kernels
from irslab.grid import transversal_word
from irslab.measures import _grid_tail, _support_radius
from irslab.verify import commutator_pool
from irslab.words import Word, conjugate
from irslab.ywords import YWord, depth, expand, y

REPS = (expand(y(1)), expand(y(2)), expand(y(4, -1)), expand(y(3, 2)))


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
