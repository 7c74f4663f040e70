"""Brute-force guards for the lemmas that evaluation and sampling rest on.

- Each chain subgroup Gamma_k is normal in the commutator subgroup, so
  conjugating by a commutator-subgroup element keeps every depth.  This is
  why an InducedFinite average evaluates and samples as its inner measure.
- Ring lower bound: a conjugate by a transversal element on ring l has
  depth at least ring_start(l - radius) once l exceeds the support radius.
  Every grid-tail bound, hence every co-induced enclosure and the
  sampler's membership window, is certified by it.
"""

from irslab._backend import kernels
from irslab.measures import _support_radius
from irslab.verify import commutator_pool
from irslab.words import conjugate
from irslab.ywords import depth, expand, y

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
