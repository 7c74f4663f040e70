"""Pure-Python kernel routines.

This module holds the hot inner loops.  Everything here works on plain
tuples of small ints, in one calling convention:

  letters    a = 1, a^-1 = -1, b = 2, b^-1 = -2
  word       tuple of letters, always freely reduced
  syllables  tuple of (index, exponent) pairs over the conjugate basis
             y_i = t_i [a,b] t_i^-1, normalized (adjacent indices differ,
             exponents nonzero)

Depth values returned by the syllable routines are positive ints; the
empty word (depth unbounded) is the caller's case to handle.
"""

from functools import lru_cache
from itertools import count, repeat
from math import isqrt

_COMM = (1, 2, -1, -2)  # [a,b] = a b a^-1 b^-1
_COMM_INV = (2, 1, -2, -1)

MASK64 = (1 << 64) - 1


# ---------------------------------------------------------------------------
# free words
# ---------------------------------------------------------------------------

def free_reduce(letters):
    """Freely reduce a letter sequence; returns a reduced tuple."""
    out = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def mul_words(u, v):
    """Product of two reduced words, reduced."""
    lu, lv = len(u), len(v)
    k = 0
    m = lu if lu < lv else lv
    while k < m and u[lu - 1 - k] == -v[k]:
        k += 1
    return u[:lu - k] + v[k:]


def inv_word(u):
    return tuple(-x for x in reversed(u))


def conj_word(g, w):
    """g w g^-1, reduced."""
    return mul_words(mul_words(g, w), inv_word(g))


def abelianize(w):
    """(exponent sum of a, exponent sum of b)."""
    p = q = 0
    for x in w:
        if x == 1:
            p += 1
        elif x == -1:
            p -= 1
        elif x == 2:
            q += 1
        else:
            q -= 1
    return p, q


def power_word(pos, neg, n):
    """n-th power of the reduced word with given positive/negative forms."""
    if n >= 0:
        return pos * n
    return neg * (-n)


def transversal_letters(p, q):
    """Letters of a^p b^q."""
    wp = (1,) * p if p >= 0 else (-1,) * (-p)
    wq = (2,) * q if q >= 0 else (-2,) * (-q)
    return wp + wq


# ---------------------------------------------------------------------------
# spiral enumeration of Z^2
# ---------------------------------------------------------------------------

def ring_start(l):
    """First spiral index on ring l: (2l-1)^2 + 1 for l >= 1, and 1 for l = 0."""
    if l <= 0:
        return 1
    return (2 * l - 1) * (2 * l - 1) + 1


def spiral_index(p, q):
    """Spiral enumeration index of (p, q); (0,0) -> 1."""
    l = max(abs(p), abs(q))
    if l == 0:
        return 1
    base = (2 * l - 1) * (2 * l - 1) + 1
    if p == l and q >= 0:
        off = q
    elif q == l:
        off = (l + 1) + (l - 1 - p)
    elif p == -l:
        off = (3 * l + 1) + (l - 1 - q)
    elif q == -l:
        off = (5 * l + 1) + (p + l - 1)
    else:
        off = (7 * l + 1) + (q + l - 1)
    return base + off


def spiral_point(i):
    """Inverse of spiral_index; i >= 1."""
    if i < 1:
        raise ValueError("spiral index must be >= 1, got %r" % (i,))
    if i == 1:
        return (0, 0)
    l = (isqrt(i - 1) + 1) // 2
    off = i - ((2 * l - 1) * (2 * l - 1) + 1)
    if off <= l:
        return (l, off)
    if off <= 3 * l:
        return (l - 1 - (off - (l + 1)), l)
    if off <= 5 * l:
        return (-l, l - 1 - (off - (3 * l + 1)))
    if off <= 7 * l:
        return (-l + 1 + (off - (5 * l + 1)), -l)
    return (l, -l + 1 + (off - (7 * l + 1)))


# ---------------------------------------------------------------------------
# rewriting into the conjugate basis and depth
# ---------------------------------------------------------------------------

def reduce_syllables(sylls, limit=None):
    """Free reduction of the syllables whose index is below `limit` (of
    all of them when limit is None).

    Adjacent equal indices merge and exponents that sum to zero drop out;
    the input exponents must be nonzero.  Returns a list of (index,
    exponent) tuples.  With a limit this is phi_limit, the retraction
    killing every y_i with i >= limit.  Without one, the indices need only
    compare for equality, so _rewrite_points reduces (p, j) points here.
    """
    stack = []
    for s in sylls:
        if limit is None or s[0] < limit:
            if stack and stack[-1][0] == s[0]:
                e = stack[-1][1] + s[1]
                if e:
                    stack[-1] = (s[0], e)
                else:
                    stack.pop()
            else:
                stack.append(s)
    return stack


def rewrite_syllables(w):
    """Rewrite a reduced word in the commutator subgroup as syllables.

    Scans the word tracking the coset (p, q) of the abelianization.  Each
    a-step through a coset with q != 0 contributes one Schreier generator,
    which telescopes into the conjugate basis:

      q >= 1:  z(p,q)  = x(p,q-1)^-1 ... x(p,0)^-1
      q <= -1: z(p,q)  = x(p,q) x(p,q+1) ... x(p,-1)

    with x(p,j) the basis element at spiral index of (p, j).  Raises
    ValueError when the word is not in the commutator subgroup.
    """
    return tuple([(spiral_index(x, j), e) for (x, j), e in _rewrite_points(w, 0)])


def _rewrite_points(w, q0):
    """Schreier rewrite of w read from the coset (0, q0) instead of the
    origin, as a reduced list of ((p, j), exponent) pairs over the basis
    points x(p, j); w must return to its start coset.

    An a-step out of (p, q) emits z(p, q); an A-step out of (p, q) emits
    z(p-1, q)^-1, the same column at p-1 reversed with exponents negated.

    Column shift: read from (p0, q0) instead, the walk's p moves by p0 and
    nothing else changes, so that rewrite is this one with every point
    (p, j) moved to (p + p0, j).  Free reduction merges on point equality,
    which the move keeps, so the reduced lists correspond point by point.
    """
    sylls = []
    p, q = 0, q0
    for x in w:
        if x == 1 or x == -1:
            if q:
                js = range(q - 1, -1, -1) if q > 0 else range(q, 0)
                e = -1 if q > 0 else 1
                if x == -1:
                    js, e = reversed(js), -e
                pz = p if x == 1 else p - 1
                sylls.extend([((pz, j), e) for j in js])
            p += x
        elif x == 2:
            q += 1
        else:
            q -= 1
    if p or q != q0:
        raise ValueError(
            "word has abelianization (%d, %d); not in the commutator subgroup"
            % (p, q - q0)
        )
    return reduce_syllables(sylls)


def depth_syllables(sylls):
    """Depth of a nonempty normalized syllable word.

    Downward closure: each restriction reduce_syllables(sylls, t + 1) to
    the indices <= t is a homomorphism, so the set of t whose restriction
    cancels is downward closed; the depth is the first present index whose
    restriction does not cancel, found by binary search over the sorted
    distinct indices.
    """
    idxs = sorted({i for i, _ in sylls})
    lo, hi = 0, len(idxs)
    while lo < hi:
        mid = (lo + hi) // 2
        if reduce_syllables(sylls, idxs[mid] + 1):
            hi = mid
        else:
            lo = mid + 1
    if lo == len(idxs):
        raise AssertionError("normalized nonempty syllable word cancelled")
    return idxs[lo]


def expand_syllables(sylls):
    """Expand syllables back to a reduced word over a, b."""
    letters = []
    for i, e in sylls:
        p, q = spiral_point(i)
        t = transversal_letters(p, q)
        letters.extend(t)
        letters.extend(power_word(_COMM, _COMM_INV, e))
        letters.extend(inv_word(t))
    return free_reduce(letters)


def _cyclic_core(points):
    """Cyclic core of a reduced point list.

    x^e M x^-e is a conjugate of M, and x^e M x^f with e + f != 0 is
    x^e (M x^(e+f)) x^-e, a conjugate of M x^(e+f).  Every phi_k is a
    homomorphism, so it kills a conjugate exactly when it kills the word
    conjugated: the core has the list's depth under any injective map of
    points to indices, in particular after the column shift by -p.
    """
    i, j = 0, len(points) - 1
    while i < j and points[i][0] == points[j][0]:
        e = points[i][1] + points[j][1]
        if e:
            return points[i + 1:j] + [(points[i][0], e)]
        i += 1
        j -= 1
    return points[i:j + 1]


def _moved_depth(core, p):
    """Depth of a column's core with every point moved by -p; 0 when the
    core is empty."""
    return depth_syllables([(spiral_index(x - p, j), e) for (x, j), e in core]) if core else 0


def shifted_depth(w, p, q):
    """Depth of t^-1 w t for t = a^p b^q.

    Returns 0 when the conjugate is the identity and -1 when w is not in
    the commutator subgroup.

    Coset-start lemma: reading t^-1 from the origin ends at the coset
    (-p, -q) and yields some syllable word P, so the rewrite of t^-1 w t is
    P R P^-1 with R the rewrite of w started at (-p, -q).  Every phi_k is a
    homomorphism, so phi_k kills P R P^-1 exactly when it kills R, and the
    conjugate's depth is depth(R); neither t nor the conjugate is built.
    By the column shift of _rewrite_points, R is the rewrite from (0, -q)
    with every point moved by -p, and by the same lemma its cyclic core
    has its depth.
    """
    a0, a1 = abelianize(w)
    if a0 or a1:
        return -1
    return _moved_depth(_cyclic_core(_rewrite_points(w, -q)), p)


def conjugate_depths(w):
    """Yield shifted_depth(w, p, q) at the spiral points of 1, 2, ...: the
    conjugate depths of w in transversal order, without end.

    Every coordinate of a column q shares one rewrite, _rewrite_points(w,
    -q), so w is rewritten once per column and the column keeps only the
    rewrite's cyclic core, which each coordinate moves by -p.
    """
    a0, a1 = abelianize(w)
    if a0 or a1:
        yield from repeat(-1)
    columns = {}
    for i in count(1):
        p, q = spiral_point(i)
        core = columns.get(q)
        if core is None:
            core = columns[q] = _cyclic_core(_rewrite_points(w, -q))
        yield _moved_depth(core, p)


# ---------------------------------------------------------------------------
# counter-based pseudorandomness
# ---------------------------------------------------------------------------

def _mix64(z):
    z = (z + 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


@lru_cache(maxsize=16)
def _seed_key(seed):
    """First splitmix round of prf_block, which depends on the seed alone;
    callers draw seed after seed, so a few entries serve every block."""
    return _mix64((seed & MASK64) ^ 0xA0761D6478BD642F)


def prf_block(seed, index, block):
    """64-bit keyed PRF block for coordinate `index`, block counter `block`.

    Three splitmix64 rounds, keyed by seed, then index, then block; the
    last two rounds are _mix64 written out in place.  Each round's first
    mask also reduces index and block mod 2^64, since xor acts bitwise.
    """
    z = ((_seed_key(seed) ^ index) + 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    z = ((z ^ (z >> 31) ^ block) + 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def geometric_coordinate(seed, index):
    """Geometric draw with P(k = j) = 2^-j from the keyed bit stream.

    k is one plus the number of zero bits before the first one bit,
    reading blocks least-significant-bit first.
    """
    k = 1
    block = 0
    while True:
        x = prf_block(seed, index, block)
        if x:
            return k + ((x & -x).bit_length() - 1)
        k += 64
        block += 1


# Packed block-0 lanes.  Lane i-1 of a packed int is its bits
# 128(i-1) .. 128(i-1)+127 and holds a value for spiral coordinate i below
# 2^64, so a 64 x 64-bit product stays inside its lane; one big-int
# operation then acts on every coordinate of a window at once.

_LANE_BITS = 128


def _pack(values):
    """Packed int with values[j] (0 <= value < 2^_LANE_BITS) in lane j."""
    return int.from_bytes(
        b"".join(v.to_bytes(_LANE_BITS // 8, "little") for v in values), "little"
    )


@lru_cache(maxsize=16)
def _lane_constants(count):
    """(ones, indices, low) for lanes 0..count-1: 1, i and 2^64 - 1 in
    lane i-1."""
    ones = _pack([1] * count)
    return ones, _pack(range(1, count + 1)), ones * MASK64


def block0_lanes(seed, count):
    """prf_block(seed, i, 0) for i = 1..count, packed with i in lane i-1.

    The rounds of prf_block with every constant repeated in each lane;
    each lane is masked back to 64 bits after each add and before each
    multiply, so no lane carries into the next.
    """
    ones, indices, m = _lane_constants(count)
    add = 0x9E3779B97F4A7C15 * ones
    z = (((_seed_key(seed) * ones) ^ indices) + add) & m
    z = (((z ^ (z >> 30)) & m) * 0xBF58476D1CE4E5B9) & m
    z = (((z ^ (z >> 27)) & m) * 0x94D049BB133111EB) & m
    z = (((z ^ (z >> 31)) & m) + add) & m
    z = (((z ^ (z >> 30)) & m) * 0xBF58476D1CE4E5B9) & m
    z = (((z ^ (z >> 27)) & m) * 0x94D049BB133111EB) & m
    return (z ^ (z >> 31)) & m


def lane_masks(depths, min_bits):
    """(mask, high, low) of the block-0 test of a depth profile.

    Lane i-1 of mask keeps the low min(d, 64) bits of block 0 for a depth
    d = depths[i-1] >= min_bits and no bit for a smaller nonzero d, which
    makes that lane a candidate whatever block 0 holds; high has bit 64 of
    each lane with d != 0, so a lane of unbounded depth never is one.
    """
    mask = _pack([(1 << min(d, 64)) - 1 if d >= min_bits else 0 for d in depths])
    high = _pack([1 << 64 if d else 0 for d in depths])
    return mask, high, _lane_constants(len(depths))[2]


def block0_candidates(lanes, mask, high, low, ones):
    """Coordinates i, in increasing order, whose masked block-0 bits are
    all zeros (all ones when `ones` is set), which is necessary for the
    draw at i to exceed its depth; lanes is block0_lanes over at least the
    profile's window and (mask, high, low) its lane_masks.

    The geometric draw exceeds d >= 1 only if the low min(d, 64) bits of
    block 0 are zeros.  The family draw (0 < a < 3/4) exceeds d >= 2 only
    if they are ones, since the stream is read from bit 0 up and k > d
    means x >= 1 - 2^-d; its depth-1 lanes are always candidates.  A zero
    lane y sets bit 64 of ((y + low) & high) ^ high: adding 2^64 - 1
    carries into bit 64 exactly when y is not zero.
    """
    y = lanes & mask
    if ones:
        y ^= mask
    hits = ((y + low) & high) ^ high
    while hits:
        bit = hits & -hits
        yield bit.bit_length() // _LANE_BITS + 1
        hits ^= bit


def member_scan(seed, depths, lanes, masks):
    """False at the first coordinate i whose geometric draw exceeds the
    depth depths[i-1] (0: unbounded), else True.  Only the candidates of
    the seed's block0_lanes under masks = lane_masks(depths, 1) are drawn.
    """
    for i in block0_candidates(lanes, *masks, False):
        if geometric_coordinate(seed, i) > depths[i - 1]:
            return False
    return True
