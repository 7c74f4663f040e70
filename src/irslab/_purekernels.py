"""Pure-Python kernel routines.

This module holds the hot inner loops.  Everything here works on plain
tuples of small ints, in one calling convention:

  letters    a = 1, a^-1 = -1, b = 2, b^-1 = -2
  word       tuple of letters, always freely reduced
  syllables  tuple of (index, exponent) pairs over the conjugate basis
             y_i = t_i [a,b] t_i^-1, normalized (adjacent indices differ,
             exponents nonzero)

The depth routines take nontrivial words of [F,F] and return positive
ints; the empty word (depth unbounded) is the caller's case to handle.
"""

from functools import lru_cache
from itertools import count, zip_longest
from math import inf, isqrt

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


def spiral_ring(i):
    """Ring of spiral index i >= 1: the l with ring_start(l) <= i < ring_start(l + 1)."""
    return (isqrt(i - 1) + 1) // 2


def spiral_point(i):
    """Inverse of spiral_index; i >= 1."""
    if i < 1:
        raise ValueError("spiral index must be >= 1, got %r" % (i,))
    if i == 1:
        return (0, 0)
    l = spiral_ring(i)
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


def rewrite_points(w):
    """Rewrite of a reduced word in the commutator subgroup from the origin:
    a reduced list of ((p, j), exponent) pairs over the basis points x(p, j).

    Scans the word tracking the coset (p, q) of the abelianization.  Each
    a-step through a coset with q != 0 contributes one Schreier generator,
    which telescopes into the conjugate basis:

      q >= 1:  z(p,q)  = x(p,q-1)^-1 ... x(p,0)^-1
      q <= -1: z(p,q)  = x(p,q) x(p,q+1) ... x(p,-1)

    with x(p,j) the basis element at spiral index of (p, j).  Raises
    ValueError, before any point is emitted, when the word is not in the
    commutator subgroup.
    """
    p, q = abelianize(w)
    if p or q:
        raise _outside_commutator(p, q)
    return _rewrite_points(w, 0)


def rewrite_syllables(w):
    """The syllables of w: rewrite_points(w) mapped through spiral_index."""
    return tuple([(spiral_index(x, j), e) for (x, j), e in rewrite_points(w)])


def support_radius(points):
    """Largest ring max(|p|, |j|) of a rewrite's points, the ring of its
    largest spiral index; its cyclic core may lie on lower rings."""
    return max((max(abs(x), abs(j)) for (x, j), _ in points), default=0)


def rewrite_length(w):
    """Syllables w's origin rewrite emits before reduction: |q| per a-letter at height q."""
    n = q = 0
    for x in w:
        if x == 1 or x == -1:
            n += abs(q)
        else:
            q += 1 if x == 2 else -1
    return n


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
        raise _outside_commutator(p, q - q0)
    return reduce_syllables(sylls)


def _outside_commutator(p, q):
    """The refusal of a word of abelianization (p, q) != (0, 0)."""
    return ValueError("word has abelianization (%d, %d); not in the commutator subgroup" % (p, q))


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
        raise ValueError("the syllable word cancels; its depth is unbounded")
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
    """Depth of a nonempty column core with every point moved by -p."""
    return depth_syllables([(spiral_index(x - p, j), e) for (x, j), e in core])


def shifted_depth(w, p, q):
    """Depth of t^-1 w t for t = a^p b^q and a nontrivial [F,F] word w;
    ValueError outside [F,F].

    Coset-start lemma: reading t^-1 from the origin ends at the coset
    (-p, -q) and yields some syllable word P, so the rewrite of t^-1 w t is
    P R P^-1 with R the rewrite of w started at (-p, -q).  Every phi_k is a
    homomorphism, so phi_k kills P R P^-1 exactly when it kills R, and the
    conjugate's depth is depth(R); neither t nor the conjugate is built.
    By the column shift of _rewrite_points, R is the rewrite from (0, -q)
    with every point moved by -p, and by the same lemma its cyclic core
    has its depth.  A word outside [F,F] is refused before any rewrite.
    """
    if any(abelianize(w)):
        raise _outside_commutator(*abelianize(w))
    return _moved_depth(_cyclic_core(_rewrite_points(w, -q)), p)


def conjugate_depths(w, origin):
    """Yield shifted_depth(w, p, q) at the spiral points of 1, 2, ...: the
    conjugate depths of w in transversal order, without end; origin is
    rewrite_points(w), which is column 0.

    Every coordinate of a column q shares one rewrite, _rewrite_points(w,
    -q), so w is rewritten once per column and the column keeps only the
    rewrite's cyclic core, which each coordinate moves by -p.
    """
    columns = {0: _cyclic_core(origin)}
    for i in count(1):
        p, q = spiral_point(i)
        core = columns.get(q)
        if core is None:
            core = columns[q] = _cyclic_core(_rewrite_points(w, -q))
        yield _moved_depth(core, p)


# ---------------------------------------------------------------------------
# counter-based pseudorandomness
# ---------------------------------------------------------------------------

# splitmix64 (Steele, Lea and Flood, OOPSLA 2014): _mix is its round, and
# prf_block a counter-based stream of three rounds keyed by (seed, index,
# block), so any block is drawn without the ones before it

_INCREMENT = 0x9E3779B97F4A7C15
_SEED_SALT = 0xA0761D6478BD642F
# the preimages of 0 and of 2^64 - 1 under the index round followed by the
# block round, so prf_block(seed, index, 0) is 0 exactly when index is
# K ^ _BLOCK0_ZERO mod 2^64, K being the seed round, and all ones exactly
# when index is K ^ _BLOCK0_ONES
_BLOCK0_ZERO = 0xC5DEEFB0344C1DF5
_BLOCK0_ONES = 0x1FDB84807C8BC327


def _mix(z, low=MASK64, add=_INCREMENT):
    """One splitmix64 round in every 64-bit lane of z, where low holds
    2^64 - 1 and add the increment in each lane; the defaults are one lane,
    the scalar round.  Each lane is masked back to 64 bits after the add
    and before each multiply, so no lane carries into the next."""
    z = (z + add) & low
    z = (((z ^ (z >> 30)) & low) * 0xBF58476D1CE4E5B9) & low
    z = (((z ^ (z >> 27)) & low) * 0x94D049BB133111EB) & low
    return (z ^ (z >> 31)) & low


def prf_block(seed, index, block):
    """64-bit keyed PRF block for coordinate `index`, block counter `block`:
    three splitmix64 rounds, keyed by seed, then index, then block.  Each
    round's first mask also reduces index and block mod 2^64, since xor
    acts bitwise."""
    return _mix(_mix(_mix((seed & MASK64) ^ _SEED_SALT) ^ index) ^ block)


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


def family_coordinate(seed, index, num, exp):
    """Exact inverse-CDF draw of the family's chain level at a = num / 2^exp.

    The PRF blocks, each read from its least significant bit, are the
    binary digits of a uniform x in [0, 1); its CDF cells are [0, a),
    [a, 3/4) and [1 - 2^-(k-1), 1 - 2^-k) for k >= 3.  So k is one plus
    the number of leading one digits when there are at least two, else 1
    if the first exp digits read as an integer are below num, and 2 if not.
    That comparison reads a block only while the digits before it equal a's.
    """
    block = 0
    x = prf_block(seed, index, 0)
    if x & 3 == 3:  # two leading ones: k is one plus the run of ones
        k = 1
        while x == MASK64:
            k += 64
            block += 1
            x = prf_block(seed, index, block)
        return k + (x ^ (x + 1)).bit_length() - 1
    rest = exp  # digits of a after those compared
    while True:
        m = min(rest, 64)
        rest -= m
        digits = _reversed_bits(x, m)  # the block's first m
        head = num >> rest & ((1 << m) - 1)  # a's digits at the same places
        if digits != head or not rest:
            return 1 if digits < head else 2
        block += 1
        x = prf_block(seed, index, block)


def _reversed_bits(x, m):
    """The low m >= 1 bits of x in reverse order: a block's first m digits,
    read from bit 0 up, as an m-digit integer, and back."""
    return int(bin(x | 1 << m)[:-m - 1:-1], 2)


# Packed block-0 lanes.  Lane j of a packed int is its bytes 16j .. 16j+15
# and holds a value for seed j of a chunk below 2^64, so a 64 x 64-bit
# product stays inside its lane; one big-int operation then acts on one
# coordinate of every seed in the chunk at once.

# seeds that one member_scan draws together, so each packed int is 16 KB:
# 10^4 seeds of 8 radius-2 words took 0.31, 0.22, 0.20 and 0.21 s in chunks
# of 64, 256, 1024 and 4096 (2-vCPU VM): the per-coordinate overhead spreads
# over more lanes, and past 1024 that gains nothing
SEED_CHUNK = 1024


@lru_cache(maxsize=4)
def _lane_constants(n):
    """(unit, low, add) for n lanes: 1, 2^64 - 1 and the splitmix increment
    in every lane."""
    unit = int.from_bytes(b"\x01".ljust(16, b"\x00") * n, "little")
    return unit, unit * MASK64, unit * _INCREMENT


def block0_lanes(keys, index, n):
    """prf_block(seed_j, index, 0) in lane j of n, where keys holds the
    seed round of seed_j in lane j: the index and block rounds of
    prf_block, one _mix over every lane each.  The index is reduced mod
    2^64, as prf_block's mask reduces it, before it is put in every lane."""
    unit, low, add = _lane_constants(n)
    return _mix(_mix(keys ^ (index & MASK64) * unit, low, add), low, add)


def member_scan(seeds, profiles, family, draw):
    """Per depth profile, one answer per seed of a chunk of at most
    SEED_CHUNK seeds: False when the level at some coordinate i exceeds the
    depth d = profile[i-1] >= 1, else True.  family is the family inner's
    parameter a = num / 2^exp (0 < a < 3/4) as (num, exp), or None for the
    geometric inner, and draw(j, i) is the level of seeds[j] at coordinate i.

    Each seed is reduced mod 2^64 as it is packed into its lane, as
    prf_block reduces it, and one _mix gives every lane its seed round.
    Coordinates are taken in order, each for the whole chunk at once.
    Block 0, read from bit 0 up as the leading digits of x, decides each
    lane with d <= 64: the geometric level exceeds d iff its low d bits are
    zeros; the family level exceeds d >= 2 iff they are ones (k > d means
    x >= 1 - 2^-d), and exceeds 1 iff x >= a.  For that comparison A holds
    a's first m = min(exp, 64) digits, least significant bit first; the
    lowest set bit of D = (z ^ A) & (2^m - 1), D & -D, is the first digit
    where x and a differ, and x < a iff it is set in A.  A lane with D = 0
    ties with a's first m digits, so x >= a when exp <= 64.

    A level that exceeds some depth exceeds the least depth there, so a
    coordinate where no lane's block 0 can exceed that one fails no
    profile.  Beyond 64 that needs block 0 all zeros (geometric) or all
    ones (family), and every splitmix64 round is a bijection of 64-bit
    words, so each seed has one such index mod 2^64: K ^ _BLOCK0_ZERO or
    K ^ _BLOCK0_ONES, with K its seed round.  These are packed once per
    chunk, and the lanes whose index has no bit at or above the window's
    bit length b are read out, each with probability 2^(b-64); a
    coordinate of least depth 64 or more that is no lane's index is
    passed over without drawing block 0.  Otherwise each depth is tested
    with one mask for every lane, and the only lanes drawn are those of
    seeds yet to fail that profile whose block 0 allows it with d > 64, or
    ties with a at family d = 1 when exp > 64; each happens with
    probability 2^-64.  A zero lane y sets bit 64 of ((y + low) & high) ^
    high: adding 2^64 - 1 carries into bit 64 exactly when y is not zero.
    D & -D is D & ((D ^ low) + unit) in every lane, since (D ^ low) + 1 is
    -D mod 2^64 and D has no bit 64.
    """
    n = len(seeds)
    unit, low, add = _lane_constants(n)
    high = unit << 64
    packed = int.from_bytes(b"".join((s & MASK64).to_bytes(16, "little") for s in seeds), "little")
    keys = _mix(packed ^ _SEED_SALT * unit, low, add)  # prf_block's seed round in every lane
    alive = [high] * len(profiles)  # bit 64 of lane j while seeds[j] has not failed the profile
    masks = {}  # bits -> their low bits set in every lane
    if family:
        num, exp = family
        m = min(exp, 64)
        head = _reversed_bits(num >> exp - m, m) * unit  # A in every lane
        digits = ((1 << m) - 1) * unit

    def zero(y):
        """Bit 64 of each lane of y that is zero."""
        return ((y + low) & high) ^ high

    def exceeding(z, d):
        """Bit 64 of each lane whose block 0 leaves its level free to exceed d."""
        if family and d == 1:
            diff = (z ^ head) & digits
            return zero(diff & ((diff ^ low) + unit) & head)
        bits = min(d, 64)
        mask = masks.get(bits)
        if mask is None:
            mask = masks[bits] = ((1 << bits) - 1) * unit
        y = z & mask
        if family:
            y ^= mask
        return zero(y)

    # each lane's one index where its level can exceed 64; those below
    # 2^bits, which hold every coordinate of the window, are collected
    deep = keys ^ (_BLOCK0_ONES if family else _BLOCK0_ZERO) * unit
    bits = max(map(len, profiles), default=0).bit_length()
    near = zero(deep & (MASK64 >> bits << bits) * unit).to_bytes(16 * n, "little")
    deep_indices = set()
    j = near.find(1)
    while j >= 0:
        deep_indices.add(deep >> 8 * j - 64 & MASK64)
        j = near.find(1, j + 1)

    for i, least in enumerate(map(min, zip_longest(*profiles, fillvalue=inf)), start=1):
        if not any(alive):
            break
        if least >= 64 and i not in deep_indices:
            continue
        z = block0_lanes(keys, i, n)
        tested = {least: exceeding(z, least)}
        if not tested[least]:
            continue
        for k, profile in enumerate(profiles):
            if alive[k] and i <= len(profile):
                d = profile[i - 1]
                if d not in tested:
                    tested[d] = exceeding(z, d)
                failed = tested[d] & alive[k]
                if d > 64:
                    undecided = failed
                elif family and d == 1 and exp > 64:
                    undecided = failed & zero((z ^ head) & digits)
                else:
                    undecided = 0
                if undecided:
                    lanes = undecided.to_bytes(16 * n, "little")
                    j = lanes.find(1)  # byte 16j + 8 holds bit 64 of lane j
                    while j >= 0:
                        if draw(j >> 4, i) <= d:
                            failed ^= 1 << (8 * j)
                        j = lanes.find(1, j + 1)
                alive[k] ^= failed
    return [[x == 1 for x in a.to_bytes(16 * n, "little")[8::16]] for a in alive]
