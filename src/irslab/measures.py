"""Symbolic measures on the subgroup space and envelope probabilities.

A measure is a small immutable descriptor tree.  The base atoms sit on
the descending chain Gamma_k (the kernels of the retractions phi_k), so
the probability that a random subgroup contains a finite word set E is a
function of the minimal depth over E, and every composite descriptor
evaluates either exactly (dyadic) or as a certified enclosure via the
grid-tail bound of the co-induced infinite product.

Convention, fixed for the whole artifact: a group element g acts on
subgroups by D -> g D g^-1, hence on measures by
(g_* mu)(Env w) = mu(Env g^-1 w g).
"""

from __future__ import annotations

import enum
import math
from typing import Iterator, Tuple, Union

from irslab._backend import kernels
from irslab.dyadic import (
    DEFAULT_FACTOR_CAP,
    MAX_EXACT_BITS,
    ZERO,
    ONE,
    Dyadic,
    Enclosure,
    Exact,
    certified_product,
    one_minus_pow2,
    pow2,
    quoted,
    record,
)
from irslab.words import Word, conjugate
from irslab.ywords import depth

# Instance constants of the parametrized family: the chain first drops at
# level 2, and the reweighted head mass is 1/2 + 1/4.
FAMILY_STEP = 2
FAMILY_HEAD_MASS = Dyadic(3, 2)

DEFAULT_TARGET_WIDTH = pow2(21)
# syllables the rewrites of an event's words may emit, counted before the
# rewrite runs for each event env_prob evaluates (moved events included)
# and for a command's --words: eval --measure mu_F took 1.07 s on
# [b^500,a^500] (250,000) and 5.2 s on [b^1000,a^1000]
MAX_REWRITE_SYLLABLES = 250_000
# evaluating a descriptor takes a few stack frames per nesting level, and
# past about 980 levels Python's default recursion limit stops it
MAX_DESCRIPTOR_DEPTH = 900
# reading a weight of about 19,700 digits (1 - 2^-65536) takes 9-16 ms, so
# a descriptor of this many characters (at most about 53 such weights) is
# read in under a second
MAX_DESCRIPTOR_CHARS = 1 << 20
# a co-induced value reads every coordinate to a few rings past the radius:
# at 2^-128, [b^48,a^48] (radius 47) took 1.65 s and [b^64,a^64] 2.7 s
# (in-process), and a^200 abAB A^200 34 s at 2^-21
MAX_SUPPORT_RADIUS = 48

INSTANCE_DESCRIPTION = {
    "group": "free group on a, b",
    "relator": "none (free)",
    "base_element": "abAB",
    "cyclic_subgroup": "<abAB>",
    "normal_closure": "commutator subgroup",
    "transversal": "a^p b^q enumerated by the square spiral on Z^2",
    "finite_transversal": [""],
    "pushforward_convention": "(g_*mu)(Env w) = mu(Env g^-1 w g)",
}


# ---------------------------------------------------------------------------
# descriptors
# ---------------------------------------------------------------------------

KINDS: dict = {}  # JSON tag -> descriptor class, each entered by @_kind


def _kind(tag: str):
    """Make the class an immutable descriptor record with this JSON tag."""

    def declare(cls):
        KINDS[tag] = cls = record(cls)
        return cls

    return declare


@_kind("geom_gamma")
class GeomGamma:
    """Weight 2^-k on the k-th chain subgroup, k >= 1."""


@_kind("param_family")
class ParamFamily:
    """Head-reweighted chain measure: weight a on level 1, 3/4 - a on
    level 2, and 2^-k on levels k >= 3; requires 0 < a < 3/4 dyadic.
    At a = 1/2 this coincides with GeomGamma."""

    a: Dyadic

    def __post_init__(self):
        if not isinstance(self.a, Dyadic):
            raise TypeError("parameter a must be a Dyadic")
        if not (ZERO < self.a < FAMILY_HEAD_MASS):
            raise ValueError("parameter a must satisfy 0 < a < 3/4, got %s" % quoted(str(self.a)))


@_kind("dirac_trivial")
class DiracTrivial:
    """Point mass on the trivial subgroup."""


@_kind("dirac_gamma")
class DiracGamma:
    """Point mass on the k-th chain subgroup."""

    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("chain level must be >= 1, got %s" % quoted(self.k))


CHAIN_TYPES = (GeomGamma, ParamFamily, DiracTrivial, DiracGamma)


@_kind("pushforward")
class Pushforward:
    g: Word
    inner: "Measure"


@_kind("convex")
class Convex:
    """Convex combination; dyadic weights must sum exactly to one."""

    parts: Tuple[Tuple[Dyadic, "Measure"], ...]

    def __post_init__(self):
        total = ZERO
        for w, _ in self.parts:
            if not isinstance(w, Dyadic) or w <= ZERO:
                raise ValueError("convex weights must be positive dyadics")
            total = total + w
        if total != ONE:
            raise ValueError("convex weights sum to %s, not 1" % quoted(str(total)))


@_kind("coinduced_product")
class CoinducedProduct:
    """Intersection of the pushforwards of the inner measure over the full
    grid transversal.  Supported inners are the chain atoms; each carries a
    certified product tail."""

    inner: "Measure"

    def __post_init__(self):
        if not isinstance(self.inner, CHAIN_TYPES):
            raise ValueError(
                "co-induction is supported over chain measures only, got %r"
                % (type(self.inner).__name__,)
            )


@record
class _Power:
    """n >= 1 independent copies of a chain measure."""

    n: int
    inner: "Measure"

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("power must be >= 1, got %s" % quoted(self.n))
        if not isinstance(self.inner, CHAIN_TYPES):
            raise ValueError("powers are defined over chain measures only, got %r"
                             % (type(self.inner).__name__,))


@_kind("intersect_power")
class IntersectPower(_Power):
    """Intersection of n independent copies; chain measures only, where
    the intersection of chain atoms is the atom of maximal level."""


@_kind("generate_power")
class GeneratePower(_Power):
    """Subgroup generated by n independent copies; chain measures only,
    where the join of chain atoms is the atom of minimal level."""


Measure = Union[tuple(KINDS.values())]
_TAGS = {cls: tag for tag, cls in KINDS.items()}

MU_F = GeomGamma()
MU_G = CoinducedProduct(MU_F)


def family_measure(a: Dyadic) -> CoinducedProduct:
    """The co-induced member of the parametrized family at parameter a."""
    return CoinducedProduct(ParamFamily(a))


# ---------------------------------------------------------------------------
# chain weights and events
# ---------------------------------------------------------------------------

def chain_env_weight(mu, K) -> Dyadic:
    """Total weight of chain atoms at level <= K (the chain CDF)."""
    if K is not math.inf and K < 1:
        raise ValueError("level must be >= 1 or inf, got %r" % (K,))
    if isinstance(mu, GeomGamma):
        return one_minus_pow2(K)
    if isinstance(mu, ParamFamily):
        if K is math.inf:
            return ONE
        if K == 1:
            return mu.a
        if K == FAMILY_STEP:
            return FAMILY_HEAD_MASS
        return one_minus_pow2(K)
    if isinstance(mu, DiracGamma):
        return ONE if (K is math.inf or mu.k <= K) else ZERO
    if isinstance(mu, DiracTrivial):
        return ONE if K is math.inf else ZERO
    raise TypeError("not a chain measure: %r" % (mu,))


def _event_words(words) -> tuple:
    """The words of an envelope event (a lone Word is one word): the
    identity dropped, the rest deduplicated and sorted by (length,
    letters).  The empty event is the sure event."""
    if isinstance(words, Word):
        words = (words,)
    nontrivial = {w for w in words if not w.is_identity()}
    return tuple(sorted(nontrivial, key=lambda w: (len(w), w.letters)))


def _outside_commutator(words) -> bool:
    """Whether some word leaves the commutator subgroup.  Every descriptor
    is supported in that subgroup (chain atoms lie in it, and it is normal,
    so pushforwards, mixtures, powers and co-induction stay in it), so such
    an event has probability zero under every measure."""
    return any(w.abelianization() != (0, 0) for w in words)


def _refuse_beyond_cap(what: str, exp: int) -> None:
    """Refuse an exact value of denominator 2^exp beyond MAX_EXACT_BITS."""
    if exp > MAX_EXACT_BITS:
        raise ValueError("%s has denominator 2^%d; at most 2^%d is printed"
                         % (what, exp, MAX_EXACT_BITS))


def check_rewrite_length(words) -> None:
    """Refuse words whose rewrites emit more than MAX_REWRITE_SYLLABLES
    syllables in all, counted before any rewrite runs."""
    syllables = sum(kernels.rewrite_length(w.letters) for w in words)
    if syllables > MAX_REWRITE_SYLLABLES:
        raise ValueError("the words rewrite to %d syllables before reduction; at most %d are "
                         "rewritten" % (syllables, MAX_REWRITE_SYLLABLES))


def _chain_cdf(mu, words) -> Dyadic:
    """The chain CDF at the minimal depth K over an event inside the
    commutator subgroup, refused before a geometric or family CDF builds
    the K bits of 1 - 2^-K; a point mass's CDF is 0 or 1 at every depth."""
    K = min(depth(w) for w in words)
    if isinstance(mu, (GeomGamma, ParamFamily)):
        _refuse_beyond_cap("the chain value", K)
    return chain_env_weight(mu, K)


def _grid_tail(count_done: int, radius: int) -> Dyadic:
    """Certified bound on the summed per-coordinate defect beyond the first
    count_done spiral indices, for an event of the given support radius.

    A conjugate by a ring-l transversal element has depth at least
    ring_start(l - radius) once l > radius, so each skipped coordinate on
    ring l contributes at most 2^-ring_start(l - radius); rings at or
    below the radius carry no bound (returns 1 until they are consumed).
    """
    return _ring_tail(kernels.spiral_ring(count_done + 1), radius, MU_F)(count_done)


def _ring_tail(l0: int, radius: int, inner):
    """The tail bound of a co-induced product over the chain measure inner,
    as a function of count_done, for the counts whose next spiral index
    lies on ring l0: the ring's terms are summed once, and a count only
    takes its own coordinates off ring l0's term.

    A coordinate on ring l > radius has depth at least D_l = ring_start(l -
    radius), so its defect is at most 1 - cdf(D_l): 2^-D_l for a geometric
    or family inner (D_l >= 2), 0 or 1 for a point mass.  D_l grows by
    8(l - radius) >= 8 per ring, so consecutive terms shrink by more than
    half, or are 0 from a point mass's first cleared ring on, and twice the
    ring l0+7 term closes the series.  Before that ring a point mass's bound
    is at least 1, which certified_product reads as 1."""
    if l0 <= radius:
        return lambda count_done: ONE
    # one coordinate's bound 1 - cdf(D_l) on rings l0 .. l0+7, in units of
    # the finest of them
    rings = range(l0, l0 + 8)
    cdfs = [chain_env_weight(inner, kernels.ring_start(l - radius)) for l in rings]
    finest = max(c.exp for c in cdfs)
    head, *units = [(1 << finest) - (c.num << (finest - c.exp)) for c in cdfs]
    rest = 8 * rings[-1] * units[-1] + sum(8 * l * u for l, u in zip(rings[1:], units))
    last = (2 * l0 + 1) ** 2  # the last spiral index on ring l0
    return lambda count_done: Dyadic((last - count_done) * head + rest, finest)


def _coinduced_value(inner, words, target_width, factor_cap) -> Enclosure:
    """Certified product of the per-coordinate factors of a co-induced
    measure; one origin rewrite per word gives the radius and column 0."""
    origins = [kernels.rewrite_points(w.letters) for w in words]
    radius = max(map(kernels.support_radius, origins))
    if radius > MAX_SUPPORT_RADIUS:
        raise ValueError("a co-induced event may have support radius at most %d, got %d"
                         % (MAX_SUPPORT_RADIUS, radius))

    # the tail formula of the ring the product is on is rebuilt only when the
    # product moves to another ring (or back to ring 0, when it reruns)
    ring, ring_tail = None, None

    def tail_bound(done):
        nonlocal ring, ring_tail
        l0 = kernels.spiral_ring(done + 1)
        if l0 != ring:
            ring, ring_tail = l0, _ring_tail(l0, radius, inner)
        return ring_tail(done)

    def factors():
        # the event conjugated back through each transversal element a^p b^q;
        # its words are nontrivial commutator-subgroup words, so every
        # conjugate depth is finite and at least 1
        walks = [kernels.conjugate_depths(w.letters, o) for w, o in zip(words, origins)]
        for depths in zip(*walks):
            yield chain_env_weight(inner, min(depths))

    return certified_product(factors(), tail_bound, target_width, factor_cap)


def _combine_affine(parts) -> Enclosure:
    """Weighted combination of probability values (weights sum to 1)."""
    lo = hi = ZERO
    for w, v in parts:
        lo = lo + w * v.lo
        hi = hi + w * v.hi
    _refuse_beyond_cap("a convex combination", max(lo.exp, hi.exp))
    if all(isinstance(v, Exact) for _, v in parts):
        return Exact(lo)
    return Enclosure(lo, hi, all(v.width_reached for _, v in parts))


def env_prob(
    mu: Measure,
    words,
    target_width: Dyadic = DEFAULT_TARGET_WIDTH,
    factor_cap: int = DEFAULT_FACTOR_CAP,
) -> Enclosure:
    """Probability that a mu-random subgroup contains every word of the
    finite event words (a lone Word, or an iterable of them).  Identity
    words are dropped and repeats do not count, so the empty event is the
    sure event and the order of the words changes nothing."""
    event = _event_words(words)
    if not event:
        return Exact(ONE)
    if _outside_commutator(event):
        return Exact(ZERO)
    check_rewrite_length(event)

    if isinstance(mu, CHAIN_TYPES):
        return Exact(_chain_cdf(mu, event))

    if isinstance(mu, Pushforward):
        g_inv = mu.g.inverse()
        moved = tuple(conjugate(g_inv, w) for w in event)
        return env_prob(mu.inner, moved, target_width, factor_cap)

    if isinstance(mu, Convex):
        parts = [
            (w, env_prob(inner, event, target_width, factor_cap))
            for w, inner in mu.parts
        ]
        return _combine_affine(parts)

    if isinstance(mu, (IntersectPower, GeneratePower)):
        cdf = _chain_cdf(mu.inner, event)
        # 1 - cdf has the bits of cdf, so both powers have n times them
        if mu.n * cdf.exp > MAX_EXACT_BITS:
            raise ValueError("power %s of the chain value has denominator 2^(n * %d); at most "
                             "2^%d is printed" % (quoted(mu.n), cdf.exp, MAX_EXACT_BITS))
        if isinstance(mu, IntersectPower):
            return Exact(Dyadic(cdf.num ** mu.n, cdf.exp * mu.n))
        miss = ONE - cdf
        return Exact(ONE - Dyadic(miss.num ** mu.n, miss.exp * mu.n))

    if isinstance(mu, CoinducedProduct):
        return _coinduced_value(mu.inner, event, target_width, factor_cap)

    raise TypeError("unknown measure descriptor %r" % (mu,))


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------

class CertifiedBool(enum.Enum):
    TRUE = "true"
    FALSE = "false"
    UNKNOWN = "unknown-at-width"

    def __bool__(self):
        raise TypeError("CertifiedBool is three-valued; compare explicitly")


def kernel_verdict(v: Enclosure) -> CertifiedBool:
    """Whether an enclosure v of mu(Env w) shows mu(Env w) = 1."""
    if v.hi < ONE:
        return CertifiedBool.FALSE
    if v.lo == ONE:
        return CertifiedBool.TRUE
    return CertifiedBool.UNKNOWN


def essential_verdict(v: Enclosure) -> CertifiedBool:
    """Whether an enclosure v of mu(Env w) shows mu(Env w) > 0."""
    if v.lo > ZERO:
        return CertifiedBool.TRUE
    if v.hi.is_zero():
        return CertifiedBool.FALSE
    return CertifiedBool.UNKNOWN


def kernel_contains(mu: Measure, w: Word) -> CertifiedBool:
    """Whether w lies in the kernel of mu, i.e. mu(Env w) = 1, judged at
    DEFAULT_TARGET_WIDTH."""
    # one co-induced factor already refutes membership for most words: every
    # factor is at most one, so the probe's hi bounds the full value's
    v = env_prob(mu, (w,), factor_cap=1)
    if v.hi >= ONE and not isinstance(v, Exact):
        v = env_prob(mu, (w,))
    return kernel_verdict(v)


def essential(mu: Measure, w: Word, target_width: Dyadic = DEFAULT_TARGET_WIDTH) -> CertifiedBool:
    """Whether w is essential for mu, i.e. mu(Env w) > 0."""
    return essential_verdict(env_prob(mu, (w,), target_width))


class Region(enum.Enum):
    TRIVIAL = "trivial"
    COMMUTATOR = "commutator"
    WHOLE = "whole"


def supported_in(mu: Measure, region: Region) -> bool:
    """Symbolic containment: every constituent subgroup of mu lies in the
    region (all three regions are normal, so conjugation is absorbed).

    Judged from the constituents, so degenerate intersections can be
    under-approximated: a co-induced point mass at level two or higher
    concentrates on the trivial subgroup, yet its constituents do not lie
    in it and the answer stays False.  Sound in the True direction on the
    whole grammar."""
    if type(mu) not in _TAGS:
        raise TypeError("unknown measure descriptor %r" % (mu,))
    if region is Region.WHOLE or isinstance(mu, DiracTrivial):
        return True
    if isinstance(mu, CHAIN_TYPES):
        return region is Region.COMMUTATOR
    if isinstance(mu, Convex):
        return all(supported_in(inner, region) for _, inner in mu.parts)
    return supported_in(mu.inner, region)


# order of the intersection power of mu1 that combination_checks compares
COMBINATION_POWER = 3


def combination_checks(mu1: Measure, mu2: Measure, words) -> Iterator[bool]:
    """Predicate-level kernel/essential identities for the half-half convex
    combination, plus kernel stability under the COMBINATION_POWER-th
    intersection power of mu1: whether all of them hold, one bool per word,
    judged as the word arrives."""
    half = Dyadic(1, 1)
    conv = Convex(((half, mu1), (half, mu2)))
    ipow = IntersectPower(COMBINATION_POWER, mu1) if isinstance(mu1, CHAIN_TYPES) else None
    TRUE = CertifiedBool.TRUE
    for w in words:
        # each measure is evaluated once, at DEFAULT_TARGET_WIDTH, where
        # kernel_contains and essential judge too
        values = [env_prob(mu, (w,)) for mu in (mu1, mu2, conv)]
        k1, k2, kc = (kernel_verdict(v) is TRUE for v in values)
        e1, e2, ec = (essential_verdict(v) is TRUE for v in values)
        ok_power = ipow is None or (kernel_verdict(env_prob(ipow, (w,))) is TRUE) == k1
        yield kc == (k1 and k2) and ec == (e1 or e2) and ok_power


def mixing_defect(
    w1: Word, w2: Word, shift: Word, target_width: Dyadic = DEFAULT_TARGET_WIDTH
) -> Enclosure:
    """Independence defect of the two envelope events under shifting:
    |P(both) - P(first) P(second)| for the co-induced measure, with the
    second event conjugated by the shift."""
    for w in (w1, w2):
        if w.abelianization() != (0, 0):
            raise ValueError("mixing defect requires commutator-subgroup words")
    if w1.is_identity() or w2.is_identity():
        return Enclosure(ZERO, ZERO, True)
    moved = conjugate(shift, w2)
    part_width = Dyadic(target_width.num, target_width.exp + 2)
    joint = env_prob(MU_G, (w1, moved), part_width)
    first = env_prob(MU_G, (w1,), part_width)
    second = env_prob(MU_G, (moved,), part_width)
    reached = joint.width_reached and first.width_reached and second.width_reached
    defect = (joint - first * second).abs()
    hi = defect.hi if defect.hi < ONE else ONE
    return Enclosure(defect.lo, hi, reached)


# ---------------------------------------------------------------------------
# descriptor serialization
# ---------------------------------------------------------------------------

def descriptor_to_json(mu: Measure) -> dict:
    """Each field coded by its name: a, weight (dyadics) and g (a word) as
    text, k and n as integers, inner and parts as nested objects.  Nesting
    recurses through this function alone, one frame per level."""
    if type(mu) not in _TAGS:
        raise TypeError("unknown measure descriptor %r" % (mu,))
    data = {"type": _TAGS[type(mu)]}
    for name in mu._fields:
        value = getattr(mu, name)
        if name == "inner":
            value = descriptor_to_json(value)
        elif name == "parts":
            value = [{"weight": str(w), "inner": descriptor_to_json(inner)} for w, inner in value]
        elif name not in ("k", "n"):
            value = str(value)
        data[name] = value
    return data


def descriptor_from_json(data: dict) -> Measure:
    """The descriptor a JSON object encodes; a malformed one (not an
    object, a missing or unread key, a value of the wrong type) raises
    ValueError."""
    try:
        return _descriptor_fields(data)
    except KeyError as exc:
        raise ValueError("measure descriptor lacks the key %s" % (exc,)) from None
    except (TypeError, AttributeError) as exc:
        raise ValueError("malformed measure descriptor: %s" % (exc,)) from None


def _descriptor_fields(data: dict, depth: int = 0) -> Measure:
    """The inverse of descriptor_to_json, at the given nesting depth."""
    if depth > MAX_DESCRIPTOR_DEPTH:
        raise ValueError("a measure descriptor may nest at most %d levels" % MAX_DESCRIPTOR_DEPTH)
    if not isinstance(data, dict):
        raise ValueError("a measure descriptor must be a JSON object, got %s"
                         % (type(data).__name__,))
    kind = data.get("type")
    if kind == "induced_finite":
        # an average of pushforwards over representatives in the commutator
        # subgroup, where each chain subgroup is normal: every pushforward,
        # hence the average, is the chain inner itself
        _refuse_unread(data, ("type", "reps", "inner"), kind)
        reps = [Word.parse(r) for r in data["reps"]]
        if not reps or len(reps) & (len(reps) - 1):
            raise ValueError("representative count must be a power of two, got %d" % len(reps))
        for r in reps:
            if r.abelianization() != (0, 0):
                raise ValueError("representative %s is outside the commutator subgroup"
                                 % quoted(str(r)))
        inner = _descriptor_fields(data["inner"], depth + 1)
        if not isinstance(inner, CHAIN_TYPES):
            raise ValueError("induced averages are supported over chain measures only")
        return inner
    cls = KINDS.get(kind)
    if cls is None:
        raise ValueError("unknown measure type %s" % (quoted(kind),))
    _refuse_unread(data, ("type",) + cls._fields, kind)
    values = []
    for name in cls._fields:
        value = data[name]
        if name == "inner":
            value = _descriptor_fields(value, depth + 1)
        elif name == "parts":
            value = tuple(_convex_part(part, depth) for part in value)
        elif name in ("k", "n"):
            value = _descriptor_int(name, value)
        elif name == "g":
            value = Word.parse(value)
        else:
            value = _descriptor_dyadic(name, value)
        values.append(value)
    return cls(*values)


def _convex_part(part: dict, depth: int) -> tuple:
    _refuse_unread(part, ("weight", "inner"), "a convex part")
    return _descriptor_dyadic("weight", part["weight"]), _descriptor_fields(part["inner"], depth + 1)


def _refuse_unread(data: dict, keys, what: str) -> None:
    """Reject a value that is not a JSON object, or one with a key outside
    keys, which nothing would read."""
    if not isinstance(data, dict):
        raise ValueError("%s must be a JSON object, got %s" % (what, type(data).__name__))
    unread = sorted(set(data).difference(keys))
    if unread:
        raise ValueError("%s does not read the key %s" % (what, quoted(", ".join(unread))))


def _descriptor_int(key: str, value) -> int:
    """A JSON integer (not a boolean) or an integer string; any other
    value, 2.5 or 1e400 among them, raises ValueError."""
    if isinstance(value, str):
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError("descriptor key %r must be an integer, got %s" % (key, quoted(value)))


def _descriptor_dyadic(key: str, value) -> Dyadic:
    """A dyadic string; a JSON number raises ValueError, since the JSON
    parser may already have rounded it."""
    if not isinstance(value, str):
        raise ValueError("descriptor key %r must be a string such as \"1/4\", got %s"
                         % (key, type(value).__name__))
    return Dyadic.parse(value)


# mu_HF averages mu_F over the finite transversal {1}, so it is mu_F
_MEASURE_ALIASES = {"mu_F": MU_F, "mu_HF": MU_F, "mu_G": MU_G}


def parse_measure(text: str) -> Measure:
    """Aliases mu_F / mu_HF / mu_G, mu_aF:<a> and mu_aG:<a> for the family
    chain measure and its co-induced measure, or a JSON descriptor (inline
    or @file).  Every refusal is a ValueError, an unreadable @file's too."""
    import json

    text = text.strip()
    if text in _MEASURE_ALIASES:
        return _MEASURE_ALIASES[text]
    if text.startswith("mu_aG:"):
        return family_measure(Dyadic.parse(text.split(":", 1)[1]))
    if text.startswith("mu_aF:"):
        return ParamFamily(Dyadic.parse(text.split(":", 1)[1]))
    if text.startswith("@"):
        try:
            with open(text[1:], "r", encoding="utf-8") as fh:
                text = fh.read(MAX_DESCRIPTOR_CHARS + 1)
        except OSError as exc:
            raise ValueError(str(exc)) from None
    if len(text) > MAX_DESCRIPTOR_CHARS:
        raise ValueError("a measure descriptor may be at most %d characters" % MAX_DESCRIPTOR_CHARS)
    try:
        return descriptor_from_json(json.loads(text))
    except RecursionError:
        # json's decoder and the descriptor walk take frames per nesting level
        raise ValueError("measure descriptor is nested too deeply") from None
