import math
import random
import time
from fractions import Fraction
from itertools import count, islice

import pytest

from _helpers import (
    CHI2_Q9973,
    FAMILY_PARAMS,
    MASK64,
    coordinate_chi_square,
    dyadic_param_coordinate,
    family_param,
    iter_reduced,
    packed_lanes,
    reference_geometric_coordinate,
    reference_key_lanes,
    reference_prf_block,
    scalar_member_scan,
    scan_profile,
    scan_profiles,
)
from irslab import _purekernels
from irslab._purekernels import SEED_CHUNK
from irslab.dyadic import Dyadic, Enclosure, Exact
from irslab.measures import MU_G, GeomGamma, ParamFamily, family_measure
from irslab.sampler import (
    SampledSubgroup,
    chi_square_report,
    depth_profile,
    membership_matrix,
    membership_window,
    sample,
    z_score,
)
from irslab.words import A, COMMUTATOR, IDENTITY, Word, conjugate
from irslab.ywords import YWord, expand, y

Y2_WORD = Word.parse("aabABA")


def test_sample_determinism():
    s1 = sample(MU_G, 42)
    s2 = sample(MU_G, 42)
    assert [s1.coordinate(i) for i in range(1, 50)] == [
        s2.coordinate(i) for i in range(1, 50)
    ]
    # repeated queries never contradict themselves
    for w in (COMMUTATOR, Y2_WORD, A, IDENTITY):
        first = s1.member(w)
        assert all(s1.member(w) == first for _ in range(3))
    s3 = sample(MU_G, 43)
    assert any(s1.coordinate(i) != s3.coordinate(i) for i in range(1, 50))


def test_member_scan_agrees_with_materialized_coordinates():
    profile = depth_profile(COMMUTATOR)
    for seed in range(300):
        s = sample(MU_G, seed)
        expected = all(s.coordinate(i) <= d for i, d in enumerate(profile, start=1))
        assert s.member(COMMUTATOR) == expected


def test_member_trivial_cases():
    s = sample(MU_G, 7)
    assert s.member(IDENTITY) is True
    assert s.member(A) is False
    assert s.member(Word.parse("ab")) is False


def test_member_single_coordinate_violation():
    # find a seed whose first coordinate level is 2; the commutator has
    # depth 1 there, so membership fails on that coordinate alone
    seed = next(s for s in range(1000) if sample(MU_G, s).coordinate(1) == 2)
    subgroup = sample(MU_G, seed)
    assert subgroup.member(COMMUTATOR) is False


def test_membership_window_grows_with_tolerance():
    w60 = membership_window(0, 60)
    w10 = membership_window(0, 10)
    assert w60 == 81  # rings up to 4 suffice for the default tolerance
    assert w10 <= w60
    assert membership_window(2, 60) >= w60


def test_depth_profile_rejects_bad_words():
    with pytest.raises(ValueError):
        depth_profile(IDENTITY)
    with pytest.raises(ValueError):
        depth_profile(A)


# [a^30,b^30] needs a window of 4489 coordinates, and its walk took 7.7 s
WIDE_WORD = Word.parse("a" * 30 + "b" * 30 + "A" * 30 + "B" * 30)


@pytest.mark.parametrize(
    "call",
    [lambda: sample(MU_G, 1).member(WIDE_WORD),
     lambda: next(membership_matrix(range(3), [WIDE_WORD], MU_G)),
     lambda: depth_profile(WIDE_WORD)],
    ids=["member", "membership_matrix", "depth_profile"],
)
def test_library_calls_refuse_a_window_over_the_cap_before_any_walk(call):
    started = time.perf_counter()
    with pytest.raises(ValueError, match="needs a membership window of 4489 coordinates"):
        call()
    assert time.perf_counter() - started < 0.1


# membership_window compares each ring's tail with 2^-tolerance_exp: its
# ring loop took 4.6 s at 10^8 before the window cap could refuse
HUGE_TOLERANCE = 10**8


@pytest.mark.parametrize(
    "call",
    [lambda: sample(MU_G, 1, HUGE_TOLERANCE).member(COMMUTATOR),
     lambda: next(membership_matrix(range(3), [COMMUTATOR], MU_G, HUGE_TOLERANCE)),
     lambda: next(membership_matrix(range(3), [IDENTITY, A], MU_G, HUGE_TOLERANCE)),
     lambda: depth_profile(COMMUTATOR, HUGE_TOLERANCE)],
    ids=["member", "membership_matrix", "fixed_answer_words", "depth_profile"],
)
def test_library_calls_refuse_a_tolerance_over_the_cap_before_any_walk(call):
    started = time.perf_counter()
    with pytest.raises(ValueError, match=r"tolerance exponent must lie in \[1, 1024\], got 100000000"):
        call()
    assert time.perf_counter() - started < 0.1


def test_sampling_rejects_unsupported():
    with pytest.raises(ValueError):
        sample(GeomGamma(), 1)
    with pytest.raises(ValueError):
        SampledSubgroup(GeomGamma(), 1, tolerance_exp=0)
    sample(family_measure(Dyadic(1, 2)), 5)  # param inner is fine
    from irslab.measures import CoinducedProduct, DiracGamma

    with pytest.raises(ValueError):
        sample(CoinducedProduct(DiracGamma(2)), 1)
    with pytest.raises(ValueError):
        coordinate_chi_square(range(200), inner=DiracGamma(2))


def test_geometric_coordinate_distribution():
    rep = coordinate_chi_square(range(10000), coordinate=1)
    assert rep["pass"], rep
    rep7 = coordinate_chi_square(range(10000), coordinate=7)
    assert rep7["pass"], rep7


def test_param_coordinate_distribution():
    a = Dyadic(1, 2)  # 1/4: P(1)=1/4, P(2)=1/2, P(k)=2^-k beyond
    rep = coordinate_chi_square(range(10000), coordinate=1, inner=ParamFamily(a))
    assert rep["pass"], rep


def test_param_sampling_member_consistency():
    mu = family_measure(Dyadic(1, 2))
    s = sample(mu, 99)
    profile = depth_profile(COMMUTATOR)
    expected = all(s.coordinate(i) <= d for i, d in enumerate(profile, start=1))
    assert s.member(COMMUTATOR) == expected
    assert s.member(COMMUTATOR) == sample(mu, 99).member(COMMUTATOR)


def _frequencies(seeds, words, mu=MU_G):
    """Word -> fraction of the yielded membership rows that contain it."""
    n = len(seeds)
    hits = [sum(column) for column in zip(*membership_matrix(seeds, words, mu))]
    return {str(w): h / n for w, h in zip(words, hits)}


def test_membership_frequencies_match_exact_values():
    words = [IDENTITY, A, COMMUTATOR, Y2_WORD, expand(y(1, 2))]
    seeds = range(10000)
    by_word = _frequencies(seeds, words)
    assert by_word[""] == 1.0
    assert by_word["a"] == 0.0
    p = Fraction("0.2887880951")
    sigma = math.sqrt(float(p) * (1 - float(p)) / len(seeds))
    for text in ("abAB", "aabABA", str(expand(y(1, 2)))):
        freq = by_word[text]
        assert abs(freq - float(p)) <= 3 * sigma, (text, freq)


def test_membership_matrix_deterministic():
    words = [COMMUTATOR, Y2_WORD]
    a = list(membership_matrix(range(500), words))
    b = list(membership_matrix(range(500), words))
    assert a == b


def test_membership_matrix_streams_rows():
    # rows come one seed at a time from an endless seed iterator, which is
    # read a chunk at a time: never SEED_CHUNK seeds ahead of the rows taken
    read = []

    def seeds():
        for seed in count(7):
            read.append(seed)
            yield seed

    words = [IDENTITY, A, COMMUTATOR, Y2_WORD, expand(YWord([(3, 1), (7, -1)]))]
    rows = membership_matrix(seeds(), words)
    for taken, (seed, row) in enumerate(zip(count(7), islice(rows, SEED_CHUNK + 2)), start=1):
        assert 0 <= len(read) - taken < SEED_CHUNK, taken
        if taken in (1, 2, 3, SEED_CHUNK, SEED_CHUNK + 1):
            draw = sample(MU_G, seed).coordinate
            expected = [True, False] + [scalar_member_scan(draw, depth_profile(w)) for w in words[2:]]
            assert row == expected, seed


def test_sampled_members_stay_in_commutator_subgroup():
    # exact, not statistical: anything outside has a nonzero abelianization
    words = [w for w in iter_reduced(4)]
    for seed in range(50):
        s = sample(MU_G, seed)
        for w in words:
            if w.abelianization() != (0, 0):
                assert s.member(w) is False


def test_subgroup_closure_on_samples():
    # members found by enumeration stay closed under product and inverse
    pool = [w for w in iter_reduced(8) if w.abelianization() == (0, 0)]
    rows = membership_matrix(count(), pool)
    product_profiles = {}
    trials = 0
    seed = 0
    while trials < 10000:
        s = sample(MU_G, seed)
        seed += 1
        members = [w for w, member in zip(pool, next(rows)) if member][:6]
        products = [u * v for u in members for v in members]
        closure = [u.inverse() for u in members] + [uv for uv in products if not uv.is_identity()]
        for w in closure:
            if w not in product_profiles:
                product_profiles[w] = depth_profile(w)
        # one scan of this seed answers every inverse and product
        assert scan_profiles(s, [product_profiles[w] for w in closure]) == [True] * len(closure)
        trials += len(closure)
    assert trials >= 10000


def test_empirical_invariance():
    n = 10000
    for g, w in ((Word.parse("ab"), COMMUTATOR), (Word.parse("BA"), Y2_WORD)):
        moved = conjugate(g.inverse(), w)
        hits_w = hits_m = 0
        for member_w, member_m in membership_matrix(range(n), [w, moved]):
            hits_w += member_w
            hits_m += member_m
        p = 0.2887880951
        sigma_diff = math.sqrt(2 * p * (1 - p) / n)
        assert abs(hits_w - hits_m) / n <= 3 * sigma_diff


def test_z_score_formula():
    # hand-checked: (0.289 - 0.288788) / sqrt(p(1-p)/1e4) ~ 0.047
    z = z_score(Fraction("0.289"), Fraction("0.288788"), 10000)
    assert 0.04 <= z <= 0.06
    z_bad = z_score(Fraction("0.35"), Fraction("0.288788"), 10000)
    assert 13.0 <= z_bad <= 14.0
    assert z_score(Fraction(1), Fraction(1), 10000) == 0.0
    assert z_score(Fraction(99, 100), Fraction(1), 10000) == -math.inf


def test_chi_square_report():
    exact = [Exact(Dyadic(1, 1)), Exact(Dyadic(3, 2))]
    rep = chi_square_report([Fraction(1, 2), Fraction(3, 4)], exact, 10000, ["u", "v"])
    assert rep["pass"] and all(c["z"] == 0.0 for c in rep["cells"])
    assert [c["label"] for c in rep["cells"]] == ["u", "v"]
    rep = chi_square_report([Fraction("0.289")], [Exact(Dyadic.parse("0.288818359375"))], 10000, ["w"])
    assert rep["pass"]
    rep = chi_square_report([Fraction("0.35")], [Exact(Dyadic.parse("0.288818359375"))], 10000, ["w"])
    assert not rep["pass"]
    assert 13.0 <= rep["cells"][0]["z"] <= 14.0
    with pytest.raises(ValueError):
        chi_square_report([Fraction(1, 2)], [Exact(Dyadic(1, 1))], 50, ["w"])
    with pytest.raises(ValueError):
        # enclosure an order of magnitude wider than sigma must be refused
        wide = Enclosure(Dyadic.parse("0.25"), Dyadic.parse("0.3125"))
        chi_square_report([Fraction(1, 4)], [wide], 10000, ["w"])
    with pytest.raises(ValueError):
        chi_square_report([Fraction(1, 2)], [Exact(Dyadic(1, 1))], 10000, ["u", "v"])


def test_membership_tolerance_bound_documented():
    s = sample(MU_G, 3, tolerance_exp=30)
    assert s.tolerance_exp == 30
    assert s.member(COMMUTATOR) in (True, False)


def test_coordinates_pairwise_independent():
    # 2x2 contingency of (k_1 == 1) vs (k_6 == 1) across seeds; both margins
    # are fair coins, so each cell expects n/4
    n = 10000
    cells = [[0, 0], [0, 0]]
    for seed in range(n):
        s = sample(MU_G, seed)
        cells[s.coordinate(1) == 1][s.coordinate(6) == 1] += 1
    expected = n / 4
    stat = sum((cells[i][j] - expected) ** 2 / expected for i in (0, 1) for j in (0, 1))
    assert stat <= 14.16  # 0.9973 chi-square quantile at 3 degrees of freedom


def test_family_sampling_frequency_matches_closed_form():
    a = Dyadic(1, 3)  # value 2a * prod(1-2^-j) = 0.25 * 0.288788...
    mu = family_measure(a)
    n = 4000
    freq = _frequencies(range(n), [COMMUTATOR], mu)["abAB"]
    p = 0.25 * 0.2887880951
    sigma = math.sqrt(p * (1 - p) / n)
    assert abs(freq - p) <= 3 * sigma, (freq, p)


def _prf_triples():
    rng = random.Random(2024)
    seeds = [0, 1, 2**63, MASK64, 2**64, 2**64 + 5, 2**100 + 3, -1, -2**64 - 7]
    seeds += [rng.getrandbits(64) for _ in range(15)]
    indices = [1, 2, 841, 2**64 + 1, -3] + [rng.randint(1, 5000) for _ in range(5)]
    for seed in seeds:
        for index in indices:
            yield seed, index, rng.choice((0, 0, 1, 7, 2**64 + 2, -1))


def test_prf_matches_three_round_splitmix():
    triples = list(_prf_triples())
    assert len(triples) >= 200
    for seed, index, block in triples:
        assert _purekernels.prf_block(seed, index, block) == reference_prf_block(seed, index, block)
        assert _purekernels.geometric_coordinate(seed, index) == reference_geometric_coordinate(
            reference_prf_block, seed, index
        )


def test_geometric_coordinate_reads_later_blocks(monkeypatch):
    def first_block_zero(seed, index, block):
        return 0 if block == 0 else reference_prf_block(seed, index, block)

    monkeypatch.setattr(_purekernels, "prf_block", first_block_zero)
    for seed in (0, 9, 2**64 + 9, -9):
        for index in range(1, 30):
            k = _purekernels.geometric_coordinate(seed, index)
            assert k > 64
            assert k == reference_geometric_coordinate(first_block_zero, seed, index)


def test_param_coordinate_matches_dyadic_oracle():
    for a in FAMILY_PARAMS + [Dyadic(1, 65536)]:
        for seed in range(300):
            for index in range(1, 61):
                k = _purekernels.family_coordinate(seed, index, a.num, a.exp)
                assert k == dyadic_param_coordinate(_purekernels.prf_block, seed, index, a), (a, seed, index)


@pytest.mark.parametrize("first_block", [0, MASK64])
def test_param_coordinate_reads_later_blocks(monkeypatch, first_block):
    # a constant first block pins the first 64 bits; 2^-70 (zeros) and
    # every parameter (ones, the k >= 3 tail) then need bits of block 1
    blocks = set()

    def prf(seed, index, block):
        blocks.add(block)
        return first_block if block == 0 else reference_prf_block(seed, index, block)

    monkeypatch.setattr(_purekernels, "prf_block", prf)
    for a in FAMILY_PARAMS:
        for seed in range(10):
            for index in range(1, 11):
                k = _purekernels.family_coordinate(seed, index, a.num, a.exp)
                assert k == dyadic_param_coordinate(prf, seed, index, a), (a, seed, index)
    assert 1 in blocks


def test_param_coordinate_reads_only_the_blocks_it_compares(monkeypatch):
    # a = 2^-65536 has 65,535 leading zero digits, so a block 0 that is
    # neither all zeros nor all ones decides the draw against it
    reads = []

    def prf(seed, index, block):
        reads.append(block)
        return reference_prf_block(seed, index, block)

    monkeypatch.setattr(_purekernels, "prf_block", prf)
    for seed in range(50):
        for index in range(1, 21):
            first = reference_prf_block(seed, index, 0)
            assert first not in (0, MASK64)
            reads.clear()
            k = _purekernels.family_coordinate(seed, index, 1, 65536)
            assert reads == [0], (seed, index)
            assert k == (2 if first & 3 != 3 else (first ^ (first + 1)).bit_length())


# -- packed block-0 lanes ---------------------------------------------------

PROFILE_DEPTHS = (1, 2, 3, 63, 64, 65, 200)
LANE_SEEDS = [0, 1, 5, 2**63 + 1, MASK64, 2**64, 2**64 + 5, 2**100 + 3, -1, -2**64 - 7]


def _random_profiles(rng, count, length=60):
    return [
        tuple(rng.choice(PROFILE_DEPTHS) for _ in range(rng.randint(1, length)))
        for _ in range(count)
    ]


def test_block0_lanes_match_prf():
    # one pass draws block 0 of one coordinate for every seed of a chunk
    for seeds in (LANE_SEEDS[:1], LANE_SEEDS[:2], LANE_SEEDS * 9):
        keys = reference_key_lanes(seeds)
        for index in (1, 2, 81, 2**64 + 1):
            lanes = _purekernels.block0_lanes(keys, index, len(seeds))
            assert lanes >> (128 * len(seeds)) == 0
            for j, seed in enumerate(seeds):
                lane = lanes >> (128 * j) & ((1 << 128) - 1)
                assert lane == reference_prf_block(seed, index, 0), (seed, index)


def test_member_scan_matches_scalar_scan():
    rng = random.Random(77)
    for depths in _random_profiles(rng, 300):
        for seed in LANE_SEEDS + list(range(20)):
            expected = scalar_member_scan(
                lambda i: reference_geometric_coordinate(reference_prf_block, seed, i), depths
            )
            assert scan_profile(SampledSubgroup(GeomGamma(), seed), depths) == expected, (seed, depths)


def test_family_scan_matches_coordinate_loop():
    rng = random.Random(78)
    profiles = _random_profiles(rng, 40)
    for a in FAMILY_PARAMS:
        inner = ParamFamily(a)
        for depths in profiles:
            for seed in range(25):
                expected = scalar_member_scan(SampledSubgroup(inner, seed).coordinate, depths)
                assert scan_profile(SampledSubgroup(inner, seed), depths) == expected, (a, seed, depths)


@pytest.mark.parametrize("forced", [0, MASK64])
def test_scans_on_forced_block0(monkeypatch, forced):
    # block 0 is pinned on chosen lanes, in the packed lanes and in
    # prf_block alike: all zeros sends geometric lanes of depth >= 65 and
    # family lanes of depth 1 at a = 2^-70 (a tie with a's first 64
    # digits) to later blocks, all ones family lanes of depth >= 65
    chosen = {1, 2, 3, 5, 8, 13, 21, 34}
    blocks = set()

    def prf(seed, index, block):
        blocks.add(block)
        if block == 0 and index in chosen:
            return forced
        return reference_prf_block(seed, index, block)

    real_lanes = _purekernels.block0_lanes

    def lanes(keys, index, n):
        return packed_lanes([forced] * n) if index in chosen else real_lanes(keys, index, n)

    monkeypatch.setattr(_purekernels, "block0_lanes", lanes)
    monkeypatch.setattr(_purekernels, "prf_block", prf)
    rng = random.Random(79)
    profiles = [
        tuple(rng.choice((1, 63, 64, 65, 200)) for _ in range(40)) for _ in range(30)
    ]
    for depths in profiles:
        for seed in range(10):
            expected = scalar_member_scan(
                lambda i: reference_geometric_coordinate(prf, seed, i), depths
            )
            assert scan_profile(SampledSubgroup(GeomGamma(), seed), depths) == expected, (seed, depths)
    assert (1 in blocks) == (forced == 0)
    blocks.clear()
    for depths in profiles:
        for seed in range(10):
            for a in FAMILY_PARAMS:
                s = SampledSubgroup(ParamFamily(a), seed)
                assert scan_profile(s, depths) == scalar_member_scan(s.coordinate, depths), (a, seed, depths)
    assert 1 in blocks


def test_member_scan_accepts_any_sequence():
    rng = random.Random(80)
    for depths in _random_profiles(rng, 50):
        for seed in range(10):
            s = SampledSubgroup(GeomGamma(), seed)
            assert scan_profile(s, list(depths)) == scan_profile(s, depths)
    profile = depth_profile(COMMUTATOR)
    for inner in (GeomGamma(), ParamFamily(Dyadic(1, 2))):
        for seed in range(50):
            s = SampledSubgroup(inner, seed)
            assert scan_profile(s, list(profile)) == scan_profile(s, profile)


def test_membership_matrix_draws_only_undecided_coordinates(monkeypatch):
    # the shape of a sample command: radius-2 words from spiral indices
    # 16..25, seeds checked one chunk at a time.  Block 0 decides a lane of
    # depth <= 64, so a coordinate is drawn only when its block-0 bits are
    # all zeros at a depth beyond 64, up to the scan's first violation
    singles = [expand(y(i)) for i in (16, 18, 20, 22)]
    products = [expand(YWord([(i, 1), (j, 1)])) for i, j in ((17, 21), (19, 24), (23, 25))]
    words = [IDENTITY] + singles + products
    seeds = list(range(200))
    profiles = [depth_profile(w) for w in words[1:]]
    assert len({len(p) for p in profiles}) == 1
    expected = 0
    for seed in seeds:
        for profile in profiles:
            for i, d in enumerate(profile, start=1):
                if d and reference_prf_block(seed, i, 0) & ((1 << min(d, 64)) - 1) == 0:
                    if d <= 64:
                        break
                    expected += 1
                    if reference_geometric_coordinate(reference_prf_block, seed, i) > d:
                        break
    assert expected == 0  # every depth of these windows is at most 64

    calls = {"geometric_coordinate": 0, "block0_lanes": 0}
    for name in calls:
        def counted(*args, _fn=getattr(_purekernels, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(_purekernels, name, counted)
    rows = list(membership_matrix(seeds, words))
    # the seeds make one chunk: one block-0 pass per window coordinate
    assert calls["block0_lanes"] == len(profiles[0])
    assert calls["geometric_coordinate"] == expected
    for seed, row in zip(seeds, rows):
        def draw(i, _seed=seed):
            return reference_geometric_coordinate(reference_prf_block, _seed, i)
        assert row == [True] + [scalar_member_scan(draw, p) for p in profiles], seed


def test_membership_matrix_draws_block0_once_per_chunk_and_coordinate(monkeypatch):
    # windows 121, 169 and 225, listed shortest first, over two chunks of
    # seeds: each chunk's block 0 is drawn once per coordinate, in order, out
    # to the longest window, and serves the shorter ones too
    words = [expand(y(i)) for i in (2, 10, 26)]
    profiles = [depth_profile(w) for w in words]
    assert [len(p) for p in profiles] == [121, 169, 225]
    seeds = range(SEED_CHUNK + 100)
    calls = []
    real_lanes = _purekernels.block0_lanes

    def counted(keys, index, n):
        calls.append((n, index))
        return real_lanes(keys, index, n)

    monkeypatch.setattr(_purekernels, "block0_lanes", counted)
    for inner, mu in ((GeomGamma(), MU_G), (ParamFamily(Dyadic(1, 2)), family_measure(Dyadic(1, 2)))):
        calls.clear()
        rows = list(membership_matrix(seeds, words, mu))
        assert calls == [(n, i) for n in (SEED_CHUNK, 100) for i in range(1, 226)]
        for seed in seeds[::37]:
            draw = SampledSubgroup(inner, seed).coordinate
            assert rows[seed] == [scalar_member_scan(draw, p) for p in profiles], seed


@pytest.mark.parametrize("n", [1, SEED_CHUNK - 1, SEED_CHUNK, SEED_CHUNK + 1])
def test_membership_rows_match_scalar_scan_at_chunk_edges(n):
    # LANE_SEEDS first, then distinct seeds: chunks that end just before,
    # at and just after the last seed give the rows of a lone scan
    seeds = (LANE_SEEDS + list(range(100, 100 + n)))[:n]
    words = [IDENTITY, COMMUTATOR, A, Y2_WORD, expand(YWord([(3, 1), (7, -1)]))]
    profiles = [depth_profile(w) for w in (COMMUTATOR, Y2_WORD, words[-1])]
    for inner, mu in ((GeomGamma(), MU_G), (ParamFamily(Dyadic(1, 2)), family_measure(Dyadic(1, 2)))):
        rows = list(membership_matrix(seeds, words, mu))
        assert len(rows) == n
        for seed, row in zip(seeds, rows):
            draw = SampledSubgroup(inner, seed).coordinate
            a, b, c = (scalar_member_scan(draw, p) for p in profiles)
            assert row == [True, a, False, b, c], (n, seed)


@pytest.mark.parametrize("forced", [0, MASK64])
def test_chunk_scan_with_block0_forced_on_some_seeds(monkeypatch, forced):
    # block 0 is pinned on some seeds of one chunk at some coordinates, in
    # the packed lanes and in prf_block alike; geometric lanes of all zeros
    # and family lanes of all ones are drawn beyond depth 64, and no other
    # lane is: block 0 decides every family lane of depth 1 unless it ties
    # with a's first 64 digits
    seeds = list(range(40))
    pinned_seeds, pinned_indices = {1, 4, 9, 16, 25, 36}, {1, 2, 3, 5, 8, 13, 21}
    real_lanes = _purekernels.block0_lanes

    def prf(seed, index, block):
        if block == 0 and seed in pinned_seeds and index in pinned_indices:
            return forced
        return reference_prf_block(seed, index, block)

    def lanes(keys, index, n):
        packed = real_lanes(keys, index, n)
        if index in pinned_indices:
            for j in pinned_seeds:
                packed = packed & ~(MASK64 << 128 * j) | forced << 128 * j
        return packed

    monkeypatch.setattr(_purekernels, "block0_lanes", lanes)
    monkeypatch.setattr(_purekernels, "prf_block", prf)
    # no depth 1 at a pinned coordinate, so a draw there is a deep one
    rng = random.Random(81)
    profiles = [
        tuple(rng.choice((2, 63, 64, 65, 200) if i in pinned_indices else (1, 2, 63, 64, 65, 200))
              for i in range(1, 25))
        for _ in range(6)
    ]
    for inner in [GeomGamma()] + [ParamFamily(a) for a in FAMILY_PARAMS]:
        subgroups = [SampledSubgroup(inner, seed) for seed in seeds]
        drawn = []

        def draw(j, i):
            drawn.append((j, i))
            return subgroups[j].coordinate(i)

        answers = _purekernels.member_scan(seeds, profiles, family_param(inner), draw)
        for k, profile in enumerate(profiles):
            expected = [scalar_member_scan(s.coordinate, profile) for s in subgroups]
            assert answers[k] == expected, (inner, k)
        pinned = {(j, i) for j in pinned_seeds for i in pinned_indices}
        deep_block0 = MASK64 if isinstance(inner, ParamFamily) else 0
        assert set(drawn) <= pinned and bool(drawn) == (forced == deep_block0), inner


def test_least_depth_skip_keeps_every_failure():
    # a coordinate is skipped only when no lane exceeds the least depth
    # there.  Depths of 5..11 over 256 seeds leave many coordinates where
    # the only levels beyond the least depth exceed it by exactly one, and
    # a failure missed at any of them changes a row
    rng = random.Random(82)
    seeds = list(range(1000, 1256))
    profiles = [tuple(rng.randint(5, 11) for _ in range(80)) for _ in range(4)]
    for inner in (GeomGamma(), ParamFamily(Dyadic(1, 2))):
        subgroups = [SampledSubgroup(inner, seed) for seed in seeds]
        levels = [[s.coordinate(i) for i in range(1, 81)] for s in subgroups]
        answers = _purekernels.member_scan(seeds, profiles, family_param(inner), lambda j, i: levels[j][i - 1])
        for k, profile in enumerate(profiles):
            expected = [all(x <= d for x, d in zip(row, profile)) for row in levels]
            assert answers[k] == expected, (inner, k)
            assert 0 < sum(expected) < len(seeds)


def test_fixed_answer_words_draw_no_level(monkeypatch):
    # without an [F,F] word the longest window is 0: each seed's lanes
    # are empty and no level is drawn, by membership_matrix or by member
    def no_draw(*args):
        raise AssertionError("prf_block called with %r" % (args,))

    monkeypatch.setattr(_purekernels, "prf_block", no_draw)
    words = [IDENTITY, A, Word.parse("ab")]
    for mu in (MU_G, family_measure(Dyadic(1, 2))):
        assert list(membership_matrix(range(50), words, mu)) == [[True, False, False]] * 50
    for inner in (GeomGamma(), ParamFamily(Dyadic(1, 2))):
        for seed in range(50):
            assert [SampledSubgroup(inner, seed).member(w) for w in words] == [True, False, False]


@pytest.mark.parametrize("max_bin", [0, 16, -1])
def test_coordinate_chi_square_rejects_bins_without_a_threshold(max_bin):
    with pytest.raises(ValueError):
        coordinate_chi_square(range(200), max_bin=max_bin)


@pytest.mark.parametrize("max_bin", [1, 15])
def test_coordinate_chi_square_takes_every_tabulated_bin(max_bin):
    rep = coordinate_chi_square(range(2000), max_bin=max_bin)
    assert rep["df"] == max_bin
    assert rep["threshold"] == CHI2_Q9973[max_bin - 1]
    assert rep["pass"], rep
