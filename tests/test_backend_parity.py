"""Cross-checks that the compiled kernels are a bit-identical twin of the
pure-Python reference."""

import random

import pytest

from _helpers import random_reduced_letters
from irslab._backend import available_backends, get_backend

pytestmark = pytest.mark.skipif(
    "compiled" not in available_backends(),
    reason="compiled kernel extension not built",
)


@pytest.fixture(scope="module")
def backends():
    return get_backend("pure"), get_backend("compiled")


def test_word_ops_parity(backends):
    pure, comp = backends
    rng = random.Random(99)
    for _ in range(4000):
        raw = tuple(rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(0, 60)))
        assert pure.free_reduce(raw) == comp.free_reduce(raw)
        u = random_reduced_letters(rng, rng.randint(0, 30))
        v = random_reduced_letters(rng, rng.randint(0, 30))
        assert pure.mul_words(u, v) == comp.mul_words(u, v)
        assert pure.inv_word(u) == comp.inv_word(u)
        assert pure.conj_word(u, v) == comp.conj_word(u, v)
        assert pure.abelianize(u) == comp.abelianize(u)


def test_spiral_parity(backends):
    pure, comp = backends
    for i in range(1, 30000):
        assert pure.spiral_point(i) == comp.spiral_point(i)
    rng = random.Random(5)
    for _ in range(3000):
        p, q = rng.randint(-300, 300), rng.randint(-300, 300)
        assert pure.spiral_index(p, q) == comp.spiral_index(p, q)
    # beyond the compiled fast-path ring limit the fallback must agree too
    big = 1 << 22
    assert pure.spiral_index(big, -big) == comp.spiral_index(big, -big)
    j = pure.spiral_index(big, 0)
    assert pure.spiral_point(j) == comp.spiral_point(j) == (big, 0)
    assert pure.ring_start(17) == comp.ring_start(17)


def test_rewrite_parity(backends):
    pure, comp = backends
    rng = random.Random(123)
    for _ in range(3000):
        sylls = tuple(
            (rng.randint(1, 60), rng.choice((-3, -2, -1, 1, 2, 3)))
            for _ in range(rng.randint(0, 10))
        )
        norm = pure.normalize_syllables(sylls)
        assert norm == comp.normalize_syllables(sylls)
        w = pure.expand_syllables(norm)
        assert w == comp.expand_syllables(norm)
        if w:
            rp = pure.rewrite_syllables(w)
            rc = comp.rewrite_syllables(w)
            assert rp == rc
            assert pure.depth_syllables(rp) == comp.depth_syllables(rc)
        k = rng.randint(1, 20)
        assert pure.phi_syllables(norm, k) == comp.phi_syllables(norm, k)
        p, q = rng.randint(-8, 8), rng.randint(-8, 8)
        assert pure.shifted_depth(w, p, q) == comp.shifted_depth(w, p, q)


def test_rewrite_rejects_parity(backends):
    pure, comp = backends
    for letters in ((1,), (1, 2), (2, 2, -1)):
        with pytest.raises(ValueError):
            pure.rewrite_syllables(letters)
        with pytest.raises(ValueError):
            comp.rewrite_syllables(letters)


def test_prf_parity(backends):
    pure, comp = backends
    rng = random.Random(2718)
    for _ in range(5000):
        seed = rng.getrandbits(64)
        idx = rng.randint(1, 10**9)
        block = rng.randint(0, 3)
        assert pure.prf_block(seed, idx, block) == comp.prf_block(seed, idx, block)
        assert pure.geometric_coordinate(seed, idx) == comp.geometric_coordinate(seed, idx)


def test_member_scan_parity(backends):
    pure, comp = backends
    rng = random.Random(31415)
    for _ in range(40):
        depths = tuple(rng.randint(1, 25) for _ in range(81))
        for seed in range(300):
            assert pure.member_scan(seed, depths) == comp.member_scan(seed, depths)


def test_forced_backend_env():
    import os
    import subprocess
    import sys

    code = (
        "import irslab; print(irslab.BACKEND)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={
            "IRSLAB_BACKEND": "pure",
            "PATH": "/usr/bin:/bin",
            "PYTHONPATH": os.environ.get("PYTHONPATH", ""),
        },
        capture_output=True,
        text=True,
    )
    assert out.stdout.strip() == "pure"
