import inspect
import json
import subprocess
import sys
import time
import tracemalloc

import pytest

from _helpers import DESCRIPTOR_JSON
from irslab import cli
from irslab.cli import (
    EXIT_FAIL,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_WIDTH,
    MAX_COMBINATION_WORDS,
    MAX_INVARIANCE_PAIRS,
    MAX_SAMPLE_WORDS,
    MAX_TOLERANCE_EXP,
    SUITES,
    VERIFY_FLAGS,
    main,
)
from irslab.dyadic import ONE, Dyadic, one_minus_pow2
from irslab import measures
from irslab.measures import MAX_DESCRIPTOR_DEPTH, MAX_EXACT_BITS
from irslab import sampler
from irslab.sampler import MAX_MEMBERSHIP_WINDOW, word_window
from irslab.words import Word


def run_cli(args, out_path):
    code = main(list(args) + ["--out", str(out_path)])
    data = json.loads(out_path.read_text()) if out_path.exists() else None
    return code, data


def test_eval_exact(tmp_path):
    code, rep = run_cli(["eval", "--measure", "mu_F", "--word", "abAB"], tmp_path / "r.json")
    assert code == EXIT_OK
    assert rep["results"][0]["value"] == {"exact": "1/2^1", "approx": 0.5}
    assert rep["instance"]["base_element"] == "abAB"
    assert "pushforward_convention" in rep["instance"]


def test_eval_zero_for_non_commutator(tmp_path):
    code, rep = run_cli(["eval", "--measure", "mu_F", "--word", "a"], tmp_path / "r.json")
    assert code == EXIT_OK
    assert rep["results"][0]["value"]["exact"] == "0/2^0"


def test_eval_coinduced_enclosure(tmp_path):
    code, rep = run_cli(
        ["eval", "--measure", "mu_G", "--word", "abAB", "--width", "1e-6"],
        tmp_path / "r.json",
    )
    assert code == EXIT_OK
    value = rep["results"][0]["value"]
    assert value["width_reached"] is True
    assert abs(value["lo_approx"] - 0.2887881) < 2e-6


def test_eval_joint_event(tmp_path):
    code, rep = run_cli(
        ["eval", "--measure", "mu_F", "--word", "abAB", "--word", "aabABA", "--joint"],
        tmp_path / "r.json",
    )
    assert code == EXIT_OK
    assert len(rep["results"]) == 1
    assert rep["results"][0]["value"]["exact"] == "1/2^1"


def test_eval_exact_value_beyond_int_digit_limit(tmp_path):
    # depth 19322: the numerator has about 5800 decimal digits
    word = "a" * 70 + "abAB" + "A" * 70
    code, rep = run_cli(["eval", "--measure", "mu_F", "--word", word], tmp_path / "r.json")
    assert code == EXIT_OK
    assert Dyadic.parse(rep["results"][0]["value"]["exact"]) == one_minus_pow2(19322)


def test_eval_exact_value_at_bit_cap(tmp_path, capsys):
    # a^k [a,b] a^-k has depth ring_start(k) = (2k - 1)^2 + 1
    word = "a" * 128 + "abAB" + "A" * 128
    code, rep = run_cli(["eval", "--measure", "mu_F", "--word", word], tmp_path / "r.json")
    assert code == EXIT_OK
    assert Dyadic.parse(rep["results"][0]["value"]["exact"]) == one_minus_pow2(65026)
    assert 65026 <= MAX_EXACT_BITS < 66050
    out = tmp_path / "over.json"
    word = "a" * 129 + "abAB" + "A" * 129
    assert main(["eval", "--measure", "mu_F", "--word", word, "--out", str(out)]) == EXIT_PARSE
    assert not out.exists()
    assert "2^66050" in capsys.readouterr().err


def test_deep_chain_value_is_refused_before_it_is_built(tmp_path, capsys):
    # depth 1,599,920,002: building the value took 1.4 s and 1 GB, and the
    # refusal then printed the whole 40,004-letter word
    word = "a" * 20000 + "abAB" + "A" * 20000
    out = tmp_path / "r.json"
    tracemalloc.start()
    try:
        started = time.perf_counter()
        assert main(["eval", "--measure", "mu_F", "--word", word, "--out", str(out)]) == EXIT_PARSE
        assert time.perf_counter() - started < 1
        assert tracemalloc.get_traced_memory()[1] < 50 * 2**20
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert err == ("error: --measure: the chain value has denominator 2^1599920002; at most "
                   "2^65536 is printed\n")
    assert not out.exists()


def _nested_convex(levels: int, innermost: str) -> str:
    """Each level puts weight 1 - 2^-65536 on the next and 2^-65536 on the
    trivial subgroup."""
    fine = Dyadic(1, MAX_EXACT_BITS)
    rest = ONE - fine
    measure = innermost
    for _ in range(levels):
        measure = ('{"type": "convex", "parts": [{"weight": "%s", "inner": %s}, '
                   '{"weight": "%s", "inner": {"type": "dirac_trivial"}}]}' % (rest, measure, fine))
    return measure


@pytest.mark.parametrize(
    "innermost, bits",
    [('{"type": "geom_gamma"}', 1),
     # the ends of a product at the default width 10^-6 have 20 + 64 bits
     ('{"type": "coinduced_product", "inner": {"type": "geom_gamma"}}', 84)],
    ids=["exact", "enclosure"],
)
def test_nested_convex_is_refused_at_its_first_level_beyond_the_cap(innermost, bits, tmp_path,
                                                                   capsys):
    # 40 levels ran 2.7 s over an exact value before exit 2, and 39 s over
    # an enclosure, whose ends no cap bounded, before exit 0; reading the
    # 80 weights takes most of the time left
    path = tmp_path / "nested.json"
    path.write_text(_nested_convex(40, innermost))
    out = tmp_path / "r.json"
    started = time.perf_counter()
    argv = ["eval", "--word", "abAB", "--measure", "@" + str(path), "--out", str(out)]
    assert main(argv) == EXIT_PARSE
    assert time.perf_counter() - started < 2
    # the innermost level already weighs a value of `bits` bits by 2^-65536
    assert capsys.readouterr().err == (
        "error: --measure: a convex combination has denominator 2^%d; at most 2^65536 is "
        "printed\n" % (MAX_EXACT_BITS + bits))
    assert not out.exists()


def test_induced_finite_descriptor_is_checked_and_normalised(tmp_path):
    code, rep = run_cli(["eval", "--measure", "mu_HF", "--word", "abAB"], tmp_path / "r.json")
    assert code == EXIT_OK
    assert rep["results"][0]["value"]["exact"] == "1/2^1"
    assert rep["config"]["measure"] == {"type": "geom_gamma"}
    code, rep = run_cli(["eval", "--word", "abAB"], tmp_path / "g.json")
    assert rep["config"]["measure"] == {
        "inner": {"type": "geom_gamma"},
        "type": "coinduced_product",
    }
    for reps in (["a"], ["", "abAB", "abAB"]):
        measure = json.dumps(
            {"type": "induced_finite", "reps": reps, "inner": {"type": "geom_gamma"}}
        )
        out = tmp_path / "bad.json"
        assert main(["eval", "--measure", measure, "--word", "abAB", "--out", str(out)]) == EXIT_PARSE
        assert not out.exists()


def test_eval_parse_error(tmp_path):
    code = main(["eval", "--measure", "mu_F", "--word", "xyz", "--out", str(tmp_path / "r.json")])
    assert code == EXIT_PARSE
    code = main(["eval", "--measure", "mu_what", "--word", "a"])
    assert code == EXIT_PARSE


def test_eval_width_not_reached(tmp_path):
    args = [
        "eval", "--measure", "mu_G", "--word", "abAB",
        "--width", "1/2^40", "--factor-cap", "4",
    ]
    code, rep = run_cli(args, tmp_path / "r.json")
    assert code == EXIT_WIDTH
    assert rep["results"][0]["value"]["width_reached"] is False
    code, _ = run_cli(args + ["--allow-wide"], tmp_path / "r2.json")
    assert code == EXIT_OK


def test_verify_closure(tmp_path):
    code, rep = run_cli(["verify", "closure"], tmp_path / "r.json")
    assert code == EXIT_OK
    assert rep["result"]["pass"] is True


def test_verify_chain_limits(tmp_path):
    code, rep = run_cli(["verify", "chain-limits", "--n", "4"], tmp_path / "r.json")
    assert code == EXIT_OK
    assert rep["result"]["params"]["n_max"] == 4


def test_verify_faithful_small(tmp_path):
    code, rep = run_cli(["verify", "faithful", "--max-len", "4"], tmp_path / "r.json")
    assert code == EXIT_OK
    res = rep["result"]
    assert res["n_words"] == 4 + 12 + 36 + 108
    assert res["failures"] == []


def test_verify_invariance_small(tmp_path):
    code, rep = run_cli(
        ["verify", "invariance", "--n", "12", "--max-len", "5", "--seed", "3"],
        tmp_path / "r.json",
    )
    assert code == EXIT_OK
    assert rep["result"]["n_failures"] == 0


def test_verify_mixing(tmp_path):
    code, rep = run_cli(["verify", "mixing", "--shift", "10"], tmp_path / "r.json")
    assert code == EXIT_OK
    assert rep["result"]["pass"] is True


def test_verify_mixing_at_the_radius_cap(tmp_path):
    # the shifted event a^-48 [a,b] a^48 has support radius 48
    code, rep = run_cli(["verify", "mixing", "--shift", "48"], tmp_path / "r.json")
    assert code == EXIT_OK
    assert rep["result"]["pass"] is True


def test_sample_replay_byte_identical(tmp_path):
    args = ["sample", "--n", "300", "--word", "abAB", "--word", "", "--seed", "42"]
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(list(args) + ["--out", str(out1)]) == EXIT_OK
    assert main(list(args) + ["--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    rep = json.loads(out1.read_text())
    by_word = {c["word"]: c for c in rep["summary"]}
    assert by_word[""]["frequency"] == 1.0
    assert rep["seeds"] == {"base": 42, "count": 300, "rule": "base + index"}


def test_sample_csv(tmp_path):
    csv_path = tmp_path / "m.csv"
    code = main(
        ["sample", "--n", "120", "--word", "abAB", "--seed", "1",
         "--csv", str(csv_path), "--out", str(tmp_path / "r.json")]
    )
    assert code == EXIT_OK
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "seed,abAB"
    assert len(lines) == 121
    assert all(line.split(",")[1] in ("0", "1") for line in lines[1:])


@pytest.mark.parametrize(
    "args",
    [
        ["sample", "--word", "abAB", "--n", "200", "--tolerance-exp", "0"],
        ["sample", "--word", "abAB", "--n", "0"],
        ["verify", "chain-limits", "--n", "0"],
        ["verify", "invariance", "--n", "-1"],
        ["verify", "combination", "--n", "0"],
        ["verify", "faithful", "--max-len", "-1"],
        ["verify", "faithful", "--max-len", "0"],
        ["verify", "faithful", "--max-len", "15"],
        ["verify", "invariance", "--max-len", "0"],
        ["eval", "--word", "abAB", "--factor-cap", "-1"],
        ["eval", "--word", "abAB", "--factor-cap", "0"],
        ["sample", "--word", "abAB", "--n", "1000001"],
        ["sample", "--word", "abAB", "--n", "200", "--tolerance-exp", "1025"],
        ["sample", "--word", "abAB", "--n", "99"],
        ["sample", "--word", "a" * 60 + "abAB" + "A" * 60, "--n", "200"],
        ["eval", "--word", "abAB", "--width", "1/2^129"],
        ["eval", "--word", "abAB", "--width", "1e-39"],
        ["family", "--a", "1/4", "--word", "abAB", "--width", "1/2^129"],
        ["verify", "invariance", "--width", "1/2^129"],
        ["verify", "mixing", "--shift", "49"],
        ["verify", "mixing", "--shift", "-49"],
        ["verify", "chain-limits", "--n", "1001"],
        ["verify", "invariance", "--n", str(MAX_INVARIANCE_PAIRS + 1)],
        ["verify", "combination", "--n", str(MAX_COMBINATION_WORDS + 1)],
        [
            "eval", "--word", "abAB", "--measure",
            '{"type": "intersect_power", "n": 1001, "inner": {"type": "geom_gamma"}}',
        ],
        [
            "eval", "--word", "abAB", "--measure",
            '{"type": "generate_power", "n": 1001, "inner": {"type": "geom_gamma"}}',
        ],
        # radius 20 (window 2209) with 320 letters
        ["sample", "--word", ("a" * 20 + "b" * 20 + "A" * 20 + "B" * 20) * 4, "--n", "100"],
        # a depth-19,322 word: 100 times its bits exceed MAX_EXACT_BITS
        [
            "eval", "--word", "a" * 70 + "abAB" + "A" * 70, "--measure",
            '{"type": "intersect_power", "n": 100, "inner": {"type": "geom_gamma"}}',
        ],
        [
            "eval", "--word", "a" * 70 + "abAB" + "A" * 70, "--measure",
            '{"type": "generate_power", "n": 14, "inner": {"type": "geom_gamma"}}',
        ],
        # an exact value of depth 358,802, beyond MAX_EXACT_BITS
        ["eval", "--measure", "mu_F", "--word", "a" * 300 + "abAB" + "A" * 300],
        ["sample", "--n", "200"] + ["--word", "abAB"] * (MAX_SAMPLE_WORDS + 1),
        # seeds are 64-bit PRF keys: a run's last seed is at most 2^64 - 1
        ["sample", "--word", "abAB", "--n", "200", "--seed", "-1"],
        ["sample", "--word", "abAB", "--n", "200", "--seed", str(2**64 - 200 + 1)],
    ],
)
def test_out_of_range_numbers_are_parse_errors(args, tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(args + ["--out", str(out)]) == EXIT_PARSE
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: --")


@pytest.mark.parametrize(
    "word",
    # a window of 40,001^2 coordinates, and 4,000 letters at window 121
    ["a" * 20000 + "b" + "A" * 20000 + "B", "abAB" * 1000],
    ids=["window", "letters times window"],
)
def test_sample_window_errors_quote_the_word_short(word, tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["sample", "--word", word, "--n", "100", "--out", str(out)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("error: --word ") and len(err) < 300, len(err)
    assert "characters)" in err
    assert not out.exists()


def _commutator(m, n):
    """[b^m, a^n]; its rewrite emits m n syllables."""
    return "b" * m + "a" * n + "B" * m + "A" * n


@pytest.mark.parametrize(
    "args",
    [
        # the rewrite of [b^N,a^N] emits N^2 syllables: 5.2 s at N = 1000
        # before the cap, and 32 s at N = 2000
        ["eval", "--measure", "mu_F", "--word", _commutator(1000, 1000)],
        ["eval", "--measure", "mu_F", "--word", _commutator(2000, 2000)],
        ["sample", "--word", _commutator(1000, 1000), "--n", "100"],
        ["family", "--a", "1/4", "--word", _commutator(1000, 1000)],
        # support radius 200, where mu_G took 34 s, and 1600 ([a^1600,b]), 47.7 s
        ["eval", "--width", "1/2^21", "--word", "a" * 200 + "abAB" + "A" * 200],
        ["eval", "--word", "a" * 1600 + "b" + "A" * 1600 + "B"],
        ["family", "--a", "1/4", "--word", "a" * 200 + "abAB" + "A" * 200],
        # the moved word b^-1000 [a^500,b] b^1000 rewrites to about 10^6
        # syllables: 4.8 s before the pushforward counted them
        ["eval", "--measure", '{"type": "pushforward", "g": "%s", "inner": {"type": "geom_gamma"}}'
         % ("b" * 1000), "--word", "a" * 500 + "b" + "A" * 500 + "B"],
    ],
)
def test_costly_words_exit_before_any_work(args, tmp_path, capsys):
    out = tmp_path / "r.json"
    started = time.perf_counter()
    assert main(args + ["--out", str(out)]) == EXIT_PARSE
    assert time.perf_counter() - started < 1
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: ")


def test_rewrite_cap_counts_all_the_words(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(measures, "MAX_REWRITE_SYLLABLES", 25)
    out = tmp_path / "r.json"
    assert main(["eval", "--measure", "mu_F", "--word", _commutator(5, 5), "--out", str(out)]) == EXIT_OK
    out.unlink()
    argv = ["eval", "--measure", "mu_F", "--word", _commutator(5, 5), "--word", "abAB"]
    assert main(argv + ["--out", str(out)]) == EXIT_PARSE
    assert capsys.readouterr().err == (
        "error: --word: the words rewrite to 26 syllables before reduction; at most 25 are rewritten\n")
    assert not out.exists()


def test_support_radius_cap_is_inclusive(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(measures, "MAX_SUPPORT_RADIUS", 2)
    out = tmp_path / "r.json"
    assert main(["eval", "--word", "aaabABAA", "--out", str(out)]) == EXIT_OK
    out.unlink()
    assert main(["eval", "--word", "aaaabABAAA", "--out", str(out)]) == EXIT_PARSE
    assert capsys.readouterr().err == (
        "error: --measure: a co-induced event may have support radius at most 2, got 3\n")
    assert not out.exists()


def test_sample_too_few_seeds_is_parse_error(tmp_path):
    code = main(["sample", "--n", "20", "--word", "abAB", "--out", str(tmp_path / "r.json")])
    assert code == EXIT_PARSE


def test_sample_checks_the_z_tests_before_any_scan(monkeypatch, tmp_path, capsys):
    # mu_aG:1/2^24 encloses abAB's value in [0, 2^-24], wider than a tenth
    # of its binomial sigma at 10^5 seeds
    monkeypatch.setattr(cli, "membership_matrix", lambda *args: pytest.fail("scanned"))
    out, csv_path = tmp_path / "r.json", tmp_path / "m.csv"
    args = ["sample", "--measure", "mu_aG:1/2^24", "--n", "100000", "--word", "abAB"]
    assert main(args + ["--out", str(out), "--csv", str(csv_path)]) == EXIT_PARSE
    assert "too wide" in capsys.readouterr().err
    assert not out.exists() and not csv_path.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["sample", "--n", "200", "--word", "abAB", "--csv", "{missing}", "--out", "{ok}"],
        ["sample", "--n", "200", "--word", "abAB", "--csv", "{ok}", "--out", "{missing}"],
        ["sample", "--n", "200", "--word", "abAB", "--csv", "{ok}", "--out", "{dir}"],
        ["eval", "--word", "abAB", "--out", "{missing}"],
        ["verify", "closure", "--out", "{dir}"],
        ["family", "--a", "1/4", "--word", "abAB", "--out", "{missing}"],
    ],
)
def test_unwritable_output_is_parse_error(args, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cli, "membership_matrix", lambda *args: pytest.fail("scanned"))
    monkeypatch.setattr(cli, "env_prob", lambda *args, **kw: pytest.fail("evaluated"))
    paths = {"missing": tmp_path / "no" / "such.json", "ok": tmp_path / "ok.json", "dir": tmp_path}
    argv = [a.format(**{k: str(v) for k, v in paths.items()}) for a in args]
    assert main(argv) == EXIT_PARSE
    assert capsys.readouterr().err.startswith("error: --")
    assert not list(tmp_path.iterdir())


def test_sample_memory_does_not_grow_with_seeds(tmp_path):
    # rows stream to the CSV, so ten times the seeds costs no more memory
    def peak(n):
        tracemalloc.start()
        try:
            code = main(["sample", "--n", str(n), "--word", "abAB", "--seed", "3",
                         "--csv", str(tmp_path / "m.csv"), "--out", str(tmp_path / "r.json")])
            assert code in (EXIT_OK, EXIT_FAIL)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2000)  # fills the kernels' small memos
    small, large = peak(2000), peak(20000)
    # holding a row per seed would add about 2.5 MB at 20,000 seeds
    assert large <= small + 256 * 1024, (small, large)


def test_verify_combination_memory_does_not_grow_with_words(tmp_path):
    # each word is drawn and judged as it comes, so ten times the words
    # costs no more memory
    def peak(n):
        tracemalloc.start()
        try:
            code = main(["verify", "combination", "--n", str(n), "--seed", "5",
                         "--out", str(tmp_path / "r.json")])
            assert code == EXIT_OK
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(200)  # fills the kernels' small memos
    small, large = peak(200), peak(2000)
    # holding the words and a dict per word would add about 0.8 MB at 2000
    assert large <= small + 256 * 1024, (small, large)


@pytest.mark.parametrize(
    "suite, n", [("invariance", MAX_INVARIANCE_PAIRS + 1), ("combination", 10**9)]
)
def test_verify_n_cap_is_checked_before_any_work(suite, n, monkeypatch, tmp_path, capsys):
    monkeypatch.setitem(cli.SUITES, suite, lambda **kw: pytest.fail("ran"))
    out = tmp_path / "r.json"
    assert main(["verify", suite, "--n", str(n), "--out", str(out)]) == EXIT_PARSE
    low = 2 if suite == "combination" else 1
    assert capsys.readouterr().err.startswith("error: --n must lie in [%d, " % low)
    assert not out.exists()


# one in-range value of every verify flag
VERIFY_FLAG_VALUES = {"--max-len": "4", "--n": "4", "--seed": "6", "--shift": "5",
                      "--width": "1/2^10"}


@pytest.mark.parametrize("source", ["argv", "config"])
@pytest.mark.parametrize("flag", sorted(VERIFY_FLAG_VALUES))
@pytest.mark.parametrize("suite", sorted(VERIFY_FLAGS))
def test_verify_reads_only_its_suite_flags(suite, flag, source, monkeypatch, tmp_path, capsys):
    calls = []

    def record(**kwargs):
        calls.append(kwargs)
        return {"pass": True, "params": {k: str(v) for k, v in kwargs.items()}}

    monkeypatch.setitem(cli.SUITES, suite, record)
    out, cfg = tmp_path / "r.json", tmp_path / "cfg.json"
    value = VERIFY_FLAG_VALUES[flag]
    if source == "argv":
        argv = ["verify", suite, flag, value]
    else:
        cfg.write_text(json.dumps({flag[2:]: value}))
        argv = ["--config", str(cfg), "verify", suite]
    code = main(argv + ["--out", str(out)])
    if flag in VERIFY_FLAGS[suite]:
        param = VERIFY_FLAGS[suite][flag][0]
        assert code == EXIT_OK
        assert str(calls[0][param]) == value
        assert json.loads(out.read_text())["config"][param] == value
    else:
        assert code == EXIT_PARSE
        assert capsys.readouterr().err == "error: %s is not read by verify %s\n" % (flag, suite)
        assert not calls and not out.exists()


@pytest.mark.parametrize(
    "suite, echo",
    [
        ("faithful", {"max_len": "8"}),
        ("invariance", {"pairs": "100", "max_len": "6", "width": "1/2^21", "seed": "20240801"}),
        ("closure", {"width": "1/2^21"}),
        ("chain-limits", {"n_max": "10"}),
        ("combination", {"sample_size": "200", "seed": "20240801"}),
        ("mixing", {"shift_exp": "10", "width": "1/2^21"}),
    ],
)
def test_verify_passes_and_echoes_the_suite_defaults(suite, echo, monkeypatch, tmp_path):
    # with no flag given, the CLI passes the suite no argument, so the suite
    # runs on its own defaults, and the config echoes the params the suite
    # reports it ran with, the width included
    calls = []
    run = cli.SUITES[suite]

    def record(**kwargs):
        calls.append(kwargs)
        return run(**kwargs)

    monkeypatch.setitem(cli.SUITES, suite, record)
    code, rep = run_cli(["verify", suite], tmp_path / "r.json")
    assert code == EXIT_OK
    assert calls == [{}]
    params = {k: str(v) for k, v in rep["result"]["params"].items()}
    assert rep["config"] == {"suite": suite, **params} == {"suite": suite, **echo}


@pytest.mark.parametrize(
    "suite, flag",
    [(suite, flag) for suite, flags in sorted(VERIFY_FLAGS.items())
     for flag, (_, low, _) in sorted(flags.items()) if low is not None],
)
def test_verify_flag_ranges_are_checked_before_any_work(suite, flag, monkeypatch, tmp_path, capsys):
    monkeypatch.setitem(cli.SUITES, suite, lambda **kw: pytest.fail("ran"))
    _, low, high = VERIFY_FLAGS[suite][flag]
    out = tmp_path / "r.json"
    for value in (low - 1, high + 1):
        assert main(["verify", suite, flag, str(value), "--out", str(out)]) == EXIT_PARSE
        assert capsys.readouterr().err.startswith("error: %s must lie in [%d, %d]" % (flag, low, high))
        assert not out.exists()


def test_invariance_needs_a_commutator_word(tmp_path, capsys):
    # below 4 letters there is no nontrivial [F,F] word to draw
    out = tmp_path / "r.json"
    for max_len in ("1", "3"):
        argv = ["verify", "invariance", "--max-len", max_len, "--n", "5", "--out", str(out)]
        assert main(argv) == EXIT_PARSE
        assert capsys.readouterr().err == "error: --max-len must lie in [4, 14], got %s\n" % max_len
        assert not out.exists()


def test_verify_flags_match_the_suite_parameters():
    for suite, flags in VERIFY_FLAGS.items():
        params = inspect.signature(SUITES[suite]).parameters
        assert sorted(param for param, _, _ in flags.values()) == sorted(params), suite
    parser = cli.build_parser().parse_args(["verify", "closure"]).parser
    options = {action.option_strings[-1] for action in parser._actions
               if action.option_strings} - {"--help", "--out"}
    assert options == set().union(*VERIFY_FLAGS.values())


@pytest.mark.parametrize("cmd", [[], ["eval"], ["verify"], ["sample"], ["family"]])
def test_every_help_renders(cmd, capsys):
    # argparse expands %(default)s only when the help is printed
    with pytest.raises(SystemExit) as exc:
        main(cmd + ["--help"])
    assert exc.value.code == EXIT_OK
    text = capsys.readouterr().out
    if cmd == ["verify"]:
        for flag in set().union(*VERIFY_FLAGS.values()):
            readers = sorted(suite for suite, flags in VERIFY_FLAGS.items() if flag in flags)
            assert text.count("\n  %s " % flag) == 1, flag
            assert "read by " + ", ".join(readers) in " ".join(text.split()), flag


def test_verify_combination_needs_two_words(monkeypatch, tmp_path, capsys):
    # the suite always checks IDENTITY and COMMUTATOR, so --n 1 cannot be honoured
    monkeypatch.setitem(cli.SUITES, "combination", lambda **kw: pytest.fail("ran"))
    out = tmp_path / "r.json"
    assert main(["verify", "combination", "--n", "1", "--out", str(out)]) == EXIT_PARSE
    assert "--n must lie in [2, " in capsys.readouterr().err
    assert not out.exists()
    monkeypatch.undo()
    code, rep = run_cli(["verify", "combination", "--n", "2"], out)
    assert code == EXIT_OK
    assert rep["result"]["params"]["sample_size"] == 2
    assert {p["n_words"] for p in rep["result"]["pairs"].values()} == {2}


@pytest.mark.parametrize(
    "args, literal",
    [
        (["eval", "--word", "abAB", "--width"], "1e-10000000"),
        (["eval", "--word", "abAB", "--width"], "1e-100000000"),
        (["eval", "--word", "abAB", "--width"], "1e100000000"),
        (["family", "--word", "abAB", "--a"], "1e-1000000"),
    ],
)
def test_huge_decimal_exponents_fail_fast(args, literal, tmp_path, capsys):
    out = tmp_path / "r.json"
    started = time.perf_counter()
    assert main(args + [literal, "--out", str(out)]) == EXIT_PARSE
    assert time.perf_counter() - started < 1.0
    err = capsys.readouterr().err
    assert repr(literal) in err and "exponent" in err, err
    assert not out.exists()


@pytest.mark.parametrize(
    "literal",
    ["7" * 10**6 + "/2^70", "7" * 10**6 + "/3", "1/" + "7" * 10**6, "7" * 10**6],
    ids=["num/2^exp", "p/q", "p/q-denominator", "integer"],
)
def test_million_digit_literals_fail_fast(literal, tmp_path, capsys):
    # Decimal to int is quadratic: a 10^6-digit numerator once took 37 s
    out = tmp_path / "r.json"
    started = time.perf_counter()
    assert main(["family", "--word", "abAB", "--a", literal, "--out", str(out)]) == EXIT_PARSE
    assert time.perf_counter() - started < 1.0
    err = capsys.readouterr().err
    assert "1000000 significant digits exceeds the 19729 digits of 2^65536" in err, err[:200]
    assert not out.exists()


@pytest.mark.parametrize("exp", ["65537", "-65537", "4000000", "-4000000"])
@pytest.mark.parametrize(
    "args",
    [
        ["eval", "--word", "abAB", "--width", "1/2^%s"],
        ["family", "--word", "abAB", "--a", "1/2^%s"],
        ["eval", "--word", "abAB", "--measure", "mu_aF:1/2^%s"],
        ["eval", "--word", "abAB", "--measure", "mu_aG:1/2^%s"],
        ["eval", "--word", "abAB", "--measure",
         '{"type": "convex", "parts": [{"weight": "1/2^%s", "inner": {"type": "geom_gamma"}}, '
         '{"weight": "1/2", "inner": {"type": "geom_gamma"}}]}'],
    ],
    ids=["width", "family-a", "mu_aF", "mu_aG", "convex-weight"],
)
def test_huge_power_of_two_exponents_fail_fast(args, exp, tmp_path, capsys):
    # mu_aF:1/2^-4000000 once spent 30 s printing its value in an error message
    literal = "1/2^" + exp
    out = tmp_path / "r.json"
    started = time.perf_counter()
    assert main(args[:-1] + [args[-1] % exp, "--out", str(out)]) == EXIT_PARSE
    assert time.perf_counter() - started < 1.0
    err = capsys.readouterr().err
    assert repr(literal) in err and "exponent in [-65536, 65536]" in err, err
    assert not out.exists()


def test_not_dyadic_error_names_the_input(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["family", "--word", "abAB", "--a", "1e-60000", "--out", str(out)]) == EXIT_PARSE
    assert capsys.readouterr().err == "error: '1e-60000' is not dyadic\n"


def test_family_table(tmp_path):
    code, rep = run_cli(
        ["family", "--a", "1/8", "--a", "1/4", "--a", "3/8", "--word", "abAB"],
        tmp_path / "r.json",
    )
    assert code == EXIT_OK
    assert rep["strictly_increasing"] is True
    assert rep["enclosures_pairwise_disjoint"] is True
    mids = [r["value"]["lo_approx"] for r in rep["rows"]]
    assert mids == sorted(mids)


def test_family_unsorted_sweep_flags(tmp_path):
    # decreasing yet disjoint: 2a * 0.28879 at a = 1/2, then at a = 1/4
    code, rep = run_cli(["family", "--a", "1/2", "--a", "1/4", "--word", "abAB"], tmp_path / "r.json")
    assert code == EXIT_OK
    assert rep["strictly_increasing"] is False
    assert rep["enclosures_pairwise_disjoint"] is True
    # a repeated parameter meets its twin across a distinct middle value
    code, rep = run_cli(
        ["family", "--a", "1/4", "--a", "1/2", "--a", "1/4", "--word", "abAB"],
        tmp_path / "r2.json",
    )
    assert code == EXIT_OK
    assert rep["strictly_increasing"] is False
    assert rep["enclosures_pairwise_disjoint"] is False


def test_family_rejects_boundary(tmp_path):
    code = main(["family", "--a", "3/4", "--word", "abAB", "--out", str(tmp_path / "r.json")])
    assert code == EXIT_PARSE
    code = main(["family", "--a", "1/3", "--word", "abAB"])
    assert code == EXIT_PARSE


@pytest.mark.parametrize(
    "args",
    [
        ["family", "--a", "1/4", "--word", "abAB", "--word", "aabABA"],
        ["family", "--word", "abAB"],
    ],
)
def test_family_rejects_bad_flags_before_any_work(args, monkeypatch, tmp_path, capsys):
    # family evaluates one word, at one or more values of --a
    monkeypatch.setattr(cli, "env_prob", lambda *args, **kw: pytest.fail("evaluated"))
    out = tmp_path / "r.json"
    assert main(args + ["--out", str(out)]) == EXIT_PARSE
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "entry",
    [{"width": "1/2^" + "9" * 10**6}, {"width": "x" * 10**6}, {"width": "0" * 10**6 + "1/2^200"},
     {"word": ["c" * 10**6]}, {"k" * 10**6: 1}],
    ids=["width exponent", "width text", "width too fine", "word", "key"],
)
def test_long_config_values_print_short_errors(entry, tmp_path, capsys):
    # a config file has no argv size limit, so a bad value may be huge;
    # the error quotes its prefix and length
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"word": ["abAB"], **entry}))
    assert main(["--config", str(cfg), "eval", "--out", str(tmp_path / "r.json")]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err) < 1024, len(err)
    assert "(1000" in err and "characters)" in err


def test_deeply_nested_config_is_a_parse_error(tmp_path, capsys):
    # json's decoder stops at Python's recursion limit, past about 995 levels
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[" * 10**5 + "]" * 10**5)
    out = tmp_path / "r.json"
    assert main(["--config", str(cfg), "eval", "--word", "abAB", "--out", str(out)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read config ") and len(err) < 300, len(err)
    assert not out.exists()


def _descriptor(**data):
    return json.dumps({"type": "geom_gamma", **data})


@pytest.mark.parametrize(
    "entry",
    [{"width": list(range(10**5))}, {"allow_wide": "x" * 10**6},
     {"measure": _descriptor(type="z" * 10**6)},
     {"measure": _descriptor(type="induced_finite", reps=["a" * 10**6], inner={"type": "geom_gamma"})},
     {"measure": _descriptor(**{"k" * 10**6: 1})},
     {"measure": _descriptor(type="dirac_gamma", k=list(range(10**5)))}],
    ids=["width list", "allow_wide text", "descriptor type", "representative", "unread key",
         "dirac_gamma k list"],
)
def test_long_config_and_descriptor_values_print_short_errors(entry, tmp_path, capsys):
    # values that are not strings, or that reach a descriptor, are quoted
    # by a prefix of their JSON text and its length too
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"word": ["abAB"], **entry}))
    assert main(["--config", str(cfg), "eval", "--out", str(tmp_path / "r.json")]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err) < 1024, len(err)
    assert "characters)" in err


def test_config_file_merging(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"measure": "mu_F", "word": ["abAB"]}))
    out = tmp_path / "r.json"
    code = main(["--config", str(cfg), "eval", "--out", str(out)])
    assert code == EXIT_OK
    rep = json.loads(out.read_text())
    assert rep["results"][0]["value"]["exact"] == "1/2^1"
    # flags win over the config
    code = main(["--config", str(cfg), "eval", "--word", "a", "--out", str(out)])
    rep = json.loads(out.read_text())
    assert rep["results"][0]["value"]["exact"] == "0/2^0"
    cfg.write_text(json.dumps({"nonsense": 1}))
    assert main(["--config", str(cfg), "eval", "--word", "a"]) == EXIT_PARSE
    # a flag given at its parser default still wins over the config
    cfg.write_text(json.dumps({"width": "1/2^3", "word": ["abAB", "aabAAB"]}))
    code = main(["--config", str(cfg), "eval", "--width", "1e-6", "--out", str(out)])
    rep = json.loads(out.read_text())
    assert code == EXIT_OK
    assert rep["config"]["width"] == "1e-6"
    assert rep["config"]["words"] == ["abAB", "aabAAB"]
    code = main(["--config", str(cfg), "eval", "--out", str(out)])
    assert json.loads(out.read_text())["config"]["width"] == "1/2^3"
    # only the chosen subcommand's flags are config keys
    for key in ("cmd", "func", "config", "help", "suite", "joint"):
        cfg.write_text(json.dumps({key: "closure"}))
        assert main(["--config", str(cfg), "verify", "closure", "--out", str(out)]) == EXIT_PARSE
    # config values go through their flag's type and shape, as argv would
    cfg.write_text(json.dumps({"factor_cap": "10", "joint": True, "word": ["abAB", "aabAAB"]}))
    assert main(["--config", str(cfg), "eval", "--out", str(out)]) == EXIT_WIDTH
    rep = json.loads(out.read_text())
    assert rep["config"]["factor_cap"] == 10
    assert rep["config"]["joint"] is True and len(rep["results"]) == 1
    out.unlink()
    for bad in ({"factor_cap": "ten"}, {"factor_cap": 10.5}, {"factor_cap": None},
                {"word": "abAB"}, {"joint": "no"}, {"joint": 1}):
        cfg.write_text(json.dumps(bad))
        argv = [] if "word" in bad else ["--word", "abAB"]
        assert main(["--config", str(cfg), "eval", "--out", str(out)] + argv) == EXIT_PARSE
        assert not out.exists()
    # family's --word is a list in a config too, of exactly one word
    cfg.write_text(json.dumps({"word": ["abAB"]}))
    assert main(["--config", str(cfg), "family", "--a", "1/4", "--out", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["config"]["word"] == "abAB"
    out.unlink()
    cfg.write_text(json.dumps({"word": ["abAB", "aabABA"]}))
    assert main(["--config", str(cfg), "family", "--a", "1/4", "--out", str(out)]) == EXIT_PARSE
    assert not out.exists()


def test_sample_defaults_pass_through_config_merging(tmp_path):
    # the identity is a member of every subgroup, so its scan is cheap
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "r.json"
    sample = ["sample", "--word", "", "--out", str(out)]
    assert main(sample) == EXIT_OK
    config = json.loads(out.read_text())["config"]
    assert (config["n"], config["seed"], config["tolerance_exp"]) == (10000, 20240801, 60)
    cfg.write_text(json.dumps({"n": 200}))
    assert main(["--config", str(cfg)] + sample) == EXIT_OK
    assert json.loads(out.read_text())["config"]["n"] == 200
    # a flag given at its parser default still wins over the config
    assert main(["--config", str(cfg)] + sample + ["--n", "10000"]) == EXIT_OK
    assert json.loads(out.read_text())["config"]["n"] == 10000


@pytest.mark.parametrize(
    "measure",
    [
        '{"type":"induced_finite","inner":{"type":"geom_gamma"}}',
        '{"type":"dirac_gamma"}',
        '{"type":"coinduced_product"}',
        "[1]",
        '{"type":"convex","parts":5}',
        '{"type":"dirac_gamma","k":1e400}',
        '{"type":"dirac_gamma","k":2.5}',
        '{"type":"dirac_gamma","k":true}',
        '{"type":"dirac_gamma","k":"2.5"}',
        '{"type":"dirac_gamma","k":null}',
        '{"type":"intersect_power","n":1e400,"inner":{"type":"geom_gamma"}}',
        '{"type":"generate_power","n":2.0,"inner":{"type":"geom_gamma"}}',
        '{"type":"generate_power","n":true,"inner":{"type":"geom_gamma"}}',
    ],
)
def test_malformed_descriptor_is_parse_error(measure, tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["eval", "--word", "abAB", "--measure", measure, "--out", str(out)]) == EXIT_PARSE
    assert capsys.readouterr().err.startswith("error: --measure: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "kind, key, extra",
    [("dirac_gamma", "k", {}), ("intersect_power", "n", {"inner": {"type": "geom_gamma"}})],
)
def test_descriptor_integers_as_numbers_or_strings(kind, key, extra, tmp_path):
    values = []
    for raw in (2, "2", " 2 "):
        measure = json.dumps({"type": kind, key: raw, **extra})
        code, rep = run_cli(["eval", "--word", "abAB", "--measure", measure], tmp_path / "r.json")
        assert code == EXIT_OK
        values.append(rep["results"][0]["value"])
    assert values[0] == values[1] == values[2]


def _pushforward_chain(levels: int) -> str:
    return (
        '{"type": "pushforward", "g": "abAB", "inner": ' * levels
        + '{"type": "geom_gamma"}'
        + "}" * levels
    )


@pytest.mark.parametrize("levels", [MAX_DESCRIPTOR_DEPTH + 1, 984, 1000, 10**5])
def test_deep_descriptor_is_parse_error(levels, tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text(_pushforward_chain(levels))
    out = tmp_path / "r.json"
    assert main(["eval", "--word", "abAB", "--measure", "@" + str(path), "--out", str(out)]) == EXIT_PARSE
    assert capsys.readouterr().err.startswith("error: --measure: ")
    assert not out.exists()


def test_descriptor_at_nesting_cap_evaluates(tmp_path):
    # g = abAB commutes with the event word, so each level leaves it as is
    code, rep = run_cli(
        ["eval", "--word", "abAB", "--measure", _pushforward_chain(MAX_DESCRIPTOR_DEPTH)],
        tmp_path / "r.json",
    )
    assert code == EXIT_OK
    assert rep["results"][0]["value"]["exact"] == "1/2^1"


def test_verify_failure_exit_code(monkeypatch, tmp_path):
    # forcing an impossible check must surface as exit 1
    from irslab import verify as verify_mod

    def broken_suite(**kwargs):
        return {"suite": "closure", "params": kwargs, "pass": False, "checks": []}

    monkeypatch.setitem(verify_mod.SUITES, "closure", broken_suite)
    from irslab import cli as cli_mod

    monkeypatch.setitem(cli_mod.SUITES, "closure", broken_suite)
    assert main(["verify", "closure", "--out", str(tmp_path / "r.json")]) == EXIT_FAIL


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "irslab.cli", "eval", "--measure", "mu_F", "--word", "abAB"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode in (EXIT_OK, 0)
    assert '"exact": "1/2^1"' in proc.stdout


def test_reports_have_no_timestamps(tmp_path):
    _, rep = run_cli(["eval", "--measure", "mu_F", "--word", "abAB"], tmp_path / "r.json")
    flat = json.dumps(rep)
    assert "time" not in flat and "date" not in flat


def test_eval_reports_y_forms(tmp_path):
    _, rep = run_cli(
        ["eval", "--measure", "mu_F", "--word", "abAB", "--word", "a"],
        tmp_path / "r.json",
    )
    assert rep["results"][0]["y_forms"] == ["y1"]
    assert rep["results"][1]["y_forms"] == [None]


def test_verify_bad_width_is_parse_error():
    assert main(["verify", "closure", "--width", "bogus"]) == EXIT_PARSE


def test_sample_missing_measure_file_is_parse_error():
    assert main(["sample", "--n", "200", "--word", "abAB", "--measure", "@/nonexistent.json"]) == EXIT_PARSE


@pytest.mark.parametrize("kind", sorted(DESCRIPTOR_JSON))
def test_eval_refuses_a_descriptor_key_nothing_reads(kind, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cli, "env_prob", lambda *args, **kw: pytest.fail("evaluated"))
    data = json.loads(DESCRIPTOR_JSON[kind])
    data["extra"] = "1/4"
    out = tmp_path / "r.json"
    assert main(["eval", "--measure", json.dumps(data), "--word", "abAB", "--out", str(out)]) == EXIT_PARSE
    assert capsys.readouterr().err == "error: --measure: %s does not read the key 'extra'\n" % kind
    assert not out.exists()


@pytest.mark.parametrize(
    "measure, key, got",
    [
        ('{"type": "param_family", "a": 0.25}', "a", "float"),
        ('{"type": "coinduced_product", "inner": {"type": "param_family", "a": 1}}', "a", "int"),
        (DESCRIPTOR_JSON["convex"].replace('"3/2^2"', "0.75"), "weight", "float"),
        (DESCRIPTOR_JSON["convex"].replace('"3/2^2"', "1"), "weight", "int"),
    ],
)
def test_eval_refuses_a_json_number_for_a_dyadic(measure, key, got, monkeypatch, tmp_path, capsys):
    # the JSON parser may already have rounded a number, so a dyadic is text
    monkeypatch.setattr(cli, "env_prob", lambda *args, **kw: pytest.fail("evaluated"))
    out = tmp_path / "r.json"
    assert main(["eval", "--measure", measure, "--word", "abAB", "--out", str(out)]) == EXIT_PARSE
    assert capsys.readouterr().err == (
        'error: --measure: descriptor key %r must be a string such as "1/4", got %s\n' % (key, got))
    assert not out.exists()


@pytest.mark.parametrize("inner", ['{"type":"dirac_gamma","k":2}', '{"type":"dirac_trivial"}'])
def test_sample_rejects_an_inner_it_cannot_draw(inner, tmp_path, capsys):
    out, csv_path = tmp_path / "r.json", tmp_path / "m.csv"
    measure = '{"type":"coinduced_product","inner":%s}' % inner
    args = ["sample", "--measure", measure, "--word", "abAB", "--n", "100"]
    assert main(args + ["--out", str(out), "--csv", str(csv_path)]) == EXIT_PARSE
    assert capsys.readouterr().err.startswith("error: --measure: ")
    assert not out.exists() and not csv_path.exists()


def test_sample_family_measure(tmp_path):
    code, rep = run_cli(
        ["sample", "--measure", "mu_aG:1/4", "--n", "400", "--word", "abAB", "--seed", "9"],
        tmp_path / "r.json",
    )
    assert code == EXIT_OK
    cell = rep["summary"][0]
    # 2 * (1/4) * 0.288788... with a 400-seed binomial spread
    assert abs(cell["frequency"] - 0.1443940475) < 0.06
    assert cell["pass"] is True


def test_membership_window_limit(monkeypatch, tmp_path):
    # the widest window sample accepts covers radius-2 words at the largest
    # tolerance exponent; the limit itself is inclusive
    ring_two = Word.parse("aabbabABBBAA")
    assert word_window(ring_two, MAX_TOLERANCE_EXP) <= MAX_MEMBERSHIP_WINDOW
    monkeypatch.setattr(sampler, "MAX_MEMBERSHIP_WINDOW", word_window(ring_two, 60))
    args = ["sample", "--n", "100", "--word", "", "--word", "a", "--word"]
    assert main(args + [str(ring_two), "--out", str(tmp_path / "r.json")]) == EXIT_OK
    out = tmp_path / "wide.json"
    assert main(args + ["aaaabABAAA", "--out", str(out)]) == EXIT_PARSE
    assert not out.exists()


def test_bench_is_not_a_subcommand():
    with pytest.raises(SystemExit) as exc:
        main(["bench"])
    assert exc.value.code == EXIT_PARSE
