"""Command-line front door.

Subcommands evaluate envelope probabilities, run the verification suites,
sample random subgroups and sweep the parametrized family.  Reports are
deterministic JSON (config echoed, no timestamps) so replays are
byte-identical; timing goes to stderr.

Exit codes: 0 pass, 1 failed check, 2 parse error, 3 width not reached
(eval only, unless --allow-wide).
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import sys
import time
from fractions import Fraction

from irslab import __version__
from irslab.dyadic import Dyadic, parse_target_width, pow2, quoted
from irslab.measures import (
    DEFAULT_FACTOR_CAP,
    INSTANCE_DESCRIPTION,
    MAX_SUPPORT_RADIUS,
    check_rewrite_length,
    env_prob,
    family_measure,
    descriptor_to_json,
    parse_measure,
)
from irslab.sampler import (
    DEFAULT_TOLERANCE_EXP,
    MAX_TOLERANCE_EXP,
    MIN_SAMPLE_SEEDS,
    check_z_test_inputs,
    chi_square_report,
    membership_matrix,
    sampled_inner,
)
from irslab.verify import SUITES, DEFAULT_SEED
from irslab.words import Word
from irslab.ywords import rewrite_to_y

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_WIDTH = 3

# faithful judges each [F,F] word up to this length, 154,448 of them at 14,
# in 19 s (2-vCPU VM), and counts the other reduced words in closed form;
# invariance draws from the same [F,F] words by rank, and 100 pairs at 14
# took 0.5 s
MAX_WORD_LEN = 14
# an exact power value has n times the bits of the chain CDF, so the
# report of a deep word grows with n; verify chain-limits evaluates and
# prints every power up to its --n, and took 0.12 s at 1000
MAX_POWER = 1000
# sample streams each seed's membership row to the CSV, so its memory is flat
# in --n, but its time is not: with 8 radius-2 words a seed takes about 24 us
# (10^5 seeds of mu_G in 2.4-2.5 s, 10^6 in 24 s, on a 2-vCPU VM)
MAX_SAMPLE_SEEDS = 10**6
# sample holds each word's depth profile and, for the chunk of seeds it
# scans, one 16 KB packed int and one answer per seed, and writes one CSV
# column per word
MAX_SAMPLE_WORDS = 16
# certified products run to the target width: mu_G of the ring-10
# conjugate of [a,b] took 0.007 s at 2^-60, 0.010 s at 2^-128 and 0.014 s
# at 2^-256 (in-process, best of 3, 2-vCPU VM)
MAX_WIDTH_EXP = 128
# verify invariance evaluates two enclosures per pair and reports every
# pair: 10^4 pairs took 11 s and 54 MB at the default --max-len 6, and
# 10^3 pairs 4.3 s and 21 MB at --max-len 14 (2-vCPU VM)
MAX_INVARIANCE_PAIRS = 10**4
# verify combination judges each word as it is drawn, so its memory is flat
# in --n but its time is not: 2x10^4 words took 2.1 s and 10^5 words 10.9 s,
# both at 19.5 MB peak RSS (in-process, 2-vCPU VM)
MAX_COMBINATION_WORDS = 10**5
# the sampler's PRF keys on a seed mod 2^64 and verify's random.Random on
# its absolute value, so a seed outside 0..MAX_SEED would repeat another's
# draws under a different name
MAX_SEED = 2**64 - 1


class CliError(Exception):
    """Bad arguments or config; maps to exit code 2."""


@contextlib.contextmanager
def _refusal(prefix: str = ""):
    """Report a library refusal (a ValueError) raised in the block as a
    CliError, its message after prefix, which names the flag it came from."""
    try:
        yield
    except ValueError as exc:
        raise CliError(prefix + str(exc)) from None


def _base_report(command: str, config: dict) -> dict:
    return {
        "tool": "irslab",
        "version": __version__,
        "command": command,
        "instance": INSTANCE_DESCRIPTION,
        "config": config,
    }


def _emit(report: dict, out_path):
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _check_output(flag: str, path) -> None:
    """Reject, before any work, an output path that cannot be opened for
    writing; the probe leaves no new file behind."""
    if not path:
        return
    existed = os.path.lexists(path)
    try:
        open(path, "a", encoding="utf-8").close()
    except OSError as exc:
        raise CliError("--%s: cannot write %s: %s" % (flag, path, exc.strerror)) from None
    if not existed:
        os.remove(path)


def _parse_words(raw_words) -> list:
    if not raw_words:
        raise CliError("at least one --word is required")
    with _refusal():
        words = [Word.parse(t) for t in raw_words]
    with _refusal("--word: "):
        check_rewrite_length(words)
    return words


def _check_range(flag: str, value, low: int, high=math.inf):
    """Reject a numeric flag outside [low, high]."""
    if not low <= value <= high:
        text = str(value)
        got = text if len(text) <= 40 else quoted(value)
        raise CliError("%s must lie in [%s, %s], got %s" % (flag, low, high, got))


def _parse_width(text) -> Dyadic:
    """Target width of a --width flag, at most MAX_WIDTH_EXP bits fine."""
    with _refusal("--width: "):
        width = parse_target_width(text)
    if width.exp > MAX_WIDTH_EXP:
        raise CliError("--width must be at least 2^-%d, got %s" % (MAX_WIDTH_EXP, quoted(text)))
    return width


def _load_config(path):
    if not path:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise CliError("cannot read config %s: %s" % (path, exc)) from None
    if not isinstance(cfg, dict):
        raise CliError("config must be a JSON object")
    return cfg


def _config_value(key: str, action: argparse.Action, value):
    """A config entry as argparse would store its flag: a switch such as
    --joint takes a JSON boolean, a repeatable flag such as --word a list,
    and every other value is converted as if typed on the command line."""
    if isinstance(action, argparse._StoreTrueAction):
        if not isinstance(value, bool):
            raise CliError("config %r must be true or false, got %s" % (key, quoted(value)))
        return value
    if isinstance(action, argparse._AppendAction):
        if not isinstance(value, list):
            raise CliError("config %r must be a list, got %s" % (key, quoted(value)))
        return [_config_scalar(key, action.type, v) for v in value]
    return _config_scalar(key, action.type, value)


def _config_scalar(key: str, convert, value):
    """A JSON string or number through a flag's type (None: kept as text)."""
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise CliError("config %r must be a string or a number, got %s" % (key, quoted(value)))
    text = value if isinstance(value, str) else str(value)
    with _refusal("config %r: " % (key,)):
        return convert(text) if convert else text


def _merge_config(parser, argv, args: argparse.Namespace, config: dict):
    """Config supplies values for the subcommand's flags that argv leaves
    out; a flag given on the command line wins, and a repeated one such as
    --word replaces the config's list."""
    flags = {
        action.dest: action
        for action in args.parser._actions
        if action.option_strings and action.dest != "help"
    }
    values = {}
    for key, value in config.items():
        action = flags.get(key.replace("-", "_"))
        if action is None:
            raise CliError("unknown config key %s for %s" % (quoted(key), args.cmd))
        values[action.dest] = _config_value(key, action, value)
        # with no default, a flag reaches the namespace only from argv
        action.default = argparse.SUPPRESS
    given = vars(parser.parse_args(argv))
    for dest, value in values.items():
        if dest not in given:
            setattr(args, dest, value)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_eval(args) -> int:
    with _refusal("--measure: "):
        measure = parse_measure(args.measure)
    width = _parse_width(args.width)
    words = _parse_words(args.word)
    _check_range("--factor-cap", args.factor_cap, 1)
    events = [tuple(words)] if args.joint else [(w,) for w in words]
    results = []
    not_reached = False
    for event in events:
        with _refusal("--measure: "):
            value = env_prob(measure, event, width, factor_cap=args.factor_cap)
        not_reached = not_reached or not value.width_reached
        entry = {"words": [str(w) for w in event], "value": value.to_json()}
        y_forms = []
        for w in event:
            if w.abelianization() == (0, 0):
                y_forms.append(str(rewrite_to_y(w)))
            else:
                y_forms.append(None)
        entry["y_forms"] = y_forms
        results.append(entry)
    report = _base_report(
        "eval",
        {
            "measure": descriptor_to_json(measure),
            "width": args.width,
            "joint": args.joint,
            "factor_cap": args.factor_cap,
            "words": args.word,
        },
    )
    report["results"] = results
    _emit(report, args.out)
    if not_reached and not args.allow_wide:
        return EXIT_WIDTH
    return EXIT_OK


def cmd_verify(args) -> int:
    kwargs = _suite_kwargs(args)
    started = time.perf_counter()
    result = SUITES[args.suite](**kwargs)
    elapsed = time.perf_counter() - started
    params = {k: str(v) for k, v in result["params"].items()}
    report = _base_report("verify", {"suite": args.suite, **params})
    report["result"] = result
    _emit(report, args.out)
    sys.stderr.write("suite %s: %s in %.2fs\n" % (args.suite, "pass" if result["pass"] else "FAIL", elapsed))
    return EXIT_OK if result["pass"] else EXIT_FAIL


# the flags each verify suite reads, as flag -> (suite parameter, lowest,
# highest); --width takes a target width in place of a range.  combination
# always checks IDENTITY and COMMUTATOR, so --n 1 would report one word and
# check two; invariance draws nontrivial [F,F] words, of 4 letters or more.
# mixing's shifted event a^-s [a,b] a^s has support radius |s|, and the
# suite took 0.016 s at 10, 0.22 s at 32 and 0.66 s at 48 (2-vCPU VM).
_SEED = ("seed", 0, MAX_SEED)
_WIDTH = ("width", None, None)
VERIFY_FLAGS = {
    "faithful": {"--max-len": ("max_len", 1, MAX_WORD_LEN)},
    "invariance": {"--n": ("pairs", 1, MAX_INVARIANCE_PAIRS), "--seed": _SEED,
                   "--max-len": ("max_len", 4, MAX_WORD_LEN), "--width": _WIDTH},
    "closure": {"--width": _WIDTH},
    "chain-limits": {"--n": ("n_max", 1, MAX_POWER)},
    "combination": {"--n": ("sample_size", 2, MAX_COMBINATION_WORDS), "--seed": _SEED},
    "mixing": {"--shift": ("shift_exp", -MAX_SUPPORT_RADIUS, MAX_SUPPORT_RADIUS), "--width": _WIDTH},
}


def _suite_kwargs(args) -> dict:
    """The suite parameters of the flags given in argv or the config, each
    checked against its range; the suite's own defaults fill the rest, and
    a flag the suite does not read is refused."""
    kwargs = {}
    reads = VERIFY_FLAGS[args.suite]
    for flag in sorted(set().union(*VERIFY_FLAGS.values())):
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is None:
            continue
        if flag not in reads:
            raise CliError("%s is not read by verify %s" % (flag, args.suite))
        param, low, high = reads[flag]
        if flag == "--width":
            value = _parse_width(value)
        else:
            _check_range(flag, value, low, high)
        kwargs[param] = value
    return kwargs


def cmd_sample(args) -> int:
    with _refusal("--measure: "):
        measure = parse_measure(args.measure)
        sampled_inner(measure)
    words = _parse_words(args.word)
    if len(words) > MAX_SAMPLE_WORDS:
        raise CliError(
            "--word may be given at most %d times, got %d" % (MAX_SAMPLE_WORDS, len(words))
        )
    _check_range("--n", args.n, MIN_SAMPLE_SEEDS, MAX_SAMPLE_SEEDS)
    _check_range("--tolerance-exp", args.tolerance_exp, 1, MAX_TOLERANCE_EXP)
    # seeds base .. base + n - 1 are distinct 64-bit PRF keys
    _check_range("--seed", args.seed, 0, MAX_SEED + 1 - args.n)
    n, base_seed, tol = args.n, args.seed, args.tolerance_exp
    seeds = range(base_seed, base_seed + n)
    with _refusal("--word "):
        rows = membership_matrix(seeds, words, measure, tol)
    labels = [str(w) for w in words]
    exact = [env_prob(measure, (w,), pow2(24)) for w in words]
    with _refusal():
        check_z_test_inputs(exact, n)
    hits = [0] * len(words)
    with open(args.csv, "w", encoding="utf-8") if args.csv else contextlib.nullcontext() as csv:
        if csv:
            csv.write("seed," + ",".join(labels) + "\n")
        for seed, row in zip(seeds, rows):
            hits = [h + v for h, v in zip(hits, row)]
            if csv:
                csv.write(str(seed) + "," + ",".join("1" if v else "0" for v in row) + "\n")
    stats = chi_square_report([Fraction(h, n) for h in hits], exact, n, labels=labels)
    report = _base_report(
        "sample",
        {
            "measure": descriptor_to_json(measure),
            "n": n,
            "seed": base_seed,
            "tolerance_exp": tol,
            "words": labels,
        },
    )
    report["summary"] = [
        {"word": label, "hits": h, "n": n, "frequency": h / n, "exact": v.to_json(),
         "z": cell["z"], "pass": cell["pass"]}
        for label, h, v, cell in zip(labels, hits, exact, stats["cells"])
    ]
    report["z_tests"] = stats
    report["seeds"] = {"base": base_seed, "count": n, "rule": "base + index"}
    report["tolerance"] = {
        "exponent": tol,
        "per_query_total_variation_bound": "2^-%d" % tol,
    }
    _emit(report, args.out)
    return EXIT_OK if stats["pass"] else EXIT_FAIL


def cmd_family(args) -> int:
    words = _parse_words(args.word)
    if len(words) > 1:
        raise CliError("--word may be given once for family, got %d" % len(words))
    if not args.a:
        raise CliError("at least one --a is required")
    width = _parse_width(args.width)
    word = words[0]
    with _refusal():
        a_values = [Dyadic.parse(t) for t in args.a]
        values = [env_prob(family_measure(a), (word,), width) for a in a_values]
    rows = [{"a": str(a), "value": v.to_json()} for a, v in zip(a_values, values)]
    strictly_increasing = all(p.hi < c.lo for p, c in zip(values, values[1:]))
    disjoint = not any(u.intersects(v) for u, v in itertools.combinations(values, 2))
    report = _base_report(
        "family",
        {"a": args.a, "word": str(word), "width": args.width},
    )
    report["rows"] = rows
    report["strictly_increasing"] = strictly_increasing
    report["enclosures_pairwise_disjoint"] = disjoint
    _emit(report, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="irslab",
        description="Exact envelope probabilities, verification suites and "
        "samplers for co-induced invariant random subgroups of F2. "
        "Words are strings over a, b, A, B (A = a^-1); the empty string is "
        "the identity.",
    )
    parser.add_argument("--config", help="JSON config file; flags override its entries")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_eval = sub.add_parser("eval", help="evaluate envelope probabilities")
    p_eval.add_argument("--measure", default="mu_G",
                        help="mu_F | mu_HF | mu_G | mu_aF:<a> | mu_aG:<a> | JSON | @file")
    p_eval.add_argument("--word", action="append", default=None, help="event word (repeatable)")
    p_eval.add_argument("--joint", action="store_true", help="treat all words as one joint event")
    p_eval.add_argument("--width", default="1e-6", help="target enclosure width")
    p_eval.add_argument("--factor-cap", type=int, default=DEFAULT_FACTOR_CAP)
    p_eval.add_argument("--allow-wide", action="store_true", help="exit 0 even when width was not reached")
    p_eval.add_argument("--out", help="write the JSON report here instead of stdout")
    p_eval.set_defaults(func=cmd_eval, parser=p_eval)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=sorted(SUITES))
    for flag in sorted(set().union(*VERIFY_FLAGS.values())):
        readers = sorted(suite for suite, flags in VERIFY_FLAGS.items() if flag in flags)
        p_verify.add_argument(flag, type=None if flag == "--width" else int,
                              help="read by " + ", ".join(readers))
    p_verify.add_argument("--out", help="write the JSON report here instead of stdout")
    p_verify.set_defaults(func=cmd_verify, parser=p_verify)

    p_sample = sub.add_parser("sample", help="sample subgroups and test frequencies")
    p_sample.add_argument("--measure", default="mu_G")
    p_sample.add_argument("--word", action="append", default=None)
    p_sample.add_argument("--n", type=int, default=10000, help="number of seeds (default %(default)s)")
    p_sample.add_argument("--seed", type=int, default=DEFAULT_SEED, help="base seed (default %(default)s)")
    p_sample.add_argument("--tolerance-exp", type=int, default=DEFAULT_TOLERANCE_EXP,
                          help="per-query total-variation bound 2^-N (default %(default)s)")
    p_sample.add_argument("--csv", help="also write the 0/1 membership matrix as CSV")
    p_sample.add_argument("--out", help="write the JSON report here instead of stdout")
    p_sample.set_defaults(func=cmd_sample, parser=p_sample)

    p_family = sub.add_parser("family", help="sweep the parametrized family")
    p_family.add_argument("--a", action="append", default=None, help="dyadic parameter (repeatable)")
    p_family.add_argument("--word", action="append", default=None)
    p_family.add_argument("--width", default="1e-6")
    p_family.add_argument("--out", help="write the JSON report here instead of stdout")
    p_family.set_defaults(func=cmd_family, parser=p_family)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config)
        if config:
            _merge_config(parser, argv, args, config)
        for flag in ("out", "csv"):
            _check_output(flag, getattr(args, flag, None))
        return args.func(args)
    except CliError as exc:
        sys.stderr.write("error: %s\n" % (exc,))
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
