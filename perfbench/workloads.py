"""Seeded inputs, command lists and output checks of the three workloads.

Inputs are a pure function of the workload seed and are built here with the
benchmark's own word arithmetic, so the program under test receives only
finished command lines.  The checks import ``irslab`` and run after timing
stops; every oracle avoids the code path it checks (the sample oracle never
calls ``member_scan`` or ``depth_profile``).
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

WORKLOADS = ("enclose", "sample", "verify")
DEFAULT_SEED = 1
TOLERANCE_EXP = 60

WIDTH_LOOSE = "1/2^21"
WIDTH_TIGHT = "1/2^60"
ENCLOSE_RINGS = (0, 2, 6, 10)
INDUCED_REPS = ["", "abAB"]

# Ring-2 points at spiral indices 16..25.  Membership scans of single
# conjugates y_i get longer with i (about 25 coordinates at i = 1, 64 to 67
# on this band), so drawing the sample words from the band keeps a pass's
# work nearly independent of the seed.
SAMPLE_BAND = ((-2, 2), (-2, 1), (-2, 0), (-2, -1), (-2, -2),
               (-1, -2), (0, -2), (1, -2), (2, -2), (2, -1))

_INVERSE = {"a": "A", "A": "a", "b": "B", "B": "b"}


# ---------------------------------------------------------------------------
# word arithmetic on strings over a, b, A, B
# ---------------------------------------------------------------------------

def reduce_word(text: str) -> str:
    out = []
    for c in text:
        if out and out[-1] == _INVERSE[c]:
            out.pop()
        else:
            out.append(c)
    return "".join(out)


def inverse_word(text: str) -> str:
    return "".join(_INVERSE[c] for c in reversed(text))


def transversal(p: int, q: int) -> str:
    """a^p b^q."""
    return ("a" * p if p >= 0 else "A" * -p) + ("b" * q if q >= 0 else "B" * -q)


def conjugate_y(p: int, q: int, exponent: int = 1) -> str:
    """t [a,b]^exponent t^-1 for t = a^p b^q."""
    t = transversal(p, q)
    core = "abAB" if exponent > 0 else "BAba"
    return reduce_word(t + core * abs(exponent) + inverse_word(t))


def two_syllable_word(rng: random.Random) -> str:
    """y_i y_j with i != j drawn from the ring-2 band.  The exponents stay
    +1: membership scans of y_i y_j run 28 to 42 coordinates on the band,
    against up to 73 for y_i^-1 y_j^-1."""
    (p1, q1), (p2, q2) = rng.sample(SAMPLE_BAND, 2)
    return reduce_word(conjugate_y(p1, q1) + conjugate_y(p2, q2))


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

def make_inputs(workload: str, seed: int) -> dict:
    """The generated inputs of one workload; equal seeds give equal inputs."""
    rng = random.Random("%s:%d" % (workload, seed))
    if workload == "enclose":
        # t = a^r b^q runs along the p = +r edge of ring r: the certified
        # product's work there is flat in q (within 2% at ring 10), while
        # other edges of the same ring differ by up to 3x.
        rings = {}
        for r in ENCLOSE_RINGS:
            q = rng.randint(-r, r)
            rings[str(r)] = {"t": [r, q], "word": conjugate_y(r, q)}
        return {
            "rings": rings,
            "joint_partner": two_syllable_word(rng),
            "family": "mu_aG:1/4",
            "induced_reps": list(INDUCED_REPS),
        }
    if workload == "sample":
        singles = [conjugate_y(p, q) for p, q in rng.sample(SAMPLE_BAND, 4)]
        products = [two_syllable_word(rng) for _ in range(3)]
        return {
            "words": [""] + singles + products,
            "base_seed": rng.randrange(1, 1 << 31),
        }
    if workload == "verify":
        return {"invariance_seed": rng.randrange(1, 1 << 31),
                "combination_seed": rng.randrange(1, 1 << 31)}
    raise ValueError("unknown workload %r" % (workload,))


def induced_descriptor(reps) -> str:
    return json.dumps({
        "type": "coinduced_product",
        "inner": {"type": "induced_finite", "reps": reps,
                  "inner": {"type": "geom_gamma"}},
    }, sort_keys=True)


def make_commands(workload: str, inputs: dict) -> list:
    """Commands as dicts: ``key`` names the op and ``argv`` is the CLI
    argument list without output paths (see ``output_flags``)."""
    if workload == "enclose":
        cmds = []
        for r in ENCLOSE_RINGS:
            word = inputs["rings"][str(r)]["word"]
            for tag, width in (("w21", WIDTH_LOOSE), ("w60", WIDTH_TIGHT)):
                cmds.append({"key": "ring%d-%s" % (r, tag),
                             "argv": ["eval", "--measure", "mu_G", "--word", word,
                                      "--width", width]})
        ring6 = inputs["rings"]["6"]["word"]
        cmds.append({"key": "joint-w60",
                     "argv": ["eval", "--measure", "mu_G", "--word", ring6,
                              "--word", inputs["joint_partner"], "--joint",
                              "--width", WIDTH_TIGHT]})
        cmds.append({"key": "family-w60",
                     "argv": ["eval", "--measure", inputs["family"], "--word", ring6,
                              "--width", WIDTH_TIGHT]})
        cmds.append({"key": "induced-w60",
                     "argv": ["eval", "--measure", induced_descriptor(inputs["induced_reps"]),
                              "--word", ring6, "--width", WIDTH_TIGHT]})
        return cmds
    if workload == "sample":
        word_args = []
        for w in inputs["words"]:
            word_args += ["--word", w]
        seed = str(inputs["base_seed"])
        return [
            {"key": "sample-mu_G",
             "argv": ["sample", "--measure", "mu_G", "--n", "10000", "--seed", seed] + word_args},
            {"key": "sample-mu_aG",
             "argv": ["sample", "--measure", "mu_aG:1/4", "--n", "2000", "--seed", seed] + word_args},
        ]
    if workload == "verify":
        return [
            {"key": "faithful", "argv": ["verify", "faithful", "--max-len", "10"]},
            {"key": "invariance",
             "argv": ["verify", "invariance", "--seed", str(inputs["invariance_seed"])]},
            {"key": "closure", "argv": ["verify", "closure"]},
            {"key": "chain-limits", "argv": ["verify", "chain-limits"]},
            {"key": "combination",
             "argv": ["verify", "combination", "--seed", str(inputs["combination_seed"])]},
            {"key": "mixing", "argv": ["verify", "mixing"]},
        ]
    raise ValueError("unknown workload %r" % (workload,))


def output_flags(argv) -> tuple:
    """Output flags a command gets: every report goes to --out, and the
    sampler also writes its membership matrix to --csv."""
    return ("--out", "--csv") if argv[0] == "sample" else ("--out",)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def parse_dyadic(text: str) -> Fraction:
    """'num/2^exp' as a Fraction, independent of the program's parser."""
    num, _, exp = text.partition("/2^")
    return Fraction(int(num), 1 << int(exp or 0))


def value_interval(value: dict) -> tuple:
    if "exact" in value:
        x = parse_dyadic(value["exact"])
        return x, x
    return parse_dyadic(value["lo"]), parse_dyadic(value["hi"])


def _intersects(u: tuple, v: tuple) -> bool:
    return u[0] <= v[1] and v[0] <= u[1]


def commutator_oracle(terms: int = 128) -> tuple:
    """Interval holding prod_{j>=1} (1 - 2^-j), the mu_G probability of every
    single conjugate of [a,b]: the first `terms` factors exactly, and the
    tail costs at most 2^-terms.  With 40 terms the interval would be wider
    than a 2^-60 enclosure and miss errors near 2^-41."""
    prod = Fraction(1)
    for j in range(1, terms + 1):
        prod *= 1 - Fraction(1, 1 << j)
    return prod - Fraction(1, 1 << terms), prod


def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def allowed_exit_codes(key: str, report: dict) -> tuple:
    """A sampler run exits 1 on a 3-sigma miss.  A miss depends on the seed,
    so it is reported but does not fail the op."""
    if key.startswith("sample-") and not report.get("z_tests", {}).get("pass", True):
        return (0, 1)
    return (0,)


def check_outputs(workload: str, inputs: dict, outputs: dict, reference: dict,
                  default_seed: bool) -> tuple:
    """Check the outputs of each command of a workload.

    ``outputs`` maps each command key to ``{"report": <parsed --out>,
    "csv": <path or None>}``.  ``reference`` is the recorded reference; its
    enclosures and digests apply only when ``default_seed`` is true.  Returns
    ``(problems, notes)``: problems maps keys to lists of messages, notes
    carries seed-dependent observations such as z-test misses.
    """
    problems = {key: [] for key in outputs}
    notes = {}
    recorded = reference[workload] if default_seed else None
    if workload == "enclose":
        _check_enclose(outputs, recorded, problems)
    elif workload == "sample":
        notes["z_misses"] = _check_sample(inputs, outputs, recorded, problems)
    elif workload == "verify":
        _check_verify(outputs, reference["verify"], problems)
    return problems, notes


def _check_enclose(outputs, recorded, problems):
    answers = {}
    for key, out in outputs.items():
        results = out["report"].get("results", [])
        if len(results) != 1:
            problems[key].append("expected one result, got %d" % len(results))
            continue
        value = results[0]["value"]
        if "exact" not in value and value.get("width_reached") is not True:
            problems[key].append("width not reached")
        answers[key] = value_interval(value)
        if recorded is not None and not _intersects(answers[key], value_interval(recorded[key])):
            problems[key].append("misses the enclosure recorded for the default seed")
    oracle = commutator_oracle()
    for r in ENCLOSE_RINGS:
        pair = ["ring%d-w21" % r, "ring%d-w60" % r]
        for key in pair:
            if key in answers and not _intersects(answers[key], oracle):
                problems[key].append("misses prod (1 - 2^-j)")
        if all(k in answers for k in pair) and not _intersects(answers[pair[0]], answers[pair[1]]):
            for key in pair:
                problems[key].append("enclosures at the two widths are disjoint")
    ring6 = answers.get("ring6-w60")
    if ring6 is None:
        return
    # Commutator-subgroup representatives fix every chain subgroup, so the
    # induced average equals mu_G; a joint event and the family below a = 1/2
    # can only be less likely than the ring-6 word alone.
    if "induced-w60" in answers and not _intersects(answers["induced-w60"], ring6):
        problems["induced-w60"].append("differs from mu_G on the same word")
    for key in ("joint-w60", "family-w60"):
        if key in answers and answers[key][0] > ring6[1]:
            problems[key].append("exceeds the mu_G value of the ring-6 word alone")


def _check_sample(inputs, outputs, recorded, problems) -> int:
    from irslab.dyadic import Dyadic
    from irslab.grid import point, transversal_word_at
    from irslab.measures import GeomGamma, ParamFamily
    from irslab.sampler import SampledSubgroup, membership_window
    from irslab.words import Word, conjugate
    from irslab.ywords import depth, rewrite_to_y

    words = [Word.parse(w) for w in inputs["words"]]
    windows = []
    for w in words:
        if w.is_identity():
            windows.append(0)
            continue
        radius = max(point(i).ring for i, _ in rewrite_to_y(w).syllables)
        windows.append(membership_window(radius, TOLERANCE_EXP))
    depths = {}

    def oracle(subgroup, j):
        w = words[j]
        for i in range(1, windows[j] + 1):
            d = depths.get((j, i))
            if d is None:
                t = transversal_word_at(i)
                d = depths[(j, i)] = depth(conjugate(t.inverse(), w))
            if subgroup.coordinate(i) > d:
                return False
        return True

    z_misses = 0
    base = inputs["base_seed"]
    for key, out in outputs.items():
        report, issues = out["report"], problems[key]
        inner = GeomGamma() if key == "sample-mu_G" else ParamFamily(Dyadic(1, 2))
        with open(out["csv"], encoding="utf-8") as fh:
            rows = fh.read().splitlines()
        header = rows[0].split(",")
        if header != ["seed"] + inputs["words"]:
            issues.append("CSV header %r does not list the input words" % (header,))
            continue
        matrix = []
        for j, row in enumerate(rows[1:]):
            cells = row.split(",")
            if cells[0] != str(base + j) or any(c not in ("0", "1") for c in cells[1:]):
                issues.append("malformed CSV row %d" % (j + 1))
                break
            matrix.append([c == "1" for c in cells[1:]])
        n = report["config"]["n"]
        if len(matrix) != n:
            issues.append("CSV has %d rows, expected %d" % (len(matrix), n))
            continue
        hits = [cell["hits"] for cell in report["summary"]]
        if hits != [sum(row[j] for row in matrix) for j in range(len(words))]:
            issues.append("summary hits disagree with the CSV")
        rng = random.Random("check:%s:%d" % (key, base))
        for r in sorted(rng.sample(range(n), 48 if key == "sample-mu_G" else 16)):
            subgroup = SampledSubgroup(inner, base + r, TOLERANCE_EXP)
            for j in range(len(words)):
                if matrix[r][j] != oracle(subgroup, j):
                    issues.append("cell (seed %d, word %r) disagrees with the oracle"
                                  % (base + r, inputs["words"][j]))
        if recorded is not None and sha256_file(out["csv"]) != recorded[key]["csv_sha256"]:
            issues.append("CSV digest differs from the one recorded for the default seed")
        z_misses += sum(1 for cell in report["summary"] if not cell["pass"])
    return z_misses


def _check_verify(outputs, recorded, problems):
    for key, out in outputs.items():
        result = out["report"].get("result", {})
        if result.get("pass") is not True:
            problems[key].append("suite did not pass")
        if key == "faithful":
            got = {"n_words": result.get("n_words"),
                   "depth_histogram": result.get("depth_histogram")}
            if got != recorded["faithful"]:
                problems[key].append("faithful word count or depth histogram changed")


def reference_entry(workload: str, outputs: dict) -> dict:
    """The parts of one default-seed pass that later runs must reproduce."""
    if workload == "enclose":
        return {key: out["report"]["results"][0]["value"] for key, out in outputs.items()}
    if workload == "sample":
        return {key: {"csv_sha256": sha256_file(out["csv"])} for key, out in outputs.items()}
    faithful = outputs["faithful"]["report"]["result"]
    return {"faithful": {"n_words": faithful["n_words"],
                         "depth_histogram": faithful["depth_histogram"]}}
