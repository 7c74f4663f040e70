"""The mutant ledger: which tests fail when a lemma's site in src/ is broken.

Each row of MUTANTS names a lemma, its file under src/irslab, its site (the
text of one line, which occurs exactly once in that file) and a one-line
mutant that replaces it.  A row either lists the tests that fail on the
mutant, fastest first, or says why the mutant is equivalent: why no input
the program passes can tell it from the site.

tests/test_mutant_ledger.py checks in Tier-1 that every site still occurs
once and every killing test is still collected, so a refactor that moves a
site must move its row.  Run as a script, this module copies the repository
to a temporary directory, applies each killable mutant there in turn and runs
the row's first killing test; it exits 1 if a mutant survives, and fails
if pytest errs:

    python tests/mutant_ledger.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

Mutant = namedtuple("Mutant", "lemma file site mutant killers equivalent", defaults=((), None))

SAMPLER = "tests/test_sampler.py::"
LEMMAS = "tests/test_lemmas.py::"
MEASURES = "tests/test_measures.py::"
DYADIC = "tests/test_dyadic.py::"

PRF_ROUND = "splitmix64 round: xor-shift 30, 27 and 31 between the multiplies"
PRF_KEYS = "prf_block is keyed by (seed, index, block), the seed salted"
PACKED_SEEDS = "member_scan's packed seed round equals prf_block's, lane by lane"
RETRACTION = "phi_limit kills exactly the y_i with i >= limit, so the depth search is downward closed"
CYCLIC_CORE = "x^e M x^f is a conjugate of M x^(e+f), so the cyclic core keeps the depth"
SUPPORT_RADIUS = "the support radius is the largest ring over the whole origin rewrite"
BLOCK0 = "block 0 decides every lane with depth <= 64; a deeper lane is drawn"
DEEP_INDEX = ("block 0 is all zeros at one index per seed and all ones at one, so a coordinate of least "
              "depth >= 64 that is no lane's index is passed over")
BRACKET = "the product bracket is rounded outward: lo down, hi up"
WINDOW = "the membership window is the least whole ring whose grid tail is within the tolerance"
RING_TAIL = ("ring tail: a coordinate on ring l > radius has depth >= ring_start(l - radius), "
             "and twice the ring l0+7 term closes the series")

MUTANTS = [
    Mutant(PRF_ROUND, "_purekernels.py",
           "z = (((z ^ (z >> 30)) & low) * 0xBF58476D1CE4E5B9) & low",
           "z = (((z ^ (z >> 29)) & low) * 0xBF58476D1CE4E5B9) & low",
           (SAMPLER + "test_block0_lanes_match_prf",
            SAMPLER + "test_prf_matches_three_round_splitmix")),
    Mutant(PRF_KEYS, "_purekernels.py",
           "_SEED_SALT = 0xA0761D6478BD642F",
           "_SEED_SALT = 0xA0761D6478BD6430",
           (SAMPLER + "test_prf_matches_three_round_splitmix",)),
    Mutant(PRF_KEYS, "_purekernels.py",
           "return _mix(_mix(_mix((seed & MASK64) ^ _SEED_SALT) ^ index) ^ block)",
           "return _mix(_mix(_mix((seed & MASK64) ^ _SEED_SALT) ^ index))",
           (SAMPLER + "test_prf_matches_three_round_splitmix",)),
    Mutant(PACKED_SEEDS, "_purekernels.py",
           "keys = _mix(packed ^ _SEED_SALT * unit, low, add)  # prf_block's seed round in every lane",
           "keys = _mix(packed ^ _SEED_SALT, low, add)",
           (SAMPLER + "test_membership_rows_match_scalar_scan_at_chunk_edges[1023]",
            SAMPLER + "test_membership_matrix_streams_rows")),
    Mutant(PACKED_SEEDS, "_purekernels.py",
           'packed = int.from_bytes(b"".join((s & MASK64).to_bytes(16, "little") for s in seeds), "little")',
           'packed = int.from_bytes(b"".join(s.to_bytes(16, "little") for s in seeds), "little")',
           (SAMPLER + "test_membership_rows_match_scalar_scan_at_chunk_edges[1023]",
            SAMPLER + "test_membership_rows_match_scalar_scan_at_chunk_edges[1024]",
            SAMPLER + "test_membership_rows_match_scalar_scan_at_chunk_edges[1025]")),
    Mutant(PACKED_SEEDS, "_purekernels.py",
           "return _mix(_mix(keys ^ (index & MASK64) * unit, low, add), low, add)",
           "return _mix(_mix(keys ^ index * unit, low, add), low, add)",
           equivalent="member_scan passes 1 <= index <= its window; any index in [0, 2^128 - 2^64) "
                      "spreads over whole lanes without a carry out of one, and _mix's first mask "
                      "drops each lane's bits 64-127"),
    Mutant(RING_TAIL, "measures.py",
           "cdfs = [chain_env_weight(inner, kernels.ring_start(l - radius)) for l in rings]",
           "cdfs = [chain_env_weight(inner, kernels.ring_start(l - radius + 1)) for l in rings]",
           (LEMMAS + "test_point_mass_tail_is_zero_from_its_clearance_ring_on",
            LEMMAS + "test_point_mass_tail_matches_a_direct_depth_scan",
            LEMMAS + "test_grid_tail_dominates_skipped_ring_bounds")),
    Mutant(RING_TAIL, "measures.py",
           "cdfs = [chain_env_weight(inner, kernels.ring_start(l - radius)) for l in rings]",
           "cdfs = [chain_env_weight(MU_F, kernels.ring_start(l - radius)) for l in rings]",
           (LEMMAS + "test_point_mass_tail_is_zero_from_its_clearance_ring_on",
            LEMMAS + "test_point_mass_tail_matches_a_direct_depth_scan",
            MEASURES + "test_coinduced_point_mass_inners")),
    Mutant(RING_TAIL, "measures.py",
           "rest = 8 * rings[-1] * units[-1] + sum(8 * l * u for l, u in zip(rings[1:], units))",
           "rest = sum(8 * l * u for l, u in zip(rings[1:], units))",
           (LEMMAS + "test_grid_tail_dominates_skipped_ring_bounds",
            LEMMAS + "test_grid_tail_is_the_fraction_sum_of_its_terms")),
    Mutant(RING_TAIL, "measures.py",
           "rings = range(l0, l0 + 8)",
           "rings = range(l0, l0 + 7)",
           (LEMMAS + "test_grid_tail_is_the_fraction_sum_of_its_terms",
            LEMMAS + "test_tail_from_ring_constants_equals_the_term_sum")),
    Mutant(RING_TAIL, "measures.py",
           "if l0 <= radius:",
           "if l0 < radius:",
           (LEMMAS + "test_grid_tail_dominates_skipped_ring_bounds",
            LEMMAS + "test_point_mass_tail_is_zero_from_its_clearance_ring_on",
            LEMMAS + "test_grid_tail_is_the_fraction_sum_of_its_terms")),
    Mutant(RETRACTION, "_purekernels.py",
           "if limit is None or s[0] < limit:",
           "if limit is None or s[0] <= limit:",
           (LEMMAS + "test_depth_matches_linear_scan",
            LEMMAS + "test_commutator_conjugation_keeps_depth",
            LEMMAS + "test_depth_of_products_of_commutators_of_the_basis")),
    Mutant(CYCLIC_CORE, "_purekernels.py",
           "e = points[i][1] + points[j][1]",
           "e = points[i][1] - points[j][1]",
           (LEMMAS + "test_cyclic_core_merges_with_the_summed_exponent",
            LEMMAS + "test_cyclic_core_keeps_the_depth",
            LEMMAS + "test_ring_lower_bound_on_conjugate_depths")),
    Mutant(SUPPORT_RADIUS, "_purekernels.py",
           "return max((max(abs(x), abs(j)) for (x, j), _ in points), default=0)",
           "return max((abs(j) for (x, j), _ in points), default=0)",
           (LEMMAS + "test_support_radius_reads_the_whole_rewrite_not_its_core",
            LEMMAS + "test_one_origin_rewrite_gives_syllables_radius_and_column_zero")),
    Mutant(BLOCK0, "_purekernels.py",
           "bits = min(d, 64)",
           "bits = min(d, 63)",
           (LEMMAS + "test_block0_decides_levels_up_to_depth_64",)),
    Mutant(BLOCK0, "_purekernels.py",
           "if draw(j >> 4, i) <= d:",
           "if draw(j >> 4, i) < d:",
           (LEMMAS + "test_packed_comparison_matches_the_scalar_draw",
            LEMMAS + "test_block0_decides_levels_up_to_depth_64")),
    Mutant(DEEP_INDEX, "_purekernels.py",
           "_BLOCK0_ZERO = 0xC5DEEFB0344C1DF5",
           "_BLOCK0_ZERO = 0xC5DEEFB0344C1DF4",
           (LEMMAS + "test_deep_block0_lies_at_one_index_per_seed",
            SAMPLER + "test_membership_matrix_draws_only_undecided_coordinates")),
    Mutant(DEEP_INDEX, "_purekernels.py",
           "_BLOCK0_ONES = 0x1FDB84807C8BC327",
           "_BLOCK0_ONES = 0x1FDB84807C8BC326",
           (LEMMAS + "test_deep_block0_lies_at_one_index_per_seed",
            SAMPLER + "test_membership_matrix_draws_block0_once_per_chunk_and_coordinate")),
    Mutant(DEEP_INDEX, "_purekernels.py",
           "if least >= 64 and i not in deep_indices:",
           "if least >= 63 and i not in deep_indices:",
           (LEMMAS + "test_deep_block0_lies_at_one_index_per_seed",)),
    Mutant(DEEP_INDEX, "_purekernels.py",
           "bits = max(map(len, profiles), default=0).bit_length()",
           "bits = max(map(len, profiles), default=0).bit_length() - 1",
           (LEMMAS + "test_deep_block0_lies_at_one_index_per_seed",
            SAMPLER + "test_membership_matrix_draws_only_undecided_coordinates",
            SAMPLER + "test_membership_matrix_draws_block0_once_per_chunk_and_coordinate")),
    Mutant(BRACKET, "dyadic.py",
           "hi = -((-hi) >> (e - prec))",
           "hi >>= e - prec",
           (DYADIC + "test_fixed_point_bracket_is_the_rounded_product",
            DYADIC + "test_fixed_point_bracket_matches_the_dyadic_bracket",
            DYADIC + "test_certified_product_matches_exact_loop")),
    Mutant(WINDOW, "sampler.py",
           "return (2 * ring + 1) ** 2",
           "return (2 * ring - 1) ** 2",
           (LEMMAS + "test_membership_window_is_the_least_certified_ring",
            SAMPLER + "test_membership_window_grows_with_tolerance")),
    Mutant(WINDOW, "sampler.py",
           "ring = radius + 1",
           "ring = radius",
           equivalent="the tail at the end of ring radius counts all of ring radius + 1, 8(radius + 1) "
                      "coordinates of bound 2^-2, so it is at least 2 and the loop always takes one more ring"),
    Mutant(WINDOW, "sampler.py",
           "while _grid_tail((2 * ring + 1) ** 2, radius) > budget:",
           "while _grid_tail((2 * ring + 1) ** 2, radius) >= budget:",
           equivalent="the two differ only where a ring's tail is exactly 2^-tolerance_exp, and no tail at "
                      "the end of rings radius + 1 .. radius + 25 is a power of two for radius 0..48"),
]


def source(row):
    return REPO / "src" / "irslab" / row.file


def _killed(copy, killer):
    """Whether the killing test fails in the copy; raises when pytest errs."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", killer]
    code = subprocess.run(command, cwd=copy, env=env, capture_output=True).returncode
    if code not in (0, 1):
        raise RuntimeError("pytest exited %d on %s" % (code, killer))
    return code == 1


def main():
    survivors = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(REPO, copy, ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                                                                   ".hypothesis", ".perfbench_work"))
        for row in MUTANTS:
            if row.equivalent:
                continue
            path = copy / source(row).relative_to(REPO)
            text = path.read_text()
            path.write_text(text.replace(row.site, row.mutant))
            try:
                start = time.perf_counter()
                killed = _killed(copy, row.killers[0])
            finally:
                path.write_text(text)
            survivors += not killed
            print("%s in %.1f s: %s: %s\n    by %s" % ("killed" if killed else "SURVIVED", time.perf_counter() - start,
                                                    row.file, row.mutant, row.killers[0]))
    print("%d mutants survived" % survivors if survivors else "every mutant was killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
