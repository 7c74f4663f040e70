"""The mutant ledger stays in step with src/ and tests/: each row's site
occurs exactly once in its file, and each killing test is still collected.
Whether the tests still kill their mutants is checked outside Tier-1, by
running tests/mutant_ledger.py."""

import os
import subprocess
import sys

from mutant_ledger import MUTANTS, REPO, source


def test_each_site_is_one_whole_line_of_its_file():
    for row in MUTANTS:
        text = source(row).read_text()
        assert text.count(row.site) == 1, (row.file, row.site)
        assert row.site in [line.strip() for line in text.splitlines()], (row.file, row.site)
        assert row.mutant != row.site and "\n" not in row.mutant, row.mutant


def test_each_row_names_its_killers_or_why_it_is_equivalent():
    for row in MUTANTS:
        assert bool(row.killers) != bool(row.equivalent), row.mutant
        assert len(set(row.killers)) == len(row.killers), row.mutant


def test_every_killing_test_is_collected():
    killers = sorted({killer for row in MUTANTS for killer in row.killers})
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    run = subprocess.run([sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider",
                          *killers], cwd=REPO, env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stdout + run.stderr
    assert set(killers) <= set(run.stdout.splitlines()), run.stdout
