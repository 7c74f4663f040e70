"""The benchmark's default-seed outputs, reproduced in-process.

perfbench/reference.json records, for the seed-1 inputs of each workload,
the 11 enclosures of enclose, the SHA-256 digests of both sample CSVs and
faithful's word count and depth histogram; tests/report_digests.json
records the SHA-256 of the report each seed-1 command writes.  Every
certified value and seeded sample is meant to stay bit-identical, so this
runs those commands through the CLI and compares what they write with the
records."""

import json
from pathlib import Path

import pytest

from irslab import cli
from irslab.measures import MU_G, descriptor_to_json, parse_measure

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
REPORT_DIGESTS = Path(__file__).resolve().parent / "report_digests.json"


def _workloads() -> dict:
    path = PERFBENCH / "workloads.py"
    module = {"__name__": "workloads"}
    exec(compile(path.read_text(), str(path), "exec"), module)
    return module


@pytest.mark.parametrize("workload", ["enclose", "sample", "verify"])
def test_default_seed_outputs_match_the_reference(workload, tmp_path):
    wl = _workloads()
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    commands = wl["make_commands"](workload, reference["inputs"][workload])
    outputs = {}
    digests = {}
    for command in commands:
        key, argv = command["key"], command["argv"]
        paths = {flag: str(tmp_path / (key + "." + flag[2:])) for flag in wl["output_flags"](argv)}
        rc = cli.main(argv + [x for item in paths.items() for x in item])
        report = json.loads(Path(paths["--out"]).read_text())
        assert rc in wl["allowed_exit_codes"](key, report), key
        outputs[key] = {"report": report, "csv": paths.get("--csv")}
        digests[key] = wl["sha256_file"](paths["--out"])
    assert wl["reference_entry"](workload, outputs) == reference[workload]
    assert digests == json.loads(REPORT_DIGESTS.read_text())[workload]


def test_benchmark_induced_descriptor_normalises_to_mu_g():
    # the enclose workload's induced-w60 command averages mu_F over {1, [a,b]}
    wl = _workloads()
    measure = parse_measure(wl["induced_descriptor"](wl["INDUCED_REPS"]))
    assert measure == MU_G
    assert json.dumps(descriptor_to_json(measure), sort_keys=True) == (
        '{"inner": {"type": "geom_gamma"}, "type": "coinduced_product"}'
    )
