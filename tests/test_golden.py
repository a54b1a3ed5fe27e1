"""Byte-level golden reports.

Each file under tests/golden/ is the standard output of one command; the
test reruns the command in a fresh interpreter, as a user would, and
compares the bytes.  Regenerate a file only for a change that means to
alter the report, with (bianchi7.json likewise)

    PYTHONPATH=src python -c "from qfbounds.pipeline import run_preset; \
print(run_preset('m306').json_str())" > tests/golden/m306.json
    PYTHONPATH=src python -m qfbounds.cli k-constant --preset m306 --json \
> tests/golden/k_constant_m306.json
    PYTHONPATH=src python -m qfbounds.cli isometry 14,6,17,-1 --json \
> tests/golden/isometry_14_6_17_-1.json

The isometry reports (the other two forms likewise) lock the searched
complements of three forms the presets do not cover, and the
isometry_construction_*.json files lock the same forms through the
construction path (complementary_form, then the descent), printed by
_CONSTRUCTION below.  Between them they take a Lagrangian of two
vectors at one prime, a coefficient with a square factor (the 4 of
<4,7,7,-2>), and every split of step 2 but the hyperbolic re-split,
which tests/test_isometry.py covers.  The other
CLI files lock one `--json` output of each remaining subcommand, so
that every value kind a report serializes (forms, rationals, bounds,
the sharp enumeration, mpf constants, the places of the Hasse-Witt map)
is covered; each is regenerated like k_constant_m306.json with the argv
in _CLI below.  Under `python -O` each command runs with -O as well,
which is how CI checks that the reports do not depend on asserts.  corpus_eps.txt holds the sha256 of each of the 40 seeded
corpus reports; tests/corpus_digests.py says how it is made.
"""

from pathlib import Path

import pytest

from conftest import run_python

GOLDEN = Path(__file__).resolve().parent / "golden"

_PRESET = "from qfbounds.pipeline import run_preset; print(run_preset(%r).json_str())"
_CONSTRUCTION = (
    "import json, sys; from qfbounds.forms import DiagForm; "
    "from qfbounds.complement import complementary_form; "
    "from qfbounds.isometry import full_isometry_to_standard; "
    "from qfbounds.pipeline import to_json; q = DiagForm.parse(sys.argv[1]); "
    "g7 = complementary_form(q).qc.direct_sum(q); "
    "print(json.dumps(to_json(full_isometry_to_standard(g7)), indent=2, sort_keys=True))"
)

CASES = {
    "m306.json": ["-c", _PRESET % "m306"],
    "bianchi7.json": ["-c", _PRESET % "bianchi7"],
    "k_constant_m306.json": ["-m", "qfbounds.cli", "k-constant", "--preset", "m306", "--json"],
}
_CLI = {
    "invariants_1_2_5_10.json": ["invariants", "1,2,5,10"],
    "complement_1_2_5_10.json": ["complement", "1,2,5,10"],
    "bounds_1_2_5_10_V.json": ["bounds", "1,2,5,10", "--eps", "1", "--vol", "3.66386"],
    "geometry.json": ["geometry"],
    "k_constant_vol.json": ["k-constant", "--vol", "3.66386"],
    "verify_paper.json": ["verify-paper"],
}
for _name, _argv in _CLI.items():
    CASES[_name] = ["-m", "qfbounds.cli", *_argv, "--json"]
for _form in ("14,6,17,-1", "4,7,7,-2", "13,9,12,-14"):
    CASES["isometry_%s.json" % _form.replace(",", "_")] = [
        "-m", "qfbounds.cli", "isometry", _form, "--json",
    ]
for _form in ("14,6,17,-1", "4,7,7,-2", "13,9,12,-14"):
    CASES["isometry_construction_%s.json" % _form.replace(",", "_")] = ["-c", _CONSTRUCTION, _form]
CASES["corpus_eps.txt"] = [str(Path(__file__).resolve().parent / "corpus_digests.py")]


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report_bytes(name):
    proc = run_python(CASES[name])
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (GOLDEN / name).read_bytes()
