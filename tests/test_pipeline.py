"""End-to-end pipeline reports, presets, the fixture corpus, and the CLI."""

import contextlib
import io
import json
import math
import time
from fractions import Fraction

import jsonschema
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from qfbounds import cli, pipeline
from qfbounds.arithmetic import generic_S_rf_bound
from qfbounds.complement import complementary_form
from qfbounds.forms import DiagForm
from qfbounds.isometry import full_isometry_to_standard
from qfbounds.pipeline import (
    PRESETS,
    PipelineConfig,
    REPORT_SCHEMA,
    run_pipeline,
    run_preset,
    to_json,
    verify_paper_corpus,
)

from conftest import run_python, squarefree_int
from corpus_digests import corpus as seeded_corpus


@pytest.fixture(scope="module")
def m306():
    return run_preset("m306")


@pytest.fixture(scope="module")
def b7():
    return run_preset("bianchi7")


@pytest.fixture(scope="module")
def corpus():
    return verify_paper_corpus()


def warning_codes(rep):
    return [w["code"] for w in rep.warnings]


# ---------------------------------------------------------------------------
# report structure


def test_report_schema_m306(m306):
    doc = to_json(m306)
    jsonschema.validate(instance=doc, schema=REPORT_SCHEMA)
    # V is fixed for this preset, so the geometry and K stages run
    assert doc["geometry"] is not None
    assert doc["K"] is not None
    assert doc["preset"] is not None


def test_report_schema_bianchi7(b7):
    doc = to_json(b7)
    jsonschema.validate(instance=doc, schema=REPORT_SCHEMA)
    # no volume: bound stage stays symbolic in V, no K stage
    assert doc["geometry"] is None
    assert doc["K"] is None
    assert doc["bounds"]["generic_S_rf"] is None


def test_report_json_str_round_trip(m306):
    text = m306.json_str()
    assert json.loads(text) == json.loads(m306.json_str())
    assert text.startswith("{")


def test_pipeline_deterministic():
    q = DiagForm.parse("1,1,1,-7")
    a = run_pipeline(q, 0.5, 2.0).json_str()
    b = run_pipeline(q, 0.5, 2.0).json_str()
    assert a == b


_REPORTS_IN_ORDER = """
import sys
from qfbounds.forms import DiagForm
from qfbounds.pipeline import run_pipeline

for text in sys.argv[1:]:
    report = run_pipeline(DiagForm.parse(text), 1.0, None).json_str()
print(report)
"""


def test_report_independent_of_earlier_descents():
    # a report must not depend on what the process computed before it
    first = run_python(["-c", _REPORTS_IN_ORDER, "7,19,8,-11"])
    after = run_python(["-c", _REPORTS_IN_ORDER, "10,18,14,-11", "7,19,8,-11"])
    assert first.returncode == after.returncode == 0, first.stderr + after.stderr
    assert json.loads(first.stdout)["input"]["form"] == "<7,19,8,-11>"
    assert first.stdout == after.stdout


# ---------------------------------------------------------------------------
# m306 preset content


def test_m306_invariants(m306):
    inv = m306.invariants
    assert inv["rank"] == 4
    assert inv["signature"] == [3, 1]
    assert inv["is_isotropic"] is False
    assert inv["cocompact"] is True
    assert inv["nontrivial_places"] == [2, 5]
    hw = inv["hasse_witt"]
    assert all(v in (1, -1) for v in hw.values())
    assert {k for k, v in hw.items() if v == -1} == {"2", "5"}
    assert m306.field["d"] == 1
    assert m306.quaternion["r_f"] == 2


def test_m306_bounds(m306):
    b = m306.bounds
    assert b["c_prime_eps"] == pytest.approx(270.5, abs=1e-12)
    assert b["r_f_used"] == 2
    sharp = b["sharp"]
    assert sharp["mode"] == "V"
    assert sharp["coefficient"] == pytest.approx(16.0)
    assert sharp["r_f"] == 2
    # the computed denominator feeds the level-42 congruence count
    S = m306.isometry["S"]
    assert b["log10_D_used"] == pytest.approx(84.0 * math.log10(S), rel=1e-12)
    ts = b["total_sharp"]
    assert ts["provenance"] == "computed"
    assert ts["log10"] == pytest.approx(math.log10(16.0) + b["log10_D_used"], rel=1e-12)
    assert b["total"]["provenance"] == "parameterized (A1)"
    # the total multiplies C_eps, so it names C_eps's parameters too
    assert b["total"]["parameterized_by"] == b["c_eps"]["parameterized_by"] == ["A1"]
    assert b["total"]["human"].endswith("(parameterized by A1)")
    V = m306.input["V"]
    assert b["generic_S_rf"] == pytest.approx(generic_S_rf_bound(1.0, V), rel=1e-12)


def test_m306_k_stage(m306):
    k = m306.K
    assert k["C_D_source"] == "paper-preset C*D"
    assert k["mode"] == "paper_h6"
    assert k["log10_K"] == pytest.approx(162.5871384612832, rel=1e-9)
    V = m306.input["V"]
    assert k["log10_K"] - k["log10_K_display_variant"] == pytest.approx(
        math.log10(V), rel=1e-9
    )
    assert float(k["h_max"]) == pytest.approx(0.7461011756767191, rel=1e-9)
    assert float(k["cosh_r_max"]) == pytest.approx(2.1087622746449366, rel=1e-9)


def test_m306_preset_block(m306):
    p = m306.preset
    assert p["name"] == "m306"
    assert p["published_S"] == 40
    assert p["published_qc"] == "<2,5,10>"
    assert p["published_qc_verified"] is True
    assert p["published_P_verified"] is True
    assert p["published_log10_D_level42"] == pytest.approx(84.0 * math.log10(40.0), rel=1e-12)
    assert p["published_total_log10"] == pytest.approx(135.77715925420478, rel=1e-12)
    assert p["published_K_log10"] == pytest.approx(math.log10(7.0) + 150.0, rel=1e-12)
    assert p["provenance"] == "paper-preset"


def test_m306_k_discrepancy_warning(m306):
    codes = warning_codes(m306)
    assert "k-magnitude-paper-discrepancy" in codes
    w = next(x for x in m306.warnings if x["code"] == "k-magnitude-paper-discrepancy")
    assert w["computed"] == pytest.approx(m306.K["log10_K"])
    assert w["paper"] == pytest.approx(math.log10(7.0) + 150.0)


# ---------------------------------------------------------------------------
# bianchi7 preset content


def test_bianchi7_warnings(b7):
    codes = warning_codes(b7)
    assert "ramification-override" in codes
    assert "isotropy-paper-discrepancy" in codes
    w = next(x for x in b7.warnings if x["code"] == "ramification-override")
    assert w["computed"] == 2
    assert w["configured"] == 0


def test_bianchi7_bounds(b7):
    b = b7.bounds
    assert b["r_f_used"] == 0
    sharp = b["sharp"]
    assert sharp["mode"] == "eps"
    assert sharp["coefficient"] == pytest.approx(8.0)
    assert sharp["r_f"] == 0
    assert sharp["eps_validity_threshold"] == pytest.approx(0.5, abs=1e-12)
    ts = b["total_sharp"]
    assert ts["human"].endswith("* V^0.5 (V symbolic)")
    assert b["c_prime_eps"] == pytest.approx(526.5, abs=1e-12)


def test_bianchi7_blocks(b7):
    assert b7.invariants["is_isotropic"] is False
    assert b7.invariants["nontrivial_places"] == []
    assert b7.field["d"] == 7
    assert b7.quaternion["r_f"] == 2
    p = b7.preset
    assert p["name"] == "bianchi7"
    assert p["published_S"] == 7
    assert p["published_qc_verified"] is True
    assert p["published_P_verified"] is True
    assert p["published_total_log10"] is None


# ---------------------------------------------------------------------------
# plain runs and input validation


def test_plain_run_isotropic_input():
    rep = run_pipeline(DiagForm.parse("1,1,1,-1"), 1.0)
    jsonschema.validate(instance=to_json(rep), schema=REPORT_SCHEMA)
    assert rep.invariants["is_isotropic"] is True
    assert rep.invariants["cocompact"] is False
    assert rep.preset is None


def test_pipeline_rejects_wrong_signature():
    with pytest.raises(ValueError, match=r"\[invariants\] expected signature \(3,1\)"):
        run_pipeline(DiagForm((1, 1, 1, 1)), 1.0)
    with pytest.raises(ValueError, match=r"\[invariants\]"):
        run_pipeline(DiagForm((1, 1, -1, -1)), 1.0)


def test_run_preset_unknown_name():
    with pytest.raises(ValueError, match="unknown preset 'nope'"):
        run_preset("nope")
    assert sorted(PRESETS) == ["bianchi7", "m306"]


# ---------------------------------------------------------------------------
# configuration parsing


def test_config_defaults():
    cfg = PipelineConfig()
    assert cfg.A1 == 1.0 and cfg.deg_kA == 1
    assert cfg.type_number_one is False
    assert cfg.assume_rf is None
    assert cfg.precision == 50
    assert cfg.rmax_mode == "paper_h6"


def test_config_from_mapping_casts():
    cfg = PipelineConfig.from_mapping(
        {
            "A1": "2.5",
            "deg_kA": "2",
            "type_number_one": "yes",
            "assume_rf": "1",
            "precision": "40",
            "rmax_mode": "dim3",
        }
    )
    assert cfg.A1 == 2.5 and cfg.deg_kA == 2
    assert cfg.type_number_one is True
    assert cfg.assume_rf == 1
    assert cfg.precision == 40
    assert cfg.rmax_mode == "dim3"
    assert PipelineConfig.from_mapping({"type_number_one": "0"}).type_number_one is False


def test_config_from_mapping_unknown_key():
    with pytest.raises(ValueError, match="unknown config key 'foo'"):
        PipelineConfig.from_mapping({"foo": "1"})
    with pytest.raises(ValueError, match="unknown config key 'A'"):
        PipelineConfig.from_mapping({"A": "1.0"})


def test_config_from_file(tmp_path):
    path = tmp_path / "cfg"
    path.write_text("# comment\nA1 = 2.0\n\ntype_number_one = true  # trailing\n")
    cfg = PipelineConfig.from_file(str(path))
    assert cfg.A1 == 2.0
    assert cfg.type_number_one is True

    bad = tmp_path / "bad"
    bad.write_text("A1: 2.0\n")
    with pytest.raises(ValueError, match="is not key = value"):
        PipelineConfig.from_file(str(bad))


# ---------------------------------------------------------------------------
# fixture corpus


def test_corpus_passes(corpus):
    statuses = {c["status"] for c in corpus}
    assert statuses <= {"pass", "info"}
    assert [c for c in corpus if c["status"] == "fail"] == []


def test_corpus_shape(corpus):
    assert len(corpus) == 23
    names = [c["name"] for c in corpus]
    assert len(set(names)) == len(names)
    info = {c["name"] for c in corpus if c["status"] == "info"}
    # the three documented divergences from the published text stay visible
    assert info == {"ex1-ram-norms", "ex1-isotropy", "m306-K-comparison"}


# ---------------------------------------------------------------------------
# command-line interface


def run_cli(capsys, argv):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_cli_invariants_json(capsys):
    code, out, _ = run_cli(capsys, ["invariants", "1,2,5,10", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["is_isotropic"] is False
    assert doc["cocompact_when_3_1"] is True
    assert doc["hasse_witt"]["2"] == -1


def test_cli_invariants_human(capsys):
    # all-positive rank-4 input denotes <z1,z2,z3,-z4>
    code, out, _ = run_cli(capsys, ["invariants", "1,2,5,10"])
    assert code == 0
    assert "form        <1,2,5,-10>" in out
    assert "isotropic/Q False" in out
    assert "hasse-witt" in out


def test_cli_complement(capsys):
    code, out, _ = run_cli(capsys, ["complement", "1,1,1,7"])
    assert code == 0
    assert "strategy    search\n" in out
    assert "verified    True" in out


def test_cli_complement_construction(capsys):
    # 1000003 exceeds the largest sum searched, and no triple with
    # a*b*c = D = 1000003 has the Hasse-Witt symbols of <1,1,2,-2000006>
    code, out, _ = run_cli(capsys, ["complement", "1,1,2,2000006"])
    assert code == 0
    assert "strategy    construction: d = 4000012, c = 2, x = 1" in out
    assert "verified    True" in out


def test_cli_isometry_json(capsys):
    code, out, _ = run_cli(capsys, ["isometry", "1,1,1,7", "--json"])
    assert code == 0
    doc = json.loads(out)
    S = doc["S"]
    assert isinstance(S, int) and S >= 1
    assert doc["log10_D_S42"] == pytest.approx(42.0 * math.log10(S), rel=1e-12)
    assert doc["log10_D_level42"] == pytest.approx(84.0 * math.log10(S), rel=1e-12)
    assert len(doc["P"]) == 7


def test_cli_bounds_json_schema(capsys):
    code, out, _ = run_cli(
        capsys, ["bounds", "1,1,1,7", "--eps", "0.5", "--vol", "2.0", "--json"]
    )
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(instance=doc, schema=REPORT_SCHEMA)
    assert doc["K"] is not None


def test_cli_bounds_config_file(tmp_path, capsys):
    path = tmp_path / "cfg"
    path.write_text("assume_rf = 0\ntype_number_one = true\n")
    code, out, _ = run_cli(
        capsys, ["bounds", "1,1,1,7", "--eps", "0.5", "--config", str(path)]
    )
    assert code == 0
    assert "warning       [ramification-override]" in out
    assert "sharp coeff   8 (mode eps)" in out


def test_cli_geometry_json(capsys):
    code, out, _ = run_cli(capsys, ["geometry", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert float(doc["V0"]) == pytest.approx(1.1124909574181490, rel=1e-12)
    assert doc["group_order"] == 51840
    assert len(doc["vertices"]) == 7
    assert all(len(v) == 7 for v in doc["vertices"])


def test_cli_geometry_precision_flag(capsys):
    code, out, _ = run_cli(capsys, ["geometry", "--precision", "30", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["precision_digits"] == 30
    assert float(doc["R"]) == pytest.approx(1.6283069774000263, rel=1e-12)


BOUNDS_ARGV = ["bounds", "1,2,5,10", "--vol", "3.66386", "--json"]


def test_cli_precision_flag_sets_config_precision(capsys):
    code, out, _ = run_cli(capsys, BOUNDS_ARGV + ["--precision", "20"])
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["precision"] == doc["geometry"]["precision_digits"] == 20


def test_config_file_precision_reaches_geometry(tmp_path, capsys):
    path = tmp_path / "cfg"
    path.write_text("precision = 20\n")
    code, out, _ = run_cli(capsys, BOUNDS_ARGV + ["--config", str(path)])
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["precision"] == doc["geometry"]["precision_digits"] == 20


@pytest.mark.parametrize("argv", [["geometry"], BOUNDS_ARGV, ["k-constant", "--preset", "m306"]])
def test_cli_precision_below_floor_exit_code(capsys, argv):
    code, out, err = run_cli(capsys, argv + ["--precision", "14"])
    assert code == 2
    assert out == ""
    assert err == "error: precision must be at least 15 digits, got 14\n"


@pytest.mark.parametrize("argv", [["geometry"], BOUNDS_ARGV, ["k-constant", "--preset", "m306"]])
def test_cli_precision_above_cap_exit_code(capsys, argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, argv + ["--precision", "1001"])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err == "error: precision must be at most 1000 digits, got 1001\n"


def test_cli_k_constant_direct(capsys):
    vol = repr(float(4.0 * 0.915965594177219015054603514932))
    code, out, _ = run_cli(
        capsys,
        [
            "k-constant",
            "--vol",
            vol,
            "--eps",
            "1.0",
            "--log10-D",
            "135.77715925420478",
            "--json",
        ],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["log10_K"] == pytest.approx(162.5871384612832, rel=1e-9)
    assert float(doc["h_max"]) == pytest.approx(0.7461011756767191, rel=1e-9)


def test_cli_k_constant_preset(capsys):
    code, out, _ = run_cli(capsys, ["k-constant", "--preset", "m306", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["K"]["log10_K"] == pytest.approx(162.5871384612832, rel=1e-9)
    assert doc["K"]["C_D_source"] == "paper-preset C*D"
    assert "k-magnitude-paper-discrepancy" in [w["code"] for w in doc["warnings"]]


def test_cli_k_constant_requires_vol(capsys):
    code, _, err = run_cli(capsys, ["k-constant"])
    assert code == 2
    assert "error: k-constant requires --vol" in err


def test_cli_verify_paper(capsys):
    code, out, _ = run_cli(capsys, ["verify-paper", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert {c["status"] for c in doc["checks"]} <= {"pass", "info"}


def test_cli_bad_form_exit_code(capsys):
    code, _, err = run_cli(capsys, ["invariants", "abc"])
    assert code == 2
    assert err.startswith("error:")


# arbitrary text, valid forms, and coefficient lists with junk in them;
# the numbers stay small enough for the class number to be quick
_FORM_TEXT = (
    st.text(max_size=30)
    | st.lists(st.integers(1, 12), min_size=4, max_size=4).map(lambda zs: ",".join(map(str, zs)))
    | st.lists(
        st.integers(-12, 12) | st.sampled_from(["", "0", "1/0", "-", "1e3", "2/3", " 7 ", "<5"]),
        max_size=6,
    ).map(lambda parts: ",".join(map(str, parts)))
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(["isometry", "complement", "bounds"]), _FORM_TEXT)
def test_cli_fuzz_exit_codes(command, text):
    # every form text ends in a report or a one-line error: exit 0, 2 or
    # 3 and no traceback; "--" keeps a leading "-" from reading as a flag
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([command, "--", text])
    event("exit %s" % code)
    assert code in (0, 2, 3)
    if code:
        assert err.getvalue().startswith(("error: ", "internal error: ")), err.getvalue()
        assert err.getvalue().count("\n") == 1
    else:
        assert out.getvalue() and not err.getvalue()


@pytest.mark.parametrize("eps", ["nan", "0.0009"])
def test_cli_bounds_bad_eps_exit_code(capsys, eps):
    code, out, err = run_cli(capsys, ["bounds", "1,2,5,-10", "--eps", eps, "--json"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: [bounds] eps")
    assert err.count("\n") == 1


@pytest.mark.parametrize("vol", ["nan", "inf"])
def test_cli_bounds_bad_volume_exit_code(capsys, vol):
    code, out, err = run_cli(capsys, ["bounds", "1,2,5,10", "--vol", vol, "--json"])
    assert code == 2
    assert out == ""
    assert err == "error: [bounds] V must be finite and positive, got %s\n" % vol


def test_cli_k_constant_infinite_volume_exit_code():
    # a fresh process with a timeout, so that a volume the bisection cannot
    # bracket fails the test instead of hanging the suite
    proc = run_python(["-m", "qfbounds.cli", "k-constant", "--vol", "inf", "--json"], timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr.startswith(b"error: volume must be finite and positive")
    assert proc.stderr.count(b"\n") == 1


def test_cli_k_constant_bad_eps_exit_code(capsys):
    code, out, err = run_cli(capsys, ["k-constant", "--vol", "1", "--eps", "nan", "--json"])
    assert code == 2
    assert out == ""
    assert err == "error: eps must be finite and positive, got nan\n"


@pytest.mark.parametrize("flag, value", [("--log10-D", "nan"), ("--log10-C", "inf")])
def test_cli_k_constant_non_finite_log10_exit_code(capsys, flag, value):
    code, out, err = run_cli(capsys, ["k-constant", "--vol", "1", flag, value, "--json"])
    assert code == 2
    assert out == ""
    name = {"--log10-D": "log10_D", "--log10-C": "log10_C_eps"}[flag]
    assert err == "error: %s must be finite, got %s\n" % (name, value)


@pytest.mark.parametrize("eps, V", [(1.0, float("nan")), (float("nan"), 2.0)])
def test_pipeline_checks_eps_and_volume_before_complement(monkeypatch, eps, V):
    def unreachable(q):
        raise AssertionError("the complement ran before eps and V were checked")

    monkeypatch.setattr(pipeline, "complement_isometry_stage", unreachable)
    with pytest.raises(ValueError, match=r"^\[bounds\] (eps|V) must be finite and positive"):
        run_pipeline(DiagForm.parse("10,18,14,-11"), eps, V)


def test_cli_zero_denominator_exit_code(capsys):
    code, _, err = run_cli(capsys, ["invariants", "1/0,2"])
    assert code == 2
    assert err == "error: zero denominator in '1/0'\n"


def test_cli_internal_error_exit_code(monkeypatch, capsys):
    def boom():
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "verify_paper_corpus", boom)
    code, _, err = run_cli(capsys, ["verify-paper"])
    assert code == 3
    assert "internal error: boom" in err


def test_cli_bounds_overflowing_eps_exit_code(capsys):
    # eps * C'_eps overflows a float although eps itself is finite
    code, out, err = run_cli(capsys, ["bounds", "1,2,5,-10", "--eps", "1e308", "--json"])
    assert code == 2
    assert out == ""
    assert err == "error: [bounds] log10 of the bound is not a finite float: inf\n"


def test_cli_k_constant_overflowing_log10_exit_code(capsys):
    argv = ["k-constant", "--vol", "1", "--log10-C", "1.7e308", "--log10-D", "1.7e308", "--json"]
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: log10 K = 3.4e+308 is not a finite float")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "eps, V, message",
    [
        (1e308, None, "log10 of the bound is not a finite float"),
        (1e306, 1e14, "eps\\*C'_eps \\+ eps\\*log2\\(V\\) is not a finite float"),
    ],
)
def test_pipeline_checks_overflow_before_complement(monkeypatch, eps, V, message):
    def unreachable(q):
        raise AssertionError("the complement ran before the bounds were checked")

    monkeypatch.setattr(pipeline, "complement_isometry_stage", unreachable)
    with pytest.raises(ValueError, match=r"^\[bounds\] " + message):
        run_pipeline(DiagForm.parse("10,18,14,-11"), eps, V)


@pytest.mark.parametrize(
    "line, message",
    [
        ("deg_kA = 0", "deg_kA must be at least 1, got 0"),
        ("deg_kA = -1", "deg_kA must be at least 1, got -1"),
        ("assume_rf = -1", "assume_rf must be nonnegative, got -1"),
        ("rmax_mode = foo", "rmax_mode must be one of paper_h6, dim3, got 'foo'"),
        # Q(i) has class number 1, and <1,2,5,-10> two ramified primes
        ("deg_kA = 3", "[field] deg_kA must be at most the class number h_k = 1, got 3"),
        ("assume_rf = 5", "[field] assume_rf = 5 exceeds the computed r_f = 2"),
    ],
)
def test_cli_bad_config_value_exit_code(tmp_path, monkeypatch, capsys, line, message):
    def unreachable(q):
        raise AssertionError("the complement ran before the config was checked")

    monkeypatch.setattr(pipeline, "complement_isometry_stage", unreachable)
    path = tmp_path / "cfg"
    path.write_text(line + "\n")
    code, out, err = run_cli(capsys, BOUNDS_ARGV + ["--config", str(path)])
    assert code == 2
    assert out == ""
    assert err == "error: %s\n" % message


def test_cli_bounds_huge_volume_exit_code(capsys):
    # a finite V of any size ends in a report, not in an exhausted guard
    code, out, _ = run_cli(capsys, ["bounds", "1,2,5,-10", "--eps", "1", "--vol", "1e200", "--json"])
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(instance=doc, schema=REPORT_SCHEMA)
    sharp = doc["bounds"]["sharp"]
    assert sharp["mode"] == "V"
    assert sharp["max_S_size"] == len(sharp["norms_considered"]) > 64


def test_report_json_is_strict():
    report = run_pipeline(DiagForm.parse("1,2,5,-10"), 1.0)
    report.input["eps"] = float("nan")
    with pytest.raises(ValueError, match="not JSON compliant"):
        report.json_str()


# ---------------------------------------------------------------------------
# the complement search


def test_search_presets(m306, b7):
    # the published complements <2,5,10> and <1,1,7> give S = 10 and 7
    # here (the published isometries have S = 40 and 7)
    assert m306.complement["strategy"] == "search"
    assert m306.isometry["S"] == m306.isometry["S_lower_bound"] == 10
    assert b7.isometry["S"] == b7.isometry["S_lower_bound"] == 7
    for rep in (m306, b7):
        assert rep.complement["c"] is None and rep.complement["x"] is None
        assert rep.isometry["S"] % rep.isometry["S_lower_bound"] == 0


def test_search_hard_form_ends_in_report():
    # the construction's descent for this form ran out of its factoring budget
    start = time.perf_counter()
    report = run_pipeline(DiagForm.parse("15,51,39,-40"), 1.0)
    assert time.perf_counter() - start < 5
    assert report.complement["strategy"] == "search"


# S of the coefficient-growing descent this one replaced: a regression
# must finish within a second with S at most the value listed first
@pytest.mark.parametrize(
    "form, most, before",
    [
        ("19,21,19,-29", 11571, 32410885955504628135947713883646099720),
        ("24,2,15,-29", 1740, 11112697776778831897559280),
        ("15,51,39,-40", 13260, 132600),
        ("6,3,14,-13", 546, 1092),
        ("20,1,19,-11", 2090, 6270),
    ],
)
def test_descent_regressions(form, most, before):
    start = time.perf_counter()
    _, iso_json, _, iso = pipeline.complement_isometry_stage(DiagForm.parse(form))
    assert time.perf_counter() - start < 1
    assert iso.S <= most < before
    assert iso.S % iso_json["S_lower_bound"] == 0


@pytest.mark.parametrize(
    "form, strategy, S",
    [
        # 1000003 exceeds the largest sum searched: a*b*c = D is tried
        ("1,1,1,-1000003", "search", 1000003),
        # ... and for this form no such triple fits
        ("1,1,2,-2000006", "construction", 2000006),
    ],
)
def test_complement_stage_fallbacks(form, strategy, S):
    comp, iso_json, witness, iso = pipeline.complement_isometry_stage(DiagForm.parse(form))
    assert witness.strategy == comp["strategy"] == strategy
    assert (comp["c"] is None) == (strategy == "search")
    assert iso.S == iso_json["S_lower_bound"] == S
    assert iso_json["log10_S_slack"] == 0


def test_searched_S_at_most_constructed_on_corpus():
    # true on the seeded corpus, not a theorem: the search ranks by rad
    for cs in seeded_corpus():
        q = DiagForm(cs)
        _, iso_json, witness, iso = pipeline.complement_isometry_stage(q)
        assert witness.strategy == "search"
        assert iso.S % iso_json["S_lower_bound"] == 0
        constructed = full_isometry_to_standard(complementary_form(q).qc.direct_sum(q))
        assert iso.S <= constructed.S, cs


def _duality_bound(coeffs):
    """S#(g7) = prod_p p^ceil(max_i v_p(a_i) / 2), by trial division.

    P's columns span a lattice L with L^# = L under diag(a_i), and
    S L lies in Z^7.  Taking duals, S (Z^7)^# lies in L, so
    S^2 (Z^7)^# = S^2 (+)_i (1/a_i) Z lies in Z^7: every a_i divides
    S^2, and S#(g7) divides the S of every isometry of g7."""
    vals = {}
    for a in coeffs:
        a, p = abs(a), 2
        while a > 1:
            v = 0
            while a % p == 0:
                a //= p
                v += 1
            if v:
                vals[p] = max(vals.get(p, 0), v)
            p += 1
    return math.prod(p ** -(-v // 2) for p, v in vals.items())


def test_S_meets_its_duality_bound_on_corpus_and_presets():
    # a finer local step (a Jordan splitting in place of the column
    # scaling) cannot lower S: it is already S#(g7) for the g7 chosen
    forms = [DiagForm(cs) for cs in seeded_corpus()] + [PRESETS[n].q for n in ("m306", "bianchi7")]
    above_rad = 0
    for q in forms:
        _, iso_json, _, iso = pipeline.complement_isometry_stage(q)
        g7 = [int(c) for c in iso_json["source"]]
        assert iso.S == _duality_bound(g7), q
        above_rad += iso.S > iso_json["S_lower_bound"]
    assert above_rad == 12


def _reject_constant(name):
    raise ValueError("non-finite JSON constant %s" % name)


_Z = st.integers(1, 30)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.tuples(_Z, _Z, _Z, _Z).filter(lambda zs: math.gcd(*zs) == 1))
def test_random_forms_end_in_exact_reports(zs):
    report = run_pipeline(DiagForm((zs[0], zs[1], zs[2], -zs[3])), 1.0)
    doc = json.loads(report.json_str(), parse_constant=_reject_constant)
    jsonschema.validate(instance=doc, schema=REPORT_SCHEMA)
    iso = doc["isometry"]
    source = [Fraction(c) for c in iso["source"]]
    assert source == [Fraction(c) for c in doc["complement"]["qc"] + doc["complement"]["q"]]
    p = [[Fraction(x) for x in row] for row in iso["P"]]
    for i in range(7):
        for j in range(7):
            entry = sum(source[k] * p[k][i] * p[k][j] for k in range(7))
            assert entry == ((1 if i < 6 else -1) if i == j else 0)
    assert iso["S"] == math.lcm(*(x.denominator for row in p for x in row))
    assert iso["S"] % iso["S_lower_bound"] == 0
    if all(squarefree_int(int(c)) == int(c) for c in iso["source"]):
        assert iso["S"] == iso["S_lower_bound"]
