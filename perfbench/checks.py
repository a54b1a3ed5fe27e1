"""Output checks that do not rely on the code they check.

A report must parse as strict JSON (no NaN or Infinity), validate
against REPORT_SCHEMA, and carry an isometry that this file re-checks
with its own Fraction arithmetic: P^t diag(g7) P == diag(1,...,1,-1),
with g7 the complement followed by the input form, and S the lcm of the
denominators of P.  Each check returns a list of problems; empty means
the output passed.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import jsonschema

TARGET = [1] * 6 + [-1]


def _reject_constant(name):
    raise ValueError("non-finite JSON constant %s" % name)


def strict_loads(text: str):
    """json.loads that refuses NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def isometry_problems(report: dict, form: str | None = None) -> list[str]:
    """Re-check the report's isometry block exactly."""
    iso, comp = report["isometry"], report["complement"]
    problems = []
    q = [Fraction(c) for c in comp["q"]]
    if form is not None and q != [Fraction(c) for c in form.split(",")]:
        problems.append("complement.q %s is not the input form %s" % (comp["q"], form))
    source = [Fraction(c) for c in iso["source"]]
    if source != [Fraction(c) for c in comp["qc"]] + q:
        problems.append("isometry source is not qc + q")
    if [Fraction(c) for c in iso["target"]] != TARGET:
        problems.append("isometry target is not <1,1,1,1,1,1,-1>")
    p = [[Fraction(x) for x in row] for row in iso["P"]]
    n = len(TARGET)
    if len(p) != n or any(len(row) != n for row in p):
        return problems + ["P is not 7x7"]
    gram = {
        (i, j): sum(source[k] * p[k][i] * p[k][j] for k in range(n))
        for i in range(n)
        for j in range(i, n)
    }
    wrong = [ij for ij, v in gram.items() if v != (TARGET[ij[0]] if ij[0] == ij[1] else 0)]
    if wrong:
        problems.append("P^t diag(g7) P is wrong at %s" % wrong)
    lcm = 1
    for row in p:
        for x in row:
            lcm = math.lcm(lcm, x.denominator)
    if iso["S"] != lcm:
        problems.append("S = %s but the lcm of the denominators of P is %d" % (iso["S"], lcm))
    return problems


def report_problems(text: str, schema: dict, form: str | None = None) -> list[str]:
    """All checks on one pipeline report, given as its json_str() text."""
    try:
        report = strict_loads(text)
    except ValueError as exc:
        return ["report is not strict JSON: %s" % exc]
    try:
        jsonschema.validate(report, schema)
    except jsonschema.ValidationError as exc:
        return ["report fails REPORT_SCHEMA: %s" % exc.message]
    return isometry_problems(report, form)


def cli_problems(argv, code: int, text: str) -> list[str]:
    """A CLI call must exit 0 and print strict JSON; verify-paper must have no fail."""
    if code != 0:
        return ["%s exited with %d" % (" ".join(argv), code)]
    try:
        payload = strict_loads(text)
    except ValueError as exc:
        return ["%s output is not strict JSON: %s" % (" ".join(argv), exc)]
    if argv[0] == "verify-paper":
        failed = [c["name"] for c in payload["checks"] if c["status"] == "fail"]
        if failed:
            return ["verify-paper fails %s" % ", ".join(failed)]
    elif "K" not in payload or not isinstance(payload["K"].get("log10_K"), float):
        return ["%s output has no K.log10_K" % " ".join(argv)]
    return []


def self_test(text: str, schema: dict, form: str | None) -> list[str]:
    """The checks must reject a perturbed P and a report holding NaN.

    `text` is a report that passed; returns the checks that failed to
    notice a planted defect.
    """
    missed = []
    report = strict_loads(text)
    p = report["isometry"]["P"]
    p[0][0] = str(Fraction(p[0][0]) + 1)  # keeps S: only the Gram check can catch it
    if not report_problems(json.dumps(report), schema, form):
        missed.append("perturbed P passed")
    report = strict_loads(text)
    report["input"]["eps"] = float("nan")
    if not report_problems(json.dumps(report), schema, form):
        missed.append("report with NaN passed")
    return missed
