"""Command-line interface.

Forms are passed as comma-separated coefficients: `z1,z2,z3,z4` with
positive integers denotes <z1,z2,z3,-z4>; an explicit sign pattern
like `1,2,5,-10` is taken literally.  Exit codes: 0 success, 2 input
error, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

import mpmath

from . import geometry
from .forms import DiagForm, invariant_profile, is_isotropic_Q
from .pipeline import (
    PRESETS,
    PipelineConfig,
    complement_isometry_stage,
    k_block,
    run_pipeline,
    run_preset,
    to_json,
    verify_paper_corpus,
)


def _parse_form(text: str) -> DiagForm:
    q = DiagForm.parse(text)
    if q.rank == 4 and all(c > 0 for c in q.coeffs):
        q = DiagForm(q.coeffs[:3] + (-q.coeffs[3],))
    return q


def _emit(args, payload: dict, human_lines) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False))
    else:
        for line in human_lines:
            print(line)


def _load_config(args, default: PipelineConfig) -> PipelineConfig:
    """The --config file, or else `default`, with --precision applied."""
    cfg = PipelineConfig.from_file(args.config) if args.config else default
    if args.precision is not None:
        cfg = replace(cfg, precision=args.precision)
    return cfg


def _cmd_invariants(args) -> int:
    q = _parse_form(args.form)
    prof = invariant_profile(q)
    iso = is_isotropic_Q(q)
    payload = dict(to_json(prof), is_isotropic=iso)
    payload["cocompact_when_3_1"] = q.signature == (3, 1) and not iso
    lines = [
        "form        %s" % q,
        "signature   %s" % (prof.signature,),
        "disc class  %d" % prof.disc_class,
        "hasse-witt  %s" % "  ".join("%s:%+d" % pv for pv in payload["hasse_witt"].items()),
        "isotropic/Q %s" % iso,
    ]
    _emit(args, payload, lines)
    return 0


def _cmd_complement(args) -> int:
    q = _parse_form(args.form)
    payload, _, w, _ = complement_isometry_stage(q)
    how = "search" if w.strategy == "search" else "construction: d = %d, c = %d, x = %d" % (w.d, w.c, w.x)
    lines = [
        "form        %s" % q,
        "strategy    %s" % how,
        "qc (raw)    %s" % w.qc_raw,
        "qc          %s" % w.qc,
        "verified    True",
    ]
    _emit(args, payload, lines)
    return 0


def _cmd_isometry(args) -> int:
    q = _parse_form(args.form)
    _, payload, w, wit = complement_isometry_stage(q)
    lines = [
        "form            %s" % q,
        "complement      %s (%s)" % (w.qc, w.strategy),
        "7-dim form      %s" % wit.source,
        "denominator S   %d" % wit.S,
        "lower bound     %d (rad det)" % payload["S_lower_bound"],
        "log10 D (S^42)  %.6f" % wit.log10_D_S42,
        "log10 D (S^84)  %.6f" % wit.log10_D_level42,
        "P rows:",
    ]
    lines += ["  [%s]" % ", ".join(str(x) for x in row) for row in wit.P]
    _emit(args, payload, lines)
    return 0


def _cmd_bounds(args) -> int:
    cfg = _load_config(args, PipelineConfig())
    q = _parse_form(args.form)
    rep = run_pipeline(q, args.eps, args.vol, cfg)
    payload = to_json(rep)
    b = rep.bounds
    lines = [
        "form          %s" % q,
        "eps           %g   V %s" % (args.eps, args.vol),
        "C'_eps        %.4f" % b["c_prime_eps"],
        "C_eps         %s" % b["c_eps"]["human"],
        "C_2           %s" % b["c2"]["human"],
        "S (computed)  %d" % rep.isometry["S"],
        "total         %s" % b["total"]["human"],
    ]
    if b["sharp"]:
        lines.append("sharp coeff   %g (mode %s)" % (b["sharp"]["coefficient"], b["sharp"]["mode"]))
    if b["total_sharp"]:
        lines.append("total sharp   %s" % b["total_sharp"]["human"])
    for w in rep.warnings:
        lines.append("warning       [%s] %s" % (w["code"], w["message"]))
    _emit(args, payload, lines)
    return 0


def _cmd_geometry(args) -> int:
    cfg = _load_config(args, PipelineConfig())
    payload = geometry.p6_constants(cfg.precision).to_json()
    payload["vertices"] = [
        [mpmath.nstr(c, cfg.precision - 10) for c in v]
        for v in geometry.CoxeterSimplex.p6(cfg.precision).vertices
    ]
    lines = ["%-14s %s" % (k, v) for k, v in payload.items() if k != "vertices"]
    lines.append("vertices:")
    lines += ["  x%d = (%s)" % (i + 1, ", ".join(v)) for i, v in enumerate(payload["vertices"])]
    _emit(args, payload, lines)
    return 0


def _cmd_k_constant(args) -> int:
    if args.preset:
        cfg = _load_config(args, PRESETS[args.preset].config)
        rep = run_preset(args.preset, V=args.vol, config=cfg)
        if rep.K is None:
            raise ValueError("preset %r has no fixed volume; pass --vol" % args.preset)
        payload = {"K": rep.K, "preset": rep.preset, "warnings": rep.warnings}
        lines = [
            "preset         %s" % args.preset,
            "log10 K        %s" % rep.K["log10_K_str"],
            "display variant (no vol^eps) %.6f" % rep.K["log10_K_display_variant"],
            "C*D source     %s" % rep.K["C_D_source"],
        ]
        if rep.preset["published_K_log10"] is not None:
            lines.append(
                "published      ~7*10^150 (log10 = %.3f); see warnings" % rep.preset["published_K_log10"]
            )
        for w in rep.warnings:
            lines.append("warning        [%s] %s" % (w["code"], w["message"]))
    else:
        if args.vol is None:
            raise ValueError("k-constant requires --vol (or --preset m306)")
        cfg = _load_config(args, PipelineConfig())
        payload = k_block(
            geometry.effective_K(
                args.vol, args.eps, args.log10_C, args.log10_D,
                mode=cfg.rmax_mode, digits=cfg.precision,
            )
        )
        lines = [
            "log10 K   %s" % payload["log10_K_str"],
            "h_max     %s" % payload["h_max"],
            "cosh rmax %s" % payload["cosh_r_max"],
        ]
    _emit(args, payload, lines)
    return 0


def _cmd_verify_paper(args) -> int:
    checks = verify_paper_corpus()
    payload = {"checks": checks}
    width = max(len(c["name"]) for c in checks)
    lines = [
        "%-*s  %-4s  %s" % (width, c["name"], c["status"], c["details"]) for c in checks
    ]
    counts = {}
    for c in checks:
        counts[c["status"]] = counts.get(c["status"], 0) + 1
    lines.append("")
    lines.append("  ".join("%s: %d" % kv for kv in sorted(counts.items())))
    _emit(args, payload, lines)
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    common.add_argument(
        "--precision",
        type=int,
        default=None,
        help="decimal digits of the geometry and K stages (15 to 1000)",
    )
    common.add_argument("--config", type=str, default=None, help="key = value config file")

    parser = argparse.ArgumentParser(
        prog="qfbounds",
        description="Exact isometries and effective index bounds for signature (3,1) forms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", parents=[common], help="signature, discriminant, Hasse-Witt data")
    p.add_argument("form", help="z1,z2,z3,z4 (positive; denotes <z1,z2,z3,-z4>)")
    p.set_defaults(fn=_cmd_invariants)

    p = sub.add_parser("complement", parents=[common], help="definite ternary complement")
    p.add_argument("form")
    p.set_defaults(fn=_cmd_complement)

    p = sub.add_parser("isometry", parents=[common], help="exact isometry to q_{6,1} with denominator")
    p.add_argument("form")
    p.set_defaults(fn=_cmd_isometry)

    p = sub.add_parser("bounds", parents=[common], help="index bound assembly")
    p.add_argument("form")
    p.add_argument("--eps", type=float, default=1.0)
    p.add_argument("--vol", type=float, default=None)
    p.set_defaults(fn=_cmd_bounds)

    p = sub.add_parser("geometry", parents=[common], help="P6 constants and simplex data")
    p.set_defaults(fn=_cmd_geometry)

    p = sub.add_parser("k-constant", parents=[common], help="growth constant K")
    p.add_argument("--vol", type=float, default=None)
    p.add_argument("--eps", type=float, default=1.0)
    p.add_argument("--preset", choices=sorted(PRESETS), default=None)
    p.add_argument("--log10-C", type=float, default=0.0, dest="log10_C")
    p.add_argument("--log10-D", type=float, default=0.0, dest="log10_D")
    p.set_defaults(fn=_cmd_k_constant)

    p = sub.add_parser("verify-paper", parents=[common], help="re-run the published-fixture corpus")
    p.set_defaults(fn=_cmd_verify_paper)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (AssertionError, RuntimeError) as exc:
        print("internal error: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
