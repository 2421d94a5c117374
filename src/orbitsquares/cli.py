"""Command-line front end: classify single polynomials, generate the
exceptional families, inspect orbits, and drive the batch verification
scans with deterministic JSON/CSV output.

Exit codes: 0 success, 1 usage or parse error, 2 a proved inequality
failed (which signals an arithmetic bug, not a property of the input).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .classify import chebyshev_conjugacy, classify_2_ordinary, generate_family
from .dynamics import sign_sequence
from .errors import OrbitSquaresError
from .field import FieldElement, FieldSpec, _parse_decimal
from .fpoly import Poly
from . import scan as scan_mod


def cmd_classify(args) -> int:
    F = FieldSpec.parse(args.field)
    f = Poly.parse(F, args.poly)
    report = classify_2_ordinary(f)
    print(json.dumps(report.to_json(), sort_keys=True))
    return 0


def cmd_orbit(args) -> int:
    F = FieldSpec.parse(args.field)
    f = Poly.parse(F, args.poly)
    a = FieldElement(F, F.parse_index(args.start))
    ss = sign_sequence(f, a)
    out = {"orbit": ss.orbit.to_json(), "signs": ss.to_json()}
    print(json.dumps(out, sort_keys=True))
    return 0


def cmd_gen_family(args) -> int:
    F = FieldSpec.parse(args.field)
    f = generate_family(FieldElement(F, F.parse_index(args.B)), args.degree)
    sign, w = chebyshev_conjugacy(f)
    out = {
        "poly": str(f),
        "classification": classify_2_ordinary(f).to_json(),
        "chebyshev_conjugacy": {"sign": sign, "a": w.a.idx, "b": w.b.idx},
    }
    print(json.dumps(out, sort_keys=True))
    return 0


def _emit(rows, columns, args, summary) -> None:
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        scan_mod.write_jsonl(rows, os.path.join(args.out, "rows.jsonl"))
        if columns:
            scan_mod.write_csv(rows, columns, os.path.join(args.out, "rows.csv"))
        with open(os.path.join(args.out, "summary.json"), "w") as fh:
            json.dump(summary, fh, sort_keys=True, indent=2)
    else:
        for line in scan_mod.json_lines(rows):
            print(line)
        print(json.dumps({"summary": summary}, sort_keys=True))


def _config(args) -> scan_mod.ScanConfig:
    return scan_mod.ScanConfig(
        field=args.field,
        degree=args.degree,
        sample=args.sample,
        seed=args.seed,
        workers=args.workers,
    )


def cmd_scan(args) -> int:
    cfg = _config(args)
    found = scan_mod.run_check_parts(cfg, args.checks.split(","))
    summary: dict = {"config": cfg.to_json()}
    if "classification" in found:
        summary["classification_counts"] = scan_mod.classification_counts(found["classification"])
    if "ratios" in found:
        summary["ratios"] = scan_mod.ratio_summary(cfg, found.pop("ratios"))
    failure_keys = {
        "weil": "weil_failures",
        "orbit-bounds": "orbit_bound_failures",
        "run-bounds": "run_bound_failures",
    }
    for check, key in failure_keys.items():
        if check in found:
            summary[key] = scan_mod.failures(found[check])
    _emit([it for items in found.values() for it in items], None, args, summary)
    return 2 if any(summary.get(key) for key in failure_keys.values()) else 0


def cmd_verify_weil(args) -> int:
    cfg = scan_mod.ScanConfig(field=args.field, degree=args.degree, workers=args.workers)
    rows = scan_mod.run_checks(cfg, ["weil"])["weil"]
    failures = sum(map(scan_mod.failed, rows))
    _emit(rows, ["q", "d", "f", "applies", "sum", "passed"], args, {"failures": failures})
    return 2 if failures else 0


def cmd_verify_bounds(args) -> int:
    rows = scan_mod.run_checks(_config(args), ["orbit-bounds"])["orbit-bounds"]
    bad = sum(not r["pass"] for r in rows)
    env_bad = sum(r["envelope_pass"] is False for r in rows)
    _emit(rows, scan_mod.BOUNDS_CSV_COLUMNS, args,
          {"failures": bad, "envelope_failures": env_bad})
    return 2 if (bad or env_bad) else 0


def _decimal_flag(text: str) -> int:
    """argparse type of the integer flags: ASCII decimal digits only."""
    try:
        return _parse_decimal(text)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="orbitsquares",
        description="Square patterns in polynomial orbits over finite fields",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, poly=False, degree=False, batch=False, sampled=False):
        p.add_argument("--field", required=True, help='e.g. "7", "3^2", "3^2/(1,0,1)"')
        if poly:
            p.add_argument("--poly", required=True, help="coefficients, constant first")
        if degree:
            p.add_argument("--degree", type=_decimal_flag, required=True)
        if batch:
            p.add_argument("--workers", type=_decimal_flag, default=1)
            p.add_argument("--out", default=None, help="output directory")
        if sampled:
            p.add_argument("--sample", type=_decimal_flag, default=None)
            p.add_argument("--seed", type=_decimal_flag, default=0)

    p = sub.add_parser("classify", help="classify one polynomial")
    common(p, poly=True)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("orbit", help="orbit and sign sequence of one starting point")
    common(p, poly=True)
    p.add_argument("--start", required=True, help="element index of the starting point")
    p.set_defaults(fn=cmd_orbit)

    p = sub.add_parser("gen-family", help="generate an exceptional family member")
    common(p, degree=True)
    p.add_argument(
        "--B", required=True, help="element index of B; the degree's parity picks (d) or (e)"
    )
    p.set_defaults(fn=cmd_gen_family)

    p = sub.add_parser("scan", help="batch scan with selected checks")
    common(p, degree=True, batch=True, sampled=True)
    p.add_argument(
        "--checks",
        default="classification",
        help="comma list of " + ",".join(scan_mod.CHECKS),
    )
    p.set_defaults(fn=cmd_scan)

    p = sub.add_parser("verify-weil", help="Weil bound over all monic f of a degree")
    common(p, degree=True, batch=True)
    p.set_defaults(fn=cmd_verify_weil)

    p = sub.add_parser("verify-bounds", help="orbit-size bound and envelope checks")
    common(p, degree=True, batch=True, sampled=True)
    p.set_defaults(fn=cmd_verify_bounds)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 1 if e.code else 0
    try:
        return args.fn(args)
    except (OrbitSquaresError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
