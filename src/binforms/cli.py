"""Command-line front end: analyze, decompose, verify, sweep, fixtures.

Exit codes: 0 conclusive/pass, 1 error or mismatch, 2 invalid input
(odd degree, zero form, or past the parser's limits), 3 inconclusive within
the given budgets; `main` maps the input errors to them in one place.
Each subcommand takes only the flags it reads.  Flags are the only settings:
no environment variable changes what the CLI does, so the argument parser is
built once, on first use.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from typing import List, Optional

from . import engine, jsonio
from .engine import (
    JUMP_NONE,
    SearchConfig,
    SignatureReport,
    real_length,
    sign_change_certificate,
    signature_report,
)
from .errors import (
    FormSyntaxError,
    InputTooLargeError,
    NotHomogeneousError,
    OddDegreeError,
    ZeroFormError,
)
from .fixtures import run_fixtures
from .forms import expand_exact, parse_family, parse_form
from .jsonio import fraction_str, parse_fraction
from .realroots import RealAlgebraic, scalar_sign

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INVALID = 2
EXIT_INCONCLUSIVE = 3


def _common_flags(p: argparse.ArgumentParser) -> None:
    """Flags of every subcommand."""
    p.add_argument(
        "--output",
        "-o",
        choices=("text", "json"),
        default="text",
        help="output mode (default text)",
    )
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="parallel workers for sweep reports, at most one per report",
    )


def _nonnegative_int(text: str) -> int:
    """An integer >= 0; anything else is a usage error (exit 2)."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _search_flags(p: argparse.ArgumentParser) -> None:
    """Flags of the subcommands that search for decompositions."""
    p.add_argument(
        "--search-budget",
        type=_nonnegative_int,
        default=SearchConfig.search_budget,
        help="candidate budget per representation degree",
    )
    p.add_argument(
        "--seed", type=int, default=SearchConfig.seed, help="search RNG seed"
    )


def _config(args) -> SearchConfig:
    return SearchConfig(search_budget=args.search_budget, seed=args.seed)


def _emit_json(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _scalar_text(x) -> str:
    if isinstance(x, RealAlgebraic):
        return f"[{fraction_str(x.lo)}, {fraction_str(x.hi)}]"
    return fraction_str(x)


def _render_report_text(report: SignatureReport) -> List[str]:
    lines = []
    i = report.inertia
    lines.append(f"degree: {report.degree}")
    lines.append(f"inertia(H): pos={i.pos} neg={i.neg} null={i.null} (rank {i.rank})")
    lines.append(f"cone: {report.cone}")
    lines.append(f"splits: {'yes' if report.splits else 'no'}")
    length = f"length: > {report.length_lower}, achieved {report.length_upper}"
    length += " (conclusive)" if report.length_conclusive else " (bound only)"
    lines.append(length)
    sigs = ", ".join(f"{b!r} {status}" for b, status in report.signatures)
    lines.append(f"signatures: {sigs if sigs else '(none observed)'}")
    lines.append(f"signature set complete: {'yes' if report.set_complete else 'no'}")
    lines.append(f"lower bound: {report.lower_bound_badge!r}")
    lines.append(f"rules: {', '.join(report.provenance)}")
    return lines


def cmd_analyze(args) -> int:
    p = parse_form(args.form)
    report = signature_report(p, _config(args))
    if args.output == "json":
        _emit_json({"form": jsonio.form_to_json(p), "report": jsonio.report_to_json(report)})
    else:
        print(f"form: {p.text()}")
        for line in _render_report_text(report):
            print(line)
    return EXIT_OK if report.conclusive else EXIT_INCONCLUSIVE


def cmd_decompose(args) -> int:
    p = parse_form(args.form)
    if p.is_zero:
        raise ZeroFormError("zero form")
    length = real_length(p, _config(args))
    dec = length.witness
    if args.output == "json":
        _emit_json(
            {
                "form": jsonio.form_to_json(p),
                "length": {
                    "lower_excluded": length.lower,
                    "upper": length.upper,
                    "conclusive": length.conclusive,
                },
                "decomposition": jsonio.decomp_to_json(dec),
            }
        )
    else:
        print(f"form: {p.text()}")
        print(
            f"length: > {length.lower}, achieved {length.upper}"
            + (" (conclusive)" if length.conclusive else " (bound only)")
        )
        print(f"badge: {dec.badge!r}   certification: {dec.certification}")
        print(f"witness: {dec.witness.text()}")
        for lam, form in dec.rep.terms:
            sign = "+" if scalar_sign(lam) > 0 else "-"
            print(f"  {sign} coeff {_scalar_text(lam)}  form {form.text()}")
    return EXIT_OK if length.conclusive else EXIT_INCONCLUSIVE


def cmd_verify(args) -> int:
    try:
        if args.representation == "-":
            payload = json.load(sys.stdin)
        else:
            with open(args.representation, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        rep = jsonio.rep_from_json(payload)
        expected = parse_form(args.expected)
        got = expand_exact(rep)
    except (
        OSError, KeyError, TypeError, ValueError,
        FormSyntaxError, NotHomogeneousError, ZeroFormError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    cert = None
    if rep.length >= 2 and not got.is_zero:
        cert = sign_change_certificate(rep, got)
    if got == expected:
        if args.output == "json":
            out = {"match": True, "form": jsonio.form_to_json(got)}
            if cert:
                out["certificate"] = {"tau": cert[0], "sigma": cert[1], "ok": cert[2]}
            _emit_json(out)
        else:
            print(f"pass: expansion equals {expected.text()}")
            if cert:
                print(f"certificate: tau={cert[0]} sigma={cert[1]} ok={cert[2]}")
        return EXIT_OK
    first_bad = next(
        j for j in range(max(got.degree, expected.degree) + 1)
        if got.degree != expected.degree
        or got.coeffs[j] != expected.coeffs[j]
    )
    if args.output == "json":
        _emit_json(
            {
                "match": False,
                "first_difference": {
                    "index": first_bad,
                    "got": fraction_str(got.coeffs[first_bad]) if got.degree == expected.degree else None,
                    "expected": fraction_str(expected.coeffs[first_bad]) if first_bad <= expected.degree else None,
                },
                "expansion": jsonio.form_to_json(got),
            }
        )
    else:
        print("fail: expansion differs from the expected form")
        if got.degree == expected.degree:
            print(
                f"first differing binomial coefficient at index {first_bad}: "
                f"got {fraction_str(got.coeffs[first_bad])}, "
                f"expected {fraction_str(expected.coeffs[first_bad])}"
            )
        else:
            print(f"degrees differ: got {got.degree}, expected {expected.degree}")
    return EXIT_ERROR


def cmd_sweep(args) -> int:
    family = parse_family(args.family)
    grid = [parse_fraction(tok) for tok in args.grid.split(",") if tok.strip()]
    limit = parse_fraction(args.limit) if args.limit is not None else None
    if not grid:
        print("error: empty grid", file=sys.stderr)
        return EXIT_ERROR
    config = _config(args)
    workers = min(args.jobs, len(grid) + (limit is not None))
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        result = engine.sweep(family, grid, limit, config, pool)
    if args.output == "json":
        _emit_json(jsonio.sweep_to_json(result))
    else:
        for row in result.rows:
            if row.error is not None:
                print(f"t={fraction_str(row.param)}: error {row.error}")
                continue
            sigs = ", ".join(repr(b) for b, _ in row.report.signatures)
            jump = f" jump={row.jump_vs_limit}" if row.jump_vs_limit != JUMP_NONE else ""
            print(f"t={fraction_str(row.param)}: {{{sigs}}}{jump}")
        if limit is not None:
            if result.limit_error is not None:
                print(f"limit t={fraction_str(limit)}: error {result.limit_error}")
            elif result.limit_report is not None:
                sigs = ", ".join(repr(b) for b, _ in result.limit_report.signatures)
                print(f"limit t={fraction_str(limit)}: {{{sigs}}}")
    trouble = any(row.error is not None for row in result.rows) or (
        result.limit_error is not None
    )
    inconclusive = any(
        row.report is not None and not row.report.conclusive for row in result.rows
    )
    if trouble:
        return EXIT_ERROR
    return EXIT_INCONCLUSIVE if inconclusive else EXIT_OK


def cmd_fixtures(args) -> int:
    outcomes = run_fixtures(_config(args), args.filter)
    if args.output == "json":
        _emit_json(
            {
                "fixtures": [
                    {
                        "id": o.id,
                        "anchor": o.anchor,
                        "kind": o.kind,
                        "ok": o.ok,
                        "detail": o.detail,
                    }
                    for o in outcomes
                ],
                "passed": sum(o.ok for o in outcomes),
                "total": len(outcomes),
            }
        )
    else:
        for o in outcomes:
            mark = "PASS" if o.ok else "FAIL"
            print(f"{mark} {o.id} [{o.anchor}] {'' if o.ok else o.detail}".rstrip())
        print(f"{sum(o.ok for o in outcomes)}/{len(outcomes)} fixtures passed")
    if not outcomes:
        print("error: no fixtures matched the filter", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_OK if all(o.ok for o in outcomes) else EXIT_ERROR


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Declare every subcommand and flag; main builds this tree once."""
    parser = argparse.ArgumentParser(
        prog="binforms",
        description="Exact decomposition and signature analysis of binary forms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="length bounds and signature set")
    p_an.add_argument("form", help="form text, e.g. 'x^4 + y^4'")
    _common_flags(p_an)
    _search_flags(p_an)
    p_an.set_defaults(func=cmd_analyze)

    p_de = sub.add_parser("decompose", help="power-sum decomposition")
    p_de.add_argument("form")
    _common_flags(p_de)
    _search_flags(p_de)
    p_de.set_defaults(func=cmd_decompose)

    p_ve = sub.add_parser("verify", help="check a representation against a form")
    p_ve.add_argument("representation", help="JSON file path or - for stdin")
    p_ve.add_argument("expected", help="expected form text")
    _common_flags(p_ve)
    p_ve.set_defaults(func=cmd_verify)

    p_sw = sub.add_parser("sweep", help="parameter sweep with jump detection")
    p_sw.add_argument("--family", required=True, help="form text in x, y and t")
    p_sw.add_argument("--grid", required=True, help="comma-separated rationals")
    p_sw.add_argument("--limit", default=None, help="limit parameter value")
    _common_flags(p_sw)
    _search_flags(p_sw)
    p_sw.set_defaults(func=cmd_sweep)

    p_fx = sub.add_parser("fixtures", help="run the built-in identity corpus")
    p_fx.add_argument(
        "--filter", default="", help="substring filter on fixture ids and anchors"
    )
    _common_flags(p_fx)
    _search_flags(p_fx)
    p_fx.set_defaults(func=cmd_fixtures)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except (FormSyntaxError, NotHomogeneousError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (InputTooLargeError, OddDegreeError, ZeroFormError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except BrokenPipeError:
        # The reader left (`binforms ... | head`); devnull takes the rest.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
