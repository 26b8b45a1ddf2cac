"""Independent output checks, run after the timed region.

Each check takes a case (from corpus.py) and the CLI's exit code and stdout,
and returns None when the output is right or a one-line reason when not.
The form a case is about is rebuilt from the corpus's own raw coefficients,
not from the program's parse.  Witnesses are checked exactly: an exact
representation must re-expand through `binforms verify`, a certified one
must enclose every binomial coefficient of the form under
`expand_certified`.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from fractions import Fraction
from math import comb
from typing import Dict, Optional

EXIT_OK, EXIT_INCONCLUSIVE = 0, 3

# Width below which every certified coefficient enclosure is refined before
# the containment test.
CERTIFY_TOLERANCE = Fraction(1, 10**6)


def binomial_coeffs(raw) -> list:
    d = len(raw) - 1
    return [Fraction(c) / comb(d, j) for j, c in enumerate(raw)]


def run_cli(argv, stdin_text: str = ""):
    """Call binforms.cli.main in this process; returns (rc, stdout)."""
    from binforms import cli

    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(list(argv))
    finally:
        sys.stdin = saved
    return rc, out.getvalue()


def _scalar(obj):
    from binforms.realroots import RealAlgebraic, UniPoly

    if isinstance(obj, str):
        return Fraction(obj)
    iv = obj["interval"]
    return RealAlgebraic(
        UniPoly([int(c) for c in obj["min_poly"]]), Fraction(iv["lo"]), Fraction(iv["hi"])
    )


def check_decomposition(dec: Dict, form_text: str, coeffs) -> Optional[str]:
    """An exact witness re-expands to the form through `verify`; a certified
    one encloses every coefficient of the form."""
    from binforms.forms import BinaryForm, PowerSumRep, ProjLinearForm, expand_certified

    rep = dec["representation"]
    signs = [t["sign"] for t in rep["terms"]]
    badge = dec["badge"]
    if (signs.count(1), signs.count(-1)) != (badge["pos"], badge["neg"]):
        return "badge does not count the representation's signs"
    if dec["certification"] == "exact":
        rc, out = run_cli(["verify", "-", form_text, "--output", "json"], json.dumps(rep))
        if rc != EXIT_OK or not json.loads(out).get("match"):
            return "exact witness does not re-expand to the form"
        return None
    if dec["certification"] != "certified-intervals":
        return f"unknown certification {dec['certification']!r}"
    terms = []
    for t in rep["terms"]:
        lam = _scalar(t["coeff"])
        form = ProjLinearForm(_scalar(t["form"]["alpha"]), _scalar(t["form"]["beta"]))
        terms.append((lam, form))
    p = BinaryForm(len(coeffs) - 1, tuple(coeffs))
    enclosure = expand_certified(PowerSumRep(rep["degree"], tuple(terms)), CERTIFY_TOLERANCE)
    if not enclosure.encloses(p):
        return "certified witness does not enclose the form"
    return None


def _length_problem(length: Dict, degree: int) -> Optional[str]:
    lo, up = length["lower_excluded"], length["upper"]
    if not 0 <= lo < up <= degree + 1:
        return f"length bounds {lo} < L <= {up} are out of range"
    if length["conclusive"] and lo != up - 1:
        return "conclusive length with a gap"
    return None


def _form_problem(out: Dict, coeffs) -> Optional[str]:
    got = [Fraction(c) for c in out["form"]["binomial_coeffs"]]
    return None if got == coeffs else "parsed form differs from the generated one"


def check_analyze(case: Dict, rc, out: Dict) -> Optional[str]:
    from binforms.engine import possible_signatures, signature_lower_bound
    from binforms.families import sextic_family_oracle
    from binforms.forms import Badge, BinaryForm

    meta = case["check"]
    coeffs = binomial_coeffs(meta["raw"])
    problem = _form_problem(out, coeffs)
    if problem:
        return problem
    rep = out["report"]
    if (rc == EXIT_OK) != bool(rep["set_complete"]):
        return f"exit {rc} disagrees with set_complete={rep['set_complete']}"
    d = meta["degree"]
    problem = _length_problem(rep["length"], d)
    if problem:
        return problem
    p = BinaryForm(d, tuple(coeffs))
    lower = signature_lower_bound(p)
    if (rep["lower_bound"]["pos"], rep["lower_bound"]["neg"]) != (lower.pos, lower.neg):
        return "reported lower bound differs from signature_lower_bound"
    allowed = possible_signatures(d // 2)
    for sig in rep["signatures"]:
        badge = Badge(sig["pos"], sig["neg"])
        if sig["status"] == "proven":
            if badge not in allowed:
                return f"proven signature {badge} outside possible_signatures"
            if not lower.precedes(badge):
                return f"proven signature {badge} below the lower bound {lower}"
    if "sextic_param" in meta:
        oracle = sextic_family_oracle(Fraction(meta["sextic_param"]))
        got = {Badge(s["pos"], s["neg"]) for s in rep["signatures"]}
        if rc != EXIT_OK or got != set(oracle):
            return f"sextic signatures {sorted(got, key=Badge.key)} differ from the oracle"
    if "witness" in rep:
        return check_decomposition(rep["witness"], case["argv"][1], coeffs)
    return None


def check_decompose(case: Dict, rc, out: Dict) -> Optional[str]:
    meta = case["check"]
    coeffs = binomial_coeffs(meta["raw"])
    problem = _form_problem(out, coeffs) or _length_problem(out["length"], meta["degree"])
    if problem:
        return problem
    length = out["length"]
    if (rc == EXIT_OK) != bool(length["conclusive"]):
        return f"exit {rc} disagrees with conclusive={length['conclusive']}"
    if len(out["decomposition"]["representation"]["terms"]) != length["upper"]:
        return "witness length differs from the reported upper bound"
    if meta.get("conclusive") and rc != EXIT_OK:
        return "planted pencil form not decided"
    if "max_length" in meta and length["upper"] > meta["max_length"]:
        return f"length {length['upper']} exceeds the planted {meta['max_length']}"
    return check_decomposition(out["decomposition"], case["argv"][1], coeffs)


def check_fixture(case: Dict, rc, out: Dict) -> Optional[str]:
    if rc != EXIT_OK or out["total"] < 1 or out["passed"] != out["total"]:
        return f"fixture {case['check']['fixture']}: {out['passed']}/{out['total']} passed"
    return None


def check_verify(case: Dict, rc, out: Dict) -> Optional[str]:
    return None if rc == EXIT_OK and out.get("match") else "verify reports a mismatch"


CHECKS = {
    "analyze": check_analyze,
    "decompose": check_decompose,
    "fixture": check_fixture,
    "verify": check_verify,
}


def check_case(case: Dict, rc, stdout: str) -> Optional[str]:
    """None if the case's output is right, else why not."""
    if rc not in (EXIT_OK, EXIT_INCONCLUSIVE):
        return f"exit code {rc}"
    try:
        out = json.loads(stdout)
        return CHECKS[case["kind"]](case, rc, out)
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
