"""JSON serialization: rationals travel as num/den strings, never floats;
algebraic numbers as isolating intervals plus their integer defining
polynomial.  Output dict ordering is fixed so serialized bytes are stable.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Dict, List

from .engine import (
    DecompResult,
    SignatureReport,
    SweepResult,
    SylvesterForm,
)
from .errors import FormSyntaxError
from .forms import Badge, BinaryForm, PowerSumRep, ProjLinearForm
from .quadforms import Inertia
from .realroots import Scalar, scalar_sign

# Largest degree rep_from_json accepts, checked before anything of that size
# is allocated; far above any degree the engine decides.
MAX_REP_DEGREE = 10_000


def fraction_str(q: Fraction) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise FormSyntaxError(f"bad rational {text!r}") from exc


def scalar_to_json(x: Scalar) -> Any:
    if isinstance(x, (int, Fraction)):
        return fraction_str(Fraction(x))
    return {
        "interval": {"lo": fraction_str(x.lo), "hi": fraction_str(x.hi)},
        "min_poly": [str(int(c)) for c in x.defining.coeffs],
    }


def form_to_json(p: BinaryForm) -> Dict[str, Any]:
    return {
        "degree": p.degree,
        "binomial_coeffs": [fraction_str(c) for c in p.coeffs],
    }


def badge_to_json(b: Badge) -> Dict[str, int]:
    return {"pos": b.pos, "neg": b.neg}


def inertia_to_json(i: Inertia) -> Dict[str, int]:
    return {"pos": i.pos, "neg": i.neg, "null": i.null}


def linear_form_to_json(f: ProjLinearForm) -> Dict[str, Any]:
    return {"alpha": scalar_to_json(f.alpha), "beta": scalar_to_json(f.beta)}


def rep_to_json(rep: PowerSumRep) -> Dict[str, Any]:
    return {
        "degree": rep.degree,
        "terms": [
            {
                "coeff": scalar_to_json(lam),
                "sign": scalar_sign(lam),
                "form": linear_form_to_json(form),
            }
            for lam, form in rep.terms
        ],
    }


def rep_from_json(obj: Dict[str, Any]) -> PowerSumRep:
    """Rational representation input: coeff and form entries as num/den text.

    A degree above MAX_REP_DEGREE raises ValueError.
    """
    degree = int(obj["degree"])
    if degree > MAX_REP_DEGREE:
        raise ValueError(f"degree {degree} exceeds the limit {MAX_REP_DEGREE}")
    terms = []
    for item in obj["terms"]:
        lam = parse_fraction(item["coeff"])
        form = item["form"]
        if isinstance(form, dict):
            alpha, beta = form["alpha"], form["beta"]
        else:
            alpha, beta = form
        terms.append(
            (lam, ProjLinearForm(parse_fraction(alpha), parse_fraction(beta)))
        )
    return PowerSumRep(degree, tuple(terms))


def witness_to_json(w: SylvesterForm) -> Dict[str, Any]:
    return {
        "degree": w.r,
        "coeffs": [fraction_str(c) for c in w.coeffs],
        "text": w.text(),
        "roots": {
            "finite": [scalar_to_json(g) for g in w.roots.finite],
            "infinity_multiplicity": w.roots.infinity_mult,
        },
    }


def decomp_to_json(dec: DecompResult) -> Dict[str, Any]:
    return {
        "badge": badge_to_json(dec.badge),
        "certification": dec.certification,
        "representation": rep_to_json(dec.rep),
        "witness": witness_to_json(dec.witness),
    }


def report_to_json(r: SignatureReport) -> Dict[str, Any]:
    out: Dict[str, Any] = {
        "degree": r.degree,
        "inertia": inertia_to_json(r.inertia),
        "cone": r.cone,
        "splits": r.splits,
        "length": {
            "lower_excluded": r.length_lower,
            "upper": r.length_upper,
            "conclusive": r.length_conclusive,
        },
        "signatures": [
            {"pos": b.pos, "neg": b.neg, "status": status}
            for b, status in r.signatures
        ],
        "set_complete": r.set_complete,
        "lower_bound": badge_to_json(r.lower_bound_badge),
        "provenance": list(r.provenance),
    }
    if r.witness is not None:
        out["witness"] = decomp_to_json(r.witness)
    return out


def sweep_to_json(res: SweepResult) -> Dict[str, Any]:
    rows: List[Dict[str, Any]] = []
    for row in res.rows:
        item: Dict[str, Any] = {"param": fraction_str(row.param)}
        if row.error is not None:
            item["error"] = row.error
        else:
            item["report"] = report_to_json(row.report)
            item["jump_vs_limit"] = row.jump_vs_limit
        rows.append(item)
    out: Dict[str, Any] = {"rows": rows}
    if res.limit_param is not None:
        limit: Dict[str, Any] = {"param": fraction_str(res.limit_param)}
        if res.limit_error is not None:
            limit["error"] = res.limit_error
        elif res.limit_report is not None:
            limit["report"] = report_to_json(res.limit_report)
        out["limit"] = limit
    return out
