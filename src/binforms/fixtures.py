"""Built-in fixture corpus: every identity, matrix, classification and jump
example that the engine is expected to reproduce, keyed by stable ids and
rule anchors.  `run_fixtures` drives them for the CLI and the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Tuple

from . import engine
from .engine import (
    SearchConfig,
    badge_search,
    decide_pencil,
    incomparable_constraints_ok,
    real_length,
    sign_change_certificate,
    signature_lower_bound,
    signature_report,
    solve_coefficients,
    validate_sylvester,
    vandermonde_rep,
)
from .errors import SylvesterRejectionError
from .families import (
    circle_conic_quartic,
    circle_power,
    cube_difference_family,
    power_plus_circle_family,
    quartic_jump_family,
    sextic_family_oracle,
    sextic_xy_family,
)
from .forms import (
    Badge,
    BinaryForm,
    PowerSumRep,
    ProjLinearForm,
    expand_certified,
    expand_exact,
    inner_product,
    mirror,
    mirror_badge,
    parse_form,
    substitute,
)
from .jsonio import fraction_str
from .quadforms import catalecticant, hankel, inertia, is_psd, kernel_basis, width
from .realroots import RealAlgebraic, UniPoly

F = Fraction


@dataclass(frozen=True)
class Fixture:
    id: str
    anchor: str
    kind: str  # exact | derived | direct
    run: Callable[[SearchConfig], Tuple[bool, str]]


def _check(cond: bool, detail: str) -> Tuple[bool, str]:
    return (True, detail) if cond else (False, detail)


def _tuple_text(values) -> str:
    """A tuple of rationals (or of such tuples) with num/den entries."""
    return "(" + ", ".join(
        _tuple_text(v) if isinstance(v, tuple) else fraction_str(v) for v in values
    ) + ")"


def _eq14_rep() -> PowerSumRep:
    return PowerSumRep(
        4,
        (
            (F(1), ProjLinearForm(1, 2)),
            (F(-4), ProjLinearForm(1, 1)),
            (F(6), ProjLinearForm(1, 0)),
            (F(-4), ProjLinearForm(1, -1)),
            (F(1), ProjLinearForm(1, -2)),
        ),
    )


def _sextic_identity_rep() -> PowerSumRep:
    return PowerSumRep(
        6,
        (
            (F(1296), ProjLinearForm(1, 1)),
            (F(-567), ProjLinearForm(1, 2)),
            (F(112), ProjLinearForm(1, 3)),
            (F(-1), ProjLinearForm(1, -6)),
            (F(-840), ProjLinearForm(1, 0)),
        ),
    )


def _fx_parse_monomial(cfg):
    p = parse_form("24*y^4")
    return _check(
        p.degree == 4 and p.raw_coeffs() == (0, 0, 0, 0, 24),
        f"coeffs {_tuple_text(p.coeffs)}",
    )


def _fx_parse_family(cfg):
    p = parse_form("6*x^5*y + 20*x^3*y^3 + 6*x*y^5")
    want = tuple(F(v) for v in (0, 1, 0, 1, 0, 1, 0))
    return _check(p.degree == 6 and p.coeffs == want, f"coeffs {_tuple_text(p.coeffs)}")


def _fx_quartic_identity(cfg):
    got = expand_exact(_eq14_rep())
    return _check(got == parse_form("24*y^4"), got.text())


def _fx_quartic_certificate(cfg):
    tau, sigma, ok = sign_change_certificate(_eq14_rep())
    return _check(ok and tau == 4 and sigma == 4, f"tau={tau} sigma={sigma}")


def _fx_sextic_identity(cfg):
    got = expand_exact(_sextic_identity_rep())
    want = parse_form("3024*x^5*y + 108864*x*y^5")
    return _check(got == want, got.text())


def _fx_sextic_identity_decomp(cfg):
    p = parse_form("3024*x^5*y + 108864*x*y^5")
    coeffs = [F(0), F(36), F(-60), F(25), F(0), F(-1)]
    sylv = validate_sylvester(coeffs, 5)
    dec = solve_coefficients(p, sylv)
    return _check(
        dec.rep == _sextic_identity_rep() and dec.certification == engine.CERT_EXACT,
        f"badge {dec.badge}",
    )


def _fx_sextic_split_rep(cfg):
    res = real_length(sextic_xy_family(1), cfg)
    rep = res.witness.rep
    want = PowerSumRep(
        6,
        ((F(1, 2), ProjLinearForm(1, 1)), (F(-1, 2), ProjLinearForm(1, -1))),
    )
    return _check(
        res.upper == 2 and res.conclusive and rep == want,
        f"upper={res.upper} badge={res.witness.badge}",
    )


def _fx_catalecticant_matrix(cfg):
    m = catalecticant(sextic_xy_family(2))
    want = (
        (F(0), F(1), F(0), F(2)),
        (F(1), F(0), F(2), F(0)),
        (F(0), F(2), F(0), F(1)),
        (F(2), F(0), F(1), F(0)),
    )
    return _check(m.entries == want, _tuple_text(m.entries))


def _fx_catalecticant_inertia(cfg):
    i = inertia(catalecticant(parse_form("8*x^4 + 48*x^2*y^2 - 8*y^4")))
    return _check((i.pos, i.neg, i.null) == (2, 1, 0), repr(i))


def _fx_family_inertia(cfg):
    for lam, want in ((2, (2, 2, 0)), (F(-1, 2), (2, 2, 0)), (-2, (2, 2, 0)), (1, (1, 1, 2))):
        i = inertia(catalecticant(sextic_xy_family(lam)))
        if (i.pos, i.neg, i.null) != want:
            return False, f"lam={lam}: {i}"
    return True, "all four parameter values"


def _fx_circle_width(cfg):
    for s in (1, 2, 3):
        w = width(circle_power(s))
        if w.rank != s + 1 or w.cone != "p":
            return False, f"s={s}: rank {w.rank} cone {w.cone}"
    return True, "widths 2,3,4"


def _fx_psd_indefinite(cfg):
    return _check(
        not is_psd(catalecticant(parse_form("x^6 - y^6"))), "indefinite detected"
    )


def _fx_hankel_kernel(cfg):
    m = hankel(sextic_xy_family(0), 5)
    rows_ok = m.rows == (
        (F(0), F(1), F(0), F(0), F(0), F(1)),
        (F(1), F(0), F(0), F(0), F(1), F(0)),
    )
    basis = kernel_basis(m)
    kernel_ok = len(basis) == 4 and all(
        v[0] + v[4] == 0 and v[1] + v[5] == 0 for v in basis
    )
    return _check(rows_ok and kernel_ok, f"dim {len(basis)}")


def _fx_kernel_trivial(cfg):
    dims = [len(kernel_basis(hankel(sextic_xy_family(2), r))) for r in (1, 2, 3)]
    cat = kernel_basis(catalecticant(sextic_xy_family(2)))
    return _check(dims == [0, 0, 0] and cat == [], f"dims {dims}")


def _fx_pencil_excluded(cfg):
    basis = kernel_basis(hankel(sextic_xy_family(0), 4))
    if len(basis) != 2:
        return False, f"kernel dim {len(basis)}"
    wits = decide_pencil(basis[0], basis[1], 4)
    return _check(not wits, f"{len(wits)} witnesses")


def _fx_sextic_length_four(cfg):
    for lam in (2, F(1, 2)):
        res = real_length(sextic_xy_family(lam), cfg)
        if not (res.conclusive and res.upper == 4 and res.witness.badge == Badge(2, 2)):
            return False, f"lam={lam}: upper {res.upper} badge {res.witness.badge}"
    return True, "length four with badge (2,2)"


def _fx_sextic_length_five(cfg):
    for lam in (0, F(-3, 10)):
        rep = signature_report(sextic_xy_family(lam), cfg)
        if not (
            rep.length_conclusive
            and rep.length_upper == 5
            and rep.signature_set() == {Badge(2, 3), Badge(3, 2)}
            and rep.set_complete
        ):
            return False, f"lam={lam}: {rep.signature_set()}"
    return True, "length five, both signatures proven"


def _fx_sextic_splits(cfg):
    for lam in (-1, F(-3, 5)):
        rep = signature_report(sextic_xy_family(lam), cfg)
        if rep.signature_set() != {Badge(3, 3)} or not rep.set_complete:
            return False, f"lam={lam}: {rep.signature_set()}"
    return True, "(3,3) by splitting"


def _fx_family_oracle(cfg):
    grid = [F(v) for v in ("-2", "-1", "-3/5", "-1/2", "-3/10", "-1/10", "0", "1/10", "1/2", "1", "3/2", "2")]
    for lam in grid:
        rep = signature_report(sextic_xy_family(lam), cfg)
        if rep.signature_set() != sextic_family_oracle(lam) or not rep.set_complete:
            return False, f"lam={lam}: {sorted(b.key() for b in rep.signature_set())}"
    return True, f"{len(grid)} parameter values"


def _fx_mirror(cfg):
    q = sextic_xy_family(F(-3, 10))
    if mirror(q) != -q:
        return False, "family is not odd-symmetric"
    res = real_length(q, cfg)
    swapped = mirror_badge(res.witness.rep)
    if not swapped.is_honest() or swapped.badge() != res.witness.badge.swapped():
        return False, "mirror badge did not swap"
    simple = PowerSumRep(
        6, ((F(1, 2), ProjLinearForm(1, 1)), (F(-1, 2), ProjLinearForm(1, -1)))
    )
    return _check(
        expand_exact(mirror_badge(simple)) == sextic_xy_family(1),
        "mirrored split representation re-expands",
    )


def _fx_structured_quintic(cfg):
    lam = F(-3, 10)
    u = (3 + 5 * lam) / (-2 * lam)
    v = (3 + 5 * lam) / (-lam)
    if (u, v) != (F(5, 2), F(5)):
        return False, f"u={u} v={v}"
    coeffs = _conv3(u, v, with_linear=True)
    sylv = validate_sylvester(coeffs, 5)
    rows = hankel(sextic_xy_family(lam), 5).apply(sylv.coeffs)
    return _check(all(x == 0 for x in rows), "kernel membership and validity")


def _fx_quintic_example(cfg):
    coeffs = _conv3(F(5, 3), F(5, 11), with_linear=True)
    sylv = validate_sylvester(coeffs, 5)
    try:
        validate_sylvester([F(1), F(0), F(1)], 2)
        return False, "x^2 + y^2 accepted"
    except SylvesterRejectionError as exc:
        if exc.reason != SylvesterRejectionError.COMPLEX_ROOTS:
            return False, f"wrong reason {exc.reason}"
    xy = validate_sylvester([F(0), F(1), F(0)], 2)
    return _check(
        sylv.r == 5 and xy.roots.infinity_mult == 1 and xy.roots.finite == (F(0),),
        "quintic valid, x^2+y^2 rejected, xy roots {0, infinity}",
    )


def _conv3(u, v, with_linear):
    quad_u = [F(1), 2 + F(u), F(1)]
    quad_v = [F(1), 2 + F(v), F(1)]
    out = [F(1)]
    if with_linear:
        out = engine._conv(out, [F(1), F(1)])
    out = engine._conv(out, quad_u)
    out = engine._conv(out, quad_v)
    return out


def _fx_quartic_classification(cfg):
    table = (
        (F(-1), Badge(1, 1)),
        (F(0), Badge(2, 1)),
        (F(1, 100), Badge(2, 1)),
        (F(1, 10), Badge(3, 0)),
        (F(1), Badge(3, 0)),
    )
    for u, want in table:
        rep = signature_report(circle_conic_quartic(u), cfg)
        if rep.signature_set() != {want}:
            return False, f"u={u}: {rep.signature_set()}"
    rep = signature_report(parse_form("x^2*y^2"), cfg)
    return _check(rep.signature_set() == {Badge(2, 2)}, "x^2*y^2 -> (2,2)")


def _fx_quartic_boundary(cfg):
    # 1/100 and 1/10 straddle 17 - 12*sqrt(2): compare (17-u)^2 against 288
    below = (17 - F(1, 100)) ** 2 > 288
    above = (17 - F(1, 10)) ** 2 < 288
    discr = lambda u: -1 + 34 * u - u * u
    return _check(
        below and above and discr(F(1, 100)) < 0 < discr(F(1, 10)),
        "exact straddling checks",
    )


def _fx_quartic_jump(cfg):
    res = engine.sweep(quartic_jump_family, [F(1, 2), F(1, 4), F(1, 8)], F(0), cfg)
    rows_ok = all(
        row.report is not None
        and row.report.signature_set() == {Badge(2, 1)}
        and row.jump_vs_limit == engine.JUMP_UP
        for row in res.rows
    )
    return _check(
        rows_ok and res.limit_report.signature_set() == {Badge(2, 2)},
        "grid (2,1), limit (2,2), upward",
    )


def _fx_sextic_jump(cfg):
    res = engine.sweep(sextic_xy_family, [F(1, 2), F(1, 4), F(1, 8)], F(0), cfg)
    rows_ok = all(
        row.report.signature_set() == {Badge(2, 2)}
        and row.jump_vs_limit == engine.JUMP_UP
        for row in res.rows
    )
    return _check(
        rows_ok
        and res.limit_report.signature_set() == {Badge(2, 3), Badge(3, 2)},
        "grid (2,2), limit pair, upward",
    )


def _fx_downward_jump(cfg):
    fam = lambda t: power_plus_circle_family(2, t)
    res = engine.sweep(fam, [F(1, 2), F(1, 4), F(1, 8)], F(0), cfg)
    rows_ok = all(
        row.report.signature_set() == {Badge(3, 0)}
        and row.jump_vs_limit == engine.JUMP_DOWN
        for row in res.rows
    )
    return _check(
        rows_ok and res.limit_report.signature_set() == {Badge(1, 0)},
        "grid (3,0), limit (1,0), downward",
    )


def _fx_second_family(cfg):
    for lam, want in ((F(0), Badge(3, 3)), (F(1, 10), Badge(2, 2)), (F(1, 5), Badge(1, 1))):
        rep = signature_report(cube_difference_family(lam), cfg)
        if rep.signature_set() != {want}:
            return False, f"lam={lam}: {rep.signature_set()}"
    return True, "(3,3), (2,2), (1,1)"


def _fx_second_family_witness(cfg):
    lam = F(1, 10)
    beta = F(1, 5) - lam
    u = (1 - 5 * beta) / (3 * beta)
    v = (1 - 5 * beta) / (1 + beta)
    if (u, v) != (F(5, 3), F(5, 11)):
        return False, f"u={u} v={v}"
    coeffs = _conv3(u, v, with_linear=False)
    sylv = validate_sylvester(coeffs, 4)
    rows = hankel(cube_difference_family(lam), 4).apply(sylv.coeffs)
    if any(x != 0 for x in rows):
        return False, "kernel membership failed"
    found = badge_search(cube_difference_family(lam), 4, cfg)
    return _check(Badge(2, 2) in found.badges, f"badges {sorted(b.key() for b in found.badges)}")


def _fx_badge_search_quintic(cfg):
    found = badge_search(sextic_xy_family(0), 5, cfg)
    return _check(
        Badge(2, 3) in found.badges and Badge(3, 2) in found.badges,
        f"badges {sorted(b.key() for b in found.badges)}",
    )


def _fx_incomparable(cfg):
    ok1 = incomparable_constraints_ok(Badge(3, 2), Badge(2, 3), 3)
    ok2 = not incomparable_constraints_ok(Badge(2, 1), Badge(1, 2), 2)
    try:
        incomparable_constraints_ok(Badge(1, 1), Badge(2, 2), 3)
        return False, "comparable pair accepted"
    except Exception:
        pass
    return _check(ok1 and ok2, "sextic pair passes, quartic pair fails")


def _fx_splitting_products(cfg):
    raw = [F(1)]
    for lin in ([F(1), F(0)], [F(1), F(-1)], [F(1), F(1)], [F(1), F(-2)], [F(1), F(2)], [F(0), F(1)]):
        raw = engine._conv(raw, lin)
    prod = BinaryForm.from_raw(6, raw)
    rep = signature_report(prod, cfg)
    return _check(rep.signature_set() == {Badge(3, 3)} and rep.set_complete, prod.text())


def _fx_vandermonde(cfg):
    p = parse_form("8*x^4 + 48*x^2*y^2 - 8*y^4")
    dec = vandermonde_rep(p)
    return _check(
        expand_exact(dec.rep) == p and dec.rep.is_honest(),
        f"{dec.rep.length} terms, badge {dec.badge}",
    )


def _fx_lower_bounds(cfg):
    checks = (
        (sextic_xy_family(-1), Badge(3, 3)),
        (parse_form("8*x^4 + 48*x^2*y^2 - 8*y^4"), Badge(2, 1)),
        (circle_power(2), Badge(3, 0)),
    )
    for p, want in checks:
        got = signature_lower_bound(p)
        if got != want:
            return False, f"{p.text()}: {got}"
    return True, "three lower bounds"


def _fx_substitution(cfg):
    p = parse_form("x^6 - y^6")
    q = substitute(p, ((1, 1), (1, -1)))
    ok_identity = q == sextic_xy_family(1).scale(2)
    ok_inertia = inertia(catalecticant(q)).pair() == inertia(catalecticant(p)).pair()
    return _check(ok_identity and ok_inertia, q.text())


def _fx_inner_product(cfg):
    p = parse_form("8*x^4 + 48*x^2*y^2 - 8*y^4")
    alpha, beta = F(2), F(-3)
    power = expand_exact(PowerSumRep(4, ((F(1), ProjLinearForm(1, beta / alpha)),))).scale(alpha**4)
    return _check(
        inner_product(p, power) == p.evaluate(alpha, beta),
        "reproducing pairing at (2,-3)",
    )


def _fx_certified_identity(cfg):
    root3 = RealAlgebraic(UniPoly([-3, 0, 1]), F(3, 2), F(2))
    rep = PowerSumRep(
        4,
        (
            (F(1, 3), ProjLinearForm(F(1), F(0))),
            (F(1, 48), ProjLinearForm(F(1), root3)),
            (F(1, 48), ProjLinearForm(F(1), -root3)),
        ),
    )
    target = circle_power(2).scale(F(3, 8))
    cf = expand_certified(rep, F(1, 10**30))
    return _check(
        cf.encloses(target) and cf.max_width < F(1, 10**30),
        f"max width {float(cf.max_width):.2e}",
    )


FIXTURES: List[Fixture] = [
    Fixture("parse-monomial", "grammar", "direct", _fx_parse_monomial),
    Fixture("parse-sextic-family", "thm-4.4", "exact", _fx_parse_family),
    Fixture("quartic-difference-identity", "eq-1.2", "exact", _fx_quartic_identity),
    Fixture("quartic-difference-certificate", "cor-2.5", "derived", _fx_quartic_certificate),
    Fixture("sextic-identity-exact", "eq-4.4", "exact", _fx_sextic_identity),
    Fixture("sextic-identity-decomp", "eq-4.4", "derived", _fx_sextic_identity_decomp),
    Fixture("sextic-split-representation", "thm-4.4", "exact", _fx_sextic_split_rep),
    Fixture("catalecticant-family-matrix", "thm-4.4", "exact", _fx_catalecticant_matrix),
    Fixture("catalecticant-example-inertia", "cor-2.10.1", "exact", _fx_catalecticant_inertia),
    Fixture("catalecticant-family-inertia", "thm-4.4", "exact", _fx_family_inertia),
    Fixture("circle-power-width", "thm-2.9.2", "exact", _fx_circle_width),
    Fixture("psd-test-indefinite", "thm-2.9.1", "direct", _fx_psd_indefinite),
    Fixture("hankel-kernel-sextic", "thm-2.3", "exact", _fx_hankel_kernel),
    Fixture("hankel-kernel-trivial", "thm-4.4", "exact", _fx_kernel_trivial),
    Fixture("biquadratic-pencil-excluded", "thm-4.4", "derived", _fx_pencil_excluded),
    Fixture("sextic-length-four", "thm-4.4", "exact", _fx_sextic_length_four),
    Fixture("sextic-length-five", "thm-4.4", "exact", _fx_sextic_length_five),
    Fixture("sextic-splits", "thm-4.4", "exact", _fx_sextic_splits),
    Fixture("sextic-oracle-grid", "thm-4.4", "exact", _fx_family_oracle),
    Fixture("mirror-swaps-badges", "lem-4.6", "exact", _fx_mirror),
    Fixture("structured-quintic-valid", "thm-4.4", "exact", _fx_structured_quintic),
    Fixture("quintic-example-validation", "thm-2.3", "exact", _fx_quintic_example),
    Fixture("quartic-classification", "thm-4.2", "exact", _fx_quartic_classification),
    Fixture("quartic-boundary-exact", "thm-4.2", "derived", _fx_quartic_boundary),
    Fixture("quartic-jump", "thm-2.7", "exact", _fx_quartic_jump),
    Fixture("sextic-jump", "thm-4.4", "exact", _fx_sextic_jump),
    Fixture("downward-jump", "thm-2.9.2", "exact", _fx_downward_jump),
    Fixture("second-sextic-family", "cor-2.10.3", "exact", _fx_second_family),
    Fixture("second-family-witness", "cor-2.10.3", "exact", _fx_second_family_witness),
    Fixture("badge-search-quintic", "lem-4.6", "derived", _fx_badge_search_quintic),
    Fixture("incomparable-constraints", "thm-3.2", "exact", _fx_incomparable),
    Fixture("splitting-product", "thm-3.1.2", "derived", _fx_splitting_products),
    Fixture("vandermonde-fallback", "thm-2.1", "derived", _fx_vandermonde),
    Fixture("lower-bound-examples", "cor-2.10.1", "exact", _fx_lower_bounds),
    Fixture("substitution-invariance", "lem-2.8", "exact", _fx_substitution),
    Fixture("inner-product-reproducing", "cor-2.5", "derived", _fx_inner_product),
    Fixture("certified-circle-identity", "thm-2.9.2", "derived", _fx_certified_identity),
]


@dataclass(frozen=True)
class FixtureOutcome:
    id: str
    anchor: str
    kind: str
    ok: bool
    detail: str


def run_fixtures(
    config: SearchConfig = SearchConfig(), name_filter: str = ""
) -> List[FixtureOutcome]:
    out = []
    for fx in FIXTURES:
        if name_filter and name_filter not in fx.id and name_filter not in fx.anchor:
            continue
        try:
            ok, detail = fx.run(config)
        except Exception as exc:  # a crashing fixture is a failing fixture
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        out.append(FixtureOutcome(fx.id, fx.anchor, fx.kind, ok, detail))
    return out
