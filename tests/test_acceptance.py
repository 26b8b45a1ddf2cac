"""Acceptance suite: one test per criterion, exact tolerances throughout.

Every check is bit-exact rational arithmetic except the certified-interval
criterion, whose stated enclosure width bound is 10^-30.
"""

import random
from fractions import Fraction as F

from binforms import (
    Badge,
    BinaryForm,
    PowerSumRep,
    ProjLinearForm,
    SearchConfig,
    SymMatrix,
    badge_search,
    catalecticant,
    expand_certified,
    expand_exact,
    hankel,
    inertia,
    parse_form,
    sign_change_certificate,
    signature_report,
    solve_coefficients,
    sweep,
    validate_sylvester,
    width,
)
from binforms.engine import JUMP_DOWN, JUMP_UP, STATUS_PROVEN
from binforms.families import (
    circle_conic_quartic,
    circle_power,
    cube_difference_family,
    power_plus_circle_family,
    quartic_jump_family,
    sextic_family_oracle,
    sextic_xy_family,
)
from binforms.realroots import RealAlgebraic, UniPoly
from oracles import inertia_from_charpoly

CONFIG = SearchConfig(search_budget=2000)
SMALL = SearchConfig(search_budget=300)


def report_line(num, text):
    print(f"criterion {num:2d} PASS: {text}")


def _conv(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def rational_rep(degree, *terms):
    return PowerSumRep(
        degree, tuple((F(c), ProjLinearForm(F(a), F(b))) for c, (a, b) in terms)
    )


def random_honest_rep(rng, degree, nterms):
    pool = sorted({F(n, d) for n in range(-6, 7) for d in (1, 2, 3)})
    slopes = rng.sample(pool, nterms)
    terms = [
        (F(rng.choice([v for v in range(-9, 10) if v != 0])), ProjLinearForm(F(1), b))
        for b in slopes
    ]
    if rng.random() < 0.25:
        terms[-1] = (terms[-1][0], ProjLinearForm(F(0), F(1)))
    return PowerSumRep(degree, tuple(terms))


def test_criterion_1_quartic_difference_identity():
    rep = rational_rep(
        4, (1, (1, 2)), (-4, (1, 1)), (6, (1, 0)), (-4, (1, -1)), (1, (1, -2))
    )
    assert expand_exact(rep) == parse_form("24*y^4")
    report_line(1, "(x+2y)^4 - 4(x+y)^4 + 6x^4 - 4(x-y)^4 + (x-2y)^4 = 24y^4 exactly")


def test_criterion_2_sextic_identity():
    rep = rational_rep(
        6,
        (1296, (1, 1)),
        (-567, (1, 2)),
        (112, (1, 3)),
        (-1, (1, -6)),
        (-840, (1, 0)),
    )
    assert expand_exact(rep) == parse_form("3024*x^5*y + 108864*x*y^5")
    report_line(2, "five-power sextic combination equals 3024(x^5 y + 36 x y^5) exactly")


def test_criterion_3_catalecticant_inertia():
    i = inertia(catalecticant(parse_form("8*x^4 + 48*x^2*y^2 - 8*y^4")))
    assert (i.pos, i.neg, i.null) == (2, 1, 0)
    for lam in (F(2), F(-1, 2), F(-2)):
        i = inertia(catalecticant(sextic_xy_family(lam)))
        assert (i.pos, i.neg, i.null) == (2, 2, 0), f"lam={lam}"
    i = inertia(catalecticant(sextic_xy_family(1)))
    assert (i.pos, i.neg, i.null) == (1, 1, 2)
    report_line(3, "all catalecticant inertia fixtures exact")


def test_criterion_4_sextic_classification():
    grid = [F(v) for v in "-2 -1 -3/5 -1/2 -3/10 -1/10 0 1/10 1/2 1 3/2 2".split()]
    expected_tag = lambda lam: (
        "thm-3.1.2" if lam <= F(-3, 5) else ("lem-4.6" if lam <= 0 else "cor-2.10.3")
    )
    for lam in grid:
        rep = signature_report(sextic_xy_family(lam), CONFIG)
        assert rep.signature_set() == sextic_family_oracle(lam), f"lam={lam}"
        assert rep.set_complete and all(s == STATUS_PROVEN for _, s in rep.signatures)
        assert expected_tag(lam) in rep.provenance, f"lam={lam}: {rep.provenance}"
    report_line(4, f"signature_report matches the closed-form case split on {len(grid)} values")


def test_criterion_5_quartic_classification():
    table = (
        (F(-1), Badge(1, 1)),
        (F(0), Badge(2, 1)),
        (F(1, 100), Badge(2, 1)),
        (F(1, 10), Badge(3, 0)),
        (F(1), Badge(3, 0)),
    )
    for u, want in table:
        rep = signature_report(circle_conic_quartic(u), CONFIG)
        assert rep.signature_set() == {want}, f"u={u}"
        # the sign rule (-1 + 34u - u^2)/36, checked exactly
        disc = -1 + 34 * u - u * u
        if want == Badge(3, 0):
            assert disc > 0
        elif want == Badge(2, 1):
            assert disc < 0
    # 1/100 < 17 - 12*sqrt(2) < 1/10, certified via (17-u)^2 vs 288
    assert (17 - F(1, 100)) ** 2 > 288 > (17 - F(1, 10)) ** 2
    assert signature_report(parse_form("x^2*y^2"), CONFIG).signature_set() == {
        Badge(2, 2)
    }
    report_line(5, "quartic family table and x^2*y^2 classified exactly")


def test_criterion_6_second_sextic_family():
    for lam in (F(1, 10), F(1, 8)):
        p = cube_difference_family(lam)
        beta = F(1, 5) - lam
        u = (1 - 5 * beta) / (3 * beta)
        v = (1 - 5 * beta) / (1 + beta)
        coeffs = _conv(_conv([F(1)], [F(1), 2 + u, F(1)]), [F(1), 2 + v, F(1)])
        sylv = validate_sylvester(coeffs, 4)
        assert all(x == 0 for x in hankel(p, 4).apply(sylv.coeffs))
        found = badge_search(p, 4, CONFIG)
        assert found.decomps, f"no valid quartic found at lam={lam}"
        assert signature_report(p, CONFIG).signature_set() == {Badge(2, 2)}
    assert signature_report(cube_difference_family(0), CONFIG).signature_set() == {
        Badge(3, 3)
    }
    assert signature_report(cube_difference_family(F(1, 5)), CONFIG).signature_set() == {
        Badge(1, 1)
    }
    report_line(6, "second sextic family: witnesses found, all four reports exact")


def test_criterion_7_jump_sequences():
    grid = [F(1, 2), F(1, 4), F(1, 8)]
    res = sweep(quartic_jump_family, grid, F(0), CONFIG)
    assert all(
        row.report.signature_set() == {Badge(2, 1)} and row.jump_vs_limit == JUMP_UP
        for row in res.rows
    )
    assert res.limit_report.signature_set() == {Badge(2, 2)}

    res = sweep(sextic_xy_family, grid, F(0), CONFIG)
    assert all(
        row.report.signature_set() == {Badge(2, 2)} and row.jump_vs_limit == JUMP_UP
        for row in res.rows
    )
    assert res.limit_report.signature_set() == {Badge(2, 3), Badge(3, 2)}

    res = sweep(lambda t: power_plus_circle_family(2, t), grid, F(0), CONFIG)
    assert all(
        row.report.signature_set() == {Badge(3, 0)} and row.jump_vs_limit == JUMP_DOWN
        for row in res.rows
    )
    assert res.limit_report.signature_set() == {Badge(1, 0)}
    report_line(7, "three jump fixtures reproduced with stated directions")


def test_criterion_8_inertia_properties():
    rng = random.Random(2024)
    failures = 0
    for _ in range(200):
        n = rng.randint(1, 5)
        entries = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                entries[i][j] = entries[j][i] = F(
                    rng.randint(-6, 6), rng.randint(1, 3)
                )
        m = SymMatrix(tuple(tuple(r) for r in entries))
        base = inertia(m)
        oracle = inertia_from_charpoly(m)
        if (base.pos, base.neg, base.null) != (oracle.pos, oracle.neg, oracle.null):
            failures += 1
            continue
        while True:
            c = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
            if _det(c) != 0:
                break
        conj = [
            [
                sum(c[k][i] * m[k, l] * c[l][j] for k in range(n) for l in range(n))
                for j in range(n)
            ]
            for i in range(n)
        ]
        cm = SymMatrix(tuple(tuple(r) for r in conj))
        if inertia(cm).pair() != base.pair():
            failures += 1
    assert failures == 0
    report_line(8, "200 random matrices: congruence invariance and charpoly oracle agree")


def _det(rows):
    n = len(rows)
    m = [r[:] for r in rows]
    det = F(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            return F(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            for j in range(c, n):
                m[i][j] -= f * m[c][j]
    return det


def test_criterion_9_sign_change_certificates():
    rng = random.Random(9)
    checked = 0
    while checked < 200:
        d = rng.choice([4, 6])
        rep = random_honest_rep(rng, d, rng.randint(2, 5))
        if expand_exact(rep).is_zero:
            continue
        tau, sigma, ok = sign_change_certificate(rep)
        assert ok, f"tau={tau} sigma={sigma} rep={rep.terms}"
        checked += 1
    rep = rational_rep(
        4, (1, (1, 2)), (-4, (1, 1)), (6, (1, 0)), (-4, (1, -1)), (1, (1, -2))
    )
    assert sign_change_certificate(rep) == (4, 4, True)
    report_line(9, "tau <= sigma on 200 random honest representations; equality case hit")


def test_criterion_10_badge_dominates_inertia():
    rng = random.Random(10)
    checked = 0
    while checked < 100:
        d = rng.choice([4, 6])
        rep = random_honest_rep(rng, d, rng.randint(1, 5))
        p = expand_exact(rep)
        if p.is_zero:
            continue
        i = inertia(catalecticant(p))
        assert Badge(i.pos, i.neg).precedes(rep.badge())
        checked += 1
    report_line(10, "catalecticant inertia precedes the badge on 100 random representations")


def test_criterion_11_splitting_pipeline():
    rng = random.Random(11)
    for trial in range(20):
        s = rng.choice([2, 3])
        d = 2 * s
        slopes = rng.sample(range(-9, 10), d)
        raw = [F(1)]
        for k in slopes:
            raw = _conv(raw, [F(1), F(k)])
        p = BinaryForm.from_raw(d, raw)
        rep = signature_report(p, SMALL)
        assert rep.signature_set() == {Badge(s, s)} and rep.set_complete

        full = _split_representation(p, rng)
        assert full.badge() == Badge(s, s)
        pos = [t for t in full.terms if t[0] > 0]
        neg = [t for t in full.terms if t[0] < 0]
        u = rng.randint(0, s)
        v = rng.randint(0 if u else 1, s)
        partial = PowerSumRep(d, tuple(pos[:u] + neg[:v]))
        if partial.length == 0:
            continue
        q = expand_exact(partial)
        if q.is_zero:
            continue
        sub = signature_report(q, SMALL)
        assert sub.lower_bound_badge.precedes(Badge(u, v)), (
            f"lower bound {sub.lower_bound_badge} vs truncation ({u},{v})"
        )
    report_line(11, "20 split products: unique (s,s) and consistent truncations")


def _split_representation(p: BinaryForm, rng) -> PowerSumRep:
    """An (s,s) representation of a 2s-fold product of distinct real forms,
    through a full-degree Sylvester form solved from the single kernel row."""
    d = p.degree
    row = hankel(p, d).rows[0]
    while True:
        mus = rng.sample([F(n, q) for n in range(-9, 10) for q in (1, 2)], d - 1)
        mus = sorted(set(mus))
        if len(mus) < d - 1:
            continue
        base = [F(1)]
        for mu in mus:
            base = _conv(base, [F(1), -mu])
        # c(t) = conv(base, [1, -t]) is linear in t; solve the single kernel row
        c0 = _conv(base, [F(1), F(0)])
        c1 = [-x for x in _conv(base, [F(0), F(1)])]
        a0 = sum(row[j] * c0[j] for j in range(d + 1))
        a1 = sum(row[j] * c1[j] for j in range(d + 1))
        if a1 == 0:
            continue
        t = -a0 / a1
        if t in mus:
            continue
        coeffs = [c0[j] + t * c1[j] for j in range(d + 1)]
        try:
            sylv = validate_sylvester(coeffs, d)
        except Exception:
            continue
        dec = solve_coefficients(p, sylv)
        if dec.rep.length == d and dec.certification == "exact":
            return dec.rep


def test_criterion_12_width_identity():
    root3 = RealAlgebraic(UniPoly([-3, 0, 1]), F(3, 2), F(2))
    rep = PowerSumRep(
        4,
        (
            (F(1, 3), ProjLinearForm(F(1), F(0))),
            (F(1, 48), ProjLinearForm(F(1), root3)),
            (F(1, 48), ProjLinearForm(F(1), -root3)),
        ),
    )
    # (1/3) * sum_k (cos(k pi/3) x + sin(k pi/3) y)^4 written over normalized
    # forms; its exact value is (3/8)(x^2+y^2)^2, i.e. C(4,2)(x^2+y^2)^2 / 16.
    target = circle_power(2).scale(F(3, 8))
    cf = expand_certified(rep, F(1, 10**30), 256)
    assert cf.encloses(target)
    assert cf.max_width < F(1, 10**30)
    for s in (1, 2, 3):
        w = width(circle_power(s))
        assert w.rank == s + 1 and w.cone == "p"
    report_line(12, "certified rotation identity below 1e-30 and widths s+1 exact")
