import itertools
import math
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest
import sympy

import binforms.engine as engine
import binforms.realroots as realroots

from binforms import (
    Badge,
    BinaryForm,
    DegenerateRepresentationError,
    NotIncomparableError,
    PowerSumRep,
    ProjLinearForm,
    SearchConfig,
    SylvesterRejectionError,
    UniPoly,
    badge_search,
    catalecticant,
    decide_pencil,
    expand_certified,
    expand_exact,
    hankel,
    incomparable_constraints_ok,
    inertia,
    kernel_basis,
    mirror_badge,
    parse_form,
    possible_signatures,
    quartic_classify,
    real_length,
    real_linear_factor_count,
    sign_change_certificate,
    signature_lower_bound,
    signature_report,
    solve_coefficients,
    sweep,
    validate_sylvester,
    vandermonde_rep,
)
from binforms.engine import (
    JUMP_DOWN,
    JUMP_UP,
    STATUS_PROVEN,
    fallback_sylvester,
    splits_over_reals,
    is_power_of_linear,
)
from binforms.errors import InternalCheckError, SylvesterRejectionError
from binforms.realroots import RealAlgebraic
from binforms.families import (
    circle_conic_quartic,
    circle_power,
    cube_difference_family,
    power_plus_circle_family,
    quartic_jump_family,
    sextic_family_oracle,
    sextic_xy_family,
)

FAST = SearchConfig(search_budget=2000)


def rational_rep(degree, *terms):
    return PowerSumRep(
        degree, tuple((F(c), ProjLinearForm(F(a), F(b))) for c, (a, b) in terms)
    )


def random_honest_rep(rng, degree, nterms):
    """Random honest rational representation with distinct slopes."""
    pool = sorted({F(n, d) for n in range(-6, 7) for d in (1, 2, 3)})
    slopes = rng.sample(pool, nterms + 1)
    terms = []
    use_infinity = rng.random() < 0.3
    count = nterms - (1 if use_infinity else 0)
    for b in slopes[:count]:
        lam = F(rng.choice([v for v in range(-9, 10) if v != 0]))
        terms.append((lam, ProjLinearForm(F(1), b)))
    if use_infinity:
        lam = F(rng.choice([v for v in range(-9, 10) if v != 0]))
        terms.append((lam, ProjLinearForm(F(0), F(1))))
    return PowerSumRep(degree, tuple(terms))


class TestValidate:
    def test_xy(self):
        s = validate_sylvester([0, 1, 0], 2)
        assert s.roots.finite == (0,) and s.roots.infinity_mult == 1

    def test_complex_rejected(self):
        with pytest.raises(SylvesterRejectionError) as err:
            validate_sylvester([1, 0, 1], 2)
        assert err.value.reason == SylvesterRejectionError.COMPLEX_ROOTS

    def test_square_rejected(self):
        with pytest.raises(SylvesterRejectionError) as err:
            validate_sylvester([1, 2, 1], 2)  # (x + y)^2
        assert err.value.reason == SylvesterRejectionError.NOT_SQUAREFREE

    def test_repeated_infinity_rejected(self):
        with pytest.raises(SylvesterRejectionError) as err:
            validate_sylvester([0, 0, 1], 2)  # y^2
        assert err.value.reason == SylvesterRejectionError.REPEATED_INFINITY

    def test_not_squarefree_reported_before_complex_roots(self):
        with pytest.raises(SylvesterRejectionError) as err:
            validate_sylvester([1, 0, 2, 0, 1], 4)  # (x^2 + y^2)^2
        assert err.value.reason == SylvesterRejectionError.NOT_SQUAREFREE

    def test_quintic_product(self):
        u, v = F(5, 3), F(5, 11)
        coeffs = [F(1)]
        for factor in ([F(1), F(1)], [F(1), 2 + u, F(1)], [F(1), 2 + v, F(1)]):
            coeffs = _conv(coeffs, factor)
        s = validate_sylvester(coeffs, 5)
        assert len(s.roots.finite) == 5 and s.roots.infinity_mult == 0


def _conv(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


class TestCandidates:
    def test_xy_candidate(self):
        assert kernel_basis(hankel(parse_form("x^4 + y^4"), 2)) == [(0, 1, 0)]

    def test_family_r3_empty(self):
        q2 = parse_form("6*x^5*y + 40*x^3*y^3 + 6*x*y^5")
        assert kernel_basis(hankel(q2, 3)) == []

    def test_sextic_kernel_dim4(self):
        q0 = parse_form("6*x^5*y + 6*x*y^5")
        basis = kernel_basis(hankel(q0, 5))
        assert len(basis) == 4
        assert all(v[0] + v[4] == 0 and v[1] + v[5] == 0 for v in basis)


class TestSolve:
    def test_split_family(self):
        q1 = sextic_xy_family(1)
        dec = solve_coefficients(q1, validate_sylvester([1, 0, -1], 2))
        assert dec.rep == rational_rep(6, (F(1, 2), (1, 1)), (F(-1, 2), (1, -1)))
        assert dec.badge == Badge(1, 1)

    def test_large_sextic_identity(self):
        p = parse_form("3024*x^5*y + 108864*x*y^5")
        coeffs = [F(0), F(36), F(-60), F(25), F(0), F(-1)]
        dec = solve_coefficients(p, validate_sylvester(coeffs, 5))
        want = rational_rep(
            6,
            (1296, (1, 1)),
            (-567, (1, 2)),
            (112, (1, 3)),
            (-1, (1, -6)),
            (-840, (1, 0)),
        )
        assert dec.rep == want and dec.certification == "exact"

    def test_diagonal_quartic(self):
        dec = solve_coefficients(
            parse_form("x^4 + y^4"), validate_sylvester([0, 1, 0], 2)
        )
        assert dec.rep == rational_rep(4, (1, (1, 0)), (1, (0, 1)))
        assert dec.badge == Badge(2, 0)

    def test_zero_coefficients_dropped(self):
        # x^4 admits the degree-2 witness x*y but only one nonzero term
        p = parse_form("x^4")
        dec = solve_coefficients(p, validate_sylvester([0, 1, 0], 2))
        assert dec.rep.length == 1 and dec.badge == Badge(1, 0)

    def test_wrong_candidate_rejected(self):
        from binforms.errors import ZeroFormError

        p = parse_form("x^4 + y^4")
        with pytest.raises(ZeroFormError):
            solve_coefficients(p, validate_sylvester([1, 0, -1], 2))

    def test_algebraic_solution_certified(self):
        q2 = sextic_xy_family(2)
        h = _conv([F(1), F(0), F(-4)], [F(1), F(0), F(-7, 2)])
        dec = solve_coefficients(q2, validate_sylvester(h, 4))
        assert dec.badge == Badge(2, 2)
        assert dec.certification == "certified-intervals"
        cf = expand_certified(dec.rep, F(1, 10**20), 300)
        assert cf.encloses(q2)

    def test_overlap_decision_matches_sturm_count(self):
        # enclosures holding at least one root and none at their ends, as
        # _isolate_value hands them over
        rng = random.Random(71)
        for _ in range(40):
            f = UniPoly([rng.randint(1, 3)])
            for k in rng.sample(range(1, 30), rng.randint(1, 3)):
                f = f * UniPoly([-k, 0, 1])
            f = f.squarefree_part()
            isolating = RealAlgebraic.isolate(f)
            for _ in range(30):
                lo, hi = sorted(F(rng.randint(-60, 60), rng.randint(1, 8)) for _ in "ab")
                count = f.count_real_roots(lo, hi)
                if count == 0 or f.sign_at_rational(lo) == 0 or f.sign_at_rational(hi) == 0:
                    continue
                assert engine._holds_one_root(f, isolating, lo, hi) == (count == 1)

    def test_charpoly_of_mod_is_resultant(self):
        # for monic m, chi(z) = Res_t(m, z - g) = prod over m(theta) = 0 of (z - g(theta)),
        # the Sylvester determinant (sympy.resultant can differ in sign when deg g > deg m)
        from sympy.polys.subresultants_qq_zz import sylvester

        t, z = sympy.symbols("t z")
        to_t = lambda f: sum(sympy.Rational(c) * t**i for i, c in enumerate(f.coeffs))
        rng = random.Random(23)
        rand = lambda n: [F(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(n)]
        cases = []
        for n in range(1, 5):
            m = UniPoly(rand(n) + [1])
            cases += [(UniPoly(rand(n + 3)), m), (UniPoly(rand(1)), m), (UniPoly(), m)]
            cases.append((UniPoly(rand(n) + [F(rng.randint(1, 9))]), m))  # deg g = deg m
        for g, m in cases:
            want = sympy.Poly(sylvester(to_t(m), z - to_t(g), t).det(), z)
            got = engine._charpoly_of_mod(g, m)
            assert [sympy.Rational(c) for c in reversed(got.coeffs)] == want.all_coeffs()


class TestRealLength:
    def test_monomial(self):
        res = real_length(parse_form("24*y^4"), FAST)
        assert (res.lower, res.upper, res.conclusive) == (0, 1, True)

    def test_diagonal(self):
        res = real_length(parse_form("x^4 + y^4"), FAST)
        assert (res.lower, res.upper, res.conclusive) == (1, 2, True)
        assert res.witness.witness.text() == "x*y"

    def test_family_lengths(self):
        assert real_length(sextic_xy_family(1), FAST).upper == 2
        res2 = real_length(sextic_xy_family(2), FAST)
        assert (res2.upper, res2.conclusive) == (4, True)
        res0 = real_length(sextic_xy_family(0), FAST)
        assert (res0.upper, res0.conclusive) == (5, True)
        assert res0.witness.badge in (Badge(2, 3), Badge(3, 2))

    def test_circle_power(self):
        res = real_length(circle_power(2), FAST)
        assert (res.upper, res.conclusive) == (3, True)
        assert res.witness.badge == Badge(3, 0)


class TestPencil:
    def test_family_r4_excluded_at_zero(self):
        basis = kernel_basis(hankel(sextic_xy_family(0), 4))
        assert len(basis) == 2
        assert decide_pencil(basis[0], basis[1], 4) == []

    def test_family_r4_found_positive(self):
        basis = kernel_basis(hankel(sextic_xy_family(2), 4))
        wits = decide_pencil(basis[0], basis[1], 4)
        assert wits, "valid quartic exists for positive parameter"
        for w in wits:
            rows = hankel(sextic_xy_family(2), 4).apply(w.coeffs)
            assert all(v == 0 for v in rows)

    def test_negative_parameter_range_excluded(self):
        for lam in (F(-1, 2), F(-3, 10), F(-1, 10)):
            basis = kernel_basis(hankel(sextic_xy_family(lam), 4))
            assert decide_pencil(basis[0], basis[1], 4) == []


def _planted_pencil(d, seed):
    """Kernel basis at r = d//2 + 1 of a sum of r (d even) or r - 1 (d odd)
    powers of integer linear forms: a two-dimensional kernel."""
    rng = random.Random(seed)
    r = d // 2 + 1
    k = r if d % 2 == 0 else r - 1
    raw = [F(0)] * (d + 1)
    for beta in rng.sample(range(-9, 10), k):
        lam = rng.choice((-1, 1)) * rng.randint(1, 9)
        for j in range(d + 1):
            raw[j] += lam * math.comb(d, j) * beta**j
    basis = kernel_basis(hankel(BinaryForm.from_raw(d, raw), r))
    assert len(basis) == 2
    return basis, r


def _projection(b1, b2, r):
    """The leading t-coefficient and Res_t(h, h') of h = b1 + u b2 in t = x/y."""
    tcoeffs = [UniPoly([F(b1[r - i]), F(b2[r - i])]) for i in range(r + 1)]
    while tcoeffs[-1].is_zero:
        tcoeffs.pop()
    deriv = [tcoeffs[i + 1] * (i + 1) for i in range(len(tcoeffs) - 1)]
    return tcoeffs[-1], engine._resultant_t(tcoeffs, deriv)


def _witness_key(w):
    return w.coeffs, w.roots.infinity_mult, [
        (g.lo, g.hi) if isinstance(g, RealAlgebraic) else g for g in w.roots.finite
    ]


PLANTED = [(d, seed) for d in range(6, 17) for seed in (0, 1)]


class TestPencilProjection:
    @pytest.mark.parametrize("d, seed", PLANTED)
    def test_lead_divides_res_and_isolations_agree(self, d, seed):
        (b1, b2), r = _planted_pencil(d, seed)
        lead, res = _projection(b1, b2, r)
        assert lead.degree == 1
        assert res.divmod(lead)[1].is_zero
        with_lead = RealAlgebraic.isolate(res * lead)
        alone = RealAlgebraic.isolate(res)
        assert [(g.lo, g.hi) for g in alone] == [(g.lo, g.hi) for g in with_lead]

    @pytest.mark.parametrize("d, seed", PLANTED)
    def test_first_witness_is_the_full_lists_first(self, d, seed):
        (b1, b2), r = _planted_pencil(d, seed)
        full = decide_pencil(b1, b2, r)
        first = decide_pencil(b1, b2, r, first=True)
        assert full and len(first) == 1
        assert _witness_key(first[0]) == _witness_key(full[0])

    def test_first_witness_of_an_empty_pencil(self):
        basis = kernel_basis(hankel(sextic_xy_family(0), 4))
        assert decide_pencil(basis[0], basis[1], 4, first=True) == []

    @pytest.mark.parametrize("d", [8, 12])
    def test_one_sturm_chain_per_decision(self, monkeypatch, d):
        """With every sample rejected, the only chain left is the projection's."""
        (b1, b2), r = _planted_pencil(d, 0)
        chains = []
        build = realroots._int_sturm_chain

        def counting(f):
            chains.append(len(f))
            return build(f)

        def reject(vec, r):
            raise SylvesterRejectionError(SylvesterRejectionError.COMPLEX_ROOTS, "stub")

        monkeypatch.setattr(realroots, "_int_sturm_chain", counting)
        monkeypatch.setattr(engine, "validate_sylvester", reject)
        assert decide_pencil(b1, b2, r) == []
        assert len(chains) == 1


# The pinned-witness octic of the golden decompose-pinned-d8.
PINNED_OCTIC = "8*x^8 - 6*x^7*y + 5*x^6*y^2 - 5*x^4*y^4 - 7*x^3*y^5 + 8*x^2*y^6 - 8*x*y^7 + 3*y^8"


class TestBadgeSearch:
    def test_diagonal_quartic(self):
        res = badge_search(parse_form("x^4 + y^4"), 2, FAST)
        assert res.badges == frozenset({Badge(2, 0)})

    def test_sextic_quintics(self):
        res = badge_search(sextic_xy_family(0), 5, FAST)
        assert Badge(2, 3) in res.badges and Badge(3, 2) in res.badges

    def test_second_family_quartics(self):
        res = badge_search(cube_difference_family(F(1, 10)), 4, FAST)
        assert Badge(2, 2) in res.badges

    def test_witnesses_are_distinct_kernel_forms(self):
        p = sextic_xy_family(0)
        res = badge_search(p, 5, FAST)
        assert res.witnesses and len(set(res.witnesses)) == len(res.witnesses)
        for w in res.witnesses:
            assert not any(hankel(p, 5).apply(w.coeffs))

    def test_witness_outside_the_kernel_raises(self, monkeypatch):
        stray = validate_sylvester([1, 0, -5, 0, 4], 4)  # (x^2 - y^2)(x^2 - 4y^2)
        monkeypatch.setattr(engine, "decide_pencil", lambda b1, b2, r, first: [stray])
        with pytest.raises(InternalCheckError, match="Hankel kernel"):
            badge_search(sextic_xy_family(0), 4, FAST)

    def test_pinned_octic_sextics(self):
        """Kernel dim 4 at r = 6: the pinning search finds both badges."""
        octic = parse_form(PINNED_OCTIC)
        assert badge_search(octic, 6).badges == {Badge(3, 3), Badge(4, 2)}


class TestCertificate:
    def test_quartic_difference(self):
        r = rational_rep(
            4, (1, (1, 2)), (-4, (1, 1)), (6, (1, 0)), (-4, (1, -1)), (1, (1, -2))
        )
        assert sign_change_certificate(r) == (4, 4, True)

    def test_split_pair(self):
        r = rational_rep(6, (F(1, 2), (1, 1)), (F(-1, 2), (1, -1)))
        tau, sigma, ok = sign_change_certificate(r)
        assert (tau, sigma, ok) == (2, 2, True)

    def test_definite(self):
        r = rational_rep(4, (1, (1, 0)), (1, (0, 1)))
        assert sign_change_certificate(r) == (0, 0, True)

    def test_degenerate(self):
        with pytest.raises(DegenerateRepresentationError):
            sign_change_certificate(rational_rep(4, (1, (1, 0))))
        cancel = rational_rep(4, (1, (1, 1)), (-1, (1, 1)))
        with pytest.raises(DegenerateRepresentationError):
            sign_change_certificate(cancel)

    def test_random_reps(self):
        rng = random.Random(61)
        for _ in range(60):
            d = rng.choice([4, 6])
            rep = random_honest_rep(rng, d, rng.randint(2, 5))
            if expand_exact(rep).is_zero:
                continue
            tau, sigma, ok = sign_change_certificate(rep)
            assert ok


class TestFactorCount:
    def test_examples(self):
        assert real_linear_factor_count(parse_form("24*y^4")) == 4
        assert real_linear_factor_count(sextic_xy_family(0)) == 2
        assert real_linear_factor_count(sextic_xy_family(-1)) == 6

    def test_splits(self):
        assert splits_over_reals(parse_form("x^2*y^2"))
        assert not splits_over_reals(parse_form("x^4 + y^4"))
        assert is_power_of_linear(parse_form("24*y^4"))
        assert not is_power_of_linear(parse_form("x^2*y^2"))

    def test_random_split_products(self):
        rng = random.Random(67)
        for _ in range(20):
            slopes = rng.sample(range(-6, 7), rng.randint(2, 6))
            raw = [F(1)]
            for k in slopes:
                raw = _conv(raw, [F(1), F(k)])
            p = BinaryForm.from_raw(len(slopes), raw)
            assert real_linear_factor_count(p) == len(slopes)

    def test_report_builds_one_chain_of_q(self, monkeypatch):
        # Splitting and being a power of a linear form are both read off one
        # q = (t - 2)^6: its 7-coefficient chain is built once, then the
        # tower of gcds builds one chain of each smaller size.
        sizes = []
        real = realroots._int_sturm_chain

        def counted(f):
            sizes.append(len(f))
            return real(f)

        monkeypatch.setattr(realroots, "_int_sturm_chain", counted)
        monkeypatch.setattr(engine, "_int_sturm_chain", counted)
        report = signature_report(parse_form("(x-2*y)^6"))
        assert report.splits and report.signature_set() == {Badge(1, 0)}
        assert sorted(sizes) == [2, 3, 4, 5, 6, 7]


class TestLowerBound:
    def test_examples(self):
        assert signature_lower_bound(sextic_xy_family(-1)) == Badge(3, 3)
        assert signature_lower_bound(parse_form("8*x^4 + 48*x^2*y^2 - 8*y^4")) == Badge(2, 1)
        assert signature_lower_bound(circle_power(2)) == Badge(3, 0)


class TestPossibleAndIncomparable:
    def test_possible(self):
        sigs = possible_signatures(2)
        assert Badge(3, 0) in sigs and Badge(0, 3) in sigs and Badge(2, 2) in sigs
        assert Badge(3, 1) not in sigs

    def test_incomparable(self):
        assert incomparable_constraints_ok(Badge(3, 2), Badge(2, 3), 3)
        assert not incomparable_constraints_ok(Badge(2, 1), Badge(1, 2), 2)
        with pytest.raises(NotIncomparableError):
            incomparable_constraints_ok(Badge(1, 1), Badge(2, 2), 3)


class TestQuarticClassify:
    def test_table(self):
        for u, want in (
            (F(-1), Badge(1, 1)),
            (F(0), Badge(2, 1)),
            (F(1, 100), Badge(2, 1)),
            (F(1, 10), Badge(3, 0)),
            (F(1), Badge(3, 0)),
        ):
            rep = quartic_classify(circle_conic_quartic(u), FAST)
            assert rep.signature_set() == {want}, f"u={u}"
            assert rep.set_complete

    def test_splitting_and_powers(self):
        assert quartic_classify(parse_form("x^2*y^2"), FAST).signature_set() == {
            Badge(2, 2)
        }
        assert quartic_classify(parse_form("24*y^4"), FAST).signature_set() == {
            Badge(1, 0)
        }
        assert quartic_classify(parse_form("-24*y^4"), FAST).signature_set() == {
            Badge(0, 1)
        }


class TestSignatureReport:
    def test_family_oracle(self):
        grid = [
            F(v)
            for v in ("-2 -1 -3/5 -1/2 -3/10 -1/10 0 1/10 1/2 1 3/2 2").split()
        ]
        for lam in grid:
            rep = signature_report(sextic_xy_family(lam), FAST)
            assert rep.signature_set() == sextic_family_oracle(lam), f"lam={lam}"
            assert rep.set_complete
            assert all(status == STATUS_PROVEN for _, status in rep.signatures)

    def test_second_family(self):
        for lam, want in (
            (F(0), Badge(3, 3)),
            (F(1, 10), Badge(2, 2)),
            (F(1, 8), Badge(2, 2)),
            (F(1, 5), Badge(1, 1)),
        ):
            rep = signature_report(cube_difference_family(lam), FAST)
            assert rep.signature_set() == {want}, f"lam={lam}"

    def test_quadratic(self):
        rep = signature_report(parse_form("x^2 - y^2"), FAST)
        assert rep.signature_set() == {Badge(1, 1)}

    def test_lower_bound_consistency(self):
        rep = signature_report(sextic_xy_family(0), FAST)
        for b, _ in rep.signatures:
            assert rep.lower_bound_badge.precedes(b)

    def test_proven_signatures_admissible(self):
        for lam in (F(-1), F(0), F(1), F(2)):
            rep = signature_report(sextic_xy_family(lam), FAST)
            allowed = possible_signatures(3)
            assert all(b in allowed for b in rep.signature_set())


class TestProofChecksRaise:
    """The exact checks behind exact and proven results raise an error, so
    they still run under python -O."""

    def test_exact_solve_reexpansion(self, monkeypatch):
        monkeypatch.setattr(engine, "expand_exact", lambda rep: parse_form("x^4"))
        with pytest.raises(InternalCheckError):
            solve_coefficients(parse_form("x^4 + y^4"), validate_sylvester([0, 1, 0], 2))

    def test_proven_signatures_admissible(self, monkeypatch):
        monkeypatch.setattr(engine, "possible_signatures", lambda s: frozenset())
        with pytest.raises(InternalCheckError):
            signature_report(parse_form("x^4 + y^4"), FAST)

    def test_five_term_sextic_badge(self, monkeypatch):
        exact_length = engine.real_length

        def wrong_badge(p, config):
            res = exact_length(p, config)
            return replace(res, witness=replace(res.witness, badge=Badge(4, 1)))

        monkeypatch.setattr(engine, "real_length", wrong_badge)
        with pytest.raises(InternalCheckError):
            signature_report(parse_form("6*x^5*y + 6*x*y^5"), FAST)


class TestMirrorInterplay:
    def test_mirrored_decomposition_expands(self):
        res = real_length(sextic_xy_family(0), FAST)
        rep = res.witness.rep
        swapped = mirror_badge(rep)
        assert swapped.badge() == rep.badge().swapped()


class TestVandermonde:
    def test_fallback_形(self):
        s = fallback_sylvester(4)
        assert s.r == 5 and s.roots.infinity_mult == 1

    def test_random_roundtrip(self):
        rng = random.Random(71)
        for _ in range(15):
            d = rng.choice([2, 4, 6])
            p = BinaryForm.from_raw(d, [F(rng.randint(-7, 7)) for _ in range(d + 1)])
            if p.is_zero:
                continue
            dec = vandermonde_rep(p)
            assert expand_exact(dec.rep) == p
            assert dec.rep.is_honest()
            assert dec.rep.length <= d + 1


class TestSweep:
    def test_quartic_jump(self):
        res = sweep(quartic_jump_family, [F(1, 2), F(1, 4), F(1, 8)], F(0), FAST)
        assert all(row.jump_vs_limit == JUMP_UP for row in res.rows)
        assert res.limit_report.signature_set() == {Badge(2, 2)}

    def test_downward_jump(self):
        fam = lambda t: power_plus_circle_family(2, t)
        res = sweep(fam, [F(1, 2), F(1, 4)], F(0), FAST)
        assert all(row.jump_vs_limit == JUMP_DOWN for row in res.rows)

    def test_row_errors_embedded(self):
        fam = lambda t: parse_form("x^3*y^2") if t == 0 else quartic_jump_family(t)
        res = sweep(fam, [F(0), F(1, 2)], None, FAST)
        assert res.rows[0].error is not None
        assert res.rows[1].report is not None

    def test_one_map_call_over_grid_and_limit(self):
        calls = []

        class RecordingExecutor:
            def map(self, fn, *iterables):
                calls.append([list(it) for it in iterables])
                return map(fn, *calls[-1])

        grid = [F(1, 2), F(1, 4)]
        res = sweep(quartic_jump_family, grid, F(0), FAST, RecordingExecutor())
        assert len(calls) == 1
        assert calls[0][1] == [F(1, 2), F(1, 4), F(0)]
        assert res == sweep(quartic_jump_family, grid, F(0), FAST)


class TestDecompResultInvariants:
    def test_exact_roundtrip_and_honesty(self):
        rng = random.Random(73)
        for _ in range(25):
            d = rng.choice([4, 6])
            rep = random_honest_rep(rng, d, rng.randint(1, 3))
            p = expand_exact(rep)
            if p.is_zero:
                continue
            res = real_length(p, FAST)
            assert res.upper <= rep.length
            got = res.witness
            assert got.rep.is_honest()
            if got.certification == "exact":
                assert expand_exact(got.rep) == p
            else:
                assert expand_certified(got.rep, F(1, 10**12), 300).encloses(p)
            hp = inertia(catalecticant(p))
            assert Badge(hp.pos, hp.neg).precedes(got.badge)
            if hp.rank == rep.length and res.conclusive:
                assert got.badge == Badge(hp.pos, hp.neg)


BASELINE8_RAW = [1, 3, 4, -9, 5, -1, -2, 9, -6]  # ROADMAP Baseline, d = 8


def _value_at(vec, pin):
    """The degree-r form with coefficient vector vec (x^r first) at (pin, 1)."""
    r = len(vec) - 1
    return sum(c * pin ** (r - i) for i, c in enumerate(vec))


class TestPinnedCandidates:
    QUINTIC = sextic_xy_family(F(-3, 10))  # the structured-quintic-valid fixture
    BASELINE8 = BinaryForm.from_raw(8, BASELINE8_RAW)

    @pytest.mark.parametrize("form, r", [("QUINTIC", 5), ("BASELINE8", 6), ("BASELINE8", 8)])
    def test_first_candidates_are_kernel_vectors_vanishing_at_their_pins(self, form, r):
        p = getattr(self, form)
        basis = kernel_basis(hankel(p, r))
        assert len(basis) >= 3
        attempts = list(itertools.islice(engine._pinned_candidates(basis, r, random.Random(0)), 20))
        assert len(attempts) == 20
        assert sum(vec is not None for _, vec in attempts) >= 15
        for pins, vec in attempts:
            assert len(pins) == len(set(pins)) == len(basis) - 1
            assert all(abs(pin.numerator) <= 20 and pin.denominator <= 4 for pin in pins)
            if vec is None:
                continue
            assert all(type(c) is int for c in vec) and any(vec)
            assert not any(hankel(p, r).apply(vec))
            assert all(_value_at(vec, pin) == 0 for pin in pins)

    def test_stream_follows_the_seed(self):
        basis = kernel_basis(hankel(self.BASELINE8, 8))

        def stream(seed):
            return list(itertools.islice(engine._pinned_candidates(basis, 8, random.Random(seed)), 5))

        assert stream(3) == stream(3)
        assert stream(3) != stream(4)

    def test_needs_three_basis_vectors(self):
        basis = kernel_basis(hankel(sextic_xy_family(0), 4))
        assert len(basis) == 2
        assert list(engine._pinned_candidates(basis, 4, random.Random(0))) == []

    def test_every_attempt_counts_against_the_budget(self, monkeypatch):
        """Attempts that yield no candidate spend the budget too."""
        pulled = []

        def empty_attempts(basis, r, rng):
            for _ in range(100):
                pulled.append(1)
                yield [], None

        monkeypatch.setattr(engine, "_pinned_candidates", empty_attempts)
        got = engine._kernel_witnesses([[0]] * 3, 8, 7, None, 1)
        assert (got, len(pulled)) == (([], False), 7)


def _baseline_recipe_forms(seed, degrees, per_degree):
    """Lead randint(1, 9), the rest randint(-9, 9), from one seeded stream."""
    rng = random.Random(seed)
    return [
        BinaryForm.from_raw(d, [rng.randint(1, 9)] + [rng.randint(-9, 9) for _ in range(d)])
        for d in degrees
        for _ in range(per_degree)
    ]


class TestLengthAtMostDegree:
    """Every real binary form of degree d has real rank <= d (Causa-Re 2011);
    pinning d-1 roots at r = d builds such a witness."""

    def test_seeded_set_d5_to_d12(self):
        forms = _baseline_recipe_forms(5, range(5, 13), 6)
        assert len(forms) == 48
        results = [real_length(p, SearchConfig(search_budget=200)) for p in forms]
        assert all(res.upper <= p.degree for p, res in zip(forms, results))
        assert sum(res.conclusive for res in results) >= 35

    def test_hyperbolic_septic(self):
        p = parse_form("x*(x^2-y^2)*(x^2-4*y^2)*(x^2-9*y^2)")
        res = real_length(p, SearchConfig(search_budget=200))
        assert res.upper == 7
        # One witness root, -114881200/159967611, is past rational_roots'
        # divisor bound; deflation still finds it, so the witness is exact.
        assert res.witness.certification == "exact"
