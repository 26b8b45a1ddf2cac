import pickle
import random
from fractions import Fraction as F

import pytest

import binforms.forms as forms
from binforms import (
    Badge,
    BinaryForm,
    FormSyntaxError,
    NotHomogeneousError,
    PowerSumRep,
    ProjLinearForm,
    SingularSubstitutionError,
    DegreeMismatchError,
    expand_certified,
    expand_exact,
    inner_product,
    minimal_badges,
    mirror,
    mirror_badge,
    parse_family,
    parse_form,
    substitute,
)
from binforms.realroots import RealAlgebraic, UniPoly


def rep(degree, *terms):
    return PowerSumRep(
        degree, tuple((F(c), ProjLinearForm(F(a), F(b))) for c, (a, b) in terms)
    )


class TestParse:
    def test_monomial(self):
        p = parse_form("24*y^4")
        assert p.degree == 4
        assert p.raw_coeffs() == (0, 0, 0, 0, 24)

    def test_sextic(self):
        p = parse_form("6*x^5*y + 20*x^3*y^3 + 6*x*y^5")
        assert p.coeffs == (0, 1, 0, 1, 0, 1, 0)

    def test_not_homogeneous(self):
        with pytest.raises(NotHomogeneousError):
            parse_form("x^2 + x*y^2")

    def test_rational_literals_and_parens(self):
        p = parse_form("1/2*(x + y)^2 - 1/2*x^2")
        assert p == parse_form("x*y + 1/2*y^2")

    def test_implicit_multiplication_rejected(self):
        with pytest.raises(FormSyntaxError):
            parse_form("2x^2")

    def test_unknown_character(self):
        with pytest.raises(FormSyntaxError):
            parse_form("x^2 + z^2")

    def test_zero_form_flagged(self):
        p = parse_form("x^2 - x^2")
        assert p.is_zero

    def test_unary_minus(self):
        assert parse_form("-x^2 - y^2") == parse_form("0 - (x^2 + y^2)")

    def test_round_trip_canonical(self):
        texts = [
            "x^4 - 4*x^3*y + 6*x^2*y^2 - 4*x*y^3 + y^4",
            "24*y^4",
            "6*x^5*y + 20*x^3*y^3 + 6*x*y^5",
            "x^2*y^2",
            "-x^6 + y^6",
        ]
        for text in texts:
            assert parse_form(text).text() == text

    def test_round_trip_random(self):
        rng = random.Random(7)
        for _ in range(25):
            d = rng.choice([2, 4, 6])
            raw = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(d + 1)]
            p = BinaryForm.from_raw(d, raw)
            assert parse_form(p.text()) == p


class TestExpand:
    def test_quartic_difference_identity(self):
        r = rep(4, (1, (1, 2)), (-4, (1, 1)), (6, (1, 0)), (-4, (1, -1)), (1, (1, -2)))
        assert expand_exact(r) == parse_form("24*y^4")

    def test_sextic_identity(self):
        r = rep(
            6,
            (1296, (1, 1)),
            (-567, (1, 2)),
            (112, (1, 3)),
            (-1, (1, -6)),
            (-840, (1, 0)),
        )
        assert expand_exact(r) == parse_form("3024*x^5*y + 108864*x*y^5")

    def test_single_power(self):
        assert expand_exact(rep(4, (1, (1, 0)))) == parse_form("x^4")

    def test_even_degree_sign_invariance(self):
        rng = random.Random(3)
        for _ in range(20):
            b = F(rng.randint(-5, 5), rng.randint(1, 3))
            lam = F(rng.randint(1, 9))
            one = rep(6, (lam, (1, b)))
            # the constructor renormalizes (-1, -b) back to (1, b)
            flipped = PowerSumRep(6, ((lam, ProjLinearForm(F(-1), -b)),))
            assert expand_exact(one) == expand_exact(flipped)


class TestCertified:
    def test_split_sextic_zero_width(self):
        r = rep(6, (F(1, 2), (1, 1)), (F(-1, 2), (1, -1)))
        cf = expand_certified(r, F(0), 4)
        assert cf.max_width == 0
        assert cf.encloses(parse_form("6*x^5*y + 20*x^3*y^3 + 6*x*y^5"))

    def test_circle_identity_enclosure(self):
        root3 = RealAlgebraic(UniPoly([-3, 0, 1]), F(3, 2), F(2))
        r = PowerSumRep(
            4,
            (
                (F(1, 3), ProjLinearForm(F(1), F(0))),
                (F(1, 48), ProjLinearForm(F(1), root3)),
                (F(1, 48), ProjLinearForm(F(1), -root3)),
            ),
        )
        target = parse_form("3/8*x^4 + 3/4*x^2*y^2 + 3/8*y^4")
        cf = expand_certified(r, F(1, 10**30), 256)
        assert cf.encloses(target)
        assert cf.max_width <= F(1, 10**30)

    def test_circle_identity_step_search(self, monkeypatch):
        """The first fitting step count (found by doubling, then bisection)
        costs about 2 log2 of it expansions, not one per step."""
        root3 = RealAlgebraic(UniPoly([-3, 0, 1]), F(3, 2), F(2))
        r = PowerSumRep(
            4,
            (
                (F(1, 3), ProjLinearForm(F(1), F(0))),
                (F(1, 48), ProjLinearForm(F(1), root3)),
                (F(1, 48), ProjLinearForm(F(1), -root3)),
            ),
        )
        calls = []
        enclose = forms.scalar_interval
        monkeypatch.setattr(
            forms, "scalar_interval", lambda x: calls.append(x) or enclose(x)
        )
        expand_certified(r, F(1, 10**30), 256)
        expansions = len(calls) // (3 * len(r.terms))
        assert len(calls) % (3 * len(r.terms)) == 0
        # 0, 1, 2, 4, ..., 128 by doubling, then 6 bisection steps in (64, 128]
        assert expansions <= 16

    def test_empty_rep_is_zero(self):
        cf = expand_certified(PowerSumRep(4, ()), F(0), 1)
        assert all(iv.lo == iv.hi == 0 for iv in cf.intervals)

    def test_precision_exhausted(self):
        from binforms import PrecisionExhaustedError

        root2 = RealAlgebraic(UniPoly([-2, 0, 1]), F(1), F(2))
        r = PowerSumRep(4, ((F(1), ProjLinearForm(F(1), root2)),))
        with pytest.raises(
            PrecisionExhaustedError,
            match=f"tolerance 1/1{'0' * 40} not reached in 2 refinement steps",
        ):
            expand_certified(r, F(1, 10**40), 2)


class TestSubstitute:
    def test_swap(self):
        assert substitute(parse_form("x^4 - y^4"), ((0, 1), (1, 0))) == parse_form(
            "-x^4 + y^4"
        )

    def test_sextic_to_family(self):
        q = substitute(parse_form("x^6 - y^6"), ((1, 1), (1, -1)))
        assert q == parse_form("12*x^5*y + 40*x^3*y^3 + 12*x*y^5")

    def test_identity(self):
        p = parse_form("8*x^4 + 48*x^2*y^2 - 8*y^4")
        assert substitute(p, ((1, 0), (0, 1))) == p

    def test_singular_rejected(self):
        with pytest.raises(SingularSubstitutionError):
            substitute(parse_form("x^2"), ((1, 1), (2, 2)))

    def test_group_action(self):
        rng = random.Random(11)
        p = parse_form("x^4 + 3*x^2*y^2 - 2*y^4")
        for _ in range(15):
            while True:
                m = tuple(
                    tuple(F(rng.randint(-4, 4)) for _ in range(2)) for _ in range(2)
                )
                n = tuple(
                    tuple(F(rng.randint(-4, 4)) for _ in range(2)) for _ in range(2)
                )
                if (
                    m[0][0] * m[1][1] - m[0][1] * m[1][0] != 0
                    and n[0][0] * n[1][1] - n[0][1] * n[1][0] != 0
                ):
                    break
            prod = (
                (
                    m[0][0] * n[0][0] + m[0][1] * n[1][0],
                    m[0][0] * n[0][1] + m[0][1] * n[1][1],
                ),
                (
                    m[1][0] * n[0][0] + m[1][1] * n[1][0],
                    m[1][0] * n[0][1] + m[1][1] * n[1][1],
                ),
            )
            assert substitute(substitute(p, m), n) == substitute(p, prod)


class TestInnerProduct:
    def test_power_pairings(self):
        x4 = parse_form("x^4")
        assert inner_product(x4, x4) == 1
        assert inner_product(parse_form("x^2*y^2"), x4) == 0

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatchError):
            inner_product(parse_form("x^2"), parse_form("x^4"))

    def test_reproducing_property(self):
        rng = random.Random(5)
        for _ in range(20):
            d = rng.choice([2, 4, 6])
            p = BinaryForm.from_raw(
                d, [F(rng.randint(-6, 6)) for _ in range(d + 1)]
            )
            a, b = F(rng.randint(-4, 4)), F(rng.randint(-4, 4))
            if a == 0 and b == 0:
                continue
            power = expand_exact(
                PowerSumRep(d, ((F(1), ProjLinearForm(F(1), F(0))),))
            )
            # build (a x + b y)^d through raw coefficients
            raw = [a ** (d - j) * b**j * _comb(d, j) for j in range(d + 1)]
            power = BinaryForm.from_raw(d, raw)
            assert inner_product(p, power) == p.evaluate(a, b)

    def test_bilinear_symmetric(self):
        rng = random.Random(9)
        for _ in range(10):
            d = 4
            f, g, h = (
                BinaryForm.from_raw(d, [F(rng.randint(-5, 5)) for _ in range(d + 1)])
                for _ in range(3)
            )
            c = F(rng.randint(-3, 3))
            assert inner_product(f, g) == inner_product(g, f)
            assert inner_product(f + g.scale(c), h) == inner_product(
                f, h
            ) + c * inner_product(g, h)


def _comb(n, k):
    from math import comb

    return comb(n, k)


class TestMirror:
    def test_family_odd(self):
        q = parse_form("6*x^5*y + 20*x^3*y^3 + 6*x*y^5")
        assert mirror(q) == -q

    def test_badge_swap(self):
        r = rep(6, (F(1, 2), (1, 1)), (F(-1, 2), (1, -1)))
        m = mirror_badge(r)
        assert m.badge() == Badge(1, 1)
        assert m == r  # same two terms, swapped roles

    def test_three_two_swap(self):
        r = rep(6, (1, (1, 1)), (2, (1, 2)), (3, (1, 3)), (-1, (1, -1)), (-2, (0, 1)))
        assert r.badge() == Badge(3, 2)
        assert mirror_badge(r).badge() == Badge(2, 3)


class TestBadges:
    def test_partial_order(self):
        assert Badge(1, 2).precedes(Badge(2, 2))
        assert not Badge(3, 0).precedes(Badge(2, 2))

    def test_minimal(self):
        sigs = minimal_badges({Badge(2, 3), Badge(3, 2), Badge(3, 3)})
        assert sigs == frozenset({Badge(2, 3), Badge(3, 2)})


class TestHonesty:
    def test_duplicate_forms(self):
        r = rep(4, (1, (1, 1)), (2, (2, 2)))
        assert not r.is_honest()

    def test_distinct(self):
        r = rep(4, (1, (1, 1)), (2, (1, -1)), (3, (0, 1)), (4, (1, 0)))
        assert r.is_honest()


class TestFamilyParse:
    def test_parameter_substitution(self):
        fam = parse_family("6*x^5*y + 20*t*x^3*y^3 + 6*x*y^5")
        assert fam(F(1)) == parse_form("6*x^5*y + 20*x^3*y^3 + 6*x*y^5")
        assert fam(F(0)) == parse_form("6*x^5*y + 6*x*y^5")

    def test_pickles(self):
        fam = parse_family("6*x^5*y + 20*t*x^3*y^3 + t^2*x*y^5 - 1/3*t*y^6")
        copy = pickle.loads(pickle.dumps(fam))
        for t in (F(-2), F(0), F(1, 3), F(7, 2)):
            assert copy(t) == fam(t)

    def test_parameter_rejected_in_plain_form(self):
        with pytest.raises(FormSyntaxError):
            parse_form("t*x^2")
