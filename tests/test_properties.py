"""Property tests against sympy.  Derandomized, so every run draws the same
examples and a failure reproduces."""

from fractions import Fraction as F

import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from binforms import BinaryForm
from binforms.engine import (
    _conv,
    is_power_of_linear,
    real_linear_factor_count,
    splits_over_reals,
)
from binforms.realroots import UniPoly, deflate_rational_roots, rational_roots

T = sympy.Symbol("t")

PROPERTY = settings(derandomize=True, max_examples=100, deadline=None, database=None)

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)
nonzero_rationals = rationals.filter(bool)
multiplicities = st.integers(min_value=1, max_value=3)


def _to_sympy(coeffs):
    return sum(sympy.Rational(c.numerator, c.denominator) * T**i for i, c in enumerate(coeffs))


def _from_sympy(poly):
    return tuple(F(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs()))


@st.composite
def factored_forms(draw):
    """Raw coefficients (of x^(d-j) y^j) of c * y^k * prod (a x + b y)^m *
    prod of irreducible quadratics x^2 + b x y + c y^2."""
    raw = [draw(nonzero_rationals)]
    raw = _conv(raw, [F(0)] * draw(st.integers(0, 3)) + [F(1)])
    for _ in range(draw(st.integers(0, 3))):
        a, b = draw(st.tuples(rationals, rationals).filter(any))
        for _ in range(draw(multiplicities)):
            raw = _conv(raw, [a, b])
    for _ in range(draw(st.integers(0, 2))):
        b = draw(rationals)
        gap = draw(st.fractions(min_value=F(1, 6), max_value=5, max_denominator=6))
        raw = _conv(raw, [F(1), b, b * b / 4 + gap])
    return raw


def _oracle(raw):
    """(real linear factors with multiplicity, distinct projective real roots)
    from sympy's real roots of p(t, 1) plus the roots at infinity."""
    d = len(raw) - 1
    q = sympy.Poly(_to_sympy(list(reversed(raw))), T, domain="QQ")
    at_infinity = d - q.degree()
    real = q.real_roots() if q.degree() > 0 else []
    distinct = len(set(real)) + (at_infinity > 0)
    return at_infinity + len(real), distinct


class TestLinearFactors:
    @PROPERTY
    @given(factored_forms())
    @example([F(16), F(-96), F(216), F(-216), F(81)])  # (2x - 3y)^4
    @example([F(0), F(0), F(0), F(5)])  # 5 y^3
    @example([F(0), F(0), F(1), F(0), F(0)])  # x^2 y^2
    def test_against_sympy_real_roots(self, raw):
        p = BinaryForm.from_raw(len(raw) - 1, raw)
        count, distinct = _oracle(raw)
        assert real_linear_factor_count(p) == count
        assert splits_over_reals(p) == (count == p.degree)
        assert is_power_of_linear(p) == (p.degree == 0 or (count == p.degree and distinct == 1))


polys = st.lists(rationals, max_size=5).map(UniPoly)


class TestGcd:
    @PROPERTY
    @given(polys, polys, polys)
    def test_against_sympy_gcd(self, f, g, h):
        """Operands f*h and g*h share h; zero and constant operands included."""
        a, b = f * h, g * h
        sa = sympy.Poly(_to_sympy(a.coeffs), T, domain="QQ")
        sb = sympy.Poly(_to_sympy(b.coeffs), T, domain="QQ")
        want = sa.gcd(sb)
        got = a.gcd(b)
        assert got.coeffs == (() if want.is_zero else _from_sympy(want.monic()))


def _fraction_deflation(f):
    """The cofactor by dividing the squarefree part by t - r over Q."""
    g = f.squarefree_part()
    roots = rational_roots(g)
    for r in roots:
        g, rem = g.divmod(UniPoly([-r, 1]))
        assert rem.is_zero
    return g.primitive_int() if roots else g


class TestDeflation:
    @PROPERTY
    @given(
        st.lists(st.tuples(rationals, multiplicities), max_size=4),
        st.lists(st.integers(-6, 6), min_size=1, max_size=5).filter(any),
    )
    def test_cofactor_against_fraction_division(self, linears, rest):
        f = UniPoly(rest)
        for r, m in linears:
            for _ in range(m):
                f = f * UniPoly([-r, 1])
        roots, cofactor = deflate_rational_roots(f)
        assert roots == rational_roots(f.squarefree_part())
        assert cofactor == _fraction_deflation(f)
        assert not rational_roots(cofactor)
