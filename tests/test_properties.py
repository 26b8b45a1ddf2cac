"""Property tests against sympy.  Derandomized, so every run draws the same
examples and a failure reproduces."""

import itertools
import random
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import fraction_eval_interval, pow_int_expansion, trial_divisors

from binforms import (
    BinaryForm,
    PowerSumRep,
    ProjLinearForm,
    decide_pencil,
    expand_certified,
    expand_exact,
    hankel,
    kernel_basis,
    parse_form,
    solve_coefficients,
    validate_sylvester,
)
from binforms import engine, realroots
from binforms.errors import PrecisionExhaustedError, SylvesterRejectionError
from binforms.engine import (
    _conv,
    fallback_sylvester,
    is_power_of_linear,
    real_linear_factor_count,
    splits_over_reals,
)
from binforms.realroots import (
    RatInterval,
    RealAlgebraic,
    UniPoly,
    deflate_rational_roots,
    rational_roots,
)

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
        assert cofactor.degree != 1

    def test_linear_cofactor_past_the_divisor_bound(self):
        """rational_roots misses a root whose numerator divides a_0 only with
        a cofactor past the trial-division cap; as the last linear factor it
        still joins the roots."""
        big = F(-114881200, 159967611)
        f = UniPoly([-3000, 1]) * UniPoly([-3001, 1]) * UniPoly([-big, 1])
        assert rational_roots(f) == [F(3000), F(3001)]
        roots, cofactor = deflate_rational_roots(f)
        assert roots == [big, F(3000), F(3001)] and cofactor.degree == 0


wide_rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=60)


@st.composite
def rat_intervals(draw):
    a, b = sorted((draw(wide_rationals), draw(wide_rationals)))
    return RatInterval(a, b)


class TestEvalInterval:
    @PROPERTY
    @given(st.lists(wide_rationals, max_size=9).map(UniPoly), rat_intervals())
    @example(UniPoly([]), RatInterval(F(-1), F(2)))
    @example(UniPoly([F(1, 3), F(-2, 5), F(7, 2)]), RatInterval(F(-1, 6), F(1, 4)))
    def test_equals_fraction_horner(self, f, iv):
        got = f.eval_interval(iv)
        want = fraction_eval_interval(f, iv)
        assert (got.lo, got.hi) == (want.lo, want.hi)


def _algebraic(n, side):
    """The root of t^2 - n on the given side of 0, isolated."""
    roots = RealAlgebraic.isolate(UniPoly([-n, 0, 1]))
    return roots[side]


scalars = st.one_of(
    nonzero_rationals,
    st.builds(_algebraic, st.sampled_from([2, 3, 5, 7, 10]), st.integers(0, 1)),
)


@st.composite
def power_sum_reps(draw):
    d = draw(st.integers(1, 8))
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        lam = draw(scalars)
        if draw(st.integers(0, 5)) == 0:
            form = ProjLinearForm(F(0), F(1))
        else:
            form = ProjLinearForm(F(1), draw(scalars))
        terms.append((lam, form))
    return PowerSumRep(d, tuple(terms))


class TestExpandCertified:
    @PROPERTY
    @given(power_sum_reps(), st.sampled_from([F(10), F(1, 10**3), F(1, 10**6)]))
    def test_equals_pow_int_expansion(self, rep, tolerance):
        """Tolerances and a step budget of 16 that some reps exhaust."""
        try:
            want = pow_int_expansion(rep, tolerance, 16)
        except PrecisionExhaustedError:
            with pytest.raises(PrecisionExhaustedError):
                expand_certified(rep, tolerance, 16)
            return
        got = expand_certified(rep, tolerance, 16)
        assert [(iv.lo, iv.hi) for iv in got.intervals] == [
            (iv.lo, iv.hi) for iv in want.intervals
        ]


    @PROPERTY
    @given(
        power_sum_reps(),
        st.sampled_from([F(0), F(1, 10**3), F(1, 10**12), F(1, 10**20)]),
        st.integers(0, 40),
    )
    def test_step_search_equals_stepwise_loop(self, rep, tolerance, max_steps):
        """The doubling-and-bisection step search stops at the first step
        count that fits, as the one-step-at-a-time loop does, or raises
        the same error when max_steps does not fit."""
        try:
            want = pow_int_expansion(rep, tolerance, max_steps)
        except PrecisionExhaustedError:
            with pytest.raises(
                PrecisionExhaustedError,
                match=f"not reached in {max_steps} refinement steps",
            ):
                expand_certified(rep, tolerance, max_steps)
            return
        got = expand_certified(rep, tolerance, max_steps)
        assert [(iv.lo, iv.hi) for iv in got.intervals] == [
            (iv.lo, iv.hi) for iv in want.intervals
        ]


X, Y = sympy.symbols("x y")

literals = st.one_of(
    st.integers(0, 40).map(lambda n: (str(n), sympy.Integer(n))),
    st.tuples(st.integers(0, 40), st.integers(1, 12)).map(
        lambda nd: (f"{nd[0]}/{nd[1]}", sympy.Rational(*nd))
    ),
)


@st.composite
def homogeneous_expressions(draw, d, depth=3):
    """(text, sympy expression) of a form of degree d in the parser grammar:
    literals, monomials, sums, differences, products and powers."""
    if d == 0:
        kind = draw(st.sampled_from(["literal", "sum", "negate"] if depth else ["literal"]))
    else:
        kind = draw(
            st.sampled_from(
                ["monomial", "sum", "negate", "product", "power"] if depth else ["monomial"]
            )
        )
    if kind == "literal":
        return draw(literals)
    if kind == "monomial":
        i = draw(st.integers(0, d))
        return f"x^{i}*y^{d - i}", X**i * Y ** (d - i)
    if kind == "negate":
        text, expr = draw(homogeneous_expressions(d, depth - 1))
        return f"-({text})", -expr
    if kind == "sum":
        (ta, ea), (tb, eb) = (draw(homogeneous_expressions(d, depth - 1)) for _ in range(2))
        op = draw(st.sampled_from(["+", "-"]))
        return f"({ta}) {op} ({tb})", ea + eb if op == "+" else ea - eb
    if kind == "product":
        a = draw(st.integers(0, d))
        (ta, ea), (tb, eb) = (
            draw(homogeneous_expressions(k, depth - 1)) for k in (a, d - a)
        )
        return f"({ta})*({tb})", ea * eb
    k = draw(st.sampled_from([k for k in range(1, d + 1) if d % k == 0]))
    text, expr = draw(homogeneous_expressions(d // k, depth - 1))
    return f"({text})^{k}", expr**k


class TestParser:
    @PROPERTY
    @given(st.integers(0, 12).flatmap(homogeneous_expressions))
    @example(
        (
            "-8*(x + 7*y)^12 + 4*(x - 1*y)^12 - 3/7*(x - 9*y)^12",
            -8 * (X + 7 * Y) ** 12 + 4 * (X - Y) ** 12 - sympy.Rational(3, 7) * (X - 9 * Y) ** 12,
        )
    )
    def test_coefficients_equal_sympy_expansion(self, case):
        text, expr = case
        p = parse_form(text)
        assert all(type(c) is F for c in p.coeffs)
        poly = sympy.Poly(sympy.expand(expr), X, Y)
        if poly.is_zero:
            assert p.is_zero
            return
        d = p.degree
        want = tuple(
            F(int(c.p), int(c.q))
            for c in (poly.coeff_monomial(X ** (d - j) * Y**j) for j in range(d + 1))
        )
        assert p.raw_coeffs() == want
        assert poly.total_degree() == d


class TestBoundedDivisors:
    @PROPERTY
    @given(
        st.one_of(
            st.integers(-(10**6), 10**6),
            st.integers(4090**2, 4100**2),
            st.integers(1, 10**12),
        )
    )
    @example(0)
    @example(4097**2 - 1)
    @example(4097**2)
    @example(4099 * 4111)  # two primes past the trial cap
    @example(2 * 4093)  # a prime just below the cap, times 2
    @example(2**40)
    @example(720720)  # many divisors
    def test_equals_trial_division(self, n):
        assert realroots._bounded_divisors(n) == trial_divisors(n)


planted_big = st.tuples(
    st.integers(-(10**4), 10**4).filter(bool), st.integers(1, 10**4)
)
planted_small = st.tuples(st.integers(-6, 6), st.integers(1, 6))


def _planted(roots, cofactor):
    """prod (den*t - num) * cofactor as a UniPoly."""
    cs = list(cofactor)
    for num, den in roots:
        cs = _conv(cs, [-num, den])
    return UniPoly(cs)


def _sympy_rational_roots(f):
    """The roots of the degree-1 factors in sympy's factorization over Q."""
    _, factors = sympy.Poly(_to_sympy(f.coeffs), T, domain="QQ").factor_list()
    return sorted(
        F(int(-c0.p * c1.q), int(c0.q * c1.p))
        for poly, _ in factors
        if poly.degree() == 1
        for c0, c1 in [(poly.all_coeffs()[1], poly.all_coeffs()[0])]
    )


class TestRationalRoots:
    @PROPERTY
    @given(
        planted_big,
        st.lists(planted_small, max_size=2),
        st.sampled_from([(1,), (1, 0, 1), (3, 0, 2), (5, 1, 1), (1, 0, 0, 2)]),
    )
    @example((9973, 9967), [], (1,))  # both past the trial cap, prime
    @example((-10**4, 9999), [(0, 1), (1, 1)], (1, 0, 1))
    def test_planted_against_sympy(self, big, small, cofactor):
        """One root with numerator and denominator up to 10^4 and small
        ones: every numerator and denominator has a cofactor within the
        divisor lists, so the result is complete."""
        f = _planted([big, *small], cofactor)
        assert rational_roots(f) == _sympy_rational_roots(f)

    @PROPERTY
    @given(st.lists(planted_big, min_size=1, max_size=3))
    @example([(4096, 4095), (-4093, 4091)])
    def test_complete_below_the_bound(self, roots):
        """Never a false root; every root when the lowest nonzero and the
        leading coefficient of the primitive f are below 4097^2."""
        f = _planted(roots, (1,))
        got, want = rational_roots(f), _sympy_rational_roots(f)
        assert set(got) <= set(want)
        cs = [c for c in f.primitive_int().coeffs if c]
        if abs(cs[0]) < 4097**2 and abs(cs[-1]) < 4097**2:
            assert got == want


# Linear forms of the planted sums: slopes -3..3 and the y-axis.
LINEAR_FORMS = [ProjLinearForm(F(1), F(b)) for b in range(-3, 4)] + [ProjLinearForm(F(0), F(1))]


@st.composite
def badge_forms(draw):
    """A form of degree 3..9: random coefficients, some with the x^d or y^d
    coefficient 0 (Sylvester forms with a root at infinity or at 0), or a
    planted sum of few powers, whose longer witnesses carry zero lambdas."""
    d = draw(st.integers(3, 9))
    if draw(st.booleans()):
        raw = [draw(st.integers(-9, 9)) for _ in range(d + 1)]
        for end in draw(st.sets(st.sampled_from([0, d]), max_size=1)):
            raw[end] = 0
        if not any(raw):
            raw[1] = 1
        return BinaryForm.from_raw(d, raw)
    terms = draw(
        st.lists(
            st.tuples(st.integers(-9, 9).filter(bool), st.integers(0, len(LINEAR_FORMS) - 1)),
            min_size=1,
            max_size=d // 2 + 1,
            unique_by=lambda term: term[1],
        )
    )
    return expand_exact(PowerSumRep(d, tuple((F(c), LINEAR_FORMS[k]) for c, k in terms)))


def _badge_witnesses(p):
    """The d+1 fallback, every valid form decide_pencil returns, and the
    valid forms of 4 pinning attempts at every r with kernel dim >= 3."""
    d = p.degree
    yield fallback_sylvester(d)
    rng = random.Random(0)
    for r in range(1, d + 1):
        basis = kernel_basis(hankel(p, r))
        if len(basis) == 1:
            vecs = [basis[0]]
        elif len(basis) == 2:
            yield from decide_pencil(basis[0], basis[1], r)
            continue
        else:
            attempts = itertools.islice(engine._pinned_candidates(basis, r, rng), 4)
            vecs = [vec for _, vec in attempts if vec is not None]
        for vec in vecs:
            try:
                yield validate_sylvester(vec, r)
            except SylvesterRejectionError:
                pass


def _check_tarski_badges(p):
    """Every witness's Tarski badge equals its solved one; returns which of
    (zero lambda, root at 0, root at infinity) the witnesses showed."""
    seen = set()
    for w in _badge_witnesses(p):
        dec = solve_coefficients(p, w)
        assert engine._tarski_badge(p, w) == dec.badge, w.coeffs
        if dec.rep.length < len(w.roots.finite) + w.roots.infinity_mult:
            seen.add("zero-lambda")
        if F(0) in w.roots.finite:
            seen.add("root-at-0")
        if w.roots.infinity_mult:
            seen.add("root-at-infinity")
    return seen


class TestTarskiBadge:
    # Each form solves every witness exactly, so fewer examples than PROPERTY.
    @settings(PROPERTY, max_examples=40)
    @given(badge_forms())
    @example(BinaryForm.from_raw(7, [0, 3, -1, 4, 0, 2, -5, 0]))
    @example(parse_form("x^3 + y^3"))
    def test_equals_solved_badge(self, p):
        _check_tarski_badges(p)

    def test_covers_zero_lambda_and_roots_at_zero_and_infinity(self):
        """Odd and even degrees, both ends of the form zero, and a short
        planted form, every case of the badge formula among them."""
        forms = [
            BinaryForm.from_raw(7, [0, 3, -1, 4, 0, 2, -5, 0]),
            BinaryForm.from_raw(6, [0, 1, 4, -2, 3, 5, 0]),
            parse_form("2*(x + y)^5 - 3*y^5"),
            parse_form("(x - 2*y)^8 + 5*x^8"),
        ]
        seen = set()
        for p in forms:
            seen |= _check_tarski_badges(p)
        assert seen == {"zero-lambda", "root-at-0", "root-at-infinity"}
