import math
import pickle
import random
from fractions import Fraction as F

import pytest
import sympy

import binforms.realroots as realroots
from binforms.errors import ZeroPolynomialError
from binforms.realroots import (
    RealAlgebraic,
    UniPoly,
    deflate_rational_roots,
    rational_roots,
)

T = sympy.Symbol("t")


def to_sympy(f: UniPoly):
    return sum(sympy.Rational(c) * T**i for i, c in enumerate(f.coeffs))


def random_poly(rng, degree, bound=6):
    while True:
        cs = [F(rng.randint(-bound, bound)) for _ in range(degree + 1)]
        if cs[-1] != 0:
            return UniPoly(cs)


class TestUniPoly:
    def test_arithmetic(self):
        f = UniPoly([1, 2, 3])
        g = UniPoly([0, 1])
        assert (f * g).coeffs == (0, 1, 2, 3)
        assert (f + g).coeffs == (1, 3, 3)
        assert f(F(2)) == 1 + 4 + 12

    def test_divmod_exact(self):
        f = UniPoly([-1, 0, 1])  # t^2 - 1
        g = UniPoly([-1, 1])  # t - 1
        q, r = f.divmod(g)
        assert r.is_zero and q.coeffs == (1, 1)

    def test_gcd(self):
        f = UniPoly([-1, 0, 1]) * UniPoly([-1, 1])  # (t^2-1)(t-1)
        g = f.gcd(f.derivative())
        assert g.monic().coeffs == (-1, 1)

    def test_zero_rejections(self):
        with pytest.raises(ZeroPolynomialError):
            UniPoly().squarefree_part()
        with pytest.raises(ZeroPolynomialError):
            UniPoly().count_real_roots()


class TestSquarefree:
    def test_power(self):
        assert UniPoly([0, 0, 0, 0, 1]).squarefree_part().coeffs == (0, 1)

    def test_product(self):
        f = UniPoly([-1, 0, 1]) * UniPoly([-1, 1])
        sf = f.squarefree_part()
        assert sf.monic().coeffs == (1, 0, -1)[::-1] or sf.monic() == UniPoly([-1, 0, 1]).monic()

    def test_already_squarefree(self):
        f = UniPoly([1, 0, 1])
        assert f.squarefree_part().monic() == f.monic()

    def test_memoized_without_self_reference(self):
        f = UniPoly([-2, 0, 1])
        assert f.squarefree_part() is f
        g = f * f * UniPoly([F(1, 2), 1])
        sf = g.squarefree_part()
        assert sf is g.squarefree_part()
        assert sf == (f * UniPoly([1, 2])).primitive_int()
        copy = pickle.loads(pickle.dumps(f))
        assert copy == f and copy.squarefree_part() is copy

    def test_divides(self):
        rng = random.Random(2)
        for _ in range(20):
            f = random_poly(rng, rng.randint(2, 5))
            g = f.gcd(f.derivative())
            sf = f.squarefree_part()
            prod = sf * g
            # sf * gcd(f, f') is a scalar multiple of f
            q, r = f.divmod(prod)
            assert r.is_zero and q.degree == 0


class TestCounting:
    def test_cofactor_quartic(self):
        f = UniPoly([1, 0, F(-10, 3), 0, 1])
        assert f.count_real_roots() == 4

    def test_definite(self):
        assert UniPoly([1, 0, 1]).count_real_roots() == 0

    def test_interval(self):
        assert UniPoly([-2, 0, 1]).count_real_roots(F(0), F(2)) == 1

    def test_interval_endpoints(self):
        f = UniPoly([0, -1, 0, 1])  # t(t-1)(t+1)
        assert f.count_real_roots(F(-1), F(1)) == 3
        assert f.count_real_roots(F(0), F(1)) == 2

    def test_repeated_roots_counted_once(self):
        rng = random.Random(19)
        for _ in range(20):
            f = UniPoly([rng.randint(1, 3)])
            distinct = set()
            for _ in range(rng.randint(1, 4)):
                v = rng.randint(-4, 4)
                distinct.add(v)
                for _ in range(rng.randint(1, 3)):
                    f = f * UniPoly([-v, 1])
            f = f * UniPoly([rng.randint(1, 5), 0, 1])  # no real roots
            assert f.count_real_roots() == len(distinct)
            g = f.gcd(f.derivative())
            assert UniPoly(f._int_chain()[-1]).monic() == g

    def test_against_sympy(self):
        rng = random.Random(17)
        for _ in range(40):
            f = random_poly(rng, rng.randint(1, 6))
            expected = len(sympy.Poly(to_sympy(f), T).real_roots())
            distinct = len(set(sympy.Poly(to_sympy(f), T).real_roots()))
            assert f.count_real_roots() == distinct

    def test_interval_counts_against_sympy(self):
        rng = random.Random(41)

        def rat():
            return F(rng.randint(-40, 40), rng.randint(1, 4))

        for k in range(200):
            roots = [F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(rng.randint(1, 4))]
            f = UniPoly([rng.choice([-1, 1]) * rng.randint(1, 9)])
            for rho in roots:  # every third polynomial has repeated roots
                for _ in range(rng.randint(2, 3) if k % 3 == 0 else 1):
                    f = f * UniPoly([-rho, 1])
            f = f * random_poly(rng, rng.randint(0, 4))
            mode = k % 6
            if mode == 0:  # root at lo
                lo = rng.choice(roots)
                hi = lo + abs(rat())
            elif mode == 1:  # root at hi
                hi = rng.choice(roots)
                lo = hi - abs(rat())
            elif mode == 2:  # roots at both ends (lo == hi for a single root)
                lo, hi = min(roots), max(roots)
            elif mode == 3:  # lo == hi, on a root every other time
                lo = hi = rng.choice(roots) if k % 2 else rat()
            elif mode == 4:
                lo, hi = None, rng.choice([rat(), rng.choice(roots)])
            else:
                lo, hi = rng.choice([rat(), rng.choice(roots)]), None
            if lo is None or hi is None:  # one bound alone is refused
                with pytest.raises(ValueError):
                    f.count_real_roots(lo, hi)
                continue
            want = sympy.Poly(to_sympy(f), T).count_roots(sympy.Rational(lo), sympy.Rational(hi))
            assert f.count_real_roots(lo, hi) == want, (f, lo, hi)

    def test_one_bound_raises(self):
        f = UniPoly([-2, 0, 1])
        for lo, hi in ((F(0), None), (None, F(2))):
            with pytest.raises(ValueError, match="both bounds or neither"):
                f.count_real_roots(lo, hi)

    def test_chain_built_once(self, monkeypatch):
        calls = []
        real = realroots._int_sturm_chain

        def counted(f):
            calls.append(f)
            return real(f)

        monkeypatch.setattr(realroots, "_int_sturm_chain", counted)
        f = UniPoly([2, -4, 0, 0, 0, 1])  # t^5 - 4t + 2: three real roots, irreducible
        cur = RealAlgebraic.isolate(f)[1]
        for step in range(50):
            cur = cur.refined()
            if step % 5 == 0:
                assert cur.defining.count_real_roots(cur.lo, cur.hi) == 1
                assert cur.defining.count_real_roots(cur.lo - 4, cur.hi) == 2
        assert len(calls) == 1


def _rational_sturm_chain(f: UniPoly):
    """Sturm chain by the rational recurrence: (-(f_{i-1} rem f_i)).primitive_int()."""
    f = f.primitive_int()
    chain = [f, f.derivative().primitive_int()]
    while not chain[-1].is_zero and chain[-1].degree > 0:
        r = chain[-2].rem(chain[-1])
        if r.is_zero:
            break
        chain.append((-r).primitive_int())
    return [g for g in chain if not g.is_zero]


def _seeded_integer_polys(count=200):
    """Degrees 1..12, products of factors with coefficients up to 10^6;
    plain, with a repeated root, a complex pair or a zero constant term in turn."""
    rng = random.Random(31)
    out = []
    for k in range(count):
        degree = 1 + k % 12
        kind = k % 4
        f = UniPoly([rng.choice([-1, 1]) * rng.randint(1, 10**6)])
        while f.degree < degree:
            room = degree - f.degree
            if kind == 1 and room >= 2:  # a repeated rational root
                lin = UniPoly([rng.randint(-9, 9), rng.randint(1, 5)])
                f = f * lin * lin
            elif kind == 2 and room >= 2:  # a complex conjugate pair
                b = rng.randint(-50, 50)
                f = f * UniPoly([b * b + rng.randint(1, 10**4), 2 * b, 1])
            elif kind == 3 and f.degree == 0:  # zero constant term
                f = f * UniPoly([0, 1])
            else:
                cs = [rng.randint(-(10**6), 10**6) for _ in range(room)] + [1]
                f = f * UniPoly(cs)
        out.append(f)
    return out


class TestIntegerSturmChain:
    def test_against_sympy(self):
        for f in _seeded_integer_polys():
            chain = f._int_chain()
            sp = sympy.Poly(to_sympy(f), T)
            assert f.count_real_roots() == sp.sqf_part().count_roots()
            assert (len(chain[-1]) == 1) == sp.is_sqf

    def test_entries_primitive_and_equal_to_rational_recurrence(self):
        """Each integer entry is the primitive form of its rational Sturm
        remainder: a positive factor of it with content 1."""
        for f in _seeded_integer_polys():
            chain = f._int_chain()
            want = _rational_sturm_chain(f)
            assert [g[-1] > 0 for g in chain] == [w.leading > 0 for w in want]
            assert [UniPoly(g) for g in chain] == want
            for g in chain:
                assert all(type(c) is int for c in g) and math.gcd(*g) == 1

    def test_edge_cases(self):
        with pytest.raises(ZeroPolynomialError):
            UniPoly().count_real_roots()
        assert UniPoly([-6])._int_chain() == [[-1]]
        assert UniPoly([4, -6])._int_chain() == [[2, -3], [-1]]


class TestIsolation:
    def test_sqrt2(self):
        f = UniPoly([-2, 0, 1])
        roots = RealAlgebraic.isolate(f)
        assert len(roots) == 2
        assert roots[0].sign() == -1 and roots[1].sign() == 1
        for r in roots:
            assert f(r.lo) * f(r.hi) < 0

    def test_rational_roots_bracketed(self):
        roots = RealAlgebraic.isolate(UniPoly([0, -1, 0, 1]))
        assert len(roots) == 3
        for r, val in zip(roots, (-1, 0, 1)):
            assert r.lo < val < r.hi

    def test_random_products(self):
        rng = random.Random(23)
        for _ in range(15):
            vals = rng.sample(range(-8, 9), rng.randint(2, 5))
            f = UniPoly([1])
            for v in vals:
                f = f * UniPoly([-v, 1])
            roots = RealAlgebraic.isolate(f)
            assert len(roots) == len(vals)
            for r, v in zip(roots, sorted(vals)):
                assert r.lo < v < r.hi
            assert f.count_real_roots() == len(vals)

    def test_clustered_roots(self):
        # 1/3 and 1/3 + 2^-1200 split only after about 1200 bisections
        gap = F(1, 2**1200)
        f = UniPoly([-1, 3]) * UniPoly([-(F(1, 3) + gap), 1])
        roots = RealAlgebraic.isolate(f)
        assert len(roots) == 2
        assert roots[0].lo < F(1, 3) < roots[0].hi <= roots[1].lo
        assert roots[1].lo < F(1, 3) + gap < roots[1].hi

    def test_refinement_stability(self):
        roots = RealAlgebraic.isolate(UniPoly([-2, 0, 1]))
        pos = roots[1]
        finer = pos.refined(30)
        assert pos.lo <= finer.lo <= finer.hi <= pos.hi
        assert finer.width < F(1, 10**8)
        assert finer == pos


class TestSignAt:
    def test_shared_root(self):
        root2 = RealAlgebraic.isolate(UniPoly([-2, 0, 1]))[1]
        assert root2.sign_of_poly(UniPoly([-2, 0, 1])) == 0

    def test_positive(self):
        root2 = RealAlgebraic.isolate(UniPoly([-2, 0, 1]))[1]
        assert root2.sign_of_poly(UniPoly([0, 1])) == 1

    def test_cube(self):
        root2 = RealAlgebraic.isolate(UniPoly([-2, 0, 1]))[1]
        assert root2.sign_of_poly(UniPoly([-2, 0, 0, 1])) == 1
        assert root2.sign_of_poly(UniPoly([-2, 0, 0, -1])) == -1

    def test_rational_point(self):
        assert UniPoly([-2, 1]).sign_at_rational(F(3)) == 1
        assert UniPoly([-2, 1]).sign_at_rational(F(2)) == 0


class TestComparison:
    def test_cross_poly_equality(self):
        a = RealAlgebraic(UniPoly([-2, 0, 1]), F(1), F(2))
        b = RealAlgebraic(UniPoly([2, 0, -1]) * UniPoly([-1, 1]), F(1, 2), F(10, 7))
        assert a == b

    def test_order(self):
        root2 = RealAlgebraic(UniPoly([-2, 0, 1]), F(1), F(2))
        root3 = RealAlgebraic(UniPoly([-3, 0, 1]), F(1), F(2))
        assert root2 < root3
        assert root2.cmp_rational(F(3, 2)) < 0
        assert root2.cmp_rational(F(7, 5)) > 0

    def test_mixed_scalar_cmp(self):
        root2 = RealAlgebraic(UniPoly([-2, 0, 1]), F(1), F(2))
        assert F(1) < root2 and not F(1) > root2 and F(1) != root2
        assert root2 > F(1) and root2 < F(2) and 1 < root2 < 2
        assert F(3, 2) > root2 and root2 != F(3, 2)
        assert F(2) == F(2)
        assert sorted([F(3, 2), root2, F(1)]) == [F(1), root2, F(3, 2)]

    def test_comparisons_stable_under_refinement(self):
        a = RealAlgebraic(UniPoly([-2, 0, 1]), F(1), F(2))
        b = RealAlgebraic(UniPoly([-5, 0, 0, 1]), F(1), F(2))  # cbrt(5)
        first = a < b
        assert (a.refined(20) < b.refined(20)) == first


class TestAlgebraicArithmetic:
    def test_negation(self):
        root2 = RealAlgebraic(UniPoly([-2, 0, 1]), F(1), F(2))
        assert (-root2).sign() == -1
        assert -(-root2) == root2

    def test_reciprocal(self):
        root2 = RealAlgebraic(UniPoly([-2, 0, 1]), F(1), F(2))
        half = root2.reciprocal()
        assert half.sign() == 1
        # 1/sqrt(2) squared is 1/2
        assert half.sign_of_poly(UniPoly([F(-1, 2), 0, 1])) == 0

    def test_scaled(self):
        root2 = RealAlgebraic(UniPoly([-2, 0, 1]), F(1), F(2))
        threeroot2 = root2.scaled(F(3))
        assert threeroot2.sign_of_poly(UniPoly([-18, 0, 1])) == 0

    def test_sign_of_zero(self):
        zero_root = RealAlgebraic.isolate(UniPoly([0, -1, 0, 1]))[1]
        assert zero_root.sign() == 0


class TestRationalRoots:
    def test_complete_extraction(self):
        f = UniPoly([1])
        for v in (F(1, 2), F(-3), F(5)):
            f = f * UniPoly([-v, 1])
        f = f * UniPoly([1, 0, 1])  # irreducible factor
        roots = rational_roots(f)
        assert roots == [F(-3), F(1, 2), F(5)]
        rats, cof = deflate_rational_roots(f)
        assert rats == roots and cof.monic() == UniPoly([1, 0, 1]).monic()
    def test_against_sympy(self):
        rng = random.Random(23)
        for k in range(60):
            f = UniPoly([rng.choice([2, 3, 6, 7, 12])])  # never monic
            for _ in range(rng.randint(0, 4)):
                num, den = rng.randint(-15, 15), rng.randint(1, 10)
                for _ in range(rng.randint(1, 3)):  # repeated roots
                    f = f * UniPoly([-num, den])
            if k % 3 == 0:
                for _ in range(rng.randint(1, 2)):  # zero root
                    f = f * UniPoly([0, 1])
            if k % 2 == 0:
                f = f * UniPoly([rng.randint(1, 9), rng.randint(-3, 3), 2])
            expected = []
            for fac, _mult in sympy.factor_list(to_sympy(f), T)[1]:
                lin = sympy.Poly(fac, T)
                if lin.degree() == 1:
                    root = -lin.nth(0) / lin.nth(1)
                    expected.append(F(int(root.p), int(root.q)))
            assert rational_roots(f) == sorted(expected)

    def test_divisor_lists_built_once(self, monkeypatch):
        calls = []
        real = realroots._bounded_divisors

        def counted(n):
            calls.append(n)
            return real(n)

        monkeypatch.setattr(realroots, "_bounded_divisors", counted)
        # constant term 2^4 * 3^2 * 5 * 7 has 60 divisors
        f = UniPoly([-24, 5]) * UniPoly([-105, 4]) * UniPoly([1, 0, 3])
        assert rational_roots(f) == [F(24, 5), F(105, 4)]
        assert len(calls) == 2
