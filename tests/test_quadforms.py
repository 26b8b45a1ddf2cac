import random
from fractions import Fraction as F

import pytest
import sympy
from sympy.polys.matrices import DomainMatrix

from binforms import (
    DimensionMismatchError,
    OddDegreeError,
    RankOutOfRangeError,
    SymMatrix,
    catalecticant,
    catalecticant_value,
    hankel,
    inertia,
    inner_product,
    is_psd,
    kernel_basis,
    parse_form,
    substitute,
    width,
)
from binforms.engine import _resultant_t
from binforms.quadforms import charpoly_general, det_poly_matrix
from binforms.realroots import UniPoly
from oracles import charpoly, inertia_from_charpoly, square_linear_combo

Z = sympy.Symbol("z")


def to_sympy(f: UniPoly, var=Z):
    return sum(sympy.Rational(c) * var**i for i, c in enumerate(f.coeffs))


def random_symmetric(rng, n, bound=6):
    entries = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = F(rng.randint(-bound, bound), rng.randint(1, 3))
            entries[i][j] = entries[j][i] = v
    return SymMatrix(tuple(tuple(row) for row in entries))


def random_invertible(rng, n):
    while True:
        rows = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        if _det(rows) != 0:
            return rows


def _det(rows):
    n = len(rows)
    m = [row[:] for row in rows]
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


def congruent(m: SymMatrix, c):
    n = m.n
    out = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[i][j] = sum(
                c[k][i] * m[k, l] * c[l][j] for k in range(n) for l in range(n)
            )
    return SymMatrix(tuple(tuple(row) for row in out))


class TestCatalecticant:
    def test_section3_example(self):
        m = catalecticant(parse_form("8*x^4 + 48*x^2*y^2 - 8*y^4"))
        assert m.entries == ((8, 0, 8), (0, 8, 0), (8, 0, -8))

    def test_family_matrix(self):
        m = catalecticant(parse_form("6*x^5*y + 40*x^3*y^3 + 6*x*y^5"))
        assert m.entries == ((0, 1, 0, 2), (1, 0, 2, 0), (0, 2, 0, 1), (2, 0, 1, 0))

    def test_diagonal(self):
        m = catalecticant(parse_form("x^4 + y^4"))
        assert m.entries == ((1, 0, 0), (0, 0, 0), (0, 0, 1))

    def test_odd_degree_rejected(self):
        with pytest.raises(OddDegreeError):
            catalecticant(parse_form("x^3"))


class TestHankel:
    def test_sextic_two_rows(self):
        m = hankel(parse_form("6*x^5*y + 6*x*y^5"), 5)
        assert m.rows == ((0, 1, 0, 0, 0, 1), (1, 0, 0, 0, 1, 0))

    def test_full_row(self):
        p = parse_form("x^4 + 8*x^3*y + y^4")
        m = hankel(p, 4)
        assert m.rows == (tuple(p.coeffs),)

    def test_middle_matches_catalecticant(self):
        p = parse_form("x^4 + y^4")
        assert hankel(p, 2).rows == catalecticant(p).entries

    def test_range_check(self):
        with pytest.raises(RankOutOfRangeError):
            hankel(parse_form("x^4"), 5)


class TestInertia:
    def test_examples(self):
        assert inertia(catalecticant(parse_form("8*x^4 + 48*x^2*y^2 - 8*y^4"))).pair() == (2, 1)
        q2 = parse_form("6*x^5*y + 40*x^3*y^3 + 6*x*y^5")
        i = inertia(catalecticant(q2))
        assert (i.pos, i.neg, i.null) == (2, 2, 0)
        q1 = parse_form("6*x^5*y + 20*x^3*y^3 + 6*x*y^5")
        i = inertia(catalecticant(q1))
        assert (i.pos, i.neg, i.null) == (1, 1, 2)

    def test_zero_matrix(self):
        z = SymMatrix(((F(0),) * 3,) * 3)
        assert inertia(z).null == 3

    def test_congruence_invariance(self):
        rng = random.Random(31)
        for _ in range(60):
            n = rng.randint(1, 5)
            m = random_symmetric(rng, n)
            c = random_invertible(rng, n)
            assert inertia(congruent(m, c)).pair() == inertia(m).pair()

    def test_charpoly_oracle(self):
        rng = random.Random(37)
        for _ in range(60):
            n = rng.randint(1, 6)
            m = random_symmetric(rng, n)
            a, b = inertia(m), inertia_from_charpoly(m)
            assert (a.pos, a.neg, a.null) == (b.pos, b.neg, b.null)

    def test_substitution_invariance(self):
        rng = random.Random(41)
        for _ in range(15):
            d = rng.choice([4, 6])
            from binforms import BinaryForm

            p = BinaryForm.from_raw(d, [F(rng.randint(-5, 5)) for _ in range(d + 1)])
            if p.is_zero:
                continue
            while True:
                m = tuple(
                    tuple(F(rng.randint(-3, 3)) for _ in range(2)) for _ in range(2)
                )
                if m[0][0] * m[1][1] - m[0][1] * m[1][0] != 0:
                    break
            q = substitute(p, m)
            assert inertia(catalecticant(q)).pair() == inertia(catalecticant(p)).pair()


class TestKernel:
    def test_xy_kernel(self):
        basis = kernel_basis(hankel(parse_form("x^4 + y^4"), 2))
        assert basis == [(0, 1, 0)]

    def test_family_trivial_kernels(self):
        q2 = parse_form("6*x^5*y + 40*x^3*y^3 + 6*x*y^5")
        assert kernel_basis(hankel(q2, 3)) == []
        assert kernel_basis(catalecticant(q2)) == []

    def test_identity_kernel_empty(self):
        m = SymMatrix(((F(1), F(0)), (F(0), F(1))))
        assert kernel_basis(m) == []

    def test_kernel_vectors_annihilate(self):
        rng = random.Random(43)
        for _ in range(40):
            rows = [
                [F(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(rng.randint(2, 6))]
                for _ in range(rng.randint(1, 5))
            ]
            ncols = max(len(r) for r in rows)
            rows = [r + [F(0)] * (ncols - len(r)) for r in rows]
            basis = kernel_basis(rows)
            for vec in basis:
                for row in rows:
                    assert sum(a * b for a, b in zip(row, vec)) == 0
            # rank-nullity
            rank = ncols - len(basis)
            assert 0 <= rank <= min(len(rows), ncols)


def _sylvester_rows(f, g):
    """Sylvester matrix of two lists of t-coefficients, f's rows first."""
    n, m = len(f) - 1, len(g) - 1
    zero = UniPoly()
    return [
        [zero] * i + list(reversed(coeffs)) + [zero] * (count - 1 - i)
        for coeffs, count in ((f, m), (g, n))
        for i in range(count)
    ]


def _pencil_sylvester_matrices():
    """Res_t(h_u, h_u') matrices of planted pencils: p a sum of s+1 integer
    powers in degree d = 2s, h_u = b1 + u b2 over the kernel of hankel(p, s+1);
    sizes 2s+1 up to 17, entries linear in u with integer coefficients."""
    rng = random.Random(61)
    out = []
    for d in (8, 10, 12, 14, 16):
        s = d // 2
        terms = [
            f"({rng.choice([-1, 1]) * rng.randint(1, 9)})*(x + ({a})*y)^{d}"
            for a in rng.sample(range(-9, 10), s + 1)
        ]
        p = parse_form(" + ".join(terms))
        b1, b2 = kernel_basis(hankel(p, s + 1))
        h = [UniPoly([b1[s + 1 - i], b2[s + 1 - i]]) for i in range(s + 2)]
        out.append(_sylvester_rows(h, [h[i + 1] * (i + 1) for i in range(s + 1)]))
    return out


def _rational_mixed_matrices():
    """Rational entries: rows of different degrees, degree-2 entries, a zero row."""
    rng = random.Random(67)

    def entry(degree):
        return UniPoly([F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(degree + 1)])

    out = []
    for n in (2, 3, 4, 5):
        degrees = [rng.randint(0, 2) for _ in range(n)]
        m = [[entry(rng.randint(0, deg)) for _ in range(n)] for deg in degrees]
        m[0][0] = entry(2)
        out.append(m)
        zero_row = [row[:] for row in m]
        zero_row[n // 2] = [UniPoly()] * n
        out.append(zero_row)
    return out


class TestDeterminant:
    def test_antidiagonal_permutations(self):
        for n in (2, 3):
            m = [[UniPoly([int(i + j == n - 1)]) for j in range(n)] for i in range(n)]
            assert det_poly_matrix(m) == UniPoly([-1])

    def test_charpolys_are_monic(self):
        rng = random.Random(53)
        for n in range(1, 7):
            m = random_symmetric(rng, n)
            for chi in (charpoly(m), charpoly_general(m.entries)):
                assert chi.degree == n and chi.leading == 1

    def test_against_sympy(self):
        def check(m):
            n = len(m)
            dm = DomainMatrix.from_Matrix(sympy.Matrix(n, n, lambda i, j: to_sympy(m[i][j])))
            want = dm.domain.to_sympy(dm.det())
            got = det_poly_matrix(m)
            assert sympy.Poly(to_sympy(got), Z) == sympy.Poly(want, Z)
            return got

        for m in _pencil_sylvester_matrices() + _rational_mixed_matrices():
            check(m)
        rng = random.Random(59)
        for trial in range(48):
            n = rng.randint(1, 6)
            m = [
                [UniPoly([rng.randint(-3, 3) for _ in range(rng.randint(0, 3))]) for _ in range(n)]
                for _ in range(n)
            ]
            kind = trial % 3
            if kind == 1 and n >= 2:  # singular: last row a polynomial multiple of the first
                mult = UniPoly([rng.randint(-2, 2), 1])
                m[-1] = [e * mult for e in m[0]]
            elif kind == 2 and n >= 2:  # zero leading entry forces a row swap
                m[0][0] = UniPoly()
                m[-1][0] = UniPoly([1, 1])
            got = check(m)
            if kind == 1 and n >= 2:
                assert got.is_zero

    def test_resultant_matches_sympy(self):
        u, t = sympy.symbols("u t")
        pencils = [
            ([[1, 2], [0, 1], [3, -1]], [[2, 0], [1, 1]]),
            ([[0, 1], [1, 0], [0, 0], [1, 1]], [[1, 0], [0, 2], [3, 3]]),
            ([[-1, 1], [0, 0], [2, 1]], [[0, 1], [2, 2]]),
            ([[2, 1]], [[1, 0], [0, 1], [1, 1]]),  # constant f
        ]
        for f, g in pencils:
            fu = [UniPoly(c) for c in f]
            gu = [UniPoly(c) for c in g]
            want = sympy.resultant(
                sum(to_sympy(c, u) * t**k for k, c in enumerate(fu)),
                sum(to_sympy(c, u) * t**k for k, c in enumerate(gu)),
                t,
            )
            assert sympy.expand(to_sympy(_resultant_t(fu, gu), u) - want) == 0


class TestWidthPsd:
    def test_circle_powers(self):
        from binforms.families import circle_power

        for s in (1, 2, 3):
            w = width(circle_power(s))
            assert w.rank == s + 1 and w.cone == "p"

    def test_quartic_diagonal(self):
        w = width(parse_form("x^4 + y^4"))
        assert w.rank == 2 and w.cone == "p"

    def test_indefinite(self):
        w = width(parse_form("x^6 - y^6"))
        assert w.cone == "none"
        assert not is_psd(catalecticant(parse_form("x^6 - y^6")))

    def test_negative_cone(self):
        w = width(parse_form("-x^4 - y^4"))
        assert w.cone == "-p"


class TestCatalecticantValue:
    def test_corners(self):
        p = parse_form("x^4 + y^4")
        assert catalecticant_value(p, [1, 0, 0]) == 1
        p2 = parse_form("8*x^4 + 48*x^2*y^2 - 8*y^4")
        assert catalecticant_value(p2, [0, 0, 1]) == -8

    def test_inner_product_oracle(self):
        rng = random.Random(47)
        for _ in range(25):
            d = rng.choice([4, 6])
            s = d // 2
            from binforms import BinaryForm

            p = BinaryForm.from_raw(d, [F(rng.randint(-5, 5)) for _ in range(d + 1)])
            t = [F(rng.randint(-3, 3)) for _ in range(s + 1)]
            assert catalecticant_value(p, t) == inner_product(
                p, square_linear_combo(t, s)
            )

    def test_dimension_check(self):
        with pytest.raises(DimensionMismatchError):
            catalecticant_value(parse_form("x^4"), [1, 2])
