"""Exact univariate real-root machinery over the rationals.

Dense rational polynomials, Sturm chains, root counting and isolation,
rational interval arithmetic, and real algebraic numbers given by a
squarefree integer defining polynomial plus an isolating interval.
One primitive integer remainder sequence (`_int_prs`) is the only gcd
path: the Sturm chain of f is the sequence of f and f', and every gcd,
squarefree part and root multiplicity is read off the last entry of such
a sequence.  Interval enclosures run on integer numerators over a common
denominator, and rational roots are candidates s/den that pass the integer
tests den - s | f(1) and den + s | f(-1) before any evaluation.  All
answers are exact; no floating point is used anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd as int_gcd
from math import isqrt, lcm
from typing import Iterable, Optional, Union

from .errors import ZeroPolynomialError

Rat = Fraction
Scalar = Union[Fraction, "RealAlgebraic"]

# Trial division stops at this divisor.  The divisor lists it leaves
# incomplete only cost us the rational-root shortcut, never correctness.
_TRIAL_DIVISION_CAP = 4096


def _rat(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class UniPoly:
    """Univariate polynomial with exact rational coefficients, ascending order."""

    # Memoized, never pickled: _sqf is the squarefree part (_SELF when that is
    # this polynomial); _chain is the primitive integer Sturm chain of
    # primitive_int(), or only its first entry until the rest is needed.
    __slots__ = ("coeffs", "_sqf", "_chain")

    def __init__(self, coeffs: Iterable = ()):
        cs = [_rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)
        self._sqf = self._chain = None

    def __reduce__(self):
        return (UniPoly, (self.coeffs,))

    @staticmethod
    def from_sturm_chain(chain) -> "UniPoly":
        """The squarefree polynomial chain[0] of an integer Sturm chain
        (as built by _int_sturm_chain), keeping the chain."""
        out = UniPoly(chain[0])
        out._chain = chain
        out._sqf = _SELF
        return out

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise ZeroPolynomialError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other):
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"UniPoly({list(self.coeffs)})"

    def __add__(self, other: "UniPoly") -> "UniPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UniPoly(out)

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __neg__(self) -> "UniPoly":
        return UniPoly([-c for c in self.coeffs])

    def __mul__(self, other) -> "UniPoly":
        if isinstance(other, (int, Fraction)):
            return UniPoly([c * other for c in self.coeffs])
        if self.is_zero or other.is_zero:
            return UniPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def shift_up(self, k: int) -> "UniPoly":
        """Multiply by t**k."""
        if self.is_zero:
            return self
        return UniPoly([Fraction(0)] * k + list(self.coeffs))

    def derivative(self) -> "UniPoly":
        return UniPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, x: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def eval_interval(self, iv: "RatInterval") -> "RatInterval":
        """Interval Horner enclosure of f over iv: acc <- acc * iv + c.

        Runs on integer numerators over the common denominator C * D**k, C
        the lcm of the coefficient denominators and D that of the endpoints.
        Scaling by a positive constant keeps the order of the four products,
        so the endpoints are exactly those of the Horner recurrence over
        rational intervals; the two Fractions are built only at the end.
        """
        cs = self.coeffs
        if not cs:
            return RatInterval.point(Fraction(0))
        den = lcm(iv.lo.denominator, iv.hi.denominator)
        lo = iv.lo.numerator * (den // iv.lo.denominator)
        hi = iv.hi.numerator * (den // iv.hi.denominator)
        cden = lcm(*(c.denominator for c in cs))
        a = b = cs[-1].numerator * (cden // cs[-1].denominator)
        scale = 1
        for c in reversed(cs[:-1]):
            scale *= den
            prods = (a * lo, a * hi, b * lo, b * hi)
            k = c.numerator * (cden // c.denominator) * scale
            a, b = min(prods) + k, max(prods) + k
        scale *= cden
        return RatInterval(Fraction(a, scale), Fraction(b, scale))

    def divmod(self, other: "UniPoly"):
        """Exact rational division with remainder."""
        if other.is_zero:
            raise ZeroPolynomialError("division by the zero polynomial")
        q = [Fraction(0)] * max(0, self.degree - other.degree + 1)
        r = list(self.coeffs)
        dlead = other.leading
        dd = other.degree
        while len(r) - 1 >= dd and any(c != 0 for c in r):
            while r and r[-1] == 0:
                r.pop()
            if len(r) - 1 < dd:
                break
            k = len(r) - 1 - dd
            f = r[-1] / dlead
            q[k] = f
            for i, c in enumerate(other.coeffs):
                r[k + i] -= f * c
            r.pop()
        return UniPoly(q), UniPoly(r)

    def rem(self, other: "UniPoly") -> "UniPoly":
        return self.divmod(other)[1]

    def monic(self) -> "UniPoly":
        if self.is_zero:
            return self
        lead = self.leading
        return UniPoly([c / lead for c in self.coeffs])

    def primitive_int(self) -> "UniPoly":
        """Scale to integer coefficients with content 1, preserving sign."""
        if self.is_zero:
            return self
        return UniPoly(_primitive_int_coeffs(self.coeffs))

    def _ints(self):
        """Coefficients of primitive_int() as Python integers, memoized as
        the first entry of the Sturm chain; the polynomial must be nonzero."""
        if self._chain is None:
            self._chain = [_primitive_int_coeffs(self.coeffs)]
        return self._chain[0]

    def _int_chain(self):
        """Primitive integer Sturm chain of primitive_int(), built once; the
        polynomial must be nonzero."""
        chain = self._chain
        if chain is None or (len(chain) == 1 and len(chain[0]) > 1):
            chain = self._chain = _int_sturm_chain(self._ints())
        return chain

    def sign_at_rational(self, x) -> int:
        """Sign of f(x) for a rational x = p/q: the sign of q**n f(p/q)."""
        if self.is_zero:
            return 0
        v = _int_homog_eval(self._ints(), x.numerator, x.denominator)
        return (v > 0) - (v < 0)

    def gcd(self, other: "UniPoly") -> "UniPoly":
        """Monic gcd over the rationals (1 for coprime, 0 only if both zero):
        the last entry of the integer remainder sequence, made monic."""
        a, b = self, other
        if a.is_zero:
            a, b = b, a
        if a.is_zero:
            return a
        return UniPoly(_int_prs(a._ints(), [] if b.is_zero else b._ints())[-1]).monic()

    def squarefree_part(self) -> "UniPoly":
        """Primitive integer polynomial with the same roots, all simple.

        Memoized; a polynomial that is its own squarefree part returns itself.
        """
        if self.is_zero:
            raise ZeroPolynomialError("zero polynomial has no squarefree part")
        sqf = self._sqf
        if sqf is None:
            sqf = self._sqf = self._squarefree_part()
        return self if sqf is _SELF else sqf

    def _squarefree_part(self):
        """f / gcd(f, f') over Z, the gcd read off the end of the Sturm chain
        of f = primitive_int(); _SELF when that is this polynomial."""
        if self.degree <= 0:
            return UniPoly([1])
        chain = self._int_chain()
        f, g = chain[0], chain[-1]
        if len(g) == 1:
            if self.coeffs == tuple(f):
                return _SELF
            return UniPoly.from_sturm_chain(chain)
        h = _int_exact_div(f, g)
        if (h[-1] > 0) != (f[-1] > 0):
            h = [-c for c in h]
        return UniPoly(h)

    def reversed_poly(self) -> "UniPoly":
        """t**deg * f(1/t); drops roots at zero."""
        return UniPoly(list(reversed(self.coeffs)))

    def sturm_chain(self):
        """Sturm chain of f, f', ..., content-stripped each step.

        The last entry is gcd(f, f') up to a constant, so f is squarefree iff
        that entry is a constant.  Either way the chain counts the distinct
        real roots.  Built once as a primitive integer remainder sequence;
        every entry is the primitive integer form of the rational Sturm
        remainder.
        """
        if self.is_zero:
            return []
        return [UniPoly(g) for g in self._int_chain()]

    def count_real_roots(
        self, lo: Optional[Fraction] = None, hi: Optional[Fraction] = None
    ) -> int:
        """Distinct real roots on the whole line or the closed interval [lo, hi].

        On the Sturm chain of the squarefree part, V(a) - V(b) counts the
        roots in (a, b], so a root at lo is added on its own.
        """
        if self.is_zero:
            raise ZeroPolynomialError("root counting needs a nonzero polynomial")
        if lo is None and hi is None:
            return _int_sturm_count(self._int_chain())
        g = self.squarefree_part()
        chain = g._int_chain()
        if lo is None:
            n = _variations_at_infinity(chain, -1)
        else:
            n = _variations_at(chain, lo)
            if g.sign_at_rational(lo) == 0:
                n += 1
        if hi is None:
            n -= _variations_at_infinity(chain, 1)
        else:
            n -= _variations_at(chain, hi)
        return n


# Marks a polynomial as its own squarefree part (UniPoly._sqf) without a
# reference from the polynomial to itself.
_SELF = object()


def _primitive_int_coeffs(coeffs):
    """Rational coefficients scaled to integers with content 1, sign kept."""
    den = lcm(*(c.denominator for c in coeffs))
    return _int_primitive([c.numerator * (den // c.denominator) for c in coeffs])


def _variations_at(chain, x) -> int:
    """Sign changes of an integer chain at the rational x, zeros dropped."""
    p, q = x.numerator, x.denominator
    return sign_variations([_int_homog_eval(cs, p, q) for cs in chain])


def _variations_at_infinity(chain, side: int) -> int:
    """Sign changes of a chain of coefficient sequences at +oo (side 1) or
    -oo (side -1): the signs of lc * side**degree."""
    return sign_variations([cs[-1] * side ** (len(cs) - 1) for cs in chain])


def _int_sturm_count(chain) -> int:
    return _variations_at_infinity(chain, -1) - _variations_at_infinity(chain, 1)


def sturm_count(chain) -> int:
    """Distinct real roots of chain[0] read off its Sturm chain: V(-oo) - V(+oo)."""
    return _int_sturm_count([g.coeffs for g in chain])


def _int_primitive(cs):
    """Integer coefficients divided by their (positive) content."""
    g = int_gcd(*cs)
    return [c // g for c in cs] if g > 1 else cs


def _int_neg_prem(a, b):
    """-(|lc b|**k * (a rem b)) over Z, where k is the number of reduction steps.

    A positive multiple of minus the rational remainder, so its primitive
    part is exactly the next entry of the rational Sturm chain.
    """
    r = list(a)
    lb = b[-1]
    alb = abs(lb)
    sb = 1 if lb > 0 else -1
    db = len(b) - 1
    while len(r) > db:
        lr = r.pop() * sb
        k = len(r) - db
        if alb != 1:
            r = [alb * c for c in r]
        for i in range(db):
            r[k + i] -= lr * b[i]
        while r and not r[-1]:
            r.pop()
    return [-c for c in r]


def _int_exact_div(f, g):
    """f / g for integer coefficient lists when the quotient is integral."""
    r = list(f)
    lg, dg = g[-1], len(g) - 1
    q = [0] * (len(f) - dg)
    for k in reversed(range(len(q))):
        c = q[k] = r[k + dg] // lg
        for i in range(dg + 1):
            r[k + i] -= c * g[i]
    return q


def _int_prs(a, b):
    """Primitive negated pseudo-remainder sequence a, b, -prem(a, b), ...
    of integer coefficient lists (ascending; a nonzero, b possibly empty),
    every entry after a made primitive (Collins 1967; Brown-Traub 1971).

    The last entry is gcd(a, b) up to a constant.  Each entry is a positive
    multiple of the rational Euclidean remainder, negated, so with b = a'
    this is the Sturm chain of a.
    """
    chain = [a]
    if b:
        chain.append(_int_primitive(b))
    while len(chain) > 1 and len(chain[-1]) > 1:
        r = _int_neg_prem(chain[-2], chain[-1])
        if not r:
            break
        chain.append(_int_primitive(r))
    return chain


def _int_sturm_chain(f):
    """Primitive integer Sturm chain of a primitive integer coefficient list
    f (ascending, nonzero): the remainder sequence of f and f'."""
    return _int_prs(f, [i * c for i, c in enumerate(f)][1:])


def sign_variations(values) -> int:
    """Sign changes in a sequence of rationals, zeros dropped."""
    signs = [1 if v > 0 else -1 for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)


def _bounded_divisors(n: int):
    """Positive divisors of |n|, ascending: every divisor d with d * d <= |n|
    and d <= _TRIAL_DIVISION_CAP, then the cofactors |n| // d of those.
    That is every divisor when |n| < (_TRIAL_DIVISION_CAP + 1)**2.

    Trial division by 2 and odd numbers up to the cap factors out every
    prime up to it; whatever is left past the cap has only larger prime
    factors, so no divisor within the cap involves it.
    """
    n = abs(n)
    if n == 0:
        return [1]
    limit = min(isqrt(n), _TRIAL_DIVISION_CAP)
    small = [1]
    m, p = n, 2
    while p * p <= m and p <= _TRIAL_DIVISION_CAP:
        if m % p == 0:
            powers = []
            while m % p == 0:
                m //= p
                powers.append(p ** (len(powers) + 1))
            small += [d * q for d in small for q in powers if d * q <= limit]
        p += 1 if p == 2 else 2
    if 1 < m <= limit:
        small += [d * m for d in small if d * m <= limit]
    small.sort()
    return small + [n // d for d in reversed(small) if d * d != n]


def rational_roots(f: UniPoly):
    """Rational roots of f, sorted.

    A root s/den in lowest terms of the primitive integer f makes den*t - s
    a factor of f over Z (Gauss's lemma).  So s divides the lowest nonzero
    coefficient a_0, den divides the leading coefficient a_n, and the
    integers den - s and den + s divide f(1) and f(-1).  Candidates come from
    the divisor lists of a_0 and a_n; only those passing the two
    divisibility tests are evaluated.

    Completeness: a root s/den (lowest terms, s != 0) is returned exactly
    when some g >= 1 puts g*|s| in _bounded_divisors(a_0) and g*den in
    _bounded_divisors(a_n).  Those lists hold every divisor of a number
    below 4097**2, so every rational root is returned when |a_0| and |a_n|
    are both below 4097**2 = 16,785,409.  A root at 0 is always returned.
    """
    if f.is_zero:
        raise ZeroPolynomialError("zero polynomial")
    cs = list(f._ints())
    roots = []
    if cs[0] == 0:
        roots.append(Fraction(0))
        while not cs[0]:
            cs.pop(0)
    if len(cs) <= 1:
        return roots
    at_one = sum(cs)
    at_minus_one = sum(cs[0::2]) - sum(cs[1::2])
    # Past the trial cap a divisor list can miss the reduced form of a pair,
    # so each pair is reduced and each value tested once.
    qs = _bounded_divisors(cs[-1])
    tried = set()
    for p in _bounded_divisors(cs[0]):
        for q in qs:
            g = int_gcd(p, q)
            num, den = p // g, q // g
            if (num, den) in tried:
                continue
            tried.add((num, den))
            for s in (num, -num):
                if (
                    _divides(den - s, at_one)
                    and _divides(den + s, at_minus_one)
                    and _int_homog_eval(cs, s, den) == 0
                ):
                    roots.append(Fraction(s, den))
    return sorted(roots)


def _divides(a: int, b: int) -> bool:
    """a | b over the integers (0 divides only 0)."""
    return b % a == 0 if a else b == 0


def _int_homog_eval(cs, p: int, q: int) -> int:
    """q**n * f(p/q) for the ascending integer coefficients cs of f, degree n."""
    acc, qpow = cs[-1], 1
    for c in reversed(cs[:-1]):
        qpow *= q
        acc = acc * p + c * qpow
    return acc


def deflate_rational_roots(f: UniPoly):
    """Split f into (rational roots of the squarefree part, cofactor with no rational roots)."""
    g = f.squarefree_part()
    roots = rational_roots(g)
    if not roots and g.degree != 1:
        return roots, g
    # By Gauss's lemma each quotient of the primitive g by the primitive
    # q*t - p is primitive with integer coefficients and the sign of g.
    cs = g._ints()
    for r in roots:
        cs = _int_exact_div(cs, [-r.numerator, r.denominator])
    if len(cs) == 2:  # a root past rational_roots' divisor bound
        roots = sorted([*roots, Fraction(-cs[0], cs[1])])
        cs = [1 if cs[1] > 0 else -1]
    return roots, UniPoly(cs)


@dataclass(frozen=True)
class RatInterval:
    """Closed interval with rational endpoints."""

    lo: Fraction
    hi: Fraction

    @staticmethod
    def point(q: Fraction) -> "RatInterval":
        q = _rat(q)
        return RatInterval(q, q)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def __add__(self, other: "RatInterval") -> "RatInterval":
        return RatInterval(self.lo + other.lo, self.hi + other.hi)

    def __neg__(self) -> "RatInterval":
        return RatInterval(-self.hi, -self.lo)

    def __sub__(self, other: "RatInterval") -> "RatInterval":
        return self + (-other)

    def __mul__(self, other: "RatInterval") -> "RatInterval":
        prods = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return RatInterval(min(prods), max(prods))

    def contains(self, q: Fraction) -> bool:
        return self.lo <= q <= self.hi

    def sign(self) -> Optional[int]:
        """Definite sign of every point, or None if the interval spans zero."""
        if self.lo > 0:
            return 1
        if self.hi < 0:
            return -1
        if self.lo == self.hi == 0:
            return 0
        return None


@dataclass(frozen=True, eq=False)
class RealAlgebraic:
    """Real algebraic number: squarefree integer polynomial with exactly one
    root in the open interval (lo, hi); the endpoints are not roots.

    Values are immutable; refinement returns a new value.  Comparisons with
    rationals and other algebraic numbers are exact and always terminate.
    """

    defining: UniPoly
    lo: Fraction
    hi: Fraction

    __hash__ = None  # semantic equality is not structural; unhashable on purpose

    @staticmethod
    def isolate(f: UniPoly):
        """Isolating intervals, one per distinct real root, sorted ascending."""
        if f.is_zero:
            raise ZeroPolynomialError("cannot isolate roots of the zero polynomial")
        g = f.squarefree_part()
        if g.degree <= 0:
            return []
        bound = Fraction(1) + max(abs(c) for c in g.coeffs) / abs(g.leading)
        chain = g._int_chain()
        out = []
        # Bisection over a worklist of (a, V(a), b, V(b)): V(a) - V(b) roots
        # lie in (a, b].
        todo = [
            (-bound, _variations_at(chain, -bound), bound, _variations_at(chain, bound))
        ]
        while todo:
            a, va, b, vb = todo.pop()
            if va - vb == 0:
                continue
            if va - vb == 1:
                out.append(RealAlgebraic(g, a, b))
                continue
            mid = (a + b) / 2
            if g.sign_at_rational(mid) == 0:
                delta = (b - a) / 4
                while True:
                    lo, hi = mid - delta, mid + delta
                    if g.sign_at_rational(lo) and g.sign_at_rational(hi):
                        vlo, vhi = _variations_at(chain, lo), _variations_at(chain, hi)
                        if vlo - vhi == 1:
                            break
                    delta /= 2
                out.append(RealAlgebraic(g, lo, hi))
                todo += [(a, va, lo, vlo), (hi, vhi, b, vb)]
            else:
                vm = _variations_at(chain, mid)
                todo += [(a, va, mid, vm), (mid, vm, b, vb)]
        return sorted(out, key=lambda r: r.lo)

    # -- refinement -------------------------------------------------------

    def interval(self) -> RatInterval:
        return RatInterval(self.lo, self.hi)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def refined(self, steps: int = 1) -> "RealAlgebraic":
        f, lo, hi = self.defining, self.lo, self.hi
        s_lo = f.sign_at_rational(lo)
        for _ in range(steps):
            mid = (lo + hi) / 2
            s_mid = f.sign_at_rational(mid)
            if s_mid == 0:
                w = (hi - lo) / 8
                lo, hi = mid - w, mid + w
                s_lo = f.sign_at_rational(lo)
            elif s_lo * s_mid < 0:
                hi = mid
            else:
                lo, s_lo = mid, s_mid
        return RealAlgebraic(f, lo, hi)

    # -- exact predicates --------------------------------------------------

    def sign(self) -> int:
        return self.sign_of_poly(UniPoly([0, 1]))

    def sign_of_poly(self, g: UniPoly) -> int:
        """Exact sign of g at this number (gcd fallback decides the zero case)."""
        if g.is_zero:
            return 0
        d = self.defining.gcd(g)
        if d.degree > 0 and d.count_real_roots(self.lo, self.hi) > 0:
            return 0
        cur = self
        while True:
            s = g.eval_interval(cur.interval()).sign()
            if s is not None and s != 0:
                return s
            cur = cur.refined()

    def equals_rational(self, q: Fraction) -> bool:
        return self.lo < q < self.hi and self.defining.sign_at_rational(q) == 0

    def cmp_rational(self, q: Fraction) -> int:
        if self.equals_rational(q):
            return 0
        cur = self
        while cur.lo < q < cur.hi:
            cur = cur.refined()
        return -1 if cur.hi <= q else 1

    def cmp(self, other: Scalar) -> int:
        if isinstance(other, (int, Fraction)):
            return self.cmp_rational(_rat(other))
        jlo, jhi = max(self.lo, other.lo), min(self.hi, other.hi)
        if jlo < jhi:
            g = self.defining.gcd(other.defining)
            if g.degree > 0 and g.count_real_roots(jlo, jhi) > 0:
                return 0
        a, b = self, other
        while not (a.hi <= b.lo or b.hi <= a.lo):
            a, b = a.refined(), b.refined()
        return -1 if a.hi <= b.lo else 1

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.equals_rational(_rat(other))
        if isinstance(other, RealAlgebraic):
            return self.cmp(other) == 0
        return NotImplemented

    def __lt__(self, other):
        return self.cmp(other) < 0

    def __le__(self, other):
        return self.cmp(other) <= 0

    def __gt__(self, other):
        return self.cmp(other) > 0

    def __ge__(self, other):
        return self.cmp(other) >= 0

    # -- arithmetic kept to what stays cheaply exact -----------------------

    def __neg__(self) -> "RealAlgebraic":
        mirrored = UniPoly(
            [(-1) ** i * c for i, c in enumerate(self.defining.coeffs)]
        ).primitive_int()
        return RealAlgebraic(mirrored, -self.hi, -self.lo)

    def reciprocal(self) -> "RealAlgebraic":
        if self.equals_rational(Fraction(0)):
            raise ZeroDivisionError("reciprocal of zero")
        cur = self
        while cur.lo <= 0 <= cur.hi:
            cur = cur.refined()
        rev = cur.defining.reversed_poly().primitive_int()
        return RealAlgebraic(rev, 1 / cur.hi, 1 / cur.lo)

    def scaled(self, q: Fraction) -> "RealAlgebraic":
        """The number q*x for a nonzero rational q."""
        q = _rat(q)
        if q == 0:
            raise ZeroDivisionError("scaling an algebraic number by zero")
        scaled = UniPoly(
            [c / q**i for i, c in enumerate(self.defining.coeffs)]
        ).primitive_int()
        lo, hi = self.lo * q, self.hi * q
        if q < 0:
            lo, hi = hi, lo
        return RealAlgebraic(scaled, lo, hi)

    def __repr__(self):
        mid = (self.lo + self.hi) / 2
        return f"RealAlgebraic(~{float(mid):.6g}, deg {self.defining.degree})"


def _sgn(v: Fraction) -> int:
    return 0 if v == 0 else (1 if v > 0 else -1)


def sign_at(g: UniPoly, x: Scalar) -> int:
    """Exact sign of g(x) for rational or real algebraic x."""
    if isinstance(x, (int, Fraction)):
        return _sgn(g(_rat(x)))
    return x.sign_of_poly(g)


def scalar_sign(x: Scalar) -> int:
    if isinstance(x, (int, Fraction)):
        return _sgn(_rat(x))
    return x.sign()


def scalar_cmp(a: Scalar, b: Scalar) -> int:
    """Total order on mixed rational / algebraic values."""
    if isinstance(a, RealAlgebraic):
        return a.cmp(b)
    if isinstance(b, RealAlgebraic):
        return -b.cmp(a)
    a, b = _rat(a), _rat(b)
    return _sgn(a - b)


def scalar_eq(a: Scalar, b: Scalar) -> bool:
    return scalar_cmp(a, b) == 0


def scalar_interval(x: Scalar) -> RatInterval:
    if isinstance(x, (int, Fraction)):
        return RatInterval.point(_rat(x))
    return x.interval()


def scalar_neg(x: Scalar) -> Scalar:
    if isinstance(x, (int, Fraction)):
        return -_rat(x)
    return -x


def simplest_between(a: Fraction, b: Fraction) -> Fraction:
    """The rational with smallest denominator (then numerator) in (a, b)."""
    a, b = _rat(a), _rat(b)
    if a >= b:
        raise ValueError("need a < b")
    if a < 0 < b:
        return Fraction(0)
    if b <= 0:
        return -simplest_between(-b, -a)
    fa = a.numerator // a.denominator
    if fa + 1 < b:
        return Fraction(fa + 1)
    if a == fa:
        c = b - fa
        n = (1 / c).numerator // (1 / c).denominator + 1
        return fa + Fraction(1, n)
    inner = simplest_between(1 / (b - fa), 1 / (a - fa))
    return fa + 1 / inner

