"""Binary forms, projective linear forms, power-sum representations, badges.

A binary form of degree d is stored through its binomially normalized
coefficients a_0..a_d, so that p = sum_j C(d,j) * a_j * x^(d-j) * y^j.
All coefficients are exact rationals; irrational data enters only through
RealAlgebraic values inside representations.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Sequence, Tuple, Union

from .errors import (
    DegreeMismatchError,
    FormSyntaxError,
    InputTooLargeError,
    NotHomogeneousError,
    PrecisionExhaustedError,
    SingularSubstitutionError,
    ZeroFormError,
)
from .realroots import (
    RatInterval,
    RealAlgebraic,
    Scalar,
    scalar_cmp,
    scalar_eq,
    scalar_interval,
    scalar_neg,
    scalar_sign,
)


@dataclass(frozen=True)
class Badge:
    """Counts of positive and negative coefficients of an honest representation."""

    pos: int
    neg: int

    def precedes(self, other: "Badge") -> bool:
        """Componentwise partial order: self <= other in both coordinates."""
        return self.pos <= other.pos and self.neg <= other.neg

    @property
    def total(self) -> int:
        return self.pos + self.neg

    def swapped(self) -> "Badge":
        return Badge(self.neg, self.pos)

    def key(self):
        return (self.pos, self.neg)

    def __repr__(self):
        return f"({self.pos},{self.neg})"


def minimal_badges(badges) -> frozenset:
    """Minimal elements of a finite badge set under the componentwise order."""
    items = set(badges)
    return frozenset(
        b for b in items if not any(o != b and o.precedes(b) for o in items)
    )


@dataclass(frozen=True, eq=False)
class ProjLinearForm:
    """Projective point (alpha : beta), canonically normalized.

    Normalization: alpha == 1 whenever alpha != 0, otherwise (0, 1).
    Nonzero rational alpha is normalized at construction; algebraic data
    must already arrive normalized (the engine only builds such forms).
    """

    alpha: Scalar
    beta: Scalar

    __hash__ = None

    def __post_init__(self):
        a, b = self.alpha, self.beta
        if isinstance(a, int):
            a = Fraction(a)
        if isinstance(b, int):
            b = Fraction(b)
        if isinstance(a, Fraction):
            if a == 0:
                if isinstance(b, Fraction):
                    if b == 0:
                        raise ZeroFormError("(0, 0) is not a projective point")
                    b = Fraction(1)
                else:
                    raise ValueError("algebraic beta with zero alpha is not normalized")
            elif a != 1:
                if isinstance(b, Fraction):
                    b = b / a
                else:
                    b = b.scaled(1 / a)
                a = Fraction(1)
        else:
            raise ValueError(
                "algebraic alpha must be pre-normalized to 1; got " + repr(a)
            )
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)

    @property
    def is_y_axis(self) -> bool:
        """The form y, i.e. the point (0 : 1)."""
        return isinstance(self.alpha, Fraction) and self.alpha == 0

    def __eq__(self, other):
        if not isinstance(other, ProjLinearForm):
            return NotImplemented
        if self.is_y_axis or other.is_y_axis:
            return self.is_y_axis and other.is_y_axis
        return scalar_eq(self.beta, other.beta)

    def slope_cmp(self, other: "ProjLinearForm") -> int:
        """Order by slope -beta/alpha ascending, with (0:1) sorted last."""
        if self.is_y_axis:
            return 0 if other.is_y_axis else 1
        if other.is_y_axis:
            return -1
        return scalar_cmp(scalar_neg(self.beta), scalar_neg(other.beta))

    def text(self) -> str:
        if self.is_y_axis:
            return "y"
        if isinstance(self.beta, Fraction):
            if self.beta == 0:
                return "x"
            sign = "+" if self.beta > 0 else "-"
            mag = abs(self.beta)
            coeff = "" if mag == 1 else f"{mag}*"
            return f"x {sign} {coeff}y"
        return f"x + [{self.beta.lo}, {self.beta.hi}]*y"

    def __repr__(self):
        return f"ProjLinearForm({self.alpha!r}, {self.beta!r})"


@dataclass(frozen=True)
class BinaryForm:
    """Exact binary form in the binomial-normalized basis."""

    degree: int
    coeffs: Tuple[Fraction, ...]

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("degree must be nonnegative")
        cs = tuple(Fraction(c) for c in self.coeffs)
        if len(cs) != self.degree + 1:
            raise ValueError("need exactly degree+1 coefficients")
        object.__setattr__(self, "coeffs", cs)

    @staticmethod
    def from_raw(degree: int, raw: Sequence) -> "BinaryForm":
        """Build from raw monomial coefficients of x^(d-j) y^j."""
        return BinaryForm(
            degree, tuple(Fraction(c) / comb(degree, j) for j, c in enumerate(raw))
        )

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def raw_coeff(self, j: int) -> Fraction:
        return self.coeffs[j] * comb(self.degree, j)

    def raw_coeffs(self) -> Tuple[Fraction, ...]:
        return tuple(self.raw_coeff(j) for j in range(self.degree + 1))

    def evaluate(self, a: Fraction, b: Fraction) -> Fraction:
        a, b = Fraction(a), Fraction(b)
        return sum(
            self.raw_coeff(j) * a ** (self.degree - j) * b**j
            for j in range(self.degree + 1)
        )

    def dehomogenized(self):
        """p(t, 1) as a UniPoly in t (ascending coefficients)."""
        from .realroots import UniPoly

        return UniPoly([self.raw_coeff(self.degree - i) for i in range(self.degree + 1)])

    def scale(self, c) -> "BinaryForm":
        c = Fraction(c)
        return BinaryForm(self.degree, tuple(a * c for a in self.coeffs))

    def __add__(self, other: "BinaryForm") -> "BinaryForm":
        if self.degree != other.degree:
            raise DegreeMismatchError("cannot add forms of different degrees")
        return BinaryForm(
            self.degree, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: "BinaryForm") -> "BinaryForm":
        return self + other.scale(-1)

    def __neg__(self) -> "BinaryForm":
        return self.scale(-1)

    def text(self) -> str:
        """Canonical text: monomials by descending x-power, explicit * and ^."""
        return monomial_text([self.raw_coeff(j) for j in range(self.degree + 1)])

    def __repr__(self):
        return f"BinaryForm({self.text()!r})"


def monomial_text(coeffs: Sequence[Fraction]) -> str:
    """Text of sum_j coeffs[j] x^(n-j) y^j, n = len(coeffs) - 1: monomials by
    descending x-power, explicit * and ^, zero terms dropped."""
    n = len(coeffs) - 1
    pieces = []
    for j, c in enumerate(coeffs):
        if c == 0:
            continue
        i = n - j
        factors = []
        if i > 0:
            factors.append("x" if i == 1 else f"x^{i}")
        if j > 0:
            factors.append("y" if j == 1 else f"y^{j}")
        if abs(c) != 1 or not factors:
            factors.insert(0, str(abs(c)))
        pieces.append(("-" if c < 0 else "+", "*".join(factors)))
    if not pieces:
        return "0"
    first_sign, first = pieces[0]
    out = ("-" if first_sign == "-" else "") + first
    for sign, mono in pieces[1:]:
        out += f" {sign} {mono}"
    return out


@dataclass(frozen=True, eq=False)
class PowerSumRep:
    """Signed combination sum_k lambda_k * (alpha_k x + beta_k y)^degree."""

    degree: int
    terms: Tuple[Tuple[Scalar, ProjLinearForm], ...]

    __hash__ = None

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))

    @property
    def length(self) -> int:
        return len(self.terms)

    @property
    def all_rational(self) -> bool:
        return all(
            isinstance(lam, Fraction)
            and isinstance(f.alpha, Fraction)
            and isinstance(f.beta, Fraction)
            for lam, f in self.terms
        )

    def is_honest(self) -> bool:
        """Pairwise distinct projective forms and nonzero coefficients."""
        forms = [f for _, f in self.terms]
        for i in range(len(forms)):
            if scalar_sign(self.terms[i][0]) == 0:
                return False
            for j in range(i + 1, len(forms)):
                if forms[i] == forms[j]:
                    return False
        return True

    def badge(self) -> Badge:
        pos = sum(1 for lam, _ in self.terms if scalar_sign(lam) > 0)
        neg = sum(1 for lam, _ in self.terms if scalar_sign(lam) < 0)
        if pos + neg != len(self.terms):
            raise ZeroFormError("representation has a zero coefficient")
        return Badge(pos, neg)

    def __eq__(self, other):
        if not isinstance(other, PowerSumRep):
            return NotImplemented
        if self.degree != other.degree or len(self.terms) != len(other.terms):
            return False
        used = [False] * len(other.terms)
        for lam, f in self.terms:
            for k, (mu, g) in enumerate(other.terms):
                if not used[k] and f == g and scalar_eq(lam, mu):
                    used[k] = True
                    break
            else:
                return False
        return True


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(\d+|[xyt()+\-*^/])")

# Input limits (README "Input limits").  The parser checks degrees and
# exponents before it expands a product or power and coefficient bits after,
# so hostile input such as (x+y)^5000 fails at once.
MAX_DEGREE = 32  # total degree in x, y and t
MAX_EXPONENT = 1024
MAX_COEFF_BITS = 1024  # of each literal, product and power

def _tokenize(text: str):
    pos, out = 0, []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise FormSyntaxError(f"unexpected character at position {pos}: {text[pos:]!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


class _Parser:
    """Recursive descent over +, -, *, ^ and parentheses; no implicit products.

    Values are dicts mapping (i, j, k) -> coefficient for monomials
    x^i y^j t^k, where t is an optional sweep parameter.  Coefficients stay
    int until a num/den literal brings in a Fraction; mixed arithmetic is
    exact either way.
    """

    def __init__(self, tokens, allow_param: bool):
        self.tokens = tokens
        self.pos = 0
        self.allow_param = allow_param

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, tok):
        got = self.take()
        if got != tok:
            raise FormSyntaxError(f"expected {tok!r}, got {got!r}")

    def parse(self):
        v = self.expr()
        if self.peek() is not None:
            raise FormSyntaxError(f"trailing input near {self.peek()!r}")
        return v

    def expr(self):
        sign = 1
        while self.peek() in ("+", "-"):
            if self.take() == "-":
                sign = -sign
        acc = _poly_scale(self.term(), sign)
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            acc = _poly_add(acc, _poly_scale(rhs, -1 if op == "-" else 1))
        return acc

    def term(self):
        acc = self.factor()
        while self.peek() == "*":
            self.take()
            rhs = self.factor()
            acc = _expanded(_degree(acc) + _degree(rhs), _poly_mul, acc, rhs)
        return acc

    def factor(self):
        base = self.atom()
        if self.peek() == "^":
            self.take()
            tok = self.take()
            if tok is None or not tok.isdigit():
                raise FormSyntaxError("exponent must be a nonnegative integer")
            n = _literal(tok)
            if n > MAX_EXPONENT:
                raise InputTooLargeError(f"exponent above the limit {MAX_EXPONENT}")
            return _expanded(n * _degree(base), _poly_pow, base, n)
        return base

    def atom(self):
        tok = self.take()
        if tok is None:
            raise FormSyntaxError("unexpected end of input")
        if tok == "(":
            v = self.expr()
            self.expect(")")
            return v
        if tok == "x":
            return {(1, 0, 0): 1}
        if tok == "y":
            return {(0, 1, 0): 1}
        if tok == "t":
            if not self.allow_param:
                raise FormSyntaxError("parameter t is not allowed here")
            return {(0, 0, 1): 1}
        if tok.isdigit():
            num = _literal(tok)
            if self.peek() == "/":
                self.take()
                den = self.take()
                if den is None or not den.isdigit() or int(den) == 0:
                    raise FormSyntaxError("denominator must be a positive integer")
                value = Fraction(num, _literal(den))
            else:
                value = num
            return {(0, 0, 0): value} if value != 0 else {}
        raise FormSyntaxError(f"unexpected token {tok!r}")


def _literal(tok: str) -> int:
    """A decimal literal of at most MAX_COEFF_BITS bits; n digits make more
    than 3(n - 1) bits, so a long one is refused unconverted."""
    if 3 * (len(tok.lstrip("0")) - 1) > MAX_COEFF_BITS or int(tok).bit_length() > MAX_COEFF_BITS:
        raise InputTooLargeError(f"literal above the limit of {MAX_COEFF_BITS} bits")
    return int(tok)


def _degree(a) -> int:
    return max((sum(key) for key in a), default=0)


def _expanded(degree: int, expand, *args):
    """expand(*args), a product or power of the given degree, within the limits."""
    if degree > MAX_DEGREE:
        raise InputTooLargeError(f"degree {degree} above the limit {MAX_DEGREE}")
    out = expand(*args)
    for v in out.values():
        if max(v.numerator.bit_length(), v.denominator.bit_length()) > MAX_COEFF_BITS:
            raise InputTooLargeError(f"coefficient above the limit of {MAX_COEFF_BITS} bits")
    return out


def _poly_add(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
        if out[k] == 0:
            del out[k]
    return out


def _poly_scale(a, c):
    if c == 0:
        return {}
    return {k: v * c for k, v in a.items()}


def _poly_mul(a, b):
    out = {}
    for (i1, j1, k1), v1 in a.items():
        for (i2, j2, k2), v2 in b.items():
            key = (i1 + i2, j1 + j2, k1 + k2)
            out[key] = out.get(key, 0) + v1 * v2
            if out[key] == 0:
                del out[key]
    return out


def _poly_pow(a, n):
    """a^n by repeated squaring: no square exceeds the result's degree, and
    a constant's bits grow through log2(n) products instead of n."""
    out = {(0, 0, 0): 1}
    while n:
        if n & 1:
            out = _poly_mul(out, a)
        n >>= 1
        if n:
            a = _poly_mul(a, a)
    return out


def _monomials_to_form(mono) -> BinaryForm:
    if not mono:
        return BinaryForm(0, (Fraction(0),))
    degrees = {i + j for (i, j, _) in mono}
    if len(degrees) != 1:
        raise NotHomogeneousError(f"mixed total degrees {sorted(degrees)}")
    d = degrees.pop()
    raw = [0] * (d + 1)
    for (i, j, _), v in mono.items():
        raw[j] = v
    return BinaryForm.from_raw(d, raw)


def parse_form(text: str) -> BinaryForm:
    """Parse a homogeneous polynomial in x, y with exact rational coefficients.

    Grammar (documented in the README): + - * ^ with parentheses, explicit
    multiplication only, rational literals as num or num/den.  The zero form
    parses successfully and is flagged by .is_zero.
    """
    mono = _Parser(_tokenize(text), allow_param=False).parse()
    for key in mono:
        if key[2] != 0:
            raise FormSyntaxError("parameter t is not allowed in a plain form")
    return _monomials_to_form(mono)


@dataclass(frozen=True)
class Family:
    """A form with one rational parameter t: calling it with a value of t
    gives the BinaryForm.  It holds only its monomials, so it pickles."""

    monomials: Tuple[Tuple[Tuple[int, int, int], Fraction], ...]

    def __call__(self, tval) -> BinaryForm:
        tval = Fraction(tval)
        out = {}
        for (i, j, k), v in self.monomials:
            key = (i, j, 0)
            out[key] = out.get(key, Fraction(0)) + v * tval**k
        return _monomials_to_form(out)


def parse_family(text: str) -> Family:
    """Parse a form with one rational parameter t; returns value -> BinaryForm.

    Homogeneity in x, y is required monomial by monomial, independent of t.
    """
    mono = _Parser(_tokenize(text), allow_param=True).parse()
    degrees = {i + j for (i, j, _) in mono}
    if len(degrees) > 1:
        raise NotHomogeneousError(f"mixed total degrees {sorted(degrees)}")
    return Family(tuple((key, Fraction(v)) for key, v in mono.items()))


# ---------------------------------------------------------------------------
# Exact operations
# ---------------------------------------------------------------------------


def expand_exact(rep: PowerSumRep) -> BinaryForm:
    """Coefficientwise-exact expansion of a rational representation."""
    if not rep.all_rational:
        raise PrecisionExhaustedError(
            "expand_exact needs rational data; use expand_certified"
        )
    d = rep.degree
    coeffs = [Fraction(0)] * (d + 1)
    for lam, form in rep.terms:
        a, b = form.alpha, form.beta
        for j in range(d + 1):
            coeffs[j] += lam * a ** (d - j) * b**j
    return BinaryForm(d, tuple(coeffs))


@dataclass(frozen=True)
class CertifiedForm:
    """Interval enclosures of the binomial coefficients of an expansion."""

    degree: int
    intervals: Tuple[RatInterval, ...]

    def encloses(self, p: BinaryForm) -> bool:
        return self.degree == p.degree and all(
            iv.contains(c) for iv, c in zip(self.intervals, p.coeffs)
        )

    @property
    def max_width(self) -> Fraction:
        return max((iv.width for iv in self.intervals), default=Fraction(0))


def expand_certified(
    rep: PowerSumRep, tolerance: Fraction, max_steps: int = 256
) -> CertifiedForm:
    """Interval expansion; every enclosure width is below the tolerance.

    Raises PrecisionExhaustedError if the bisection budget runs out first.
    """
    tolerance = Fraction(tolerance)
    d = rep.degree
    scalars = []
    for lam, form in rep.terms:
        scalars.append((lam, form.alpha, form.beta))

    def powers(iv):
        # iv**0 .. iv**d, each the previous power times iv
        out = [RatInterval.point(Fraction(1))]
        for _ in range(d):
            out.append(out[-1] * iv)
        return out

    def compute(values):
        out = [RatInterval.point(Fraction(0)) for _ in range(d + 1)]
        for lam, a, b in values:
            li = scalar_interval(lam)
            apow, bpow = powers(scalar_interval(a)), powers(scalar_interval(b))
            for j in range(d + 1):
                out[j] = out[j] + li * apow[d - j] * bpow[j]
        return out

    def refine(values, steps):
        return [
            tuple(v.refined(steps) if isinstance(v, RealAlgebraic) else v for v in triple)
            for triple in values
        ]

    # Refinement nests every isolating interval and interval arithmetic is
    # inclusion-monotone, so the enclosure widths never grow with the step
    # count: the first count that fits is found by doubling, then bisection
    # between the last count that did not fit and the first that did.
    enclosures = compute(scalars)
    if all(iv.width <= tolerance for iv in enclosures):
        return CertifiedForm(d, tuple(enclosures))
    lo, lo_values, hi, fit = 0, scalars, None, None
    while hi is None or hi - lo > 1:
        if hi is None:
            if lo >= max_steps:
                raise PrecisionExhaustedError(
                    f"tolerance {tolerance} not reached in {max_steps} refinement steps"
                )
            steps = min(max(2 * lo, 1), max_steps)
        else:
            steps = (lo + hi) // 2
        values = refine(lo_values, steps - lo)
        enclosures = compute(values)
        if all(iv.width <= tolerance for iv in enclosures):
            hi, fit = steps, enclosures
        else:
            lo, lo_values = steps, values
    return CertifiedForm(d, tuple(fit))


def substitute(p: BinaryForm, matrix) -> BinaryForm:
    """Exact q(x, y) = p(a x + b y, c x + d y) for rational invertible [[a,b],[c,d]]."""
    (a, b), (c, d) = matrix
    a, b, c, d = (Fraction(v) for v in (a, b, c, d))
    if a * d - b * c == 0:
        raise SingularSubstitutionError("substitution matrix has determinant zero")
    deg = p.degree
    acc = [Fraction(0)] * (deg + 1)
    # raw coefficient arrays of (a x + b y)^(d-j) * (c x + d y)^j, built by convolution
    for j in range(deg + 1):
        coeff = p.raw_coeff(j)
        if coeff == 0:
            continue
        poly = [Fraction(1)]
        for _ in range(deg - j):
            poly = _lin_mul(poly, a, b)
        for _ in range(j):
            poly = _lin_mul(poly, c, d)
        for k, v in enumerate(poly):
            acc[k] += coeff * v
    return BinaryForm.from_raw(deg, acc)


def _lin_mul(poly, a, b):
    out = [Fraction(0)] * (len(poly) + 1)
    for i, v in enumerate(poly):
        out[i] += v * a
        out[i + 1] += v * b
    return out


def inner_product(f: BinaryForm, g: BinaryForm) -> Fraction:
    """Apolar pairing sum_i C(d,i) a_i b_i in the binomial basis."""
    if f.degree != g.degree:
        raise DegreeMismatchError("inner product needs equal degrees")
    return sum(
        comb(f.degree, i) * f.coeffs[i] * g.coeffs[i] for i in range(f.degree + 1)
    )


def mirror(p: BinaryForm) -> BinaryForm:
    """The form p(x, -y)."""
    return BinaryForm(
        p.degree, tuple((-1) ** j * c for j, c in enumerate(p.coeffs))
    )


def mirror_badge(rep: PowerSumRep) -> PowerSumRep:
    """Representation of -p(x,-y): negate every coefficient and every beta.

    For an odd-symmetric form (p(x,-y) = -p(x,y)) this yields another
    representation of p itself with the badge components swapped.
    """
    terms = []
    for lam, form in rep.terms:
        terms.append(
            (scalar_neg(lam), ProjLinearForm(form.alpha, scalar_neg(form.beta)))
        )
    return PowerSumRep(rep.degree, tuple(terms))
