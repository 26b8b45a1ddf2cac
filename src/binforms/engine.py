"""Decomposition engine: Sylvester-form search and validation, exact
coefficient solving, length bounds, badge searches, signature reports,
classification of quartics and the special sextic families, and sweeps.
"""

from __future__ import annotations

import functools
import itertools
import random
from concurrent.futures import Executor
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Callable, List, Optional, Sequence, Tuple

from .errors import (
    DegenerateRepresentationError,
    InternalCheckError,
    NotIncomparableError,
    OddDegreeError,
    SylvesterRejectionError,
    ZeroFormError,
)
from .forms import (
    Badge,
    BinaryForm,
    PowerSumRep,
    ProjLinearForm,
    expand_exact,
    minimal_badges,
    mirror,
    monomial_text,
)
from .quadforms import (
    CONE_NEG,
    CONE_NONE,
    CONE_POS,
    Inertia,
    _integer_rows,
    _primitive_ints,
    catalecticant,
    charpoly_general,
    det_poly_matrix,
    hankel,
    inertia,
    kernel_basis,
)
from .realroots import (
    RealAlgebraic,
    Scalar,
    UniPoly,
    _int_homog_eval,
    _int_neg_prem,
    _int_prs,
    _int_sturm_chain,
    _int_sturm_count,
    deflate_rational_roots,
    scalar_cmp,
    scalar_sign,
    simplest_between,
)

# Stable rule identifiers attached to report conclusions (documented in README).
TAG_SPAN = "thm-2.1"
TAG_QUADRATIC = "thm-2.2"
TAG_PSD = "thm-2.9.1"
TAG_CONE_WIDTH = "thm-2.9.2"
TAG_LOWER = "cor-2.10.1"
TAG_CONE_UNIQUE = "cor-2.10.2"
TAG_LENGTH_RANK = "cor-2.10.3"
TAG_POSSIBLE = "thm-3.1.1"
TAG_SPLITS = "thm-3.1.2"
TAG_INCOMPARABLE = "thm-3.2"
TAG_QUARTIC_UNIQUE = "thm-4.1"
TAG_QUARTIC = "thm-4.2"
TAG_SEXTIC_PAIR = "cor-4.3"
TAG_SEXTIC_FAMILY = "thm-4.4"
TAG_MIRROR = "lem-4.6"

STATUS_PROVEN = "proven"
STATUS_OBSERVED = "observed"

CERT_EXACT = "exact"
CERT_INTERVALS = "certified-intervals"


@dataclass(frozen=True)
class SearchConfig:
    """Budgets for the search layer; all defaults CLI-overridable."""

    search_budget: int = 10_000
    seed: int = 0


@dataclass(frozen=True)
class ProjRootSet:
    """Projective roots of a Sylvester form: finite values plus infinity."""

    finite: Tuple[Scalar, ...]
    infinity_mult: int


@dataclass(frozen=True)
class SylvesterForm:
    """Degree-r form with coefficient vector in the kernel of the r-Hankel
    block, squarefree with all r projective roots real and distinct.  `ell`
    is its dehomogenization in t = x/y, with the Sturm chain validate_sylvester
    built; the roots are isolated on first use."""

    r: int
    coeffs: Tuple[Fraction, ...]
    ell: UniPoly = field(repr=False, compare=False)

    @functools.cached_property
    def roots(self) -> ProjRootSet:
        finite: List[Scalar] = []
        if self.ell.degree >= 1:
            rats, cof = deflate_rational_roots(self.ell)
            finite.extend(rats)
            finite.extend(RealAlgebraic.isolate(cof))
            finite.sort(key=functools.cmp_to_key(scalar_cmp))
        return ProjRootSet(tuple(finite), self.r - self.ell.degree)

    def text(self) -> str:
        return monomial_text(self.coeffs)


@dataclass(frozen=True)
class DecompResult:
    rep: PowerSumRep
    badge: Badge
    certification: str  # CERT_EXACT or CERT_INTERVALS
    witness: SylvesterForm


@dataclass(frozen=True)
class LengthResult:
    """lower: every length <= lower is proven impossible; upper: achieved."""

    lower: int
    upper: int
    conclusive: bool
    witness: Optional[DecompResult]


# ---------------------------------------------------------------------------
# Sylvester form validation
# ---------------------------------------------------------------------------


def validate_sylvester(coeffs: Sequence, r: int) -> SylvesterForm:
    """Accept iff squarefree with exactly r distinct real projective roots.

    A candidate is rejected on its primitive integer vector and the integer
    Sturm chain of its dehomogenization; only an accepted one becomes a
    UniPoly, and its roots are isolated only when asked for.
    """
    if len(coeffs) != r + 1:
        raise SylvesterRejectionError(
            SylvesterRejectionError.ZERO, f"need {r + 1} coefficients"
        )
    coeffs = _integer_rows([coeffs])[0]
    if not any(coeffs):
        raise SylvesterRejectionError(SylvesterRejectionError.ZERO, "zero vector")
    cs = _primitive_ints(coeffs)
    inf_mult = next(i for i, c in enumerate(cs) if c)
    if inf_mult >= 2:
        raise SylvesterRejectionError(
            SylvesterRejectionError.REPEATED_INFINITY,
            f"y^{inf_mult} divides the candidate",
        )
    ell = list(reversed(cs[inf_mult:]))  # ascending in t = x/y
    chain = _int_sturm_chain(ell)
    if len(chain[-1]) > 1:
        raise SylvesterRejectionError(
            SylvesterRejectionError.NOT_SQUAREFREE, "repeated factor"
        )
    if _int_sturm_count(chain) < len(ell) - 1:
        raise SylvesterRejectionError(
            SylvesterRejectionError.COMPLEX_ROOTS, "not all roots are real"
        )
    return SylvesterForm(
        r, tuple(Fraction(c) for c in cs), UniPoly.from_sturm_chain(chain)
    )


# ---------------------------------------------------------------------------
# Exact coefficient solving
# ---------------------------------------------------------------------------


def solve_coefficients(p: BinaryForm, sylv: SylvesterForm) -> DecompResult:
    """Solve p = sum_k lambda_k (alpha_k x + beta_k y)^d for the roots of a
    validated Sylvester form.

    Rational roots give exact rational coefficients; irrational roots give
    real algebraic coefficients with exactly determined signs.  Terms whose
    coefficient is exactly zero are dropped, keeping the result honest.
    The solution is verified exactly against every coefficient of p.
    """
    d = p.degree
    ell = sylv.ell
    m = ell.degree
    has_inf = sylv.r > m
    a = p.coeffs

    if m > d + (0 if has_inf else 1):
        raise ZeroFormError("candidate degree exceeds what the form supports")

    if m <= 0:
        # h is proportional to y: p must be a multiple of x^d
        lam_inf = a[0]
        if any(a[j] != 0 for j in range(1, d + 1)):
            raise ZeroFormError("candidate is not a Sylvester form for p")
        terms = []
        if lam_inf != 0:
            terms.append((lam_inf, ProjLinearForm(Fraction(1), Fraction(0))))
        rep = PowerSumRep(d, tuple(terms))
        return DecompResult(rep, rep.badge(), CERT_EXACT, sylv)

    e = ell.coeffs  # ascending, e[m] = leading
    npoly = UniPoly(_numerator(a, e))
    ellp = ell.derivative()

    # power_sums[i] = sum_k lambda_k gamma_k^i, exactly, via the trace form:
    # the t^(m-1) coefficient of (t^i npoly) rem ell, stepped b <- (t b) rem ell.
    power_sums = []
    b = npoly.rem(ell)
    for _ in range(d + 1):
        coef = b.coeffs[m - 1] if b.degree == m - 1 else Fraction(0)
        power_sums.append(coef / e[m])
        b = b.shift_up(1).rem(ell)

    lam_inf = (a[0] - power_sums[d]) if has_inf else Fraction(0)
    for j in range(d + 1):
        want = a[j] - (lam_inf if j == 0 and has_inf else Fraction(0))
        if power_sums[d - j] != want:
            raise ZeroFormError("candidate is not a Sylvester form for p")

    terms: List[Tuple[Scalar, ProjLinearForm]] = []
    alg_present = False

    rational_roots = [g for g in sylv.roots.finite if isinstance(g, Fraction)]
    algebraic_roots = [g for g in sylv.roots.finite if isinstance(g, RealAlgebraic)]

    for rho in rational_roots:
        lam = npoly(rho) / ellp(rho)
        if lam == 0:
            continue
        if rho == 0:
            terms.append((lam, ProjLinearForm(Fraction(0), Fraction(1))))
        else:
            terms.append((lam * rho**d, ProjLinearForm(Fraction(1), 1 / rho)))

    if algebraic_roots:
        alg_present = True
        cof = algebraic_roots[0].defining
        cofm = cof.monic()
        inv = _mod_inverse(ellp.rem(cofm), cofm)
        lam_poly = (npoly.rem(cofm) * inv).rem(cofm)
        scaled_poly = (lam_poly.shift_up(d)).rem(cofm)  # lambda * gamma^d
        zero_part = npoly.gcd(cofm)
        chi = _charpoly_of_mod(scaled_poly, cofm).squarefree_part()
        chi_roots = RealAlgebraic.isolate(chi)
        for gamma in algebraic_roots:
            if zero_part.degree > 0 and zero_part.count_real_roots(gamma.lo, gamma.hi):
                continue
            lam_scaled = _isolate_value(scaled_poly, gamma, chi, chi_roots)
            if isinstance(lam_scaled, RealAlgebraic):
                while lam_scaled.lo <= 0 <= lam_scaled.hi:
                    lam_scaled = lam_scaled.refined()
            beta = gamma.reciprocal()
            terms.append((lam_scaled, ProjLinearForm(Fraction(1), beta)))

    if has_inf and lam_inf != 0:
        terms.append((lam_inf, ProjLinearForm(Fraction(1), Fraction(0))))

    terms.sort(key=functools.cmp_to_key(_term_order))
    rep = PowerSumRep(d, tuple(terms))
    cert = CERT_INTERVALS if alg_present else CERT_EXACT
    if cert == CERT_EXACT and expand_exact(rep).coeffs != p.coeffs:
        raise InternalCheckError("exact solve must re-expand to p")
    return DecompResult(rep, rep.badge(), cert, sylv)


def _numerator(a: Sequence, e: Sequence) -> list:
    """Ascending coefficients of n(t) = sum_u (sum_j a_(d-j) e_(u+1+j)) t^u,
    with lambda_k = n(gamma_k) / ell'(gamma_k) at the roots of ell = sum e_i
    t^i, for the coefficients a_0..a_d of p (or a positive multiple)."""
    d, m = len(a) - 1, len(e) - 1
    return [sum(a[d - j] * e[u + 1 + j] for j in range(m - u)) for u in range(m)]


def _term_order(s, t) -> int:
    """Rational betas descending, the y-axis last; algebraic betas sit at the
    place of beta = 0, descending among themselves and around a rational 0."""
    ks, kt = _term_key(s), _term_key(t)
    if ks[:2] != kt[:2]:
        return -1 if ks[:2] < kt[:2] else 1
    return scalar_cmp(kt[2], ks[2])


def _term_key(term):
    form = term[1]
    if form.is_y_axis:
        return (1, Fraction(0), Fraction(0))
    beta = form.beta
    if isinstance(beta, Fraction):
        return (0, -beta, Fraction(0))
    return (0, Fraction(0), beta)


def _mod_inverse(a: UniPoly, mod: UniPoly) -> UniPoly:
    """Inverse of a modulo mod over Q[t]; requires gcd(a, mod) = 1."""
    r0, r1 = mod, a.rem(mod)
    u0, u1 = UniPoly(), UniPoly([1])
    while not r1.is_zero:
        q, r2 = r0.divmod(r1)
        r0, r1 = r1, r2
        u0, u1 = u1, u0 - q * u1
    if r0.degree != 0:
        raise ZeroFormError("polynomial is not invertible modulo the cofactor")
    return (u0 * (1 / r0.coeffs[0])).rem(mod)


def _charpoly_of_mod(g: UniPoly, modulus: UniPoly) -> UniPoly:
    """Characteristic polynomial of multiplication by g in Q[t]/(modulus).

    Column j of the matrix is t^j g rem modulus, stepped b <- (t b) rem modulus.
    """
    n = modulus.degree
    cols = []
    b = g.rem(modulus)
    for _ in range(n):
        cols.append(b.coeffs + (Fraction(0),) * (n - len(b.coeffs)))
        b = b.shift_up(1).rem(modulus)
    return charpoly_general(list(zip(*cols)))


def _isolate_value(
    g: UniPoly, gamma: RealAlgebraic, defining: UniPoly, isolating
) -> Scalar:
    """The number g(gamma) as a RealAlgebraic rooted in `defining`, a
    squarefree primitive integer polynomial (or a Fraction when the
    enclosure pins a rational root exactly); `isolating` is
    RealAlgebraic.isolate(defining)."""
    cur = gamma
    while True:
        iv = g.eval_interval(cur.interval())
        on_root = [e for e in (iv.lo, iv.hi) if defining.sign_at_rational(e) == 0]
        for endpoint in on_root:
            if cur.sign_of_poly(g - UniPoly([endpoint])) == 0:
                return endpoint
        if not on_root and _holds_one_root(defining, isolating, iv.lo, iv.hi):
            return RealAlgebraic(defining, iv.lo, iv.hi)
        cur = cur.refined()


def _holds_one_root(defining: UniPoly, isolating, lo, hi) -> bool:
    """Whether [lo, hi], which holds at least one root of `defining` and
    none at its ends, holds exactly one.

    Each root lies inside its isolating interval: meeting only one of them
    means one root, containing two means at least two.  Only when the
    overlap leaves it open is the Sturm chain evaluated at lo and hi.
    """
    met = inside = 0
    for root in isolating:
        if root.lo < hi and lo < root.hi:
            met += 1
            if lo <= root.lo and root.hi <= hi:
                inside += 1
    if met == 1:
        return True
    if inside >= 2:
        return False
    return defining.count_real_roots(lo, hi) == 1


# ---------------------------------------------------------------------------
# Fallback spanning decomposition
# ---------------------------------------------------------------------------


def fallback_sylvester(d: int) -> SylvesterForm:
    """y * prod_{k=1..d} (k x - y): distinct nodes covering every form."""
    coeffs = [0, 1]  # the factor y
    for k in range(1, d + 1):
        coeffs = _conv(coeffs, [k, -1])
    return validate_sylvester(coeffs, d + 1)


def vandermonde_rep(p: BinaryForm) -> DecompResult:
    """Always-available decomposition through the d+1 pairwise distinct
    powers x^d, (x + y)^d, ..., (x + d y)^d."""
    return solve_coefficients(p, fallback_sylvester(p.degree))


def _conv(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, va in enumerate(a):
        for j, vb in enumerate(b):
            out[i + j] += va * vb
    return out


# ---------------------------------------------------------------------------
# Complete decision for two-dimensional kernels (pencils)
# ---------------------------------------------------------------------------


def decide_pencil(
    b1: Sequence[Fraction], b2: Sequence[Fraction], r: int, *, first: bool = False
) -> List[SylvesterForm]:
    """All validity regions of the pencil span{b1, b2} at degree r.

    Between real roots of the discriminant-style resultant and of the leading
    coefficient, validity is constant, so finitely many exact rational samples
    decide the whole pencil.  An empty result proves no valid form exists.
    With first=True the samples stop at the first valid one, so the result
    holds at most the full result's first element.
    """
    wits: List[SylvesterForm] = []
    seen = set()
    for vec in _pencil_samples(b1, b2, r):
        key = _primitive_ints(_integer_rows([vec])[0])
        if not any(key) or key in seen:
            continue
        seen.add(key)
        try:
            wits.append(validate_sylvester(key, r))
        except SylvesterRejectionError:
            continue
        if first:
            break
    return wits


def _pencil_samples(b1, b2, r):
    """One vector b1 + u b2 per sign-invariant region of u, then b2."""
    cs = [UniPoly([Fraction(b1[j]), Fraction(b2[j])]) for j in range(r + 1)]
    tcoeffs = [cs[r - i] for i in range(r + 1)]
    while tcoeffs and tcoeffs[-1].is_zero:
        tcoeffs.pop()
    if tcoeffs and r - (len(tcoeffs) - 1) <= 1:
        deg_t = len(tcoeffs) - 1
        lead = tcoeffs[-1]
        specials = []
        if lead.degree >= 1:
            specials.append(-lead.coeffs[0] / lead.coeffs[1])
        samples: List[Fraction] = []
        if deg_t >= 1:
            # Column 0 of the Sylvester matrix is lead * (1, 0, ..., deg_t,
            # 0, ...), so lead divides the resultant: its roots are among g's.
            dcoeffs = [tcoeffs[i + 1] * (i + 1) for i in range(deg_t)]
            g = _resultant_t(tcoeffs, dcoeffs)
        else:
            g = lead
        if not g.is_zero:
            if g.degree >= 1:
                roots = RealAlgebraic.isolate(g)
            else:
                roots = []
            if not roots:
                samples = [Fraction(0)]
            else:
                samples.append(Fraction(roots[0].lo.numerator // roots[0].lo.denominator))
                for r1, r2 in zip(roots, roots[1:]):
                    while r1.hi >= r2.lo:
                        r1, r2 = r1.refined(), r2.refined()
                    samples.append(simplest_between(r1.hi, r2.lo))
                last = roots[-1].hi
                samples.append(Fraction(last.numerator // last.denominator + 1))
        for u in itertools.chain(samples, specials):
            yield [Fraction(b1[j]) + u * Fraction(b2[j]) for j in range(r + 1)]
    yield list(b2)


def _resultant_t(f: List[UniPoly], g: List[UniPoly]) -> UniPoly:
    """Resultant in t of two polynomials whose t-coefficients live in Q[u]:
    the determinant of their Sylvester matrix, f's rows first."""
    n, m = len(f) - 1, len(g) - 1
    if n < 0 or m < 0:
        return UniPoly()
    zero = UniPoly()
    rows = [
        [zero] * i + list(reversed(coeffs)) + [zero] * (count - 1 - i)
        for coeffs, count in ((f, m), (g, n))
        for i in range(count)
    ]
    return det_poly_matrix(rows)


# ---------------------------------------------------------------------------
# Kernel witnesses, by root pinning for kernels of dimension >= 3
# ---------------------------------------------------------------------------


# Pins p/q: p uniform in [-_PIN_NUM, _PIN_NUM] and q in [1, _PIN_DEN].
_PIN_NUM = 20
_PIN_DEN = 4


def _pinned_candidates(basis, r: int, rng: random.Random):
    """One attempt per draw of k-1 distinct rational pins from rng, for a
    kernel basis b_1..b_k with k >= 3: the integer vector sum_j w_j b_j that
    vanishes at every pin p/q, where w spans the kernel of the integer rows
    (b_j(p/q) q^r)_j.  Yields (pins, vector), the vector None when that
    kernel is not one-dimensional, so that the caller counts every attempt.
    """
    npins = len(basis) - 1
    if not 2 <= npins <= 2 * _PIN_NUM + 1:  # past that, distinct draws could stall
        return
    ints = [[int(v) for v in vec] for vec in basis]
    ascending = [vec[::-1] for vec in ints]  # in t = x/y
    while True:
        pins: List[Fraction] = []
        while len(pins) < npins:
            pin = Fraction(rng.randint(-_PIN_NUM, _PIN_NUM), rng.randint(1, _PIN_DEN))
            if pin not in pins:
                pins.append(pin)
        weights = kernel_basis(
            [[_int_homog_eval(cs, a.numerator, a.denominator) for cs in ascending] for a in pins]
        )
        vec = None
        if len(weights) == 1:
            vec = [sum(int(w) * b for w, b in zip(weights[0], col)) for col in zip(*ints)]
        yield pins, vec


def _kernel_witnesses(basis, r: int, budget: int, rng: random.Random, limit: int):
    """(witnesses, decided): valid Sylvester forms in span(basis) at degree r.

    A kernel of dimension 0 or 1 is decided by validating its one vector, a
    pencil by decide_pencil, which stops at its first witness when limit is
    1; an empty list then proves that none exists.  A larger kernel is
    searched by pinning roots until limit witnesses are found, every attempt
    counting against budget, and is never decided.
    """
    if len(basis) <= 1:
        try:
            return [validate_sylvester(vec, r) for vec in basis], True
        except SylvesterRejectionError:
            return [], True
    if len(basis) == 2:
        return decide_pencil(basis[0], basis[1], r, first=limit == 1), True
    found: List[SylvesterForm] = []
    for _pins, vec in itertools.islice(_pinned_candidates(basis, r, rng), budget):
        if vec is None:
            continue
        try:
            found.append(validate_sylvester(vec, r))
        except SylvesterRejectionError:
            continue
        if len(found) >= limit:
            break
    return found, False


# ---------------------------------------------------------------------------
# Length computation
# ---------------------------------------------------------------------------


def real_length(p: BinaryForm, config: SearchConfig = SearchConfig()) -> LengthResult:
    """Iterate r = 1, 2, ... up to the first r whose kernel holds a witness
    (_kernel_witnesses, one rng across r); past d the spanning fallback
    always achieves an upper bound.  lower is the run of decided r's from 1,
    and the result is conclusive when that run reaches upper - 1."""
    if p.is_zero:
        raise ZeroFormError("length of the zero form is undefined")
    rng = random.Random(config.seed)
    lower = 0
    result: Optional[DecompResult] = None
    for r in range(1, p.degree + 1):
        basis = kernel_basis(hankel(p, r))
        wits, decided = _kernel_witnesses(basis, r, config.search_budget, rng, 1)
        if wits:
            result = solve_coefficients(p, wits[0])
            break
        if decided and lower == r - 1:
            lower = r
    if result is None:
        result = vandermonde_rep(p)
    upper = result.rep.length
    lower = min(lower, upper - 1)
    return LengthResult(lower, upper, lower == upper - 1, result)


# ---------------------------------------------------------------------------
# Badge search
# ---------------------------------------------------------------------------


# badge_search keeps at most this many witnesses of a kernel of dim >= 3.
BADGE_WITNESS_CAP = 12


@dataclass(frozen=True)
class BadgeSearchResult:
    badges: frozenset
    witnesses: Tuple[SylvesterForm, ...]


def badge_search(
    p: BinaryForm, r: int, config: SearchConfig = SearchConfig()
) -> BadgeSearchResult:
    """Observed badges from validated Sylvester forms at degree r, each read
    off one Sturm-Tarski query (_tarski_badge) without solving for it."""
    if p.is_zero:
        raise ZeroFormError("badge search needs a nonzero form")
    if r == p.degree + 1:
        wits = [fallback_sylvester(p.degree)]
    else:
        basis = kernel_basis(hankel(p, r))
        rng = random.Random(config.seed)
        wits, _ = _kernel_witnesses(basis, r, config.search_budget, rng, BADGE_WITNESS_CAP)
    badges = set()
    witnesses = []
    odd_symmetric = mirror(p) == -p
    for sylv in wits:
        if sylv in witnesses:
            continue
        witnesses.append(sylv)
        badge = _tarski_badge(p, sylv)
        badges.add(badge)
        if odd_symmetric:
            badges.add(badge.swapped())
    return BadgeSearchResult(frozenset(badges), tuple(witnesses))


def _tarski_badge(p: BinaryForm, sylv: SylvesterForm) -> Badge:
    """The badge of solve_coefficients(p, sylv), from one integer Sturm-Tarski
    query; raises InternalCheckError unless sylv is in p's Hankel kernel.

    The term of a finite root gamma of ell, lambda gamma^d (x + y/gamma)^d
    or lambda y^d, has lambda = n(gamma)/ell'(gamma) and the sign of Q = n
    ell' t^(d mod 2) at gamma.  TaQ(Q, ell), the sum of those signs, is the
    Sturm count of the remainder sequence of ell and ell' (Q rem ell)
    (Basu-Pollack-Roy, ch. 2); with z roots where Q = 0 (gcd(ell, n), and 0
    for odd d, signed apart), (m - z +- TaQ)/2 are positive and negative.
    For a witness y H, the term lambda x^d has lambda H_0 = sum_j a_j H_j.
    """
    d, r = p.degree, sylv.r
    den = lcm(*(v.denominator for v in p.coeffs))
    a = [v.numerator * (den // v.denominator) for v in p.coeffs]  # den * a_j
    c = [int(v) for v in sylv.coeffs]
    if any(sum(a[i + j] * c[j] for j in range(r + 1)) for i in range(d - r + 1)):
        raise InternalCheckError("badge witness is not in the Hankel kernel")
    e = sylv.ell._ints()
    m = len(e) - 1
    n = _numerator(a, e)  # empty when m = 0
    while n and not n[-1]:
        n.pop()
    pos = neg = 0
    signs = []
    if n:  # else every finite lambda is 0
        ellp = [i * v for i, v in enumerate(e)][1:]
        zeros = len(_int_prs(e, n)[-1]) - 1
        q = _conv(n, ellp)
        if d % 2 == 1:
            q = [0, *q]
            if e[0] == 0 and n[0]:
                signs.append(n[0] * e[1])
                zeros += 1
        rem = [-v for v in _int_neg_prem(q, e)]  # a positive multiple of Q rem ell
        taq = _int_sturm_count(_int_prs(e, _conv(ellp, rem) if rem else []))
        pos, neg = (m - zeros + taq) // 2, (m - zeros - taq) // 2
    if r > m:
        signs.append(sum(a[j] * c[j + 1] for j in range(m + 1)) * c[1])
    pos += sum(1 for v in signs if v > 0)
    neg += sum(1 for v in signs if v < 0)
    return Badge(pos, neg)


# ---------------------------------------------------------------------------
# Certificates and bounds
# ---------------------------------------------------------------------------


def _y_multiplicity(p: BinaryForm) -> int:
    """The power of y that divides the nonzero form p."""
    if p.is_zero:
        raise ZeroFormError("zero form")
    return next(j for j, c in enumerate(p.coeffs) if c != 0)


def real_linear_factor_count(p: BinaryForm) -> int:
    """Number of real linear factors of p, counting multiplicity.

    The power of y plus the real roots of q = p(t, 1) with multiplicity: a
    root of multiplicity m is a root of each of q, gcd(q, q'), ... up to the
    m-th, so the Sturm counts of that tower add up to the total.  Each gcd
    is the last entry of the previous Sturm chain.
    """
    return _real_linear_factor_count(_y_multiplicity(p), p.dehomogenized())


def _real_linear_factor_count(k: int, q: UniPoly) -> int:
    """real_linear_factor_count for y^k times the homogenization of q."""
    if q.degree <= 0:
        return k
    chain = q._int_chain()
    count = k + _int_sturm_count(chain)
    while len(chain[-1]) > 1:
        chain = _int_sturm_chain(chain[-1])
        count += _int_sturm_count(chain)
    return count


def splits_over_reals(p: BinaryForm) -> bool:
    """True iff p is a product of deg(p) real linear forms."""
    return real_linear_factor_count(p) == p.degree


def is_power_of_linear(p: BinaryForm) -> bool:
    """True iff p = c * (linear form)^d."""
    return _is_power_of_linear(p, _y_multiplicity(p), p.dehomogenized())


def _is_power_of_linear(p: BinaryForm, k: int, q: UniPoly) -> bool:
    return k == p.degree or (k == 0 and q.squarefree_part().degree == 1)


def _splitting(p: BinaryForm) -> Tuple[bool, bool]:
    """(p splits over R, p splits without being a power of one linear form),
    both read off one dehomogenization q = p(t, 1), whose Sturm chain is
    built once."""
    k, q = _y_multiplicity(p), p.dehomogenized()
    splits = _real_linear_factor_count(k, q) == p.degree
    return splits, splits and not _is_power_of_linear(p, k, q)


def sign_change_certificate(
    rep: PowerSumRep, expansion: Optional[BinaryForm] = None
) -> Tuple[int, int, bool]:
    """(tau, sigma, tau <= sigma): real linear factors of the expansion vs
    sign changes of the angularly sorted, cyclically wrapped coefficients."""
    if rep.length < 2:
        raise DegenerateRepresentationError("need at least two terms")
    if not rep.is_honest():
        raise DegenerateRepresentationError("representation is not honest")
    if expansion is None:
        expansion = expand_exact(rep)
    if expansion.is_zero:
        raise DegenerateRepresentationError("expansion vanishes identically")
    ordered = sorted(
        rep.terms, key=functools.cmp_to_key(lambda s, t: s[1].slope_cmp(t[1]))
    )
    signs = [scalar_sign(lam) for lam, _ in ordered]
    if any(s == 0 for s in signs):
        raise DegenerateRepresentationError("zero coefficient in representation")
    wrap = signs[0] * (1 if rep.degree % 2 == 0 else -1)
    seq = signs + [wrap]
    sigma = sum(1 for a, b in zip(seq, seq[1:]) if a * b < 0)
    tau = real_linear_factor_count(expansion)
    return tau, sigma, tau <= sigma


def signature_lower_bound(p: BinaryForm) -> Badge:
    """Componentwise max of the catalecticant inertia pair and, for split
    forms other than powers of a single linear form, (s, s)."""
    if p.is_zero:
        raise ZeroFormError("zero form")
    if p.degree % 2 != 0:
        raise OddDegreeError("even degree required")
    split_non_power = _splitting(p)[1]
    return _lower_bound(inertia(catalecticant(p)), p.degree // 2, split_non_power)


def _lower_bound(inert: Inertia, s: int, split_non_power: bool) -> Badge:
    """The lower bound badge from the catalecticant inertia and whether the
    form splits over R without being a power of one linear form."""
    pos, neg = inert.pos, inert.neg
    if split_non_power:
        pos, neg = max(pos, s), max(neg, s)
    return Badge(pos, neg)


def possible_signatures(s: int) -> frozenset:
    """All badges that can be signatures in degree 2s."""
    allowed = {Badge(s + 1, 0), Badge(0, s + 1)}
    allowed.update(Badge(i, j) for i in range(s + 1) for j in range(s + 1))
    return frozenset(allowed)


def incomparable_constraints_ok(b1: Badge, b2: Badge, s: int) -> bool:
    """Necessary conditions for two incomparable signatures in degree 2s."""
    if b1.precedes(b2) or b2.precedes(b1):
        raise NotIncomparableError(f"{b1} and {b2} are comparable")
    if b1.pos < b2.pos:
        b1, b2 = b2, b1
    a, b = b1.pos, b1.neg
    c, d = b2.pos, b2.neg
    return (
        a + d >= s + 3
        and b + c >= s + 1
        and max(a + b, c + d) >= s + 2
        and min(a, b, c, d) >= 1
    )


# ---------------------------------------------------------------------------
# Signature reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SignatureReport:
    degree: int
    inertia: Inertia
    cone: str
    splits: bool
    length_lower: int
    length_upper: int
    length_conclusive: bool
    signatures: Tuple[Tuple[Badge, str], ...]
    set_complete: bool
    lower_bound_badge: Badge
    provenance: Tuple[str, ...]
    witness: Optional[DecompResult] = None

    @property
    def conclusive(self) -> bool:
        return self.set_complete

    def signature_set(self) -> frozenset:
        return frozenset(b for b, _ in self.signatures)


def _sorted_signatures(badges, status):
    return tuple((b, status) for b in sorted(badges, key=Badge.key))


def _check_possible(badges, s):
    allowed = possible_signatures(s)
    for b in badges:
        if b not in allowed:
            raise InternalCheckError(f"signature {b} outside the admissible set")


def signature_report(
    p: BinaryForm, config: SearchConfig = SearchConfig()
) -> SignatureReport:
    """Decision tree: quadratic inertia, cone membership, splitting, the
    quartic classification, then length-based rules, with searched badges and
    exact lower bounds as the inconclusive fallback."""
    if p.is_zero:
        raise ZeroFormError("signature report needs a nonzero form")
    if p.degree % 2 != 0:
        raise OddDegreeError("signature report needs an even-degree form")
    d = p.degree
    s = d // 2
    h = catalecticant(p)
    inert = inertia(h)
    rank = inert.rank
    psd = inert.neg == 0
    nsd = inert.pos == 0
    cone = CONE_POS if psd else (CONE_NEG if nsd else CONE_NONE)
    splits, split_non_power = _splitting(p)
    lower_bound = _lower_bound(inert, s, split_non_power)

    def report(sigs, status, complete, tags, ll, lu, lc, witness=None):
        badges = set(sigs)
        if status == STATUS_PROVEN:
            _check_possible(badges, s)
        return SignatureReport(
            degree=d,
            inertia=inert,
            cone=cone,
            splits=splits,
            length_lower=ll,
            length_upper=lu,
            length_conclusive=lc,
            signatures=_sorted_signatures(badges, status),
            set_complete=complete,
            lower_bound_badge=lower_bound,
            provenance=tuple(tags),
            witness=witness,
        )

    if d == 2:
        return report(
            {Badge(inert.pos, inert.neg)},
            STATUS_PROVEN,
            True,
            [TAG_QUADRATIC],
            rank - 1,
            rank,
            True,
        )
    if psd:
        return report(
            {Badge(rank, 0)},
            STATUS_PROVEN,
            True,
            [TAG_PSD, TAG_CONE_UNIQUE],
            rank - 1,
            rank,
            True,
        )
    if nsd:
        return report(
            {Badge(0, rank)},
            STATUS_PROVEN,
            True,
            [TAG_PSD, TAG_CONE_UNIQUE],
            rank - 1,
            rank,
            True,
        )
    if split_non_power:
        return report(
            {Badge(s, s)},
            STATUS_PROVEN,
            True,
            [TAG_SPLITS],
            2 * s - 1,
            2 * s,
            True,
        )
    if d == 4:
        return report(
            {Badge(inert.pos, inert.neg)},
            STATUS_PROVEN,
            True,
            [TAG_QUARTIC_UNIQUE, TAG_QUARTIC],
            rank - 1,
            rank,
            True,
        )

    length = real_length(p, config)
    observed = set()
    if length.witness is not None:
        observed.add(length.witness.badge)
        if mirror(p) == -p:
            observed.add(length.witness.badge.swapped())

    def widen_observed():
        found = badge_search(p, length.upper, config)
        observed.update(found.badges)

    if length.conclusive and length.upper == rank:
        return report(
            {Badge(inert.pos, inert.neg)},
            STATUS_PROVEN,
            True,
            [TAG_LENGTH_RANK],
            length.lower,
            length.upper,
            True,
            length.witness,
        )
    if d == 6 and length.conclusive and length.upper == 5:
        badge = length.witness.badge
        if badge not in (Badge(2, 3), Badge(3, 2)):
            raise InternalCheckError(f"5-term sextic badge {badge} is not admissible")
        if mirror(p) == -p:
            return report(
                {Badge(2, 3), Badge(3, 2)},
                STATUS_PROVEN,
                True,
                [TAG_MIRROR, TAG_SEXTIC_PAIR, TAG_POSSIBLE],
                length.lower,
                length.upper,
                True,
                length.witness,
            )
        return report(
            {badge},
            STATUS_PROVEN,
            False,
            [TAG_SEXTIC_PAIR, TAG_POSSIBLE, TAG_LOWER],
            length.lower,
            length.upper,
            True,
            length.witness,
        )

    widen_observed()
    return report(
        minimal_badges(observed) if observed else set(),
        STATUS_OBSERVED,
        False,
        [TAG_LOWER],
        length.lower,
        length.upper,
        length.conclusive,
        length.witness,
    )


def quartic_classify(p: BinaryForm, config: SearchConfig = SearchConfig()) -> SignatureReport:
    """Unique quartic signature: S(H_p), or (2,2) for split non-powers."""
    if p.degree != 4:
        raise OddDegreeError("quartic classification needs degree 4")
    if p.is_zero:
        raise ZeroFormError("zero form")
    return signature_report(p, config)


# ---------------------------------------------------------------------------
# Sweeps and jump detection
# ---------------------------------------------------------------------------

JUMP_NONE = "none"
JUMP_UP = "up"
JUMP_DOWN = "down"


def jump_direction(grid_sigs: frozenset, limit_sigs: frozenset) -> str:
    """Compare the signature set at a grid point against the limit form."""
    if grid_sigs == limit_sigs:
        return JUMP_NONE
    if any(not any(l.precedes(g) for g in grid_sigs) for l in limit_sigs):
        return JUMP_UP
    return JUMP_DOWN


@dataclass(frozen=True)
class SweepRow:
    param: Fraction
    report: Optional[SignatureReport]
    error: Optional[str]
    jump_vs_limit: str


@dataclass(frozen=True)
class SweepResult:
    rows: Tuple[SweepRow, ...]
    limit_param: Optional[Fraction]
    limit_report: Optional[SignatureReport]
    limit_error: Optional[str]


def _sweep_report(
    family: Callable[[Fraction], BinaryForm], t: Fraction, config: SearchConfig
) -> Tuple[Optional[SignatureReport], Optional[str]]:
    """The signature report of family(t), or the error it raised as text."""
    try:
        return signature_report(family(t), config), None
    except Exception as exc:  # per-row errors are embedded, never fatal
        return None, f"{type(exc).__name__}: {exc}"


def sweep(
    family: Callable[[Fraction], BinaryForm],
    grid: Sequence[Fraction],
    limit: Optional[Fraction] = None,
    config: SearchConfig = SearchConfig(),
    executor: Optional[Executor] = None,
) -> SweepResult:
    """Per-parameter signature reports plus the limit form, with jump flags.

    Every report, the limit's included, comes from one `map` over
    `_sweep_report`: the executor's if one is given (the family must then
    pickle), else the builtin.
    """
    params = [Fraction(t) for t in grid]
    if limit is not None:
        params.append(Fraction(limit))
    mapper = map if executor is None else executor.map
    n = len(params)
    results = list(mapper(_sweep_report, [family] * n, params, [config] * n))
    limit_report, limit_error = results.pop() if limit is not None else (None, None)
    rows = []
    for t, (rep, err) in zip(params, results):
        flag = JUMP_NONE
        if rep is not None and limit_report is not None:
            flag = jump_direction(rep.signature_set(), limit_report.signature_set())
        rows.append(SweepRow(t, rep, err, flag))
    return SweepResult(tuple(rows), limit, limit_report, limit_error)
