"""Independent oracles the tests check the engine against; the package
itself does not use them."""

from fractions import Fraction
from typing import Sequence

from binforms.errors import PrecisionExhaustedError
from binforms.forms import BinaryForm, CertifiedForm, PowerSumRep
from binforms.quadforms import Inertia, SymMatrix, charpoly_general
from binforms.realroots import (
    RatInterval,
    RealAlgebraic,
    UniPoly,
    scalar_interval,
    sign_variations,
)


def charpoly(m: SymMatrix) -> UniPoly:
    """Characteristic polynomial det(z*I - M), monic, exact."""
    return charpoly_general(m.entries)


def inertia_from_charpoly(m: SymMatrix) -> Inertia:
    """Descartes sign variations of det(tI - M).

    Valid because a symmetric matrix has only real eigenvalues.
    """
    cs = list(charpoly(m).coeffs)
    null = 0
    while cs and cs[0] == 0:
        cs.pop(0)
        null += 1
    pos = sign_variations(list(reversed(cs)))
    neg = sign_variations([(-1) ** i * c for i, c in enumerate(reversed(cs))])
    return Inertia(pos, neg, null)


def square_linear_combo(t: Sequence[Fraction], s: int) -> BinaryForm:
    """The form L(t)^2 with L = sum t_i x^(s-i) y^i."""
    raw = [Fraction(0)] * (2 * s + 1)
    for i in range(s + 1):
        for j in range(s + 1):
            raw[i + j] += Fraction(t[i]) * Fraction(t[j])
    return BinaryForm.from_raw(2 * s, raw)


def fraction_eval_interval(f: UniPoly, iv: RatInterval) -> RatInterval:
    """Interval Horner over rational intervals: acc <- acc * iv + c."""
    acc = RatInterval.point(Fraction(0))
    for c in reversed(f.coeffs):
        acc = acc * iv + RatInterval.point(c)
    return acc


def _pow_int(iv: RatInterval, n: int) -> RatInterval:
    out = RatInterval.point(Fraction(1))
    for _ in range(n):
        out = out * iv
    return out


def pow_int_expansion(rep: PowerSumRep, tolerance: Fraction, max_steps: int) -> CertifiedForm:
    """expand_certified one refinement step at a time: an expansion after
    every step, each power alpha^(d-j), beta^j computed afresh by repeated
    multiplication, O(d^2) products per term."""
    d = rep.degree
    current = [(lam, form.alpha, form.beta) for lam, form in rep.terms]
    for _ in range(max_steps + 1):
        out = [RatInterval.point(Fraction(0)) for _ in range(d + 1)]
        for lam, a, b in current:
            li, ai, bi = (scalar_interval(v) for v in (lam, a, b))
            for j in range(d + 1):
                out[j] = out[j] + li * _pow_int(ai, d - j) * _pow_int(bi, j)
        if all(iv.width <= tolerance for iv in out):
            return CertifiedForm(d, tuple(out))
        current = [
            tuple(v.refined() if isinstance(v, RealAlgebraic) else v for v in triple)
            for triple in current
        ]
    raise PrecisionExhaustedError(f"tolerance {tolerance} not reached")


def trial_divisors(n: int, cap: int = 4096):
    """Divisors d <= cap of |n| with d * d <= |n|, by testing every d in
    turn, followed by their cofactors (1 for n = 0)."""
    n = abs(n)
    if n == 0:
        return [1]
    small, large = [], []
    d = 1
    while d * d <= n and d <= cap:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]
