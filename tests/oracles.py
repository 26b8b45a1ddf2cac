"""Independent oracles the tests check the engine against; the package
itself does not use them."""

from fractions import Fraction
from typing import Sequence

from binforms.forms import BinaryForm
from binforms.quadforms import Inertia, SymMatrix, charpoly_general
from binforms.realroots import UniPoly, sign_variations


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
