"""Exact linear algebra: catalecticant and Hankel blocks, inertia via
rational congruence, psd tests, width, and one fraction-free (Bareiss)
elimination over Z shared by kernel bases and determinants; determinants
over Q[z], which give the engine its resultants and characteristic
polynomials, are interpolated from integer ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import List, Sequence, Tuple

from .errors import (
    DimensionMismatchError,
    InternalCheckError,
    OddDegreeError,
    RankOutOfRangeError,
)
from .forms import BinaryForm
from .realroots import UniPoly, _int_homog_eval, _int_primitive


@dataclass(frozen=True)
class Inertia:
    pos: int
    neg: int
    null: int

    @property
    def rank(self) -> int:
        return self.pos + self.neg

    def pair(self) -> Tuple[int, int]:
        return (self.pos, self.neg)

    def __repr__(self):
        return f"Inertia(pos={self.pos}, neg={self.neg}, null={self.null})"


@dataclass(frozen=True)
class SymMatrix:
    """Symmetric matrix with exact rational entries."""

    entries: Tuple[Tuple[Fraction, ...], ...]

    def __post_init__(self):
        n = len(self.entries)
        rows = tuple(tuple(Fraction(v) for v in row) for row in self.entries)
        for i, row in enumerate(rows):
            if len(row) != n:
                raise DimensionMismatchError("matrix is not square")
            for j in range(i):
                if rows[i][j] != rows[j][i]:
                    raise DimensionMismatchError("matrix is not symmetric")
        object.__setattr__(self, "entries", rows)

    @property
    def n(self) -> int:
        return len(self.entries)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]


@dataclass(frozen=True)
class HankelMatrix:
    """The (d-r+1) x (r+1) block with entry(i, j) = a_{i+j} of a source form."""

    rows: Tuple[Tuple[Fraction, ...], ...]
    r: int

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return self.r + 1

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def apply(self, vec: Sequence[Fraction]) -> Tuple[Fraction, ...]:
        if len(vec) != self.ncols:
            raise DimensionMismatchError("vector length does not match columns")
        return tuple(
            sum(row[j] * Fraction(vec[j]) for j in range(self.ncols))
            for row in self.rows
        )


def catalecticant(p: BinaryForm) -> SymMatrix:
    """The (s+1) x (s+1) middle Hankel matrix of an even form of degree 2s."""
    if p.degree % 2 != 0:
        raise OddDegreeError("catalecticant needs an even-degree form")
    s = p.degree // 2
    return SymMatrix(
        tuple(tuple(p.coeffs[i + j] for j in range(s + 1)) for i in range(s + 1))
    )


def hankel(p: BinaryForm, r: int) -> HankelMatrix:
    """Hankel block whose kernel vectors are Sylvester-form candidates."""
    if not 1 <= r <= p.degree:
        raise RankOutOfRangeError(f"need 1 <= r <= {p.degree}, got {r}")
    d = p.degree
    return HankelMatrix(
        tuple(tuple(p.coeffs[i + j] for j in range(r + 1)) for i in range(d - r + 1)),
        r,
    )


def inertia(m: SymMatrix) -> Inertia:
    """Exact (pos, neg, null) by symmetric Gaussian congruence.

    Diagonal pivots when available; otherwise the congruence t_i <- t_i + t_j
    on a nonzero off-diagonal pair surfaces one.
    """
    n = m.n
    a = [list(row) for row in m.entries]
    pos = neg = 0
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][i] != 0), None)
        if piv is None:
            hot = next(
                (
                    (i, j)
                    for i in range(k, n)
                    for j in range(i + 1, n)
                    if a[i][j] != 0
                ),
                None,
            )
            if hot is None:
                return Inertia(pos, neg, n - pos - neg)
            i, j = hot
            for t in range(n):
                a[i][t] += a[j][t]
            for t in range(n):
                a[t][i] += a[t][j]
            piv = i
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            for row in a:
                row[k], row[piv] = row[piv], row[k]
        d = a[k][k]
        if d > 0:
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            if a[i][k] == 0:
                continue
            f = a[i][k] / d
            for t in range(k, n):
                a[i][t] -= f * a[k][t]
            for t in range(k, n):
                a[t][i] -= f * a[t][k]
    return Inertia(pos, neg, n - pos - neg)


def is_psd(m: SymMatrix) -> bool:
    return inertia(m).neg == 0


def _bareiss(m: List[list]) -> Tuple[List[int], int]:
    """Fraction-free forward elimination (Bareiss 1968) of the rows m, in place.

    Entries are integers; every division is exact, and an inexact one raises
    InternalCheckError.  Each column takes as pivot its first nonzero entry
    at or below the current row; a column without one is skipped.  Returns
    the pivot columns, row i holding the pivot of piv_cols[i] and valid
    entries from there rightward, and the parity of the row swaps.  The last
    pivot of a nonsingular square matrix is its determinant times
    (-1)**parity.
    """
    nrows, ncols = len(m), len(m[0])
    piv_cols: List[int] = []
    parity = 0
    prev = 1
    for pc in range(ncols):
        pr = len(piv_cols)
        if pr == nrows:
            break
        sel = next((i for i in range(pr, nrows) if m[i][pc]), None)
        if sel is None:
            continue
        if sel != pr:
            m[pr], m[sel] = m[sel], m[pr]
            parity ^= 1
        piv = m[pr][pc]
        for i in range(pr + 1, nrows):
            for j in range(pc + 1, ncols):
                q, rem = divmod(m[i][j] * piv - m[i][pc] * m[pr][j], prev)
                if rem:
                    raise InternalCheckError("Bareiss division must be exact")
                m[i][j] = q
        prev = piv
        piv_cols.append(pc)
    return piv_cols, parity


def kernel_basis(rows_or_matrix) -> List[Tuple[int, ...]]:
    """Exact right-kernel basis via fraction-free (Bareiss) elimination.

    Accepts a HankelMatrix, SymMatrix, or a plain sequence of rows; returns
    primitive integer tuples, first nonzero entry positive, one per free
    column.
    """
    if isinstance(rows_or_matrix, HankelMatrix):
        rows = rows_or_matrix.rows
    elif isinstance(rows_or_matrix, SymMatrix):
        rows = rows_or_matrix.entries
    else:
        rows = rows_or_matrix
    if not rows:
        return []
    ncols = len(rows[0])
    # clear denominators rowwise so Bareiss divisions stay integral
    m = _integer_rows(rows)
    piv_cols, _ = _bareiss(m)
    # The last pivot is +-det of the pivot columns' block: with it at the free
    # column, Cramer's rule makes every back-substitution division exact.
    scale = m[len(piv_cols) - 1][piv_cols[-1]] if piv_cols else 1
    basis = []
    for fc in (c for c in range(ncols) if c not in piv_cols):
        vec = [0] * ncols
        vec[fc] = scale
        for i in reversed(range(len(piv_cols))):
            pc = piv_cols[i]
            s = sum(m[i][j] * vec[j] for j in range(pc + 1, ncols))
            vec[pc], rem = divmod(-s, m[i][pc])
            if rem:
                raise InternalCheckError("kernel back-substitution must be exact")
        basis.append(_primitive_ints(vec))
    return basis


def _integer_rows(rows) -> List[List[int]]:
    """Each row of ints and Fractions times the lcm of its denominators;
    same kernel."""
    out = []
    for row in rows:
        den = lcm(*(v.denominator for v in row))
        out.append([v.numerator * (den // v.denominator) for v in row])
    return out


def _primitive_ints(ints) -> Tuple[int, ...]:
    """Integer vector over its content, first nonzero entry positive."""
    if next((v for v in ints if v), 0) < 0:
        ints = [-v for v in ints]
    return tuple(_int_primitive(ints))


def det_poly_matrix(entries: Sequence[Sequence[UniPoly]]) -> UniPoly:
    """Determinant of a square matrix with univariate polynomial entries.

    Evaluation and interpolation (Collins 1971): each row is scaled to
    integer coefficients, the determinant, of degree at most D = the sum of
    the rows' largest entry degrees, is taken by integer Bareiss at
    z = 0..D, and Newton interpolation through those values gives it back.
    """
    n = len(entries)
    if n == 0:
        return UniPoly([1])
    degree = 0
    for row in entries:
        top = max(e.degree for e in row)
        if top < 0:
            return UniPoly()
        degree += top
    rows = []
    scale = 1
    for row in entries:
        den = lcm(*(c.denominator for e in row for c in e.coeffs))
        rows.append(
            [[c.numerator * (den // c.denominator) for c in e.coeffs] or [0] for e in row]
        )
        scale *= den
    values = [
        _int_det([[_int_homog_eval(cs, z, 1) for cs in row] for row in rows])
        for z in range(degree + 1)
    ]
    return UniPoly(Fraction(c, scale) for c in _newton_interpolate(values))


def _int_det(m: List[List[int]]) -> int:
    piv_cols, parity = _bareiss(m)
    if len(piv_cols) < len(m):
        return 0
    return -m[-1][-1] if parity else m[-1][-1]


def _newton_interpolate(values: List[int]) -> List[int]:
    """Ascending coefficients of the integer polynomial P with P(z) =
    values[z] for z = 0..len(values)-1.

    The forward differences of P at 0, over k!, are its coefficients in the
    basis z(z-1)...(z-k+1); they are integers because P has integer
    coefficients, which an inexact division would contradict.
    """
    diffs = list(values)
    newton = []
    fact = 1
    for k in range(len(values)):
        if k:
            fact *= k
            diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        c, rem = divmod(diffs[0], fact)
        if rem:
            raise InternalCheckError("interpolated determinant is not integral")
        newton.append(c)
    out = [newton[-1]]
    for k in reversed(range(len(newton) - 1)):
        # out <- out * (z - k) + newton[k]
        shifted = [a - k * b for a, b in zip(out, out[1:])]
        out = [newton[k] - k * out[0], *shifted, out[-1]]
    return out


def charpoly_general(rows: Sequence[Sequence[Fraction]]) -> UniPoly:
    """det(z*I - A) for a general square rational matrix."""
    n = len(rows)
    return det_poly_matrix(
        [
            [UniPoly([-rows[i][j], 1] if i == j else [-rows[i][j]]) for j in range(n)]
            for i in range(n)
        ]
    )


CONE_POS = "p"
CONE_NEG = "-p"
CONE_NONE = "none"


@dataclass(frozen=True)
class WidthResult:
    rank: int
    cone: str  # CONE_POS when p is a sum of powers, CONE_NEG for -p, else CONE_NONE


def width(p: BinaryForm) -> WidthResult:
    """Rank of the catalecticant plus cone membership for p and -p."""
    inert = inertia(catalecticant(p))
    if inert.neg == 0 and inert.pos > 0:
        cone = CONE_POS
    elif inert.pos == 0 and inert.neg > 0:
        cone = CONE_NEG
    else:
        cone = CONE_NONE
    return WidthResult(inert.rank, cone)


def catalecticant_value(p: BinaryForm, t: Sequence[Fraction]) -> Fraction:
    """Evaluate the catalecticant quadratic form at a rational vector.

    Equals the inner product [p, L(t)^2] for L(t) = sum t_i x^(s-i) y^i.
    """
    if p.degree % 2 != 0:
        raise OddDegreeError("even degree required")
    s = p.degree // 2
    if len(t) != s + 1:
        raise DimensionMismatchError(f"need a vector of length {s + 1}")
    t = [Fraction(v) for v in t]
    return sum(p.coeffs[i + j] * t[i] * t[j] for i in range(s + 1) for j in range(s + 1))
