"""Exact rational matrices: arithmetic, RREF, deterministic nullspace bases.

Dense `Matrix` entries are `fractions.Fraction`; no floating point
anywhere.  The sparse `SparseEchelon` keeps its rows integral and
primitive and eliminates fraction-free; `Fraction`s appear only in the
reduced echelon form it emits.  The nullspace basis convention is fixed
once and for all: reduced row echelon form with pivots chosen left to
right, one basis vector per free column, free columns taken in increasing
index order.  Every caller that freezes expected values relies on this
being deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

Q0 = Fraction(0)
Q1 = Fraction(1)


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _exact(x: Fraction):
    """x as an int when integral, so integral constants give integer sums."""
    return x.numerator if x.denominator == 1 else x


class Matrix:
    """Dense matrix over the rationals."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, rows: Sequence[Sequence]):
        self.rows = [[_frac(x) for x in r] for r in rows]
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        for r in self.rows:
            if len(r) != self.ncols:
                raise ValueError("ragged rows")

    # -- constructors -------------------------------------------------

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "Matrix":
        m = cls.__new__(cls)
        m.nrows, m.ncols = nrows, ncols
        m.rows = [[Q0] * ncols for _ in range(nrows)]
        return m

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        m = cls.zeros(n, n)
        for i in range(n):
            m.rows[i][i] = Q1
        return m

    @classmethod
    def from_cols(cls, cols: Sequence[Sequence], nrows: int | None = None) -> "Matrix":
        cols = [list(c) for c in cols]
        if nrows is None:
            nrows = len(cols[0]) if cols else 0
        m = cls.zeros(nrows, len(cols))
        for j, c in enumerate(cols):
            for i, x in enumerate(c):
                m.rows[i][j] = _frac(x)
        return m

    # -- basic access -------------------------------------------------

    def col(self, j: int) -> list[Fraction]:
        return [r[j] for r in self.rows]

    def copy(self) -> "Matrix":
        return Matrix(self.rows)

    def is_zero(self) -> bool:
        return all(x == 0 for r in self.rows for x in r)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.nrows, self.ncols) == (other.nrows, other.ncols) and self.rows == other.rows

    def __hash__(self):
        return hash((self.nrows, self.ncols, tuple(tuple(r) for r in self.rows)))

    def __repr__(self):
        return f"Matrix({self.rows!r})"

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch in matrix addition")
        return Matrix([[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch in matrix subtraction")
        return Matrix([[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)])

    def __neg__(self) -> "Matrix":
        return Matrix([[-a for a in r] for r in self.rows])

    def scale(self, c) -> "Matrix":
        c = _frac(c)
        return Matrix([[c * a for a in r] for r in self.rows])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch: {self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}")
        out = Matrix.zeros(self.nrows, other.ncols)
        orows = other.rows
        for i, r in enumerate(self.rows):
            acc = out.rows[i]
            for k, a in enumerate(r):
                if a:
                    ork = orows[k]
                    for j in range(other.ncols):
                        b = ork[j]
                        if b:
                            acc[j] += a * b
        return out

    def apply(self, vec: Sequence) -> list[Fraction]:
        """Matrix-vector product."""
        if len(vec) != self.ncols:
            raise ValueError("vector length mismatch")
        return [sum((a * _frac(x) for a, x in zip(r, vec) if a), Q0) for r in self.rows]

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product; index convention is big-endian (first factor
        owns the most significant digit), matching the tensor-basis
        linearisation used throughout the package."""
        out = Matrix.zeros(self.nrows * other.nrows, self.ncols * other.ncols)
        for i, r in enumerate(self.rows):
            for k, a in enumerate(r):
                if a:
                    for i2, r2 in enumerate(other.rows):
                        tr = out.rows[i * other.nrows + i2]
                        base = k * other.ncols
                        for k2, b in enumerate(r2):
                            if b:
                                tr[base + k2] = a * b
        return out

    def transpose(self) -> "Matrix":
        return Matrix([[self.rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)])

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.nrows != other.nrows:
            raise ValueError("row count mismatch")
        return Matrix([r1 + r2 for r1, r2 in zip(self.rows, other.rows)])

    def vstack(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.ncols:
            raise ValueError("column count mismatch")
        return Matrix(self.rows + other.rows)

    # -- elimination --------------------------------------------------

    def rref(self) -> tuple["Matrix", list[int]]:
        """Reduced row echelon form and the list of pivot columns."""
        m = [row[:] for row in self.rows]
        pivots: list[int] = []
        pr = 0
        for pc in range(self.ncols):
            sel = None
            for i in range(pr, self.nrows):
                if m[i][pc]:
                    sel = i
                    break
            if sel is None:
                continue
            m[pr], m[sel] = m[sel], m[pr]
            inv = Q1 / m[pr][pc]
            m[pr] = [x * inv for x in m[pr]]
            for i in range(self.nrows):
                if i != pr and m[i][pc]:
                    f = m[i][pc]
                    m[i] = [a - f * b for a, b in zip(m[i], m[pr])]
            pivots.append(pc)
            pr += 1
            if pr == self.nrows:
                break
        return Matrix(m), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def nullspace(self) -> list[list[Fraction]]:
        """Deterministic kernel basis: one vector per free column, free
        columns in increasing order.  rank + len(result) == ncols."""
        red, pivots = self.rref()
        pivset = set(pivots)
        basis = []
        for j in range(self.ncols):
            if j in pivset:
                continue
            v = [Q0] * self.ncols
            v[j] = Q1
            for pr, pc in enumerate(pivots):
                v[pc] = -red.rows[pr][j]
            basis.append(v)
        return basis

    def solve(self, rhs: Sequence) -> list[Fraction] | None:
        """One exact solution of self @ x = rhs, or None if inconsistent."""
        aug = Matrix([r + [_frac(b)] for r, b in zip(self.rows, rhs)])
        red, pivots = aug.rref()
        if self.ncols in pivots:
            return None
        x = [Q0] * self.ncols
        for pr, pc in enumerate(pivots):
            x[pc] = red.rows[pr][self.ncols]
        return x


class SparseEchelon:
    """Incremental row-space echelon with sparse integer rows.

    Feed constraint rows one at a time; `add_row` clears each row's
    denominators and eliminates fraction-free, so every stored pivot row
    is a primitive integer row (content 1, positive lead) keyed by its
    lead column.  `rref()` emits the canonical reduced echelon form, the
    only place `Fraction`s are built, and `nullspace()` returns, as sparse
    vectors, the same basis as dense RREF of the stacked rows would (the
    fully reduced echelon form of a row space is unique, so the result
    does not depend on insertion order).
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.pivot_rows: dict[int, dict[int, int]] = {}

    def add_row(self, row: dict[int, Fraction]) -> bool:
        """Reduce a sparse row against the current pivots; returns True if
        it contributed a new pivot."""
        row = self._reduce(_integral(row))
        if not row:
            return False
        lead = min(row)
        g = gcd(*row.values())
        if row[lead] < 0:
            g = -g
        self.pivot_rows[lead] = {j: v // g for j, v in row.items()} if g != 1 else row
        return True

    def contains(self, row: dict[int, Fraction]) -> bool:
        """Whether a sparse row lies in the row space; the row is not
        inserted."""
        return not self._reduce(_integral(row))

    def _reduce(self, row: dict[int, int]) -> dict[int, int]:
        """Eliminate leads that are pivots until the lead is free; returns
        the remainder (empty if the row lies in the span)."""
        pivots = self.pivot_rows
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                return row
            _eliminate(row, piv, lead)
        return row

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def _back_reduce(self):
        """Clear every pivot column from the other pivot rows, in place.
        Pivots are taken from the last lead down, so a pivot row has lost
        its later pivot columns before it is used, and its fill lands on
        free columns only: which rows hold each pivot column is known from
        one index built up front."""
        rows = self.pivot_rows
        holders: dict[int, list[int]] = {lead: [] for lead in rows}
        for lead, row in rows.items():
            for j in row:
                if j != lead and j in holders:
                    holders[j].append(lead)
        for lead in sorted(rows, reverse=True):
            piv = rows[lead]
            for lead2 in holders[lead]:
                _eliminate(rows[lead2], piv, lead)

    def rref(self) -> dict[int, dict[int, Fraction]]:
        """The canonical reduced row echelon form: lead column -> row
        scaled to lead 1, in increasing lead order."""
        self._back_reduce()
        out = {}
        for lead in sorted(self.pivot_rows):
            row = self.pivot_rows[lead]
            p = row[lead]
            out[lead] = {j: Fraction(v, p) for j, v in row.items()}
        return out

    def nullspace(self) -> list[dict[int, Fraction]]:
        """One sparse kernel vector (index -> nonzero entry, in increasing
        index order) per free column, free columns in increasing order:
        the free column j carries 1, and each pivot column the negated
        entry at j of its RREF row."""
        rref = self.rref()
        basis: dict[int, dict[int, Fraction]] = {j: {} for j in range(self.ncols) if j not in rref}
        for pc, prow in rref.items():
            for j, c in prow.items():
                if j != pc:
                    basis[j][pc] = -c
        for j, v in basis.items():
            v[j] = Q1
        return list(basis.values())


def _integral(row: dict[int, Fraction]) -> dict[int, int]:
    """The nonzero entries of a rational row times the lcm of their
    denominators; an all-int row keeps its entries as they are."""
    row = {j: v for j, v in row.items() if v}
    if all(type(v) is int for v in row.values()):
        return row
    den = lcm(*(v.denominator for v in row.values()))
    return {j: v.numerator * (den // v.denominator) for j, v in row.items()}


def _eliminate(row: dict[int, int], piv: dict[int, int], lead: int) -> None:
    """Clear column `lead` of an integer row with a pivot row, in place:
    row <- (p row - r piv) / content, where p and r are the two entries at
    `lead` divided by their gcd (p > 0, so the sign of every other lead of
    the row is kept)."""
    p, r = piv[lead], row[lead]
    g = gcd(p, r)
    p, r = p // g, r // g
    if p != 1:
        for j in row:
            row[j] *= p
    for j, v in piv.items():
        nv = row.get(j, 0) - r * v
        if nv:
            row[j] = nv
        else:
            del row[j]
    if row:
        c = gcd(*row.values())
        if c != 1:
            for j in row:
                row[j] //= c


def _sparse(vec: Sequence) -> dict[int, Fraction]:
    return {j: _frac(x) for j, x in enumerate(vec) if x}


def span_echelon(vectors: Sequence[Sequence[Fraction]], ncols: int) -> SparseEchelon:
    """Echelon form of the span of a family of dense vectors of length ncols."""
    ech = SparseEchelon(ncols)
    for v in vectors:
        ech.add_row(_sparse(v))
    return ech


def span_rank(vectors: Sequence[Sequence[Fraction]]) -> int:
    """Rank of the span of a family of vectors."""
    if not vectors:
        return 0
    return span_echelon(vectors, len(vectors[0])).rank


def in_span(vectors: Sequence[Sequence[Fraction]], target: Sequence[Fraction]) -> bool:
    """Exact membership of `target` in the span of `vectors`."""
    return span_echelon(vectors, len(target)).contains(_sparse(target))
