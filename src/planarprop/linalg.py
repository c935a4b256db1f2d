"""Exact rational matrices: arithmetic, RREF, deterministic nullspace bases.

Dense `Matrix` entries are `fractions.Fraction`; no floating point
anywhere.  Zeros are kept as the shared `Q0`, so a scan tests an entry
by identity before its value.  The dense products (`@`, `apply`,
`kron`) read each operand once into a common denominator and the
integer numerators of its nonzero entries, multiply and add plain ints,
and build one `Fraction` per nonzero entry of the result.  The sparse
`SparseEchelon` keeps its rows integral, primitive and fully reduced
as they arrive; `Fraction`s appear only in the reduced echelon form it
emits, and `Matrix.rref`, `rank`, `nullspace` and `solve` all eliminate
through it.  The nullspace basis convention is fixed once and for all:
reduced row echelon form with pivots chosen left to right, one basis
vector per free column, free columns taken in increasing index order.
Every caller that freezes expected values relies on this being
deterministic.  `parse_rationals` and `format_rationals` are the one
reader and the one writer of rationals as JSON text.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

Q0 = Fraction(0)
Q1 = Fraction(1)


def _frac(x) -> Fraction:
    """x as a Fraction, and any zero as the shared Q0."""
    if not isinstance(x, Fraction):
        x = Fraction(x)
    return x if x else Q0


def parse_rationals(obj, shape: tuple[int, ...], what: str):
    """A nested list of the given shape, as JSON holds it, as nested tuples
    of Fractions; its entries are numbers or strings such as "-1/2".
    Raises ValueError(what) when it is misshapen or an entry is a boolean
    or not a finite rational."""
    if not shape:
        if type(obj) is not bool:
            try:
                return _frac(obj)
            except (TypeError, ValueError, ZeroDivisionError, OverflowError):
                pass
        raise ValueError(f"{what}, got the entry {obj!r}")
    if not isinstance(obj, list) or len(obj) != shape[0]:
        raise ValueError(what)
    return tuple(parse_rationals(x, shape[1:], what) for x in obj)


def format_rationals(rows) -> list[list[str]]:
    """Rows of rationals as JSON text, every zero as "0"."""
    return [[str(x) if x else "0" for x in row] for row in rows]


def _exact(x: Fraction):
    """x as an int when integral, so integral constants give integer sums."""
    return x.numerator if x.denominator == 1 else x


def _int_rows(rows: Sequence[Sequence]) -> tuple[int, list[list[tuple[int, int]]]]:
    """A common denominator `den` of the entries of `rows` and, per row,
    the (column, numerator over den) pairs of its nonzero entries.  One
    pass over the entries skips the shared `Q0` by identity; other zeros
    drop out by their numerator."""
    ratios = [(i, j, x.as_integer_ratio()) for i, r in enumerate(rows) for j, x in enumerate(r) if x is not Q0]
    den = lcm(*{d for _, _, (_, d) in ratios})
    out = [[] for _ in rows]
    for i, j, (n, d) in ratios:
        if n:
            out[i].append((j, n * (den // d)))
    return den, out


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
    def _of(cls, rows: list[list[Fraction]], ncols: int) -> "Matrix":
        """Wrap rows of Fractions, already of length ncols, without a copy."""
        m = cls.__new__(cls)
        m.nrows, m.ncols, m.rows = len(rows), ncols, rows
        return m

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "Matrix":
        return cls._of([[Q0] * ncols for _ in range(nrows)], ncols)

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
        return not any(x is not Q0 and x for r in self.rows for x in r)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.nrows, self.ncols) == (other.nrows, other.ncols) and self.rows == other.rows

    def __repr__(self):
        return f"Matrix({self.rows!r})"

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch in matrix addition")
        rows = [[a + b if b is not Q0 and b else a for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)]
        return Matrix._of(rows, self.ncols)

    def scale(self, c) -> "Matrix":
        c = _frac(c)
        return Matrix([[c * a for a in r] for r in self.rows])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch: {self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}")
        da, arows = _int_rows(self.rows)
        db, brows = _int_rows(other.rows)
        den, p = da * db, other.ncols
        acc = [0] * (self.nrows * p)
        for i, r in enumerate(arows):
            base = i * p
            for k, a in r:
                for j, b in brows[k]:
                    acc[base + j] += a * b
        vals = [Fraction(v, den) if v else Q0 for v in acc]
        return Matrix._of([vals[i * p:(i + 1) * p] for i in range(self.nrows)], p)

    def apply(self, vec: Sequence) -> list[Fraction]:
        """Matrix-vector product."""
        if len(vec) != self.ncols:
            raise ValueError("vector length mismatch")
        da, arows = _int_rows(self.rows)
        dv, (pairs,) = _int_rows([vec])
        x = [0] * self.ncols
        for j, v in pairs:
            x[j] = v
        den = da * dv
        out = []
        for r in arows:
            s = 0
            for j, a in r:
                s += a * x[j]
            out.append(Fraction(s, den) if s else Q0)
        return out

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product; index convention is big-endian (first factor
        owns the most significant digit), matching the tensor-basis
        linearisation used throughout the package."""
        da, arows = _int_rows(self.rows)
        db, brows = _int_rows(other.rows)
        den, p, q = da * db, other.nrows, other.ncols
        out = Matrix.zeros(self.nrows * p, self.ncols * q)
        for i, r in enumerate(arows):
            for k, a in r:
                base = k * q
                for tr, r2 in zip(out.rows[i * p:(i + 1) * p], brows):
                    for k2, b in r2:
                        tr[base + k2] = Fraction(a * b, den)
        return out

    # -- elimination --------------------------------------------------

    def rref(self) -> tuple["Matrix", list[int]]:
        """Reduced row echelon form and the list of pivot columns."""
        red = span_echelon(self.rows, self.ncols).rref()
        m = Matrix.zeros(self.nrows, self.ncols)
        for row, prow in zip(m.rows, red.values()):
            for j, v in prow.items():
                row[j] = v
        return m, list(red)

    def rank(self) -> int:
        return span_echelon(self.rows, self.ncols).rank

    def nullspace(self) -> list[list[Fraction]]:
        """Deterministic kernel basis: one vector per free column, free
        columns in increasing order.  rank + len(result) == ncols."""
        kernel = span_echelon(self.rows, self.ncols).nullspace()
        return [[v.get(j, Q0) for j in range(self.ncols)] for v in kernel]

    def solve(self, rhs: Sequence) -> list[Fraction] | None:
        """One exact solution of self @ x = rhs, or None if inconsistent."""
        n = self.ncols
        red = span_echelon([r + [b] for r, b in zip(self.rows, rhs)], n + 1).rref()
        if n in red:
            return None
        x = [Q0] * n
        for pc, prow in red.items():
            x[pc] = prow.get(n, Q0)
        return x


class SparseEchelon:
    """Incremental row-space echelon with sparse integer rows, kept in
    reduced echelon form (fraction-free Gauss-Jordan).

    `add_row` clears a row's denominators, then each pivot column in its
    support, once: a stored row holds no pivot column but its lead, so
    nothing cascades.  The remainder's lowest column becomes its lead and
    is cleared from the stored rows holding it, whose leads lie below it.
    Every stored row is a primitive integer row (content 1, positive lead
    at its lowest column) keyed by its lead.  `rref()` scales them to lead
    1, the only place `Fraction`s are built, and `nullspace()` returns, as
    sparse vectors, the same basis as dense RREF of the stacked rows would
    (the reduced echelon form of a row space is unique).
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.pivot_rows: dict[int, dict[int, int]] = {}
        # free column -> leads of the rows that may hold it (or held it)
        self._holders: defaultdict[int, set[int]] = defaultdict(set)

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
        row = {j: v // g for j, v in row.items()} if g != 1 else row
        rows, holders = self.pivot_rows, self._holders
        others = [holders[j] for j in row if j != lead]
        for lead2 in holders.pop(lead, ()):
            row2 = rows[lead2]
            if lead in row2:
                _eliminate(row2, row, lead)
                for held in others:
                    held.add(lead2)
        for held in others:
            held.add(lead)
        rows[lead] = row
        return True

    def contains(self, row: dict[int, Fraction]) -> bool:
        """Whether a sparse row lies in the row space; the row is not
        inserted."""
        return not self._reduce(_integral(row))

    def _reduce(self, row: dict[int, int]) -> dict[int, int]:
        """Clear every pivot column of an integer row in place, one pivot
        row each; returns the remainder (empty if the row lies in the
        span)."""
        pivots = self.pivot_rows
        for lead in row.keys() & pivots.keys():
            _eliminate(row, pivots[lead], lead)
        return row

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def rref(self) -> dict[int, dict[int, Fraction]]:
        """The canonical reduced row echelon form: lead column -> row
        scaled to lead 1, in increasing lead order."""
        out = {}
        for lead in sorted(self.pivot_rows):
            row = self.pivot_rows[lead]
            p = row[lead]
            out[lead] = {j: Fraction(v, p) for j, v in row.items()}
        return out

    def nullspace(self) -> list[dict[int, Fraction]]:
        """One sparse kernel vector (index -> nonzero entry, in increasing
        index order) per free column, free columns in increasing order:
        the free column j carries 1, and each pivot column pc the negated
        entry at j of its RREF row, -row[j]/row[pc], read off the integer
        pivot row.  The echelon is fully reduced, so every other entry of
        a pivot row sits at a free column."""
        rows = self.pivot_rows
        basis: dict[int, dict[int, Fraction]] = {j: {} for j in range(self.ncols) if j not in rows}
        for pc in sorted(rows):
            row = rows[pc]
            p = row[pc]
            for j, v in row.items():
                if j != pc:
                    basis[j][pc] = Fraction(-v, p)
        for j, v in basis.items():
            v[j] = Q1
        return list(basis.values())


def _integral(row: dict[int, Fraction]) -> dict[int, int]:
    """The nonzero entries of a rational row times the lcm of their
    denominators, as a new dict: the caller's row is never changed.  A
    row of nonzero ints, such as every Leibniz template row and copy, is
    copied as it is, with no pass over its entries in Python."""
    values = row.values()
    if set(map(type, values)) == {int} and all(values):
        return dict(row)
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
