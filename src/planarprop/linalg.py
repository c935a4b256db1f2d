"""Exact rational matrices: arithmetic, RREF, deterministic nullspace bases.

A `Matrix` holds its entries in one integer form: a positive common
denominator `den` and, per row, the columns of its nonzero entries in
increasing order and their integer numerators over den, as two parallel
tuples.  The form is reduced, gcd(den, every numerator) = 1, so equal
matrices have equal forms and `==` compares forms.  The products (`@`,
`apply`, `kron`), `+`, `scale` and the tests `is_zero` and `==` read and
build that form alone, with plain int arithmetic; no floating point
anywhere.  Row tuples are never written into, so results share them
with their operands (a row picked by a single entry 1, a row of a zero
operand of a sum).  `form()` is the one reader of the form outside this
module and `Matrix.from_form` its one writer.

Dense rows of `fractions.Fraction`s, zeros as the shared `Q0`, are
built only when a caller reads `.rows`.  From then on those lists stand
for the matrix, so a write `m.rows[i][j] = v` is seen, until the next
operation on the matrix reads them back into the integer form and drops
them; a caller keeps no `.rows` list across an operation and writes to
it afterwards.  `_int_rows` is that one conversion from dense rows.

The sparse `SparseEchelon` keeps its rows integral, primitive and fully
reduced as they arrive, and hands its kernel out as integer vectors (a
least common denominator and the numerators over it); `Matrix.rref`,
`rank`, `nullspace` and `solve` all eliminate through it, fed the
integer rows.  Of the eliminations, only `SparseEchelon.rref`,
`Matrix.solve` and `Matrix.nullspace` build `Fraction`s.  The nullspace
basis convention is fixed once and for all: reduced row echelon form
with pivots chosen left to right, one basis vector per free column, free
columns taken in increasing index order.  Every caller that freezes
expected values relies on this being deterministic.  `parse_rationals`
and `format_rationals` are the one reader and the one writer of
rationals as JSON text; `Matrix.text` gives the writer's text of a
matrix straight from its integer form.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from operator import mul
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


def _int_rows(rows: Sequence[Sequence]) -> tuple[int, tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """Dense rows of exact numbers (ints or Fractions) in the integer
    form: the lcm `den` of their denominators and, per row, the columns
    of its nonzero entries and their numerators over den.  The form is
    reduced, since each entry's ratio is.  One pass over the entries
    skips the shared `Q0` by identity; other zeros drop out by value."""
    ratios = [[(j, x.as_integer_ratio()) for j, x in enumerate(r) if x is not Q0 and x] for r in rows]
    den = lcm(*{d for r in ratios for _, (_, d) in r})
    cols = tuple([tuple([j for j, _ in r]) for r in ratios])
    nums = tuple([tuple([n * (den // d) for _, (n, d) in r]) for r in ratios])
    return den, cols, nums


class Matrix:
    """Matrix over the rationals, held in the integer form of the module
    docstring: a positive denominator `den` and, per row, the tuple of
    its nonzero columns (increasing) and the tuple of their numerators,
    with gcd(den, every numerator) = 1.  `.rows` hands out dense
    `Fraction` rows that stand for the matrix until the next operation
    reads them back."""

    __slots__ = ("nrows", "ncols", "_den", "_cols", "_nums", "_dense")

    def __init__(self, rows: Sequence[Sequence]):
        rows = [[_frac(x) for x in r] for r in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        self.nrows, self.ncols, self._dense = len(rows), ncols, None
        self._den, self._cols, self._nums = _int_rows(rows)

    # -- the integer form ---------------------------------------------

    @classmethod
    def from_form(cls, nrows: int, ncols: int, den: int, cols: Sequence[tuple], nums: Sequence[tuple]) -> "Matrix":
        """The matrix of an integer form: den > 0 and, per row, a tuple of
        increasing columns and a tuple of their nonzero numerators.  The
        form is reduced here and kept as tuples; its tuples may be shared
        with other matrices, since no one writes into them."""
        g = den
        for r in nums:
            if g == 1:
                break
            if r:
                g = gcd(g, *r)
        if g != 1:
            den //= g
            nums = [tuple([v // g for v in r]) for r in nums]
        m = cls.__new__(cls)
        m.nrows, m.ncols, m._den, m._cols, m._nums, m._dense = nrows, ncols, den, tuple(cols), tuple(nums), None
        return m

    @classmethod
    def from_entries(cls, nrows: int, ncols: int, den: int, entries) -> "Matrix":
        """The matrix of (row, column, numerator over den) triples of its
        nonzero entries; each row's columns arrive in increasing order."""
        cols, nums = [[] for _ in range(nrows)], [[] for _ in range(nrows)]
        for r, c, v in entries:
            cols[r].append(c)
            nums[r].append(v)
        return cls.from_form(nrows, ncols, den, list(map(tuple, cols)), list(map(tuple, nums)))

    @classmethod
    def from_dense_rows(cls, nrows: int, ncols: int, den: int, rows: dict[int, list[int]]) -> "Matrix":
        """The matrix whose row i is rows[i], a dense list of ncols integer
        numerators over den, for each i in rows, and zero elsewhere: the
        form of accumulation lists as `__matmul__` fills them."""
        cols, nums = [()] * nrows, [()] * nrows
        every = range(ncols)
        for i, acc in rows.items():
            cols[i] = tuple(compress(every, acc))
            nums[i] = tuple(filter(None, acc))
        return cls.from_form(nrows, ncols, den, cols, nums)

    def form(self) -> tuple[int, tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
        """(den, cols, nums): the reduced integer form.  Rows a caller
        read through `.rows` are read back into it here, and dropped."""
        if self._dense is not None:
            self._den, self._cols, self._nums = _int_rows(self._dense)
            self._dense = None
        return self._den, self._cols, self._nums

    @property
    def rows(self) -> list[list[Fraction]]:
        """Dense rows of Fractions, zeros as the shared Q0.  They stand for
        the matrix, so writes into them are seen, until the next operation
        on the matrix reads them back; keep no row across one."""
        if self._dense is None:
            self._dense = self._dense_rows()
            self._den = self._cols = self._nums = None
        return self._dense

    def text(self) -> list[list[str]]:
        """The entries as JSON text, row by row: `format_rationals(rows)`,
        written from the integer form, so the matrix hands no rows out."""
        if self._dense is not None:
            return format_rationals(self._dense)
        den, p = self._den, self.ncols
        out = []
        for c, n in zip(self._cols, self._nums):
            r = ["0"] * p
            for j, v in zip(c, n):
                r[j] = str(v) if den == 1 else str(Fraction(v, den))
            out.append(r)
        return out

    def _dense_rows(self) -> list[list[Fraction]]:
        den, p = self._den, self.ncols
        out = []
        for c, n in zip(self._cols, self._nums):
            r = [Q0] * p
            for j, v in zip(c, n):
                r[j] = Fraction(v, den)
            out.append(r)
        return out

    # -- constructors -------------------------------------------------

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "Matrix":
        return cls.from_form(nrows, ncols, 1, ((),) * nrows, ((),) * nrows)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls.from_form(n, n, 1, [(i,) for i in range(n)], ((1,),) * n)

    @classmethod
    def from_cols(cls, cols: Sequence[Sequence], nrows: int | None = None) -> "Matrix":
        """The matrix of these columns, each padded with zeros to nrows."""
        if nrows is None:
            nrows = len(cols[0]) if cols else 0
        den, ccols, cnums = _int_rows(cols)  # the form of the transpose
        entries = sorted((i, j, v) for j, (c, n) in enumerate(zip(ccols, cnums)) for i, v in zip(c, n))
        return cls.from_entries(nrows, len(cols), den, entries)

    # -- basic access -------------------------------------------------

    def col(self, j: int) -> list[Fraction]:
        den, cols, nums = self.form()
        out = []
        for c, n in zip(cols, nums):
            k = bisect_left(c, j)
            out.append(Fraction(n[k], den) if k < len(c) and c[k] == j else Q0)
        return out

    def copy(self) -> "Matrix":
        return Matrix.from_form(self.nrows, self.ncols, *self.form())

    def is_zero(self) -> bool:
        return not any(self.form()[1])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.nrows, self.ncols) == (other.nrows, other.ncols) and self.form() == other.form()

    def __repr__(self):
        return f"Matrix({self._dense if self._dense is not None else self._dense_rows()!r})"

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch in matrix addition")
        da, acols, anums = self.form()
        db, bcols, bnums = other.form()
        if not any(bcols):
            return self.copy()
        if not any(acols):
            return other.copy()
        den = lcm(da, db)
        fa, fb = den // da, den // db
        cols, nums = [], []
        for c1, n1, c2, n2 in zip(acols, anums, bcols, bnums):
            if not c2:
                cols.append(c1)
                nums.append(n1 if fa == 1 else tuple([v * fa for v in n1]))
            elif not c1:
                cols.append(c2)
                nums.append(n2 if fb == 1 else tuple([v * fb for v in n2]))
            else:
                acc = dict(zip(c1, [v * fa for v in n1]))
                for j, v in zip(c2, n2):
                    acc[j] = acc.get(j, 0) + v * fb
                keys = sorted(j for j, v in acc.items() if v)
                cols.append(tuple(keys))
                nums.append(tuple([acc[j] for j in keys]))
        return Matrix.from_form(self.nrows, self.ncols, den, cols, nums)

    def scale(self, c) -> "Matrix":
        c = _frac(c)
        if not c:
            return Matrix.zeros(self.nrows, self.ncols)
        den, cols, nums = self.form()
        n = c.numerator
        if n != 1:
            nums = [tuple([v * n for v in r]) for r in nums]
        return Matrix.from_form(self.nrows, self.ncols, den * c.denominator, cols, nums)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch: {self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}")
        da, acols, anums = self.form()
        db, bcols, bnums = other.form()
        p, n = other.ncols, self.nrows
        # only the nonzero rows of self are visited; the others stay empty
        cols, nums = [()] * n, [()] * n
        for i in compress(range(n), acols):
            ac, an = acols[i], anums[i]
            if len(ac) == 1:
                # one entry: the row of other it picks, scaled
                k, a = ac[0], an[0]
                cols[i] = bcols[k]
                nums[i] = bnums[k] if a == 1 else tuple([a * b for b in bnums[k]])
            else:
                acc = [0] * p
                for k, a in zip(ac, an):
                    for j, b in zip(bcols[k], bnums[k]):
                        acc[j] += a * b
                cols[i] = tuple(compress(range(p), acc))
                nums[i] = tuple(filter(None, acc))
        return Matrix.from_form(n, p, da * db, cols, nums)

    def apply(self, vec: Sequence) -> list[Fraction]:
        """Matrix-vector product."""
        if len(vec) != self.ncols:
            raise ValueError("vector length mismatch")
        den, cols, nums = self.form()
        dv, (vc,), (vn,) = _int_rows([vec])
        x = [0] * self.ncols
        for j, v in zip(vc, vn):
            x[j] = v
        get, den = x.__getitem__, den * dv
        sums = [sum(map(mul, n, map(get, c))) for c, n in zip(cols, nums)]
        if den == 1:
            return [Fraction(s) if s else Q0 for s in sums]
        return [Fraction(s, den) if s else Q0 for s in sums]

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product; index convention is big-endian (first factor
        owns the most significant digit), matching the tensor-basis
        linearisation used throughout the package.  A row's columns come
        out increasing, since each factor's are."""
        da, acols, anums = self.form()
        db, bcols, bnums = other.form()
        q = other.ncols
        brows = list(zip(bcols, bnums))
        cols, nums = [], []
        for ac, an in zip(acols, anums):
            shifts = [k * q for k in ac]
            for bc, bn in brows:
                if not ac or not bc:
                    cols.append(())
                    nums.append(())
                elif len(bc) == 1:
                    j, b = bc[0], bn[0]
                    cols.append(tuple([s + j for s in shifts]))
                    nums.append(an if b == 1 else tuple([a * b for a in an]))
                elif len(ac) == 1:
                    s, a = shifts[0], an[0]
                    cols.append(tuple([s + j for j in bc]))
                    nums.append(bn if a == 1 else tuple([a * b for b in bn]))
                else:
                    cols.append(tuple([s + j for s in shifts for j in bc]))
                    nums.append(tuple([a * b for a in an for b in bn]))
        return Matrix.from_form(self.nrows * other.nrows, self.ncols * q, da * db, cols, nums)

    # -- elimination --------------------------------------------------

    def _echelon(self) -> SparseEchelon:
        """The echelon of the row space, fed the integer rows (den scales
        every row alike, which changes neither the span nor its RREF)."""
        _, cols, nums = self.form()
        ech = SparseEchelon(self.ncols)
        for c, n in zip(cols, nums):
            ech.add_row(dict(zip(c, n)))
        return ech

    def rref(self) -> tuple["Matrix", list[int]]:
        """Reduced row echelon form and the list of pivot columns: row i is
        the echelon's integer row of the i-th lead p, over its entry at p."""
        rows = self._echelon().pivot_rows
        leads = sorted(rows)
        den = lcm(*[rows[p][p] for p in leads])
        entries = ((i, j, rows[p][j] * (den // rows[p][p])) for i, p in enumerate(leads) for j in sorted(rows[p]))
        return Matrix.from_entries(self.nrows, self.ncols, den, entries), leads

    def rank(self) -> int:
        return self._echelon().rank

    def nullspace(self) -> list[list[Fraction]]:
        """Deterministic kernel basis: one vector per free column, free
        columns in increasing order.  rank + len(result) == ncols."""
        out = []
        for den, items in self._echelon().nullspace():
            v = [Q0] * self.ncols
            for j, n in items:
                v[j] = Fraction(n, den)
            out.append(v)
        return out

    def solve(self, rhs: Sequence) -> list[Fraction] | None:
        """One exact solution of self @ x = rhs, or None if inconsistent;
        the right-hand side is scaled by den along with the rows."""
        n = self.ncols
        den, cols, nums = self.form()
        ech = SparseEchelon(n + 1)
        for c, v, b in zip(cols, nums, rhs):
            row = dict(zip(c, v))
            if b:
                row[n] = _frac(b) * den
            ech.add_row(row)
        red = ech.rref()
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
    sparse integer vectors, the same basis as dense RREF of the stacked
    rows would (the reduced echelon form of a row space is unique).
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

    def add_reduced(self, row: dict[int, int]) -> None:
        """Store an integer row that is already reduced against the echelon,
        with no elimination: its lowest column, its lead, carries a
        positive entry, is no pivot column and lies in no stored row, and
        it holds no other pivot column.  The row is divided by its content
        and kept, not copied, so every stored row stays primitive, and
        `_holders` gets its lead for each of its other columns."""
        lead = min(row)
        g = gcd(*row.values())
        if g != 1:
            row = {j: v // g for j, v in row.items()}
        holders = self._holders
        for j in row:
            if j != lead:
                holders[j].add(lead)
        self.pivot_rows[lead] = row

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

    def nullspace(self) -> list[tuple[int, list[tuple[int, int]]]]:
        """One kernel vector per free column, free columns in increasing
        order, as its least common denominator den and its nonzero (index,
        numerator over den) pairs in increasing index: the free column j
        carries 1, and each pivot column pc the negated entry at j of its
        RREF row, -row[j]/row[pc], read off the integer pivot row.  The
        echelon is fully reduced, so every other entry of a pivot row sits
        at a free column, past its lead."""
        rows = self.pivot_rows
        terms: dict[int, list] = {j: [] for j in range(self.ncols) if j not in rows}
        for pc in sorted(rows):
            row = rows[pc]
            p = row[pc]
            for j, v in row.items():
                if j != pc:
                    g = gcd(p, v)
                    terms[j].append((pc, -v // g, p // g))
        out = []
        for j, ts in terms.items():
            den = lcm(*[d for _, _, d in ts])
            out.append((den, [(pc, n * (den // d)) for pc, n, d in ts] + [(j, den)]))
        return out


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
