"""Exact rational matrices: elimination, spans, Kronecker products."""

import collections
import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from planarprop.linalg import Q0, Q1, Matrix, SparseEchelon, _eliminate, _integral, in_span, span_rank
from planarprop.operators import (
    _copies,
    _iter_constraints,
    _leibniz_blocks,
    _leibniz_echelon,
    _shifts,
    op_vector,
    solve_D,
    vector_layout,
)
from test_leibniz import CORPUS, corpus_target, leibniz_rows, target

fracs = st.fractions(min_value=-5, max_value=5, max_denominator=6)


# Entry-by-entry Fraction products and dense Gauss-Jordan elimination:
# oracles independent of the integer kernels and of `SparseEchelon`.


def reference_matmul(self, other):
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


def reference_apply(self, vec):
    if len(vec) != self.ncols:
        raise ValueError("vector length mismatch")
    return [sum((a * Fraction(x) for a, x in zip(r, vec) if a), Q0) for r in self.rows]


def reference_kron(self, other):
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


def reference_rref(self):
    m = [row[:] for row in self.rows]
    pivots = []
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


def reference_nullspace(self):
    red, pivots = reference_rref(self)
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


def reference_solve(self, rhs):
    aug = Matrix([r + [Fraction(b)] for r, b in zip(self.rows, rhs)])
    red, pivots = reference_rref(aug)
    if self.ncols in pivots:
        return None
    x = [Q0] * self.ncols
    for pr, pc in enumerate(pivots):
        x[pc] = red.rows[pr][self.ncols]
    return x


def reference_rank(rows):
    return len(reference_rref(Matrix(rows))[1])


class ReferenceEchelon:
    """An echelon that reduces each row lead by lead until its lead is
    free, through pivot rows that are not reduced, and back-reduces the
    pivot rows once, in `rref()`: the oracle for `SparseEchelon`, which
    keeps its rows reduced as they arrive."""

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
        g = math.gcd(*row.values())
        if row[lead] < 0:
            g = -g
        self.pivot_rows[lead] = {j: v // g for j, v in row.items()} if g != 1 else row
        return True

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


# Entries as callers leave them in `rows`: the shared Q0, zeros that are
# other objects (an int 0, a Fraction(0) from arithmetic), ints, and
# Fractions with mixed denominators.
raw_entries = st.one_of(
    st.just(Q0),
    st.just(0),
    fracs.map(lambda q: q - q),
    st.integers(-3, 3),
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
)


@st.composite
def st_raw_matrix(draw, nrows, ncols):
    """A matrix with raw entries written into `rows`, some rows and
    columns entirely zero: at most half of either, so that most matrices
    drawn are not zero."""
    m = Matrix.zeros(nrows, ncols)
    zero_rows = draw(st.sets(st.integers(0, max(nrows - 1, 0)), max_size=nrows // 2))
    zero_cols = draw(st.sets(st.integers(0, max(ncols - 1, 0)), max_size=ncols // 2))
    for i, row in enumerate(m.rows):
        for j in range(ncols):
            if i not in zero_rows and j not in zero_cols:
                row[j] = draw(raw_entries)
    return m


def test_raw_matrices_are_mostly_nonzero():
    """The raw operands of the reference tests below: over a fixed run of
    300 drawn 3x3 matrices, most are not zero."""
    drawn = []

    @settings(max_examples=300, derandomize=True, database=None)
    @given(st_raw_matrix(3, 3))
    def draw(m):
        drawn.append(not m.is_zero())

    draw()
    assert len(drawn) == 300 and sum(drawn) >= 200


dims = st.integers(0, 4)


def _all_fractions(entries):
    return all(type(x) is Fraction for x in entries)


@given(dims, dims, dims, st.data())
def test_matmul_matches_reference(n, k, m, data):
    A = data.draw(st_raw_matrix(n, k))
    B = data.draw(st_raw_matrix(k, m))
    out = A @ B
    assert out == reference_matmul(A, B)
    assert (out.nrows, out.ncols) == (n, m)
    assert _all_fractions(x for r in out.rows for x in r)


@given(dims, dims, st.data())
def test_apply_matches_reference(n, m, data):
    A = data.draw(st_raw_matrix(n, m))
    vec = data.draw(st.lists(raw_entries, min_size=m, max_size=m))
    out = A.apply(vec)
    assert out == reference_apply(A, vec)
    assert len(out) == n and _all_fractions(out)


@given(dims, dims, dims, dims, st.data())
def test_kron_matches_reference(n1, m1, n2, m2, data):
    A = data.draw(st_raw_matrix(n1, m1))
    B = data.draw(st_raw_matrix(n2, m2))
    out = A.kron(B)
    assert out == reference_kron(A, B)
    assert (out.nrows, out.ncols) == (n1 * n2, m1 * m2)
    assert _all_fractions(x for r in out.rows for x in r)


@given(dims, dims, st.data())
def test_elimination_matches_reference(n, m, data):
    A = data.draw(st_raw_matrix(n, m))
    rhs = data.draw(st.lists(raw_entries, min_size=n, max_size=n))
    red, pivots = A.rref()
    ref_red, ref_pivots = reference_rref(A)
    assert (red.rows, pivots) == (ref_red.rows, ref_pivots)
    assert (red.nrows, red.ncols) == (n, m)
    assert A.rank() == len(pivots)
    assert A.nullspace() == reference_nullspace(A)
    assert A.solve(rhs) == reference_solve(A, rhs)
    assert _all_fractions(x for r in red.rows for x in r)


def test_shape_mismatches_are_rejected():
    with pytest.raises(ValueError):
        Matrix.zeros(2, 3) @ Matrix.zeros(2, 3)
    with pytest.raises(ValueError):
        Matrix.zeros(2, 3).apply([Q0, Q0])


def test_zero_entries_are_the_shared_zero():
    """Zeros given to the constructor and zeros of a product, cancelled
    sums included, are the shared Q0."""
    A = Matrix([[0, Fraction(0), Fraction(1, 2)], [Fraction(2, 3), 0, 1]])
    assert A.rows[0][0] is Q0 and A.rows[0][1] is Q0 and A.rows[1][1] is Q0
    cancel = Matrix([[1, Fraction(1, 2)], [-2, -1]])
    products = [
        (cancel @ Matrix([[1, 0], [-2, 1]])).rows,
        A.kron(Matrix([[0, 1]])).rows,
        [cancel.apply([1, -2])],
    ]
    assert sum(x is Q0 for rows in products for r in rows for x in r) == 2 + 9 + 2
    assert Matrix([[0, Fraction(0)]]).is_zero() and not A.is_zero()


def _from_rows(rows, ncols):
    """The matrix with these rows written into `.rows`; it keeps its
    width when there are no rows."""
    out = Matrix.zeros(len(rows), ncols)
    for r, row in zip(out.rows, rows):
        r[:] = row
    return out


def reference_add(self, other):
    if (self.nrows, self.ncols) != (other.nrows, other.ncols):
        raise ValueError("shape mismatch in matrix addition")
    return _from_rows([[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)], self.ncols)


def reference_scale(self, c):
    return _from_rows([[Fraction(c) * a for a in r] for r in self.rows], self.ncols)


# Raw entries that are mostly nonzero, so that products of a few of them
# are seldom zero.
dense_entries = st.one_of(
    st.integers(-3, 3).filter(bool),
    st.fractions(min_value=-5, max_value=5, max_denominator=12).filter(bool),
    raw_entries,
)


def st_dense_matrix(nrows, ncols):
    """A matrix with mostly nonzero raw entries written into `rows`."""
    row = st.lists(dense_entries, min_size=ncols, max_size=ncols)
    return st.lists(row, min_size=nrows, max_size=nrows).map(lambda rows: _from_rows(rows, ncols))


@st.composite
def st_operand(draw, nrows, ncols):
    """A matrix of the given shape in either form: raw entries written
    into `.rows`, or the integer form of a product, Kronecker product or
    multiple of such matrices, whose rows nobody has read."""
    kind = draw(st.sampled_from(("rows", "dense rows", "matmul", "kron", "scale")))
    if kind == "rows":
        return draw(st_raw_matrix(nrows, ncols))
    if kind == "dense rows":
        return draw(st_dense_matrix(nrows, ncols))
    if kind == "matmul":
        k = draw(st.integers(1, 3))
        return draw(st_dense_matrix(nrows, k)) @ draw(st_dense_matrix(k, ncols))
    if kind == "kron":
        return draw(st_dense_matrix(nrows, 1)).kron(draw(st_dense_matrix(1, ncols)))
    return draw(st_dense_matrix(nrows, ncols)).scale(draw(fracs.filter(bool)))


def _entries(m):
    """The entries as a fresh list of lists, read off `.rows`."""
    return [list(r) for r in m.rows]


@given(dims, dims, dims, st.data())
def test_products_match_reference_on_either_form(n, k, m, data):
    """@, kron and apply of operands in either form are computed before
    the oracles read the operands' rows."""
    A = data.draw(st_operand(n, k))
    B = data.draw(st_operand(k, m))
    vec = data.draw(st.lists(raw_entries, min_size=k, max_size=k))
    prod, kron, image = A @ B, A.kron(B), A.apply(vec)
    ref_prod, ref_kron = reference_matmul(A, B), reference_kron(A, B)
    assert prod == ref_prod and _entries(prod) == _entries(ref_prod)
    assert kron == ref_kron and _entries(kron) == _entries(ref_kron)
    assert image == reference_apply(A, vec)


@given(dims, dims, st.data())
def test_sum_and_scale_match_reference_on_either_form(n, m, data):
    A = data.draw(st_operand(n, m))
    B = data.draw(st_operand(n, m))
    c = data.draw(st.one_of(fracs, st.integers(-3, 3)))
    total, scaled = A + B, A.scale(c)
    ref_total, ref_scaled = reference_add(A, B), reference_scale(A, c)
    assert total == ref_total and _entries(total) == _entries(ref_total)
    assert scaled == ref_scaled and _entries(scaled) == _entries(ref_scaled)


@given(dims, dims, st.data())
def test_access_matches_reference_on_either_form(n, m, data):
    """col, copy, text, == and is_zero against the dense entries; a copy
    is equal and written into independently of its original."""
    A = data.draw(st_operand(n, m))
    B = data.draw(st_operand(n, m))
    cols = [A.col(j) for j in range(m)]
    copy, text, same, zero = A.copy(), A.text(), A == B, A.is_zero()
    rows = _entries(A)
    assert cols == [[r[j] for r in rows] for j in range(m)]
    assert _all_fractions(x for c in cols for x in c)
    assert text == [[str(x) if x else "0" for x in r] for r in rows]
    assert same == (rows == _entries(B))
    assert zero == (not any(x for r in rows for x in r))
    assert copy == A and _entries(copy) == rows
    if n and m:
        copy.rows[0][0] += 1
        assert copy != A and _entries(A) == rows


@given(dims, dims, st.data())
def test_equal_entries_compare_equal_in_any_form(n, m, data):
    """Rows written by hand, a product, a sum, a scaled multiple and a
    Kronecker product with the 1x1 identity all give equal matrices
    when their entries agree, and unequal ones when one entry differs."""
    A = data.draw(st_operand(n, m))
    rows = _entries(A)
    forms = [
        _from_rows(rows, m),
        A @ Matrix.identity(m),
        Matrix.identity(n) @ A,
        A + Matrix.zeros(n, m),
        A.scale(2).scale(Fraction(1, 2)),
        A.scale(Fraction(2, 3)).scale(Fraction(3, 2)),
        A.kron(Matrix.identity(1)),
        A.copy(),
    ]
    by_hand = Matrix.zeros(n, m)
    for i, r in enumerate(rows):
        for j, x in enumerate(r):
            by_hand.rows[i][j] = x.numerator if x.denominator == 1 else x
    forms.append(by_hand)
    for X in forms:
        assert X == A and A == X and X.form() == A.form()
    if n and m:
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, m - 1))
        bumped = A.copy()
        bumped.rows[i][j] += Fraction(1, 7)
        assert all(X != bumped for X in forms)


@given(dims, dims, dims, st.data())
def test_writes_through_rows_after_a_product_are_seen(n, k, m, data):
    """A product result written through `.rows` is read back by the next
    product and by ==, and so is an operand written after a product."""
    A = data.draw(st_raw_matrix(n, k))
    B = data.draw(st_raw_matrix(k, m))
    P = A @ B
    x = data.draw(fracs)
    if n and m:
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, m - 1))
        P.rows[i][j] = x
    expected = _from_rows(_entries(P), m)
    assert P == expected
    assert P @ Matrix.identity(m) == expected
    assert P.kron(Matrix.identity(1)) == expected
    if n and k:
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, k - 1))
        A.rows[i][j] = x
        assert A @ B == reference_matmul(A, B)
        assert A.col(j)[i] == x


@given(dims, dims, dims, st.data())
def test_rows_of_results_keep_zeros_as_the_shared_zero(n, k, m, data):
    A = data.draw(st_operand(n, k))
    B = data.draw(st_operand(k, m))
    C = data.draw(st_operand(n, k))
    results = [A @ B, A.kron(B), A + C, A.scale(data.draw(fracs)), A.copy()]
    for R in results:
        assert all(x is Q0 for r in R.rows for x in r if not x)
        assert _all_fractions(x for r in R.rows for x in r)


def st_matrix(nrows, ncols):
    return st.lists(
        st.lists(fracs, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows
    ).map(Matrix)


@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_rank_nullity(n, m, data):
    A = data.draw(st_matrix(n, m))
    ns = A.nullspace()
    assert A.rank() + len(ns) == m
    for v in ns:
        assert all(x == 0 for x in A.apply(v))


@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 2), st.data())
def test_from_cols_is_the_transpose_padded_to_nrows(n, m, pad, data):
    """Columns of Fractions, as `families` and the benchmark's generator
    pass them, become the columns of the matrix, padded with zero rows up
    to nrows when it is given."""
    cols = data.draw(st.lists(st.lists(fracs, min_size=n, max_size=n), min_size=m, max_size=m))
    assert Matrix.from_cols(cols) == Matrix([[c[i] for c in cols] for i in range(n)])
    padded = [c + [Q0] * pad for c in cols]
    assert Matrix.from_cols(cols, nrows=n + pad) == Matrix([[c[i] for c in padded] for i in range(n + pad)])


@given(st.data())
def test_rref_idempotent(data):
    A = data.draw(st_matrix(3, 4))
    R, pivots = A.rref()
    R2, pivots2 = R.rref()
    assert R2 == R
    assert pivots2 == pivots


@given(st.data())
def test_matmul_associative(data):
    A = data.draw(st_matrix(2, 3))
    B = data.draw(st_matrix(3, 2))
    C = data.draw(st_matrix(2, 3))
    assert (A @ B) @ C == A @ (B @ C)


@given(st.data())
def test_kron_mixed_product(data):
    A = data.draw(st_matrix(2, 2))
    B = data.draw(st_matrix(2, 2))
    C = data.draw(st_matrix(2, 2))
    D = data.draw(st_matrix(2, 2))
    assert (A @ C).kron(B @ D) == A.kron(B) @ C.kron(D)


@given(st.data())
def test_solve_consistency(data):
    A = data.draw(st_matrix(3, 3))
    rhs = data.draw(st.lists(fracs, min_size=3, max_size=3))
    x = A.solve(rhs)
    if x is not None:
        assert A.apply(x) == [Fraction(v) for v in rhs]


def test_sparse_echelon_matches_dense_rank():
    rng = random.Random(17)
    for _ in range(30):
        n, m = rng.randint(1, 5), rng.randint(1, 6)
        rows = [[Fraction(rng.randint(-2, 2)) for _ in range(m)] for _ in range(n)]
        se = SparseEchelon(m)
        for row in rows:
            se.add_row({j: v for j, v in enumerate(row) if v})
        assert se.rank == reference_rank(rows)
        for _, items in se.nullspace():
            assert all(x == 0 for x in Matrix(rows).apply(_dense(dict(items), m)))


def test_span_helpers():
    v1 = [Fraction(1), Fraction(0)]
    v2 = [Fraction(0), Fraction(1)]
    assert span_rank([v1, v2, [Fraction(1), Fraction(1)]]) == 2
    assert in_span([v1], [Fraction(3), Fraction(0)])
    assert not in_span([v1], v2)


def _sparse_rows(rows):
    return [{j: v for j, v in enumerate(row) if v} for row in rows]


def _dense(vec, ncols):
    out = [Fraction(0)] * ncols
    for j, v in vec.items():
        out[j] = v
    return out


def assert_integer_kernel(kernel, reference):
    """`SparseEchelon.nullspace`'s vectors are the reference's sparse
    Fraction vectors, index for index, times a denominator den: its
    entries are the ints den * v, nonzero and in increasing index, and den
    is least, its gcd with them 1."""
    assert len(kernel) == len(reference)
    for (den, items), ref in zip(kernel, reference):
        assert den > 0 and all(type(v) is int for _, v in items)
        assert items == [(j, den * v) for j, v in ref.items()]
        assert [j for j, _ in items] == sorted(ref) and all(v for _, v in items)
        assert math.gcd(den, *(v for _, v in items)) == 1


@st.composite
def st_rows_with_repeats(draw):
    """Rational rows (negative and non-integral entries included) with
    zero and duplicate rows mixed in, in a shuffled order."""
    ncols = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(fracs, min_size=ncols, max_size=ncols), min_size=1, max_size=6))
    rows += [[Fraction(0)] * ncols] * draw(st.integers(0, 2))
    for k in draw(st.lists(st.integers(0, len(rows) - 1), max_size=3)):
        rows.append([x * draw(fracs.filter(bool)) for x in rows[k]])
    return ncols, draw(st.permutations(rows))


@given(st_rows_with_repeats())
def test_sparse_echelon_nullspace_equals_dense(case):
    ncols, rows = case
    se = SparseEchelon(ncols)
    for row in _sparse_rows(rows):
        se.add_row(row)
    dense = Matrix(rows)
    assert se.rank == reference_rank(rows)
    assert_integer_kernel(se.nullspace(), [_sparse_rows([v])[0] for v in reference_nullspace(dense)])


@given(st_rows_with_repeats())
def test_integer_rows_are_neither_kept_nor_changed(case):
    """All-int rows skip the denominator pass: explicit zeros are dropped,
    and the caller's dict is neither stored nor reduced in place, by
    add_row or by contains."""
    ncols, rows = case
    int_rows = []
    for row in rows:
        den = math.lcm(*(v.denominator for v in row))
        int_rows.append({j: int(v * den) for j, v in enumerate(row)})
    int_rows += [{j: v for j, v in row.items() if v} for row in int_rows]
    copies = [dict(row) for row in int_rows]
    se = SparseEchelon(ncols)
    for row in int_rows:
        se.contains(row)
        se.add_row(row)
        se.contains(row)
    assert int_rows == copies
    assert not any(piv is row for piv in se.pivot_rows.values() for row in int_rows)
    rational = SparseEchelon(ncols)
    for row in _sparse_rows(rows):
        rational.add_row(row)
    assert se.rref() == rational.rref()


@given(st_rows_with_repeats())
def test_rational_rows_are_left_unchanged(case):
    """add_row and contains read a caller's Fraction row without writing
    to it, and keep no reference to it."""
    ncols, rows = case
    frac_rows = [{j: Fraction(v) for j, v in row.items()} for row in _sparse_rows(rows)]
    before = [[(j, type(v), v) for j, v in row.items()] for row in frac_rows]
    se = SparseEchelon(ncols)
    for row in frac_rows:
        se.contains(row)
        se.add_row(row)
        assert se.contains(row)
    assert [[(j, type(v), v) for j, v in row.items()] for row in frac_rows] == before
    assert not any(piv is row for piv in se.pivot_rows.values() for row in frac_rows)


def assert_reduced(se):
    """Every stored row is primitive and integral, its lead is its lowest
    column and positive, and it holds no other pivot column."""
    rows = se.pivot_rows
    for lead, row in rows.items():
        assert lead == min(row) and row[lead] > 0
        assert all(type(v) is int for v in row.values())
        assert math.gcd(*row.values()) == 1
        assert rows.keys() & row.keys() == {lead}


@given(st_rows_with_repeats())
def test_sparse_echelon_rows_are_primitive_integers(case):
    """The stored rows are the reduced echelon form after every row."""
    ncols, rows = case
    se = SparseEchelon(ncols)
    for row in _sparse_rows(rows):
        se.add_row(row)
        assert_reduced(se)


def assert_matches_reference(ncols, rows):
    """The same pivots row by row, the reduced form kept after every new
    pivot, and the same RREF and kernel as the reference."""
    se, ref = SparseEchelon(ncols), ReferenceEchelon(ncols)
    for row in rows:
        new = se.add_row(row)
        assert new == ref.add_row(row)
        if new:
            assert_reduced(se)
    assert se.rref() == ref.rref()
    assert_integer_kernel(se.nullspace(), ref.nullspace())


@given(st_rows_with_repeats())
def test_sparse_echelon_matches_reference_echelon(case):
    ncols, rows = case
    assert_matches_reference(ncols, _sparse_rows(rows))


@given(dims, dims, st.data())
def test_sparse_echelon_matches_reference_echelon_on_raw_rows(n, m, data):
    A = data.draw(st_raw_matrix(n, m))
    assert_matches_reference(m, _sparse_rows(A.rows))


@pytest.mark.parametrize("case", [("m2", (1,), 1), ("dualnum", (3,), 0), ("k2", (3,), 0)], ids=str)
def test_sparse_echelon_matches_reference_on_dense_conjugate(case):
    """The Leibniz rows of a dense conjugate, nearly all redundant."""
    name, shape, grade = case
    B = target(name)
    assert_matches_reference(vector_layout(B, shape, grade)["total"], leibniz_rows(B, shape, grade))


REPLICATED_CASES = [
    (name, kind, shape, grade)
    for name in ("dualnum", "k2", "m2")
    for kind in ("std", "conj")
    for shape, grade in [((1,), 1), ((2,), 0), ((1, 1), 0), ((2, 1), 1), ((1, 0, 2), 0), ((3,), 0)]
    # m2 has no (3,) case; the reference takes minutes on its dense
    # conjugate at (2, 1) grade 1 and (1, 0, 2)
    if not (name == "m2" and (shape == (3,) or kind == "conj" and shape in ((2, 1), (1, 0, 2))))
] + [
    # earlier slots that are not single parts
    (name, "spec", shape, grade)
    for name in ("kx3", "kxy2", "t2")
    for shape, grade in [((2, 1), 1), ((1, 2), 1), ((2, 2), 0), ((3,), 0)]
    # the reference takes about 4 s on kxy2 at (2, 2)
    if not (name == "kxy2" and shape == (2, 2))
]


def assert_echelon_matches_reference(B, shape, grade):
    layout, ech = _leibniz_echelon(B, shape, grade)
    ref = ReferenceEchelon(layout["total"])
    for row in leibniz_rows(B, tuple(x for x in shape if x), grade):
        ref.add_row(row)
    assert ech.rref() == ref.rref()


@pytest.mark.parametrize("case", REPLICATED_CASES, ids=str)
def test_leibniz_echelon_matches_reference_fed_every_row(case):
    """`_leibniz_echelon` feeds a block with one copy as it is, replicates
    the reduced template of any other block and skips a slot's copies at
    an earlier slot's template leads; its RREF is that of the reference
    fed every row of `leibniz_rows`."""
    name, kind, shape, grade = case
    assert_echelon_matches_reference(corpus_target(name, kind), shape, grade)


CORES = [(1,), (2,), (3,), (1, 1), (1, 2), (2, 1), (1, 1, 1)]


@st.composite
def st_corpus_systems(draw, cores=CORES):
    """A target of the corpus, a shape of at most 3 parts and order at most
    3, and a grade at most 1 where the system has at most 10,000 unknowns
    (the reference takes about 0.5 s there; order 3 at grade 1 on an
    algebra of dimension 4 has 50,000).  On the dense m2 conjugate the
    cap is 300 unknowns: the reference takes 0.7 s on its 256 at (1, 1)
    and 272 at (2,), and 34 s on its 2,112 at (2,) grade 1.  The shape's
    positive parts are drawn from `cores`."""
    case = draw(st.sampled_from(CORPUS))
    B = corpus_target(*case)
    cap = 300 if case == ("m2", "conj") else 10_000
    parts = draw(st.sampled_from([p for p in cores if vector_layout(B, p, 0)["total"] <= cap]))
    shape = tuple(draw(st.permutations(parts + (0,) * draw(st.integers(0, 3 - len(parts))))))
    grade = draw(st.sampled_from([g for g in (0, 1) if vector_layout(B, shape, g)["total"] <= cap]))
    return B, shape, grade


@settings(max_examples=40, deadline=None)
@given(st_corpus_systems())
def test_leibniz_echelon_matches_reference_over_the_corpus(case):
    assert_echelon_matches_reference(*case)


@settings(max_examples=40, deadline=None)
@given(st_corpus_systems([p for p in CORES if len(p) > 1]))
def test_multi_slot_basis_is_the_whole_system_nullspace(case):
    """`solve_D` builds a shape of several positive slots from its slots'
    bases; its operators are the canonical nullspace of the whole system,
    which `_leibniz_echelon` still eliminates, in the same order."""
    B, shape, grade = case
    layout, ech = _leibniz_echelon(B, shape, grade)
    kernel = [(den, dict(items)) for den, items in ech.nullspace()]
    assert [op_vector(P, layout) for P in solve_D(B, shape, grade)] == kernel


@settings(max_examples=40, deadline=None)
@given(st_corpus_systems([p for p in CORES if sum(p) > 1]))
def test_seeded_finest_blocks_match_every_row_fed(case):
    """`_leibniz_echelon` writes the finest refinement's reduced rows into
    its echelon before it feeds any row.  Those rows, stored on their own,
    hold the same pivot rows as an echelon fed every copy of every row of
    the finest blocks.  `_holders` keeps, per column, at least the leads of
    the stored rows that hold it: exactly those when the rows are written,
    and possibly leads of rows that lost the column when they are fed."""
    B, shape, grade = case
    core = tuple(x for x in shape if x)
    total = vector_layout(B, shape, grade)["total"]
    written = []
    add_reduced = SparseEchelon.add_reduced

    def recording(self, row):
        written.append(dict(row))  # the echelon may reduce the row it keeps later
        add_reduced(self, row)

    SparseEchelon.add_reduced = recording
    try:
        _leibniz_echelon(B, shape, grade)
    finally:
        SparseEchelon.add_reduced = add_reduced
    seeded, fed = SparseEchelon(total), SparseEchelon(total)
    for row in written:
        seeded.add_reduced(row)
    blocks = zip(_iter_constraints(core, grade), _leibniz_blocks(B, core, grade))
    for (kappa, _, _), (template, own, rests, outs, _) in blocks:
        if len(kappa) == sum(core):
            for row in _copies(template, own, _shifts(rests, outs)):
                fed.add_row(row)
    assert seeded.pivot_rows == fed.pivot_rows
    assert_reduced(seeded)
    holding = collections.defaultdict(set)
    for lead, row in fed.pivot_rows.items():
        for j in row.keys() - {lead}:
            holding[j].add(lead)
    assert seeded._holders == holding
    assert all(leads <= fed._holders[j] for j, leads in holding.items())


@given(st_rows_with_repeats(), st.data())
def test_contains_matches_rank(case, data):
    ncols, rows = case
    se = SparseEchelon(ncols)
    for row in _sparse_rows(rows):
        se.add_row(row)
    target = data.draw(st.lists(fracs, min_size=ncols, max_size=ncols))
    member = se.contains({j: v for j, v in enumerate(target) if v})
    assert member == (reference_rank(rows + [target]) == se.rank)
    assert member == in_span(rows, target)


def test_rref_matches_sympy():
    rng = random.Random(5)
    for _ in range(40):
        n, m = rng.randint(1, 5), rng.randint(1, 7)
        rows = [
            [Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3))) * rng.randint(0, 1) for _ in range(m)]
            for _ in range(n)
        ]
        se = SparseEchelon(m)
        for row in _sparse_rows(rows):
            se.add_row(row)
        red, pivots = sympy.Matrix(rows).rref()
        expected = {
            pc: {j: Fraction(int(x.p), int(x.q)) for j, x in enumerate(red.row(k)) if x}
            for k, pc in enumerate(pivots)
        }
        assert se.rref() == expected
