"""Exact rational matrices: elimination, spans, Kronecker products."""

import math
import random
from fractions import Fraction

import sympy
from hypothesis import given, settings, strategies as st

from planarprop.linalg import Matrix, SparseEchelon, in_span, span_rank

fracs = st.fractions(min_value=-5, max_value=5, max_denominator=6)


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
        assert se.rank == Matrix(rows).rank()
        for v in se.nullspace():
            assert all(x == 0 for x in Matrix(rows).apply(_dense(v, m)))


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
    assert se.rank == dense.rank()
    kernel = se.nullspace()
    assert [_dense(v, ncols) for v in kernel] == dense.nullspace()
    assert all(list(v) == sorted(v) and all(v.values()) for v in kernel)


@given(st_rows_with_repeats())
def test_integer_rows_are_neither_kept_nor_changed(case):
    """All-int rows skip the denominator pass: explicit zeros are dropped,
    and the caller's dict is neither stored nor reduced in place."""
    ncols, rows = case
    int_rows = []
    for row in rows:
        den = math.lcm(*(v.denominator for v in row))
        int_rows.append({j: int(v * den) for j, v in enumerate(row)})
    copies = [dict(row) for row in int_rows]
    se = SparseEchelon(ncols)
    for row in int_rows:
        se.add_row(row)
    assert int_rows == copies
    assert not any(piv is row for piv in se.pivot_rows.values() for row in int_rows)
    rational = SparseEchelon(ncols)
    for row in _sparse_rows(rows):
        rational.add_row(row)
    assert se.rref() == rational.rref()


@given(st_rows_with_repeats())
def test_sparse_echelon_rows_are_primitive_integers(case):
    ncols, rows = case
    se = SparseEchelon(ncols)
    for row in _sparse_rows(rows):
        se.add_row(row)
    for lead, row in se.pivot_rows.items():
        assert lead == min(row) and row[lead] > 0
        assert all(type(v) is int for v in row.values())
        assert math.gcd(*row.values()) == 1


@given(st_rows_with_repeats(), st.data())
def test_contains_matches_rank(case, data):
    ncols, rows = case
    se = SparseEchelon(ncols)
    for row in _sparse_rows(rows):
        se.add_row(row)
    target = data.draw(st.lists(fracs, min_size=ncols, max_size=ncols))
    member = se.contains({j: v for j, v in enumerate(target) if v})
    assert member == (Matrix(rows + [target]).rank() == se.rank)
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
