"""Seeded inputs for the benchmark: dense conjugates of the standard
algebras and composite planar graphs.

Every input is a pure function of a `random.Random`, so one seed gives the
same inputs on every machine.
"""

from __future__ import annotations

import random
from fractions import Fraction

from planarprop.algebras import FinAlgebra, check_algebra, dual_numbers, kxk, m2
from planarprop.graphs import Corolla, PlanarGraph, hcomp_graph, vcomp_graph
from planarprop.linalg import Matrix

BASE_ALGEBRAS = {"dualnum": dual_numbers, "k2": kxk, "m2": m2}

# A conjugate counts as dense when every entry of its change of basis is
# nonzero and at most this many of its a^3 structure constants are zero
# (k[x]/(x^2) always keeps one).
MAX_ZEROS = 1

# The changes of basis L @ U (L, U unit triangular, off-diagonal entries
# +-1) that give a dense conjugate, as sign patterns: bit k is set when the
# k-th off-diagonal entry of L, then of U, in row order, is -1.  This is
# all of them, as `dense_signs` finds them; the table spares set-up the
# search (about 1 s for m2) and makes set-up cost the same for every seed,
# which then only picks among them.
DENSE_SIGNS = {
    "dualnum": (0, 3),
    "k2": (3,),
    "m2": (
        38, 56, 459, 501, 646, 678, 696, 843, 875, 1259, 1269, 1318, 1643, 1653, 1958, 1976,
        2054, 2072, 2517, 2694, 2712, 2891, 2901, 3275, 3285, 3334, 3384, 3659, 3669, 3701, 3992, 4024,
    ),
}


def nnz(A: FinAlgebra) -> int:
    """Number of nonzero structure constants."""
    return sum(1 for plane in A.mult for row in plane for c in row if c)


def unimodular(n: int, signs: int) -> Matrix:
    """L @ U for the sign pattern `signs`.  det = 1, so the inverse is integral."""
    L, U = Matrix.identity(n), Matrix.identity(n)
    off = [(L, i, j) for i in range(n) for j in range(i)] + [(U, i, j) for i in range(n) for j in range(i + 1, n)]
    for k, (M, i, j) in enumerate(off):
        M.rows[i][j] = Fraction(-1 if signs >> k & 1 else 1)
    return L @ U


def change_basis(A: FinAlgebra, T: Matrix) -> FinAlgebra:
    """The same algebra in the basis given by the columns of T."""
    n = A.dim
    Tinv = Matrix.from_cols([T.solve([Fraction(int(i == j)) for i in range(n)]) for j in range(n)])
    cols = [T.col(i) for i in range(n)]
    mult = tuple(
        tuple(tuple(Tinv.apply(A.mul_vec(cols[i], cols[j]))) for j in range(n)) for i in range(n)
    )
    return FinAlgebra(n, mult, tuple(Tinv.apply(list(A.unit))))


def dense_signs(base: str) -> tuple[int, ...]:
    """Every sign pattern whose change of basis gives a dense conjugate."""
    A = BASE_ALGEBRAS[base]()
    n = A.dim
    out = []
    for signs in range(1 << (n * (n - 1))):
        T = unimodular(n, signs)
        if all(x for row in T.rows for x in row) and nnz(change_basis(A, T)) >= n**3 - MAX_ZEROS:
            out.append(signs)
    return tuple(out)


def dense_conjugates(base: str, count: int, rng: random.Random) -> list[FinAlgebra]:
    """`count` distinct seeded integral, dense, isomorphic copies of a
    standard algebra (fewer when fewer exist), each checked with
    `check_algebra`."""
    A = BASE_ALGEBRAS[base]()
    table = DENSE_SIGNS[base]
    out = []
    for signs in rng.sample(table, min(count, len(table))):
        C = change_basis(A, unimodular(A.dim, signs))
        if any(c.denominator != 1 for plane in C.mult for row in plane for c in row):
            raise AssertionError("unimodular change of basis gave fractional constants")
        check_algebra(C)
        out.append(C)
    return out


GRAPH_VERTICES = 6


def composite_graph(rng: random.Random) -> PlanarGraph:
    """A planar composite of at least GRAPH_VERTICES vertices: start from a
    corolla and substitute vertical or horizontal two-vertex graphs for
    random vertices."""
    G = PlanarGraph.corolla(rng.randint(1, 3), rng.randint(1, 3))
    while len(G.vertices) < GRAPH_VERTICES:
        v = rng.randrange(len(G.vertices))
        cor = G.vertices[v]
        if rng.random() < 0.5:
            k = rng.randint(1, 3)
            inner = vcomp_graph(Corolla(k, cor.n_out), Corolla(cor.n_in, k))
        else:
            if cor.n_in < 2 or cor.n_out < 2:
                continue
            i1 = rng.randint(1, cor.n_in - 1)
            o1 = rng.randint(1, cor.n_out - 1)
            inner = hcomp_graph(Corolla(i1, o1), Corolla(cor.n_in - i1, cor.n_out - o1))
        G = G.substitute(v, inner)
    return G
