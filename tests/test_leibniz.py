"""The Leibniz system on dense conjugates of the standard algebras.

A conjugate is the same algebra in another basis; a dense one has almost
no zero structure constants, so every term of the system is exercised.
The basis digests below were recorded with the earlier Fraction-based
assembly and elimination, so they pin the canonical nullspace bit for
bit.
"""

import functools
import hashlib
import json
from fractions import Fraction

import pytest

from planarprop.algebras import FinAlgebra, GradedTarget, check_algebra, dual_numbers, kxk, m2
from planarprop.linalg import Matrix
from planarprop.operators import check_leibniz, leibniz_rows, op_vector, solve_D, vector_layout

# Changes of basis L @ U with L, U unit triangular and off-diagonal
# entries +-1: determinant 1, so the conjugate keeps integral constants.
CHANGE_OF_BASIS = {
    "dualnum": (dual_numbers, [[1, 1], [1, 2]]),
    "k2": (kxk, [[1, -1], [-1, 2]]),
    "m2": (m2, [[1, 1, 1, 1], [1, 2, 2, 2], [-1, -2, -1, -1], [1, 2, 1, 2]]),
}

# sha256 of the JSON list of basis operators, per (algebra, shape, grade).
PINNED = {
    ("dualnum", (1,), 0): "f317904dc9f91d2fbf79d4eba65f6bf50fd2dd6663262daf8bccbf4f89b393d9",
    ("dualnum", (1,), 1): "fa472513fa8a100fb6bf0e5bf32e857f559da25c7d711fd4b4eda4fd48f45142",
    ("dualnum", (2,), 0): "02be76c4e6eb02848438f71ebc5092de2596379a0cdee39bcf2ed33164ce887b",
    ("dualnum", (2,), 1): "86fa4b9bbad0cab3bddb70b105c4c975e4af2e5fee564e4bef491ab475ee0538",
    ("dualnum", (1, 1), 0): "e7bea68165cc3cf91707b59e2cd70883ee37a45380750c404b73ceda33004eb7",
    ("dualnum", (1, 1), 1): "4ce380d17b8cd18334ab8a7b61c6f935e991be96f7d8fa8bdfd529a0e31ff67c",
    ("k2", (1,), 1): "2d7a981eb9564459b778a0b0ee87fee7884fd95b4aecbfddbf901491c751ebd4",
    ("k2", (2,), 1): "817bccb6eb03660b1b1710c1eb2e5d9e7cf64d349391a0d72adfcca4fa88524e",
    ("m2", (1,), 0): "215bf25774ec6b5115248526ca700e5b2bfd173754c651af1e0be13b19e937fa",
    ("m2", (1,), 1): "36ff7e3fd0c069c448d33daedb2cf152475d2e8f7b2b0dd9bcc1bba3127315b4",
    ("m2", (1, 1), 0): "ca3d09fd42865c3df5ad1efae68f1fdc9953883628dc798ef65b21416344c78d",
    ("m2", (2,), 0): "794a92782e0ac49039baeaec10ca70dec0ef4b89130184c5e58b21c06d7b0de7",
}
# Spaces that are zero on k2 (digest of the empty list).
ZERO = [("k2", (1,), 0), ("k2", (2,), 0), ("k2", (1, 1), 0), ("k2", (1, 1), 1)]


def conjugate(name: str) -> FinAlgebra:
    base, rows = CHANGE_OF_BASIS[name]
    A, T = base(), Matrix(rows)
    n = A.dim
    Tinv = Matrix.from_cols([T.solve([Fraction(int(i == j)) for i in range(n)]) for j in range(n)])
    cols = [T.col(i) for i in range(n)]
    mult = tuple(
        tuple(tuple(Tinv.apply(A.mul_vec(cols[i], cols[j]))) for j in range(n)) for i in range(n)
    )
    C = FinAlgebra(n, mult, tuple(Tinv.apply(list(A.unit))))
    check_algebra(C)
    return C


@functools.lru_cache(maxsize=None)
def target(name: str) -> GradedTarget:
    return GradedTarget(conjugate(name))


@functools.lru_cache(maxsize=None)
def basis(name: str, shape: tuple, grade: int):
    return solve_D(target(name), shape, grade)


def digest(ops) -> str:
    return hashlib.sha256(json.dumps([P.to_json() for P in ops], sort_keys=True).encode()).hexdigest()


CASES = sorted(PINNED) + ZERO


@pytest.mark.parametrize("name", sorted(CHANGE_OF_BASIS))
def test_conjugates_are_dense_and_integral(name):
    A = conjugate(name)
    consts = [c for plane in A.mult for row in plane for c in row]
    assert all(c.denominator == 1 for c in consts)
    assert sum(1 for c in consts if c == 0) <= 1


@pytest.mark.parametrize("case", CASES, ids=str)
def test_basis_digest_is_pinned(case):
    expected = PINNED.get(case, hashlib.sha256(b"[]").hexdigest())
    assert digest(basis(*case)) == expected


@pytest.mark.parametrize("case", sorted(PINNED), ids=str)
def test_basis_vectors_are_the_kernel(case):
    name, shape, grade = case
    B = target(name)
    layout = vector_layout(B, shape, grade)
    rows = list(leibniz_rows(B, shape, grade))
    assert all(type(v) is int for row in rows for v in row.values())
    for P in basis(*case):
        vec = op_vector(P, layout)
        assert all(sum(v * vec[j] for j, v in row.items()) == 0 for row in rows)


@pytest.mark.parametrize("case", sorted(PINNED), ids=str)
def test_check_leibniz_rejects_each_perturbed_block(case):
    for P in basis(*case):
        assert check_leibniz(P)
        for kappa, blocks in P.components.items():
            for g, M in blocks.items():
                Q = P.copy()
                bumped = M.copy()
                bumped.rows[0][0] += 1
                Q.components[kappa] = dict(Q.components[kappa])
                Q.components[kappa][g] = bumped
                assert not check_leibniz(Q), (kappa, g)
