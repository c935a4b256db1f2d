"""The collapse and multiplicativity checks against per-basis-element
reference loops.

`check_mP` and `validate_aut` compare whole matrices, one per index or
word.  The references below evaluate the same identities one basis tuple
(or basis pair) at a time; both sides must agree on every verdict, and on
the first failing (word, i, j)."""

import itertools
import random
from fractions import Fraction

import pytest

from planarprop.algebras import GradedTarget, dual_numbers, kxk, m2
from planarprop.families import AutFamily, from_derivations, lift_derivation, validate_aut
from planarprop.linalg import Matrix, Q0
from planarprop.operators import DiffOperator, check_mP, extend_degenerate, solve_Dn
from planarprop.partitions import enumerate_partitions

TARGETS = {"dualnum": dual_numbers, "k2": kxk, "m2": m2}
# highest order checked at grade 0 and at grade 1
TOP_ORDER = {"dualnum": (3, 3), "k2": (3, 3), "m2": (2, 1)}


def reference_check_mP(P: DiffOperator, d: int) -> bool:
    """Collapse identity of a single-slot operator of order at least one,
    checked on each basis tuple of A^{(x)d}."""
    B = P.B
    a = B.A.dim
    n = P.order
    assert len(P.core) == 1 and n > 0
    top = P.block((n,), (P.grade,))
    junction = {}  # (g, h, post) -> mB(g, h) (x) I_post, built once per call
    extended = [extend_degenerate(P, lam.parts) for lam in enumerate_partitions(n, d)]
    for tup in itertools.product(range(a), repeat=d):
        prod = B.A.basis_vec(tup[0])
        for t in tup[1:]:
            prod = B.A.mul_vec(prod, B.A.basis_vec(t))
        lhs = [Q0] * (a ** (P.grade + 1))
        if top is not None:
            for k, c in enumerate(prod):
                if c:
                    lhs = [x + c * v for x, v in zip(lhs, top.col(k))]
        rhs = [Q0] * len(lhs)
        col = 0
        for t in tup:
            col = col * a + t
        for blocks in extended:
            for g_ext, M in blocks.items():
                vec = M.col(col)
                gg = list(g_ext)
                while len(gg) > 1:
                    post = 1
                    for gj in gg[2:]:
                        post *= a ** (gj + 1)
                    key = (gg[0], gg[1], post)
                    if key not in junction:
                        junction[key] = B.mB_matrix(gg[0], gg[1]).kron(Matrix.identity(post))
                    vec = junction[key].apply(vec)
                    gg = [gg[0] + gg[1]] + gg[2:]
                rhs = [x + v for x, v in zip(rhs, vec)]
        if lhs != rhs:
            return False
    return True


def reference_validate_aut(phi: AutFamily) -> tuple[bool, tuple | None]:
    """Multiplicativity checked on each word and each basis pair, pairs in
    lexicographic order."""
    B = phi.B
    a = B.A.dim
    words = (w for k in range(phi.N + 1) for w in itertools.product(range(phi.n_letters), repeat=k))
    for w in words:
        k = len(w)
        split_data = []
        for cut in range(k + 1):
            m1, m2_ = phi.word_map(w[:cut]), phi.word_map(w[cut:])
            if m1.is_zero() or m2_.is_zero():
                continue
            split_data.append((B.mB_matrix(cut, k - cut), m1, m2_))
        target = phi.word_map(w)
        for i in range(a):
            for j in range(a):
                lhs = target.apply(B.A.mul_vec(B.A.basis_vec(i), B.A.basis_vec(j)))
                rhs = [Fraction(0)] * len(lhs)
                for mb, m1, m2_ in split_data:
                    joint = [x * y for x in m1.col(i) for y in m2_.col(j)]
                    rhs = [r + v for r, v in zip(rhs, mb.apply(joint))]
                if lhs != rhs:
                    return False, (w, i, j)
    return True, None


def bumped(P: DiffOperator, kappa, g, r: int, c: int) -> DiffOperator:
    """A copy of P with entry (r, c) of block (kappa, g) raised by one; the
    block is created as zero first when P does not store it."""
    a = P.B.A.dim
    Q = P.copy()
    blocks = Q.components.setdefault(kappa, {})
    M = blocks[g].copy() if g in blocks else Matrix.zeros(a ** (sum(g) + len(kappa)), a ** len(kappa))
    M.rows[r][c] += 1
    blocks[g] = M
    return Q


@pytest.fixture(scope="module")
def bases():
    out = {}
    for name, make in TARGETS.items():
        B = GradedTarget(make())
        out[name] = (
            B,
            {(n, grade): solve_Dn(B, n, grade)
             for grade, top in enumerate(TOP_ORDER[name]) for n in range(1, top + 1)},
        )
    return out


@pytest.mark.parametrize("name", sorted(TARGETS))
def test_check_mP_agrees_on_basis_operators(bases, name):
    _, by_order = bases[name]
    for (n, _), basis in by_order.items():
        for P in basis:
            for d in range(1, n + 2):
                assert check_mP(P, d) is reference_check_mP(P, d) is True


@pytest.mark.parametrize("name", sorted(TARGETS))
def test_check_mP_agrees_on_bumped_operators(bases, name):
    B, by_order = bases[name]
    a = B.A.dim
    verdicts = []
    # order 1: every entry of the top block, on each basis operator and on zero
    for P in by_order[1, 0] + [DiffOperator(B, (1,), 0, {})]:
        for r, c in itertools.product(range(a), repeat=2):
            Q = bumped(P, (1,), (0,), r, c)
            for d in (1, 2):
                verdicts.append(check_mP(Q, d))
                assert verdicts[-1] is reference_check_mP(Q, d)
    # higher orders and grade 1: one entry of each stored block
    rng = random.Random(f"bump {name}")
    for (n, grade), basis in by_order.items():
        if (n, grade) == (1, 0):
            continue
        for P in basis:
            for kappa, blocks in P.components.items():
                for g, M in blocks.items():
                    Q = bumped(P, kappa, g, rng.randrange(M.nrows), rng.randrange(M.ncols))
                    for d in range(1, n + 2):
                        verdicts.append(check_mP(Q, d))
                        assert verdicts[-1] is reference_check_mP(Q, d)
    assert False in verdicts


@pytest.fixture(scope="module")
def families():
    Bdn = GradedTarget(dual_numbers())
    dd = Matrix.zeros(4, 2)
    dd.rows[3][1] = Fraction(1)  # x -> x (x) x
    Bm = GradedTarget(m2())
    ders = [P.block((1,), (0,)) for P in solve_Dn(Bm, 1, 0)]
    dds = [P.block((1,), (1,)) for P in solve_Dn(Bm, 1, 1)]
    lifts = [lift_derivation(Bm, der, dds) for der in ders]
    return {"dualnum N=3": from_derivations(Bdn, [dd], N=3), "m2 N=2": from_derivations(Bm, lifts, N=2)}


@pytest.mark.parametrize("label", ["dualnum N=3", "m2 N=2"])
def test_validate_aut_agrees_with_reference(families, label):
    phi = families[label]
    assert validate_aut(phi) == reference_validate_aut(phi) == (True, None)
    rng = random.Random(f"bump {label}")
    failures = 0
    for w, m in sorted(phi.maps.items()):
        bad = m.copy()
        bad.rows[rng.randrange(m.nrows)][rng.randrange(m.ncols)] += 1
        psi = AutFamily(phi.B, phi.n_letters, phi.N, {**phi.maps, w: bad})
        got = validate_aut(psi)
        assert got == reference_validate_aut(psi)
        failures += not got[0]
    assert failures
