"""The collapse and multiplicativity checks against per-basis-element
reference loops, and the degenerate extension against a per-column one.

`check_mP` and `validate_aut` compare whole matrices, one per index or
word.  The references below evaluate the same identities one basis tuple
(or basis pair) at a time; both sides must agree on every verdict, and on
the first failing (word, i, j).  `extend_degenerate` places each stored
entry in one row per column; its reference sums over every output digit
of the zero slots, weighted by an identity matrix."""

import itertools
import random
from fractions import Fraction

import pytest

from planarprop.algebras import GradedTarget, dual_numbers, kxk, m2
from planarprop.families import AutFamily, from_derivations, lift_derivation, validate_aut
from planarprop.linalg import Matrix, Q0
from planarprop.operators import DiffOperator, check_mP, extend_degenerate, one_operator, solve_Dn
from planarprop.partitions import OrderedPartition, compositions, enumerate_partitions, refinements_of

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


def reference_extend_degenerate(P: DiffOperator, lam_prime) -> dict:
    """The degenerate extension column by column, with the output digit of
    each zero slot read through an a x a matrix (here the identity)."""
    lam_prime = tuple(lam_prime)
    kappa = tuple(x for x in lam_prime if x > 0)
    stored = P.components.get(kappa)
    if stored is None:
        return {}
    if not any(x == 0 for x in lam_prime):
        return dict(stored)
    a = P.B.A.dim
    fm = Matrix.identity(a)
    f_cols = [fm.col(t) for t in range(a)]
    d_ext = len(lam_prime)
    out = {}
    pos_slots = [j for j, x in enumerate(lam_prime) if x > 0]
    zero_slots = [j for j, x in enumerate(lam_prime) if x == 0]
    for g, M in stored.items():
        it = iter(g)
        g_ext = tuple(next(it) if x > 0 else 0 for x in lam_prime)
        slot_sizes = [a ** (gj + 1) for gj in g_ext]
        nrows = 1
        for size in slot_sizes:
            nrows *= size
        core_sizes = [slot_sizes[j] for j in pos_slots]
        ext = Matrix.zeros(nrows, a**d_ext)
        for col in range(a**d_ext):
            digits = []
            c = col
            for _ in range(d_ext):
                digits.append(c % a)
                c //= a
            digits.reverse()
            core_col = 0
            for j in pos_slots:
                core_col = core_col * a + digits[j]
            for core_row, val in enumerate(M.col(core_col)):
                if not val:
                    continue
                chunks = []
                cr = core_row
                for size in reversed(core_sizes):
                    chunks.append(cr % size)
                    cr //= size
                chunks.reverse()
                zvecs = [f_cols[digits[j]] for j in zero_slots]
                for zdigits in itertools.product(range(a), repeat=len(zero_slots)):
                    coeff = val
                    for zd, zv in zip(zdigits, zvecs):
                        coeff *= zv[zd]
                    if not coeff:
                        continue
                    row = 0
                    ci, zi = iter(chunks), iter(zdigits)
                    for j, x in enumerate(lam_prime):
                        row = row * slot_sizes[j] + (next(ci) if x > 0 else next(zi))
                    ext.rows[row][col] += coeff
        out[g_ext] = ext
    return out


def zero_extensions(kappa, max_zeros: int = 2):
    """kappa with up to max_zeros zero parts inserted anywhere."""
    for z in range(max_zeros + 1):
        for pos in itertools.combinations(range(len(kappa) + z), len(kappa)):
            lam = [0] * (len(kappa) + z)
            for j, x in zip(pos, kappa):
                lam[j] = x
            yield tuple(lam)


# (order, grade) of the bases whose degenerate extensions are checked
EXTENDED = {
    "dualnum": [(1, 0), (2, 0), (1, 1), (2, 1)],
    "k2": [(1, 0), (2, 0)],
    "m2": [(1, 0), (2, 0), (1, 1)],
}


@pytest.mark.parametrize("name", sorted(EXTENDED))
def test_extend_degenerate_agrees_with_reference(bases, name):
    B, _ = bases[name]
    a = B.A.dim
    rng = random.Random(f"extend {name}")
    ops = [one_operator(B).scale(-2)]
    for n, grade in EXTENDED[name]:
        ops += bases[name][1][n, grade]
        # a dense operator with random entries in every block of the layout
        # covers k2, whose spaces are zero, and entries basis operators lack
        ops.append(DiffOperator(B, (n,), grade, {
            kappa: {g: Matrix([[rng.randint(-3, 3) for _ in range(a ** len(kappa))]
                               for _ in range(a ** (grade + len(kappa)))])
                    for g in compositions(grade, len(kappa))}
            for kappa in (r.fine.parts for r in refinements_of(OrderedPartition((n,))))
        }))
    for P in ops:
        for kappa in P.components:
            for lam in zero_extensions(kappa):
                assert extend_degenerate(P, lam) == reference_extend_degenerate(P, lam), (P.shape, lam)


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
