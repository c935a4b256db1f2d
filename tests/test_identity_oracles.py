"""The collapse and multiplicativity checks against per-basis-element
reference loops, the degenerate extension against a per-column one, and
the order-algebra composition against its own enumeration.

`check_mP` and `validate_aut` compare whole matrices, one per index or
word.  The references below evaluate the same identities one basis tuple
(or basis pair) at a time; both sides must agree on every verdict, and on
the first failing (word, i, j).  `extend_degenerate` places each stored
entry in one row per column; its reference sums over every output digit
of the zero slots, weighted by an identity matrix.  `compose_D` is the
vertical composition of single-slot operators; its reference sums, per
composite index, the products of the factors' degenerate extensions.
`v_compose` sums over the admissible terms only; its reference searches
every zero-extended index of P, every epi onto P's shape and every split
of Q's orders, and keeps the terms that refine the composite shape.
`r_map` reads each block's grade vector off its refinement; its
reference reads it off the block's row count.  `surjectivity_probe` runs
one path for order 1, order 2 and infeasible lifts; its reference
branches on each, and both must give the same report."""

import functools
import itertools
import pathlib
import random
from fractions import Fraction

import pytest
from test_leibniz import conjugate

from planarprop.algebras import FinAlgebra, GradedTarget, dual_numbers, kxk, load_algebra, m2
from planarprop.families import (
    AutFamily,
    FamilyError,
    derivation_lifts,
    from_derivations,
    r_map,
    surjectivity_probe,
    validate_aut,
)
from planarprop.linalg import Matrix, Q0, span_rank
from planarprop.operators import (
    DiffOperator,
    OperatorError,
    _positive,
    check_mP,
    compose_D,
    extend_degenerate,
    h_compose,
    one_operator,
    solve_D,
    solve_Dn,
    symbol,
    unit_operator,
    v_compose,
)
from planarprop.ordinals import MonotoneMap, all_epis
from planarprop.partitions import (
    OrderedPartition,
    compositions,
    enumerate_partitions,
    refinement_witness,
    refinements_of,
)

TARGETS = {"dualnum": dual_numbers, "k2": kxk, "m2": m2}
DATA = pathlib.Path(__file__).parent / "data"
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
    words = (w for k in range(phi.N + 1) for w in itertools.product(range(phi.n_letters), repeat=k))
    for w in words:
        pair = reference_failing_pair(phi, w)
        if pair is not None:
            return False, (w, *pair)
    return True, None


def reference_failing_pair(phi: AutFamily, w) -> tuple | None:
    """The first basis pair (i, j), in lexicographic order, on which
    multiplicativity fails at the word w, or None."""
    B = phi.B
    a = B.A.dim
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
                return i, j
    return None


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


def dense_operator(B: GradedTarget, rng, n: int, grade: int) -> DiffOperator:
    """An operator of shape (n,) with random entries in every block of the
    layout: it covers k2, whose spaces are zero, and entries basis
    operators lack."""
    a = B.A.dim
    return DiffOperator(B, (n,), grade, {
        kappa: {g: Matrix([[rng.randint(-3, 3) for _ in range(a ** len(kappa))]
                           for _ in range(a ** (grade + len(kappa)))])
                for g in compositions(grade, len(kappa))}
        for kappa in (r.fine.parts for r in refinements_of(OrderedPartition((n,))))
    })


@pytest.mark.parametrize("name", sorted(EXTENDED))
def test_extend_degenerate_agrees_with_reference(bases, name):
    B, _ = bases[name]
    rng = random.Random(f"extend {name}")
    ops = [one_operator(B).scale(-2)]
    for n, grade in EXTENDED[name]:
        ops += bases[name][1][n, grade]
        ops.append(dense_operator(B, rng, n, grade))
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
    lifts = derivation_lifts(Bm)[2]
    Bt = GradedTarget(load_algebra(DATA / "t2.json"))
    t2_lifts = derivation_lifts(Bt)[2]
    assert len(t2_lifts) == 2
    return {
        "dualnum N=3": from_derivations(Bdn, [dd], N=3),
        "m2 N=2": from_derivations(Bm, lifts, N=2),
        "T2 N=2": from_derivations(Bt, t2_lifts, N=2),
        "T2 N=3": from_derivations(Bt, t2_lifts, N=3),
        "m2 N=4": from_derivations(Bm, lifts, N=4),
    }


def dense_sides(phi: AutFamily, w) -> tuple[Matrix, Matrix]:
    """Both sides of multiplicativity at one word, as whole matrices: the
    word's map after the multiplication, and the sum over the cuts of the
    junction map mB(cut, k - cut) after the Kronecker product of the two
    subwords' maps."""
    B = phi.B
    k = len(w)
    lhs = phi.word_map(w) @ B.mB_matrix(0, 0)
    rhs = Matrix.zeros(lhs.nrows, lhs.ncols)
    for cut in range(k + 1):
        rhs = rhs + B.mB_matrix(cut, k - cut) @ phi.word_map(w[:cut]).kron(phi.word_map(w[cut:]))
    return lhs, rhs


@pytest.mark.parametrize("label", ["dualnum N=3", "m2 N=2", "T2 N=2", "T2 N=3"])
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


def test_validate_aut_on_m2_at_length_four(families):
    """Every word of the m2 family up to length 4 against its two dense
    sides; one perturbed entry of a length-4 word map fails at that word,
    at the basis pair of the first column where its dense sides differ."""
    phi = families["m2 N=4"]
    assert len(phi.maps) == 84
    assert validate_aut(phi) == (True, None)
    words = [w for k in range(phi.N + 1) for w in itertools.product(range(phi.n_letters), repeat=k)]
    assert all(lhs == rhs for lhs, rhs in map(functools.partial(dense_sides, phi), words))
    rng = random.Random("bump m2 N=4")
    w = rng.choice(sorted(v for v in phi.maps if len(v) == 4))
    bad = phi.maps[w].copy()
    bad.rows[rng.randrange(bad.nrows)][rng.randrange(bad.ncols)] += Fraction(1, 3)
    psi = AutFamily(phi.B, phi.n_letters, phi.N, {**phi.maps, w: bad})
    lhs, rhs = dense_sides(psi, w)
    a = phi.B.A.dim
    col = next(c for c in range(a * a) if lhs.col(c) != rhs.col(c))
    assert validate_aut(psi) == (False, (w, col // a, col % a))
    # the per-pair reference at that word, the only one whose two sides
    # read the bumped map (the reference over all 121 words takes 50 s)
    assert reference_failing_pair(phi, w) is None
    assert reference_failing_pair(psi, w) == (col // a, col % a)


def reference_compose_D(Q: DiffOperator, P: DiffOperator) -> DiffOperator:
    """Order-algebra composition of grade-zero single-slot operators, index
    by index: the block at a non-degenerate index lam of size d is the sum,
    over the splits lam = lam_q + lam_p into compositions of the two
    orders, of the products of the factors' degenerate extensions."""
    assert not (Q.grade or P.grade)
    B = Q.B
    m, n = Q.order, P.order
    if m + n == 0:
        return one_operator(B).scale(Q.block((), ()).rows[0][0] * P.block((), ()).rows[0][0])
    comps: dict = {}
    for d in range(1, m + n + 1):
        for lam in enumerate_partitions(m + n, d, nondegenerate_only=True):
            total = None
            for lam_q in compositions(m, d):
                lam_p = tuple(l - lq for l, lq in zip(lam.parts, lam_q))
                if any(x < 0 for x in lam_p):
                    continue
                Qb = extend_degenerate(Q, lam_q).get((0,) * d)
                Pb = extend_degenerate(P, lam_p).get((0,) * d)
                if Qb is None or Pb is None:
                    continue
                term = Qb @ Pb
                total = term if total is None else total + term
            if total is not None and not total.is_zero():
                comps[lam.parts] = {(0,) * d: total}
    return DiffOperator(B, (m + n,), 0, comps)


# highest order of the basis operators composed pairwise
COMPOSE_TOP = {"dualnum": 3, "k2": 3, "m2": 1}


@pytest.mark.parametrize("name", sorted(COMPOSE_TOP))
def test_compose_D_agrees_with_reference_on_basis_pairs(bases, name):
    B, by_order = bases[name]
    top = COMPOSE_TOP[name]
    rng = random.Random(f"compose {name}")
    ops = [one_operator(B)] + [P for n in range(1, top + 1) for P in by_order[n, 0]]
    ops += [dense_operator(B, rng, n, 0) for n in range(1, min(top, 2) + 1)]
    for Q in ops:
        for P in ops:
            assert compose_D(Q, P) == reference_compose_D(Q, P), (Q.shape, P.shape)


def _combination(rng, basis):
    """A seeded integer combination of a basis, every coefficient nonzero."""
    out = None
    for P in basis:
        term = P.scale(rng.choice((-2, -1, 1, 2)))
        out = term if out is None else out.add(term)
    return out


@pytest.mark.parametrize("name", ["m2", "dualnum dense"])
def test_compose_D_agrees_with_reference_on_combinations(bases, name):
    if name == "m2":
        B, by_order = bases["m2"]
        basis = {n: by_order[n, 0] for n in (1, 2)}
    else:
        B = GradedTarget(conjugate("dualnum"))
        basis = {n: solve_Dn(B, n, 0) for n in (1, 2)}
    rng = random.Random(f"compose {name}")
    for m, n in [(1, 2), (2, 1)]:
        Q, P = _combination(rng, basis[m]), _combination(rng, basis[n])
        got = compose_D(Q, P)
        assert not got.is_zero() and got == reference_compose_D(Q, P), (m, n)


def test_compose_D_treats_order_zero_as_a_scalar(bases):
    B, by_order = bases["dualnum"]
    one = one_operator(B)
    scalars = [one.scale(0), one.scale(2), one.scale(Fraction(-1, 2)), unit_operator(B, 1)]
    ops = [P for n in (1, 2) for P in by_order[n, 0]]
    for c in scalars:
        for P in ops:
            assert compose_D(c, P) == reference_compose_D(c, P)
            assert compose_D(P, c) == reference_compose_D(P, c)
        for c2 in scalars:
            got = compose_D(c, c2)
            if c.is_zero() or c2.is_zero():
                # the reference reads the stored scalar, which a zero lacks
                assert got == one.scale(0)
            else:
                assert got == reference_compose_D(c, c2)


@pytest.mark.parametrize("shape", [(1, 1), (1, 0), (0, 0)])
def test_compose_D_rejects_several_slots(bases, shape):
    B, by_order = bases["dualnum"]
    P = by_order[1, 0][0]
    X = {(1, 1): h_compose(P, P), (1, 0): h_compose(P, unit_operator(B, 1)), (0, 0): unit_operator(B, 2)}[shape]
    for args in ((X, P), (P, X)):
        with pytest.raises(OperatorError, match="single-slot"):
            compose_D(*args)


def _epis_with_fiber_sums(values: tuple[int, ...], target: tuple[int, ...]):
    """All epis [len(values)] ->> [len(target)] whose fiberwise sums of
    `values` equal `target`."""
    out = []
    for rho in all_epis(len(values), len(target)):
        ok = True
        for t in range(1, len(target) + 1):
            if sum(values[j - 1] for j in rho.fiber(t)) != target[t - 1]:
                ok = False
                break
        if ok:
            out.append(rho)
    return out


def reference_v_compose(Q: DiffOperator, P: DiffOperator) -> DiffOperator:
    """Untyped vertical composition by search: Q consumes the output tensor factors
    of P.  Requires len(Q.shape) == len(P.shape) + P.grade and a
    homogeneous output grade vector on P.  The composite's components are
    assembled by enumerating zero-extended indices of P, the induced
    factor maps, and the matching slotwise splits of Q's shape, composing
    matrices and flattening grades."""
    B = P.B
    q = len(P.shape)
    p_c = P.grade + 1
    nu = Q.shape
    if len(nu) != q + p_c - 1:
        raise OperatorError(
            f"vertical arity mismatch: {len(nu)} input slots vs {q + p_c - 1} output factors"
        )
    mu = P.top_gradevec()
    m_ord, n_ord = Q.order, P.order

    # composite shape: regroup Q's slots under the coarse factor layout
    beta0_sizes = [mu_t + 1 for mu_t in mu]
    sigma_c = []
    j = 0
    for t in range(q):
        sigma_c.append(P.shape[t] + sum(nu[j : j + beta0_sizes[t]]))
        j += beta0_sizes[t]
    sigma_c = tuple(sigma_c)
    comps: dict = {}
    seen: set = set()

    # a zero slot of the extended index survives in the composite only if
    # it picks up input from Q or sits over a zero of the composite shape
    max_zeros = m_ord + sum(1 for x in sigma_c if x == 0)
    for kappa in list(P.components):
        d = len(kappa)
        for z in range(max_zeros + 1):
            qp = d + z
            if qp < q:
                continue
            for pos_slots in itertools.combinations(range(qp), d):
                lam_p = [0] * qp
                for idx, j2 in enumerate(pos_slots):
                    lam_p[j2] = kappa[idx]
                lam_p = tuple(lam_p)
                ext_P = extend_degenerate(P, lam_p)
                if not ext_P:
                    continue
                for rho in _epis_with_fiber_sums(lam_p, P.shape):
                    for g_ext, Pmat in ext_P.items():
                        push = tuple(
                            sum(g_ext[j2 - 1] for j2 in rho.fiber(t)) for t in range(1, q + 1)
                        )
                        if push != mu:
                            continue
                        alpha, beta = _factor_maps(rho, g_ext, mu, p_c)
                        # fibers of alpha over Q's slots
                        fiber_sizes = [0] * len(nu)
                        for x in alpha:
                            fiber_sizes[x] += 1
                        split_choices = [
                            list(compositions(nu[x], fiber_sizes[x])) for x in range(len(nu))
                        ]
                        for parts in itertools.product(*split_choices):
                            lam_q = tuple(itertools.chain.from_iterable(parts))
                            key = (lam_p, g_ext, lam_q)
                            if key in seen:
                                continue
                            seen.add(key)
                            tau = list(lam_p)
                            for j2, t in enumerate(beta):
                                tau[t] += lam_q[j2]
                            tau = tuple(tau)
                            if refinement_witness(
                                OrderedPartition(tau), OrderedPartition(sigma_c)
                            ) is None:
                                continue
                            _accumulate_v(
                                comps, B, Q, P, Pmat, lam_p, g_ext, lam_q, beta, tau
                            )
    return DiffOperator(B, sigma_c, P.grade + Q.grade, comps)


def _factor_maps(rho: MonotoneMap, g_ext, mu, p_c):
    """(alpha, beta): for the fine output factors of a zero-extended index
    with grade vector g_ext, alpha assigns each to a coarse factor (two
    fine factors merge at each junction inside a rho-fiber), beta assigns
    each to its fine slot.  Both 0-based lists."""
    alpha = []
    beta = []
    coarse = -1
    qp = rho.dom
    for s in range(1, rho.cod + 1):
        first = True
        for t in rho.fiber(s):
            for k in range(g_ext[t - 1] + 1):
                if k == 0 and not first:
                    alpha.append(coarse)
                else:
                    coarse += 1
                    alpha.append(coarse)
                beta.append(t - 1)
            first = False
    return alpha, beta


def _accumulate_v(comps, B, Q, P, Pmat, lam_p, g_ext, lam_q, beta, tau):
    # drop slots where the composite index is zero: those slots pass their
    # input through at both levels and are re-inserted on extension
    zset = {t for t, x in enumerate(tau) if x == 0}
    if zset:
        keep_slots = [t for t in range(len(tau)) if t not in zset]
        keep_factors = [j for j, t in enumerate(beta) if t not in zset]
        lam_p = tuple(lam_p[t] for t in keep_slots)
        g_r = tuple(g_ext[t] for t in keep_slots)
        lam_q = tuple(lam_q[j] for j in keep_factors)
        beta = [keep_slots.index(beta[j]) for j in keep_factors]
        tau = tuple(tau[t] for t in keep_slots)
        Pmat = extend_degenerate(P, lam_p).get(g_r)
        if Pmat is None:
            return
        g_ext = g_r
    for gq_ext, Qmat in extend_degenerate(Q, lam_q).items():
        h = list(g_ext)
        for j, t in enumerate(beta):
            h[t] += gq_ext[j]
        prod = Qmat @ Pmat
        key = _positive(tau)
        gkey = tuple(h[t] for t in range(len(tau)) if tau[t] > 0)
        dst = comps.setdefault(key, {})
        dst[gkey] = dst[gkey] + prod if gkey in dst else prod


# per grade, the shapes whose basis operators join the vertical pool
V_SHAPES = {0: [(1,), (2,), (1, 0), (0, 1), (1, 1)], 1: [(1,), (1, 0), (0, 1)], 2: [(1,)]}


def v_pool(B: GradedTarget, rng, top_grade: int) -> list[DiffOperator]:
    """Operators to compose vertically: the slotless unit and u^1..u^3,
    the first and last basis operator of each shape in V_SHAPES (zero
    slots included) and a seeded combination of each basis, and
    side-by-side products with units and graded operators."""
    pool = [one_operator(B), one_operator(B).scale(-2)] + [unit_operator(B, q) for q in (1, 2, 3)]
    bases = {(shape, grade): solve_D(B, shape, grade)
             for grade in range(top_grade + 1) for shape in V_SHAPES[grade]}
    for basis in bases.values():
        pool += basis[:1] + basis[-1:] + ([_combination(rng, basis)] if basis else [])
    graded = bases[(1,), 1]
    u = unit_operator(B, 1)
    for P in (bases[(1,), 0] or graded)[:1] + graded[:1]:
        pool += [h_compose(P, u), h_compose(u, P), h_compose(P, graded[-1])]
        if top_grade > 1:  # three slots, to read a grade-2 output
            pool.append(h_compose(u, h_compose(P, u)))
    return pool


def _outcome(Q: DiffOperator, P: DiffOperator, compose):
    try:
        return compose(Q, P)
    except OperatorError as e:
        return str(e)


# highest grade of the pool's operators
V_POOL_GRADE = {"dualnum": 2, "k2": 2, "m2": 1}


@pytest.mark.parametrize("name", sorted(V_POOL_GRADE) + ["dualnum dense"])
def test_v_compose_agrees_with_reference(name):
    B = GradedTarget(conjugate("dualnum") if name == "dualnum dense" else TARGETS[name]())
    pool = v_pool(B, random.Random(f"v_compose {name}"), V_POOL_GRADE.get(name, 1))
    seen = {"arity": 0, "nonzero": 0, "zero slot": 0}
    for Q in pool:
        for P in pool:
            got = _outcome(Q, P, v_compose)
            assert got == _outcome(Q, P, reference_v_compose), (Q.shape, P.shape, P.grade)
            if isinstance(got, str):
                seen["arity"] += "arity mismatch" in got
            elif not got.is_zero():
                seen["nonzero"] += 1
                seen["zero slot"] += 0 in got.shape
    assert all(seen.values()), seen


def test_v_compose_rejects_mixed_top_grades_like_reference(bases):
    B, _ = bases["dualnum"]
    basis = solve_D(B, (1, 1), 1)
    tops = {P.top_gradevec(): P for P in basis}
    mixed = tops[1, 0].add(tops[0, 1])
    for Q in (unit_operator(B, 3), unit_operator(B, 2)):
        got = _outcome(Q, mixed, v_compose)
        assert got == _outcome(Q, mixed, reference_v_compose)
        assert ("mixed output grade vectors" if len(Q.shape) == 3 else "arity mismatch") in got


def reference_r_map(phi: AutFamily, w) -> DiffOperator:
    """The operator of order |w| whose component at a non-degenerate index
    is the tensor of the family's maps on the corresponding subwords."""
    w = tuple(w)
    n = len(w)
    B = phi.B
    if n > phi.N:
        raise FamilyError(f"word of length {n} exceeds the truncation {phi.N}")
    if n == 0:
        return unit_operator(B, 1)
    a = B.A.dim
    comps: dict = {}
    grade = None
    for d in range(1, n + 1):
        for lam in compositions(n, d, positive=True):
            mats = []
            grades = []
            pos = 0
            ok = True
            for part in lam:
                sub = w[pos : pos + part]
                pos += part
                m = phi.maps.get(sub)
                if m is None:
                    ok = False
                    break
                mats.append(m)
                g = 0
                while a ** (g + 1) < m.nrows:
                    g += 1
                grades.append(g)
            if not ok:
                continue
            block = mats[0]
            for m in mats[1:]:
                block = block.kron(m)
            total = sum(grades)
            if grade is None:
                grade = total
            elif grade != total:
                raise FamilyError("family components have inconsistent grades")
            comps.setdefault(lam, {})[tuple(grades)] = block
    if grade is None:
        grade = 0
    return DiffOperator(B, (n,), grade, comps)


def reference_surjectivity_probe(A: FinAlgebra, n: int) -> dict:
    """Constructive check that operator symbols at order n (n at most 2)
    are hit by families built from lifted derivations."""
    if n not in (1, 2):
        raise FamilyError("the probe is implemented at order 1 and 2")
    B = GradedTarget(A)
    ders, dd_basis, lifts = derivation_lifts(B)
    report = {
        "order": n,
        "dim_derivations": len(ders),
        "dim_double_derivations": len(dd_basis),
        "lift_feasible": lifts is not None,
    }
    if lifts is None:
        report["spanned"] = len(ders) == 0
        report["span_rank"] = 0
        report["symbol_dim"] = len(ders) if n == 1 else len(solve_D(B, (1,) * n, 0))
        return report
    phi = from_derivations(B, lifts, N=max(n, 1)) if lifts else None
    mm = B.A.mult_matrix()
    if n == 1:
        target_dim = len(ders)
        vecs = []
        for i in range(len(lifts)):
            coll = mm @ reference_r_map(phi, (i,)).block((1,), (1,))
            vecs.append([x for row in coll.rows for x in row])
        rank = span_rank(vecs)
    else:
        target_dim = len(solve_D(B, (1, 1), 0))
        vecs = []
        for i in range(len(lifts)):
            for j in range(len(lifts)):
                sym = symbol(reference_r_map(phi, (i, j))).block((1, 1), (1, 1))
                coll = mm.kron(mm) @ sym
                vecs.append([x for row in coll.rows for x in row])
        rank = span_rank(vecs)
    report["symbol_dim"] = target_dim
    report["span_rank"] = rank
    report["spanned"] = rank == target_dim
    return report


@pytest.mark.parametrize("name", sorted(TARGETS))
@pytest.mark.parametrize("kind", ["std", "conj"])
@pytest.mark.parametrize("n", [1, 2])
def test_surjectivity_probe_agrees_with_reference(name, kind, n):
    A = conjugate(name) if kind == "conj" else TARGETS[name]()
    assert surjectivity_probe(A, n) == reference_surjectivity_probe(A, n)


@pytest.mark.parametrize("name", sorted(TARGETS))
@pytest.mark.parametrize("kind", ["std", "conj"])
def test_r_map_agrees_with_reference_on_derivation_families(name, kind):
    # lifted derivations where they exist (m2; k2 has none), and two
    # double derivations as letters on every algebra
    B = GradedTarget(conjugate(name) if kind == "conj" else TARGETS[name]())
    _, dd_basis, lifts = derivation_lifts(B)
    for letters in (lifts or [], dd_basis[:2]):
        phi = from_derivations(B, letters, N=2)
        for n in (1, 2):
            for w in itertools.product(range(len(letters)), repeat=n):
                assert r_map(phi, w) == reference_r_map(phi, w), w


def random_family(B: GradedTarget, rng, N: int) -> AutFamily:
    """Two letters, a dense map with entries in {-2, -1, 1, 2} for every
    word up to length N, and each word of length two or more left out
    with probability 1/3, so that some blocks are missing."""
    a = B.A.dim
    maps = {}
    for k in range(1, N + 1):
        for w in itertools.product(range(2), repeat=k):
            if k == 1 or rng.random() >= 1 / 3:
                maps[w] = Matrix([[rng.choice((-2, -1, 1, 2)) for _ in range(a)] for _ in range(a ** (k + 1))])
    return AutFamily(B, 2, N, maps)


@pytest.mark.parametrize("name", ["dualnum", "k2"])
@pytest.mark.parametrize("kind", ["std", "conj"])
def test_r_map_agrees_with_reference_on_random_families(name, kind):
    B = GradedTarget(conjugate(name) if kind == "conj" else TARGETS[name]())
    rng = random.Random(f"r_map {name} {kind}")
    for _ in range(3):
        phi = random_family(B, rng, 3)
        for n in range(4):
            for w in itertools.product(range(2), repeat=n):
                assert r_map(phi, w) == reference_r_map(phi, w), w
