"""The Leibniz system on dense conjugates of the standard algebras.

A conjugate is the same algebra in another basis; a dense one has almost
no zero structure constants, so every term of the system is exercised.
The basis digests below were recorded with the earlier Fraction-based
assembly and elimination, so they pin the canonical nullspace bit for
bit.
"""

import collections
import functools
import hashlib
import itertools
import json
import pathlib
from fractions import Fraction

import pytest

from planarprop import algebras, linalg, operators
from planarprop.algebras import (
    STANDARD_ALGEBRAS,
    FinAlgebra,
    GradedTarget,
    check_algebra,
    dual_numbers,
    kxk,
    load_algebra,
    m2,
)
from planarprop.linalg import Matrix
from planarprop.operators import (
    DiffOperator,
    _copies,
    _leibniz_blocks,
    _shifts,
    check_leibniz,
    dim_D,
    op_vector,
    solve_D,
    vector_layout,
)

DATA = pathlib.Path(__file__).parent / "data"

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


def leibniz_rows(B, core, grade):
    """The full Leibniz system: every copy of every template row."""
    for template, own, rests, outs, _ in _leibniz_blocks(B, core, grade):
        yield from _copies(template, own, _shifts(rests, outs))


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


def corpus_target(name: str, kind: str) -> GradedTarget:
    """A target of the corpus: a standard algebra ("std"), its dense
    conjugate ("conj") or a spec of tests/data ("spec")."""
    if kind == "conj":
        return target(name)
    if kind == "spec":
        return GradedTarget(load_algebra(DATA / f"{name}.json"))
    return GradedTarget(STANDARD_ALGEBRAS[name]())


CORPUS = (
    [(name, "std") for name in sorted(STANDARD_ALGEBRAS)]
    + [(path.stem, "spec") for path in sorted(DATA.glob("*.json"))]
    + [("dualnum", "conj"), ("k2", "conj"), ("m2", "conj")]
)


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
        assert all(sum(v * vec.get(j, 0) for j, v in row.items()) == 0 for row in rows)


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


# Standard bases, recorded with the elimination fed coarsest refinement
# first; the canonical RREF does not depend on the order of the rows.
STANDARD_PINNED = {
    ("dualnum", (4,), 0): "c1fefcf991eafc40b9ff26e4dcc264a91b2495c7845cabe382cc253ee682f245",
    ("k2", (3,), 1): "cd2b1cc0f8a76660c2b120e87be0feb9af8729c75de2521fed3a5b47e333b509",
    ("dualnum", (2, 2), 0): "3e0a2b2b019da71edf4488ae95a6780c02b16f570c5f68cb6667af9ca35d9051",
    ("m2", (3,), 0): "c3af69a7ddbeb26621389a30d9a7702e955ee0d5fe32562cb81734f921a92cd1",
}


@pytest.mark.parametrize("case", sorted(STANDARD_PINNED), ids=str)
def test_standard_basis_digest_is_pinned(case):
    name, shape, grade = case
    ops = solve_D(GradedTarget(STANDARD_ALGEBRAS[name]()), shape, grade)
    assert digest(ops) == STANDARD_PINNED[case]


def rows_digest(B, core, grade) -> str:
    """sha256 of the sorted multiset of Leibniz rows: blind to their order."""
    rows = sorted(sorted(row.items()) for row in leibniz_rows(B, core, grade))
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def test_leibniz_row_multiset_is_pinned():
    """The same rows as the coarsest-first assembly, in any order."""
    assert rows_digest(target("m2"), (2,), 0) == "c03ce430899fa9eaa98e83eb0ba2a3651c46e2f4dbfdafef548e3a8bcf251ba7"
    dualnum = GradedTarget(dual_numbers())
    assert rows_digest(dualnum, (2, 1), 1) == "17b6e8d0040f86a9d137920dea8d5eca1a1b92a0800e86404f646cb5797017d1"


def _compositions(n: int, parts: int | None = None):
    """Tuples of positive ints summing to n, or of `parts` non-negative
    ints summing to n."""
    if parts is None:
        return [(n,)] + [(x,) + rest for x in range(1, n) for rest in _compositions(n - x)] if n else [()]
    if parts == 0:
        return [()] if n == 0 else []
    return [(x,) + rest for x in range(n + 1) for rest in _compositions(n - x, parts - 1)]


def _kron(t: tuple, a: int) -> int:
    """The position of a tensor coordinate in the Kronecker-ordered basis."""
    return functools.reduce(lambda acc, x: acc * a + x, t, 0)


def definition_system(B: GradedTarget, core: tuple, grade: int):
    """The unknowns and rows of the Leibniz system, written from its
    definition with none of the solver's index arithmetic.  An unknown is
    a key (kappa, g, out, inp): the coefficient of the output tensor
    coordinate `out` (one tuple over every factor of every slot) in the
    component at refinement kappa and grade vector g applied to basis
    inputs `inp`.  For every kappa, slot i, g, other inputs, basis pair
    (r, s) fed into slot i and output coordinate, the row reads

        P(.., e_r e_s, ..) - e_r P(.., e_s, ..) - P(.., e_r, ..) e_s
            - sum over splits (x, y) of kappa_i and (h1, h2) of g_i of
              the junction product of P[kappa'][g'](.., e_r, e_s, ..)

    at that coordinate, with the products taken through `mul_vec`, the
    actions on slot i's first and last factor through `left_mult` and
    `right_mult`, and the junction through `mB_matrix`."""
    A = B.A
    a = A.dim
    e = [A.basis_vec(t) for t in range(a)]
    prod = [[A.mul_vec(e[r], e[s]) for s in range(a)] for r in range(a)]
    left = [A.left_mult(e[r]).rows for r in range(a)]
    right = [A.right_mult(e[s]).rows for s in range(a)]
    refinements = [sum(parts, ()) for parts in itertools.product(*map(_compositions, core))]
    unknowns = [
        (kappa, g, out, inp)
        for kappa in refinements
        for g in _compositions(grade, len(kappa))
        for out in itertools.product(range(a), repeat=grade + len(kappa))
        for inp in itertools.product(range(a), repeat=len(kappa))
    ]

    rows = []
    for kappa in refinements:
        d = len(kappa)
        for g in _compositions(grade, d):
            for i in range(d):
                lo = sum(gj + 1 for gj in g[:i])
                hi = lo + g[i] + 1  # slot i's output factors are out[lo:hi]
                for rest, r, s, out in itertools.product(
                    itertools.product(range(a), repeat=d - 1), range(a), range(a),
                    itertools.product(range(a), repeat=grade + d),
                ):
                    def inp(*fed):
                        return rest[:i] + fed + rest[i:]

                    def at(j, factor):
                        return out[:factor] + (j,) + out[factor + 1 :]

                    row = collections.Counter()
                    for k in range(a):
                        row[kappa, g, out, inp(k)] += prod[r][s][k]
                        row[kappa, g, at(k, lo), inp(s)] -= left[r][out[lo]][k]
                        row[kappa, g, at(k, hi - 1), inp(r)] -= right[s][out[hi - 1]][k]
                    for x in range(1, kappa[i]):
                        kp = kappa[:i] + (x, kappa[i] - x) + kappa[i + 1 :]
                        for h1 in range(g[i] + 1):
                            gp = g[:i] + (h1, g[i] - h1) + g[i + 1 :]
                            junction = B.mB_matrix(h1, g[i] - h1).rows[_kron(out[lo:hi], a)]
                            for uv in itertools.product(range(a), repeat=g[i] + 2):
                                row[kp, gp, out[:lo] + uv + out[hi:], inp(r, s)] -= junction[_kron(uv, a)]
                    rows.append({key: v for key, v in row.items() if v})
    return unknowns, rows


DEFINITION_CASES = [
    (name, kind, shape, grade)
    for name in sorted(CHANGE_OF_BASIS)
    for kind in ("std", "conj")
    for shape, grade in [((1,), 0), ((2,), 0), ((1, 1), 0), ((1,), 1)]
] + [("kxy2", "spec", (2,), 0)]


@pytest.mark.parametrize("case", DEFINITION_CASES, ids=str)
def test_definition_system_agrees_with_the_solver(case):
    """The rank of the system written from the definition gives `dim_D`,
    and every basis operator of `solve_D` satisfies its rows, so both
    solver routes, which read the same templates, give its solution
    space."""
    from test_linalg import ReferenceEchelon  # test_linalg imports this module

    name, kind, shape, grade = case
    B = corpus_target(name, kind)
    unknowns, rows = definition_system(B, shape, grade)
    column = {key: j for j, key in enumerate(unknowns)}
    assert len(column) == len(unknowns) == vector_layout(B, shape, grade)["total"]
    ech = ReferenceEchelon(len(unknowns))
    # the rows come coarsest refinement first; the finest first reduce
    # an order of magnitude faster and have the same rank
    for row in reversed(rows):
        ech.add_row({column[key]: Fraction(v) for key, v in row.items()})
    assert len(unknowns) - len(ech.pivot_rows) == dim_D(B, shape, grade)
    a = B.A.dim
    for P in solve_D(B, shape, grade):

        def coordinate(kappa, g, out, inp):
            M = P.block(kappa, g)
            return M.rows[_kron(out, a)][_kron(inp, a)] if M else 0

        assert not any(sum(v * coordinate(*key) for key, v in row.items()) for row in rows)


# Row reductions (`linalg._eliminate` calls) and rows fed
# (`SparseEchelon.add_row` calls) of one solve_D at an order, on a target
# built afresh, so the search for its generators is counted too, with the
# finest refinement's rows written from the order-one kernels and not
# fed, each other block with more than one copy reduced as one template,
# a slot's copies skipped at an earlier slot's template leads, and an
# order-one slot's rows fed only for first inputs among the generators;
# template rows and eliminations included.
ELIMINATIONS = {("conj", 3): 483, ("std", 4): 667}
ROWS_FED = {("conj", 3): 91, ("std", 4): 498}


def solve_work(monkeypatch, B, shape, grade) -> tuple[list, int, int]:
    """The basis of one solve_D, its row reductions and its rows fed."""
    calls, fed = [], []
    eliminate, add_row = linalg._eliminate, linalg.SparseEchelon.add_row

    def counted(row, piv, lead):
        calls.append(lead)
        eliminate(row, piv, lead)

    def counted_add(self, row):
        fed.append(row)
        return add_row(self, row)

    monkeypatch.setattr(linalg, "_eliminate", counted)
    monkeypatch.setattr(algebras, "_eliminate", counted)
    monkeypatch.setattr(linalg.SparseEchelon, "add_row", counted_add)
    ops = solve_D(B, shape, grade)
    monkeypatch.undo()
    return ops, len(calls), len(fed)


@pytest.mark.parametrize("case", sorted(ELIMINATIONS), ids=str)
def test_dualnum_elimination_work_does_not_grow(case, monkeypatch):
    kind, order = case
    B = GradedTarget(corpus_target("dualnum", kind).A)
    _, eliminations, fed = solve_work(monkeypatch, B, (order,), 0)
    assert eliminations <= ELIMINATIONS[case]
    assert fed <= ROWS_FED[case]


# The same counts for the derivations of the dense m2 conjugate (grade
# 0) and its double derivations (grade 1): two of its four basis vectors
# generate it, so half of the 64 and 256 rows are fed.
M2_DERIVATION_WORK = {0: (258, 32), 1: (1245, 128)}


@pytest.mark.parametrize("grade", sorted(M2_DERIVATION_WORK))
def test_dense_m2_derivation_work_does_not_grow(grade, monkeypatch):
    _, eliminations, fed = solve_work(monkeypatch, GradedTarget(conjugate("m2")), (1,), grade)
    assert eliminations <= M2_DERIVATION_WORK[grade][0]
    assert fed <= M2_DERIVATION_WORK[grade][1]


def test_check_leibniz_keeps_the_rows_the_solver_skips(monkeypatch):
    """The solver feeds the one block of the dense m2 conjugate's double
    derivations only its rows for the two generators' first inputs; the
    cached template, which `check_leibniz` evaluates in full, keeps all
    256."""
    B = GradedTarget(conjugate("m2"))
    ops, _, fed = solve_work(monkeypatch, B, (1,), 1)
    ((template, own, rests, outs, spanning),) = operators._leibniz_templates(B, (1,), 1)
    assert B.generators == (0, 1)
    assert (len(template), spanning, fed) == (256, 128, 128)
    assert _shifts(rests, outs) == [(0, 0)]
    assert all(check_leibniz(P) for P in ops)


def test_check_leibniz_builds_the_templates_once_per_target(monkeypatch):
    """`check_leibniz` and the solver read one cached list of templates per
    target, core and grade: each (core, grade) is built once, by the
    solver of a single slot or by the check of a two-slot operator, and a
    second round of solves and checks builds none and keeps the
    verdicts."""
    built = []

    def counted(B, core, grade):
        built.append((core, grade))
        return _leibniz_blocks(B, core, grade)

    monkeypatch.setattr(operators, "_leibniz_blocks", counted)
    B = GradedTarget(dual_numbers())
    ops = solve_D(B, (2, 1), 1)
    # a two-slot basis is built from each slot's own system
    slots = [((1,), 0), ((1,), 1), ((2,), 0), ((2,), 1)]
    assert sorted(built) == slots
    fresh = [DiffOperator.from_json(B, P.to_json()) for P in ops]
    # one entry added to the coarsest block breaks the system
    bump = Matrix.from_entries(8, 4, 1, [(0, 0, 1)])
    broken = fresh[0].add(DiffOperator(B, (2, 1), 1, {(2, 1): {(0, 1): bump}}))
    first = [check_leibniz(P) for P in fresh + [broken]]
    assert sorted(built) == sorted(slots + [((2, 1), 1)])
    assert [check_leibniz(P) for P in fresh + [broken]] == first == [True] * len(ops) + [False]
    assert solve_D(B, (2, 1), 1) == ops
    assert dim_D(B, (2, 1), 1) == len(ops)
    assert sorted(built) == sorted(slots + [((2, 1), 1)])


@pytest.mark.parametrize("kind", ["std", "conj"])
@pytest.mark.parametrize("name", sorted(CHANGE_OF_BASIS))
def test_grade0_finest_space_is_a_tensor_power(name, kind):
    """Each slot's constraints act on that slot's legs only, so at grade
    0 D_(1,...,1) is the n-fold tensor power of D_(1): the value
    `surjectivity_probe` takes for its symbol space."""
    B = target(name) if kind == "conj" else GradedTarget(STANDARD_ALGEBRAS[name]())
    ders = len(solve_D(B, (1,), 0))
    for n in (1, 2):
        assert len(solve_D(B, (1,) * n, 0)) == ders**n


def test_dense_m2_conjugate_order2_grade1(monkeypatch):
    """A dense system that reduces through thousands of redundant rows;
    its dimension is isomorphism-invariant, 84 as on the standard basis.
    Its work is counted as in `solve_work`."""
    ops, eliminations, fed = solve_work(monkeypatch, GradedTarget(conjugate("m2")), (2,), 1)
    assert eliminations <= 11_482
    assert fed <= 416
    assert len(ops) == 84
    assert check_leibniz(ops[0]) and check_leibniz(ops[-1])


def test_dense_m2_conjugate_two_slot_basis_is_pinned():
    """The dense m2 conjugate at (2, 1) grade 1 on 51,200 unknowns, the
    slowest system measured for the whole-system elimination (about a
    minute), built from its slots' bases in seconds: 396 operators, with
    the digest the whole-system elimination gave."""
    ops = solve_D(target("m2"), (2, 1), 1)
    assert len(ops) == 396
    assert digest(ops) == "ae9169eec06cc2770c9a7c25c221bcbeea358ba12299ea8fbaad82674ac33142"
