"""Multi-differential operators: solvers, compositions, degeneracies,
symbols."""

import functools
import math
import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from planarprop.algebras import GradedTarget, dual_numbers, kxk, load_algebra, m2
from planarprop.linalg import Matrix
from planarprop.operators import (
    DiffOperator,
    OperatorError,
    OperatorSum,
    _leibniz_echelon,
    bullet_v,
    check_leibniz,
    check_mP,
    compose_D,
    degeneracy,
    dim_D,
    extend_degenerate,
    h_compose,
    is_totally_positive,
    mult_operator,
    one_operator,
    solve_D,
    solve_Dn,
    symbol,
    symbol_exactness,
    unit_operator,
    v_compose,
    vector_layout,
)
from planarprop.ordinals import MonotoneMap, all_epis, compose
from planarprop.partitions import compositions
from test_leibniz import CORPUS, corpus_target


def derivation_dim_oracle(A) -> int:
    """Dimension of the derivation space by brute force: linear maps
    c: A -> A with c(e_i e_j) = e_i c(e_j) + c(e_i) e_j for all pairs."""
    a = A.dim
    rows = []
    for i in range(a):
        for j in range(a):
            prod = A.mul_vec(A.basis_vec(i), A.basis_vec(j))
            for k in range(a):
                # coefficient of unknown c[k][l] in the (i,j) relation's
                # k-th coordinate
                row = [Fraction(0)] * (a * a)
                for l in range(a):
                    row[k * a + l] += prod[l]
                lm = A.left_mult(A.basis_vec(i))
                rm = A.right_mult(A.basis_vec(j))
                for l in range(a):
                    row[k * a + j] -= 0  # placeholder, filled below
                # c(e_i e_j)_k - (e_i c(e_j))_k - (c(e_i) e_j)_k = 0
                for r in range(a):
                    row[r * a + j] -= lm.rows[k][r]
                    row[r * a + i] -= rm.rows[k][r]
                rows.append(row)
    return a * a - Matrix(rows).rank()


@pytest.fixture(scope="module")
def targets():
    return {name: GradedTarget(f()) for name, f in
            [("dualnum", dual_numbers), ("k2", kxk), ("m2", m2)]}


class TestSolver:
    def test_first_order_dims(self, targets):
        expected = {"dualnum": 1, "k2": 0, "m2": 3}
        for name, B in targets.items():
            basis = solve_Dn(B, 1, 0)
            assert len(basis) == expected[name]
            assert len(basis) == derivation_dim_oracle(B.A)

    def test_bases_satisfy_defining_relations(self, targets):
        for name, B in targets.items():
            top = 3 if B.A.dim <= 2 else 2
            for n in range(1, top + 1):
                for P in solve_Dn(B, n, 0):
                    assert check_leibniz(P)
                    for d in range(1, n + 2):
                        assert check_mP(P, d)

    @pytest.mark.parametrize("c", [Fraction(2), Fraction(-1), Fraction(1, 2)])
    def test_collapse_identity_is_linear_at_order_zero(self, targets, c):
        for B in targets.values():
            for d in (1, 2, 3):
                assert check_mP(unit_operator(B).scale(c), d)

    def test_second_order_example_identity(self, targets):
        # P(ab) = P(a) b + a P(b) + m(P_{11}(a x b)) for the top and the
        # finest block of every second-order element
        for B in targets.values():
            A = B.A
            a = A.dim
            mm = A.mult_matrix()
            for P in solve_Dn(B, 2, 0):
                P2 = P.block((2,), (0,))
                P11 = P.block((1, 1), (0, 0))
                if P2 is None:
                    P2 = Matrix.zeros(a, a)
                if P11 is None:
                    P11 = Matrix.zeros(a * a, a * a)
                for i in range(a):
                    for j in range(a):
                        x, y = A.basis_vec(i), A.basis_vec(j)
                        lhs = P2.apply(A.mul_vec(x, y))
                        t1 = A.right_mult(y).apply(P2.apply(list(x)))
                        t2 = A.left_mult(x).apply(P2.apply(list(y)))
                        xy = [xi * yj for xi in x for yj in y]
                        t3 = mm.apply(P11.apply(xy))
                        assert lhs == [u + v + w for u, v, w in zip(t1, t2, t3)]

    def test_check_leibniz_rejects_tampering(self, targets):
        B = targets["dualnum"]
        P = solve_Dn(B, 2, 0)[0].copy()
        kappa = next(iter(P.components))
        g = next(iter(P.components[kappa]))
        tampered = P.components[kappa][g].copy()
        tampered.rows[0][0] += Fraction(1)
        P.components[kappa][g] = tampered
        assert not check_leibniz(P)

    def test_a_block_outside_the_layout_is_rejected(self, targets):
        # a block at refinement (3,) does not refine the shape (1,)
        B = targets["dualnum"]
        P = solve_Dn(B, 1, 0)[0]
        extra = {(3,): {(0,): Matrix.identity(2)}}
        assert not check_leibniz(DiffOperator(B, P.shape, 0, {**P.components, **extra}))
        obj = P.to_json()
        obj["components"].append({"refinement": [3], "grades": [0], "matrix": [["1", "0"], ["0", "1"]]})
        with pytest.raises(OperatorError, match="does not refine the shape"):
            DiffOperator.from_json(B, obj)

    def test_graded_solver(self, targets):
        # grade-1 single-slot order-1 solutions are the double derivations
        B = targets["dualnum"]
        basis = solve_Dn(B, 1, 1)
        assert len(basis) == 2
        for P in basis:
            assert check_leibniz(P)

    def test_serialization_round_trip(self, targets):
        for B in targets.values():
            for P in solve_Dn(B, 2, 0):
                assert DiffOperator.from_json(B, P.to_json()) == P


class TestUnitsAndCompat:
    def test_vertical_units(self, targets):
        for B in targets.values():
            for n in (1, 2):
                for P in solve_Dn(B, n, 0):
                    q = len(P.shape)
                    assert v_compose(P, unit_operator(B, q)) == P
                    assert v_compose(unit_operator(B, q), P) == P

    def test_horizontal_unit(self, targets):
        for B in targets.values():
            for P in solve_Dn(B, 2, 0):
                assert h_compose(P, one_operator(B)) == P
                assert h_compose(one_operator(B), P) == P

    def test_h_associative(self, targets):
        B = targets["dualnum"]
        pool = solve_Dn(B, 1, 0) + solve_Dn(B, 2, 0)
        for a in pool:
            for b in pool:
                for c in pool:
                    assert h_compose(h_compose(a, b), c) == h_compose(a, h_compose(b, c))

    def test_compatibility(self, targets):
        rng = random.Random(31)
        for name in ("dualnum", "k2"):
            B = targets[name]
            pool = solve_Dn(B, 1, 0) + solve_Dn(B, 2, 0) + [unit_operator(B)]
            for _ in range(25):
                a = rng.choice(pool)
                b = rng.choice(pool)
                qa, qb = len(a.shape), len(b.shape)
                lhs = v_compose(
                    h_compose(a, unit_operator(B, qb)),
                    h_compose(unit_operator(B, qa), b),
                )
                assert lhs == h_compose(a, b)


class TestComposeD:
    def test_closure_and_leibniz(self, targets):
        rng = random.Random(13)
        for name, B in targets.items():
            pool = solve_Dn(B, 1, 0) + solve_Dn(B, 2, 0)
            if name == "m2":
                b1 = solve_Dn(B, 1, 0)
                b2 = solve_Dn(B, 2, 0)
                pairs = [(a, b) for a in b1 for b in b1]
                pairs += [(rng.choice(b1), rng.choice(b2)) for _ in range(3)]
                pairs += [(rng.choice(b2), rng.choice(b1)) for _ in range(3)]
                pairs.append((rng.choice(b2), rng.choice(b2)))
            else:
                pairs = [(a, b) for a in pool for b in pool]
            for a, b in pairs:
                assert check_leibniz(compose_D(a, b))

    def test_associative(self, targets):
        rng = random.Random(5)
        B = targets["dualnum"]
        pool = solve_Dn(B, 1, 0) + solve_Dn(B, 2, 0)
        for _ in range(60):
            a, b, c = (rng.choice(pool) for _ in range(3))
            assert compose_D(compose_D(a, b), c) == compose_D(a, compose_D(b, c))

    def test_derivation_square_on_dual_numbers(self, targets):
        # (x d/dx)^2 = x d/dx on k[x]/(x^2) plus the finest correction term
        B = targets["dualnum"]
        g = solve_Dn(B, 1, 0)[0]
        gg = compose_D(g, g)
        assert check_leibniz(gg)
        assert gg.block((2,), (0,)) is not None or gg.block((1, 1), (0, 0)) is not None


class TestVCompose:
    def test_agrees_with_compose_D_at_single_wires(self, targets):
        B = targets["dualnum"]
        pool = solve_Dn(B, 1, 0)
        for a in pool:
            for b in pool:
                assert v_compose(a, b) == compose_D(a, b)

    def test_associative(self, targets):
        B = targets["dualnum"]
        pool = solve_Dn(B, 1, 0) + solve_Dn(B, 2, 0)
        u1 = unit_operator(B, 1)
        for a in pool:
            for b in pool:
                if len(a.shape) != len(b.shape):
                    continue
                for c in pool:
                    if len(b.shape) != len(c.shape):
                        continue
                    left = v_compose(v_compose(a, b), c)
                    right = v_compose(a, v_compose(b, c))
                    assert left == right

    def test_closure(self, targets):
        B = targets["dualnum"]
        pool = solve_Dn(B, 1, 0) + solve_Dn(B, 2, 0)
        for a in pool:
            for b in pool:
                if len(a.shape) == len(b.shape):
                    assert check_leibniz(v_compose(a, b))

    def test_mixed_top_grade_rejected(self, targets):
        # two blocks pushing to different top output grade vectors cannot
        # be read as one typed operator
        B = targets["dualnum"]
        a = B.A.dim
        ones8x4 = Matrix([[Fraction(1)] * (a * a) for _ in range(a**3)])
        mixed = DiffOperator(
            B, (1, 1), 1, {(1, 1): {(1, 0): ones8x4, (0, 1): ones8x4}}
        )
        with pytest.raises(OperatorError):
            mixed.top_gradevec()


class TestBulletV:
    def test_leibniz_expansion_of_multiplication(self, targets):
        # composing a derivation with the multiplication tag gives exactly
        # the two-term Leibniz expansion
        B = targets["dualnum"]
        g = solve_Dn(B, 1, 0)[0]
        m = mult_operator(B)
        s = bullet_v(g, m)
        shapes = sorted(shape for shape, _ in s.terms)
        assert shapes == [(0, 1), (1, 0)]
        for (_, pi), t in s.terms.items():
            assert pi == (2,)
            assert check_leibniz(t)

    def test_terms_pass_closure(self, targets):
        B = targets["dualnum"]
        m = mult_operator(B)
        for Q in solve_Dn(B, 2, 0):
            for (_, _), t in bullet_v(Q, m).terms.items():
                assert check_leibniz(t)

    def test_single_term_sums_collapse(self, targets):
        B = targets["dualnum"]
        g = solve_Dn(B, 1, 0)[0]
        s = OperatorSum()
        s.add(g)
        assert s.single() == g


class TestGenus:
    def test_h_composition_drops_one(self, targets):
        B = targets["dualnum"]
        pool = solve_Dn(B, 1, 0) + solve_Dn(B, 2, 0)
        for a in pool:
            for b in pool:
                assert h_compose(a, b).genus() == a.genus() + b.genus() - 1

    def test_v_composition_adds_middle_wires(self, targets):
        B = targets["dualnum"]
        m = mult_operator(B)
        for Q in solve_Dn(B, 1, 0) + solve_Dn(B, 2, 0):
            for (_, _), t in bullet_v(Q, m).terms.items():
                assert t.genus() == Q.genus() + m.genus() + (m.out_label - 1)

    def test_totally_positive_closed(self, targets):
        B = targets["dualnum"]
        pool = [P for P in solve_Dn(B, 1, 0) + solve_Dn(B, 2, 0) if is_totally_positive(P)]
        assert pool
        for a in pool:
            for b in pool:
                assert is_totally_positive(h_compose(a, b))
                if len(a.shape) == len(b.shape):
                    assert is_totally_positive(v_compose(a, b))


class TestDegeneracy:
    def test_contravariant(self, targets):
        B = targets["m2"]
        for n in (1, 2):
            for P in solve_Dn(B, n, 0):
                for m in range(n, 5):
                    for sigma in all_epis(m, n):
                        for k in range(m, 5):
                            for tau in all_epis(k, m):
                                once = degeneracy(tau, degeneracy(sigma, P))
                                joint = degeneracy(compose(sigma, tau), P)
                                assert once == joint

    def test_images_satisfy_relations(self, targets):
        for B in targets.values():
            for P in solve_Dn(B, 1, 0):
                for sigma in all_epis(2, 1):
                    assert check_leibniz(degeneracy(sigma, P))

    def test_images_in_symbol_kernel(self, targets):
        for B in targets.values():
            for P in solve_Dn(B, 1, 0):
                for sigma in all_epis(2, 1):
                    assert symbol(degeneracy(sigma, P)).is_zero()


SYMBOL_KEYS = (
    "dim_Dn", "dim_finest", "symbol_rank", "surjective", "degeneracy_rank", "kernel_dim",
    "kernel_equals_degeneracy_image",
)
# symbol_exactness per (algebra, n, grade), recorded when the kernel of the
# symbol was still taken as a dense nullspace and tested vector by vector
# against the degeneracy span.
SYMBOL_TABLE = {
    ("dualnum", 1, 0): (1, 1, 1, True, 0, 0, True),
    ("dualnum", 2, 0): (2, 1, 1, True, 1, 1, True),
    ("dualnum", 3, 0): (4, 1, 1, True, 3, 3, True),
    ("dualnum", 1, 1): (2, 2, 2, True, 0, 0, True),
    ("dualnum", 2, 1): (6, 4, 4, True, 2, 2, True),
    ("k2", 1, 0): (0, 0, 0, True, 0, 0, True),
    ("k2", 2, 0): (0, 0, 0, True, 0, 0, True),
    ("k2", 3, 0): (0, 0, 0, True, 0, 0, True),
    ("k2", 1, 1): (2, 2, 2, True, 0, 0, True),
    ("k2", 2, 1): (2, 0, 0, True, 2, 2, True),
    ("m2", 1, 0): (3, 3, 3, True, 0, 0, True),
    ("m2", 2, 0): (12, 9, 9, True, 3, 3, True),
    ("m2", 3, 0): (48, 27, 27, True, 21, 21, True),
    ("m2", 1, 1): (12, 12, 12, True, 0, 0, True),
    ("m2", 2, 1): (84, 72, 72, True, 12, 12, True),
}


class TestSymbolExactness:
    @pytest.mark.parametrize("case", sorted(SYMBOL_TABLE), ids=str)
    def test_matches_the_recorded_table(self, targets, case):
        name, n, grade = case
        res = symbol_exactness(targets[name], n, grade)
        assert tuple(res[k] for k in SYMBOL_KEYS) == SYMBOL_TABLE[case]

    def test_is_not_surjective_on_a_non_smooth_algebra(self):
        """k[x,y]/(x^2,y^2) is not formally smooth, and its order-2 symbol
        misses one of the 16 dimensions of D_(1,1) = Der (x) Der.  The
        19-dimensional D_2 it is read from is also the kernel of the
        system written from the definition (tests/test_leibniz.py).  At
        order 3 the degeneracies of D_2 span 34 of the 35-dimensional
        kernel of the symbol."""
        B = GradedTarget(load_algebra(pathlib.Path(__file__).parent / "data" / "kxy2.json"))
        expected = {
            1: (4, 4, 4, True, 0, 0, True),
            2: (19, 16, 15, False, 4, 4, True),
            3: (91, 64, 56, False, 34, 35, False),
        }
        for n, row in expected.items():
            res = symbol_exactness(B, n, 0)
            assert tuple(res[k] for k in SYMBOL_KEYS) == row


@pytest.mark.parametrize("name", ["dualnum", "k2", "m2"])
def test_order_zero_spaces_are_the_units(targets, name):
    B = targets[name]
    assert solve_D(B, ()) == solve_Dn(B, 0, 0) == [one_operator(B)]
    for q in (1, 2):
        assert solve_D(B, (0,) * q) == [unit_operator(B, q)]
    for grade in (1, 2):
        assert solve_D(B, (), grade) == solve_D(B, (0,), grade) == solve_D(B, (0, 0), grade) == []
        assert solve_Dn(B, 0, grade) == []


DATA = pathlib.Path(__file__).parent / "data"
PRODUCT_SHAPES = [(1, 1), (2, 1), (1, 2), (1, 0, 2), (2, 0), (1, 1, 1), (0, 1), (2, 2)]
PRODUCT_ALGEBRAS = [("dualnum", dual_numbers), ("k2", kxk), ("m2", m2)] + [
    (name, functools.partial(load_algebra, DATA / f"{name}.json")) for name in ("kx3", "kxy2", "t2")
]
# the whole system takes at most about 0.1 s at 60,000 unknowns
PRODUCT_CASES = [
    (name, shape, grade)
    for name, algebra in PRODUCT_ALGEBRAS
    for shape in PRODUCT_SHAPES
    for grade in (0, 1, 2)
    if vector_layout(GradedTarget(algebra()), shape, grade)["total"] <= 60_000
]


@pytest.mark.parametrize("case", PRODUCT_CASES, ids=str)
def test_dimension_is_the_sum_of_slotwise_products(case):
    """`dim_D` of a shape with several positive slots is the sum over
    g_1 + ... + g_k = g of the products of dim D_(lambda_i)(g_i), with
    dim D_(0)(h) = [h = 0]; each slot's Leibniz rows act on its own legs
    and keep its share of the grade.  The whole system, which
    `_leibniz_echelon` eliminates for any shape, has as many unknowns
    beyond its rank."""
    name, shape, grade = case
    B = GradedTarget(dict(PRODUCT_ALGEBRAS)[name]())
    layout, ech = _leibniz_echelon(B, shape, grade)
    assert dim_D(B, shape, grade) == layout["total"] - ech.rank


@pytest.mark.parametrize("case", [("m2", 4, 192), ("dualnum", 8, 128)], ids=str)
def test_whole_system_dimension_at_a_scale_row(targets, case):
    """dim D_(n) from the whole Leibniz system at two rows `dim_D` also
    reaches as a fiber product: m2 (4,) on 78,608 unknowns and dualnum
    (8,) on 312,500."""
    name, n, expected = case
    layout, ech = _leibniz_echelon(targets[name], (n,), 0)
    assert layout["total"] - ech.rank == expected


@pytest.mark.parametrize("case", [("m2", 5, 0, 768), ("dualnum", 9, 0, 256), ("m2", 4, 1, 2496)], ids=str)
def test_fiber_product_dimension_at_a_scale_row(targets, case):
    """dim D_(n)(g) through the fiber product of the two-part spaces at
    rows whose whole system has 1,336,336 (m2 (5,)), 1,562,500 (dualnum
    (9,)) and 1,202,240 (m2 (4,) grade 1) unknowns; the composition count
    F gives each too."""
    name, n, g, expected = case
    B = targets[name]
    assert dim_D(B, (n,), g) == expected
    assert composition_count([dim_D(B, (1,), h) for h in range(g + 1)], n, g) == expected


@st.composite
def st_single_slot_systems(draw):
    """A target of the corpus, an order 2 to 4 and a grade 0 to 2 where the
    whole system has at most 60,000 unknowns.  On the dense m2 conjugate
    the cap is 5,000: the whole system and `solve_D` take about 3 s on its
    12,544 at (2,) grade 2."""
    case = draw(st.sampled_from(CORPUS))
    B = corpus_target(*case)
    cap = 5_000 if case == ("m2", "conj") else 60_000
    n, grade = draw(st.sampled_from([
        (n, g) for n in (2, 3, 4) for g in (0, 1, 2) if vector_layout(B, (n,), g)["total"] <= cap
    ]))
    return B, n, grade


@settings(max_examples=30, deadline=None)
@given(st_single_slot_systems())
def test_single_slot_dimension_is_the_whole_system_count(case):
    """`dim_D` of a single slot of order n >= 2 counts the fiber product of
    its two-part spaces; it equals the unknowns of the whole system beyond
    its rank and the length of the basis `solve_D` reads off its nullspace."""
    B, n, grade = case
    layout, ech = _leibniz_echelon(B, (n,), grade)
    assert dim_D(B, (n,), grade) == layout["total"] - ech.rank == len(solve_D(B, (n,), grade))


def composition_count(d, n: int, g: int) -> int:
    """F(n, g), the sum over compositions kappa of n and grade vectors
    (g_1, ..., g_l) of l = len(kappa) parts summing to g of d[g_1] ...
    d[g_l], where d[h] = dim D_(1)(h): the dimension D_(n)(g) would have
    if it were graded by the slots of its finest refinement, slot i
    contributing a copy of D_(1)(g_i).  At grade 0 it is d_0 (d_0 + 1)^(n-1)."""
    return sum(
        math.prod(d[h] for h in split)
        for parts in range(1, n + 1)
        for kappa in compositions(n, parts, positive=True)
        for split in compositions(g, parts)
    )


# F(n, g) - dim D_(n)(g): zero on the algebras whose symbol sequence is
# exact, and on k[x,y]/(x^2,y^2), which is not formally smooth, the
# missing symbol rank (at (2,) grade 0, 16 - 15) plus, from order 3, the
# shortfall of the symbol's kernel against F's share of the coarser
# refinements.
COMPOSITION_DEFECT = {
    **{
        (name, n, g): 0
        for name in ("dualnum", "k2", "m2", "kx3", "t2")
        for n, g in [(2, 0), (3, 0), (4, 0), (2, 1), (3, 1)]
    },
    ("kxy2", 2, 0): 1,
    ("kxy2", 3, 0): 9,
    ("kxy2", 4, 0): 64,
    ("kxy2", 3, 1): 24,
    ("kxy2", 2, 1): 0,
    ("kxy2", 2, 2): 0,
}


def test_composition_count_closed_form_at_grade_0():
    for d0 in range(4):
        for n in range(1, 6):
            assert composition_count([d0], n, 0) == d0 * (d0 + 1) ** (n - 1)


@pytest.mark.parametrize("case", sorted(COMPOSITION_DEFECT), ids=str)
def test_composition_count_defect_is_pinned(case):
    name, n, g = case
    B = GradedTarget(dict(PRODUCT_ALGEBRAS)[name]())
    d = [dim_D(B, (1,), h) for h in range(g + 1)]
    assert composition_count(d, n, g) - dim_D(B, (n,), g) == COMPOSITION_DEFECT[case]


class TestExtendDegenerate:
    def test_unit_insertion_matches_block_structure(self, targets):
        B = targets["dualnum"]
        P = solve_Dn(B, 1, 0)[0]
        ext = extend_degenerate(P, (0, 1))
        assert ext
        # the extension in shape (0,1) evaluates P with a unit in slot 0
        for g_ext, mat in ext.items():
            assert mat.ncols == B.A.dim ** 2
