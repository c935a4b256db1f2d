"""Multi-differential operators: solvers, compositions, degeneracies,
symbols."""

import random
from fractions import Fraction

import pytest

from planarprop.algebras import GradedTarget, dual_numbers, kxk, m2
from planarprop.linalg import Matrix
from planarprop.operators import (
    DiffOperator,
    OperatorError,
    OperatorSum,
    bullet_v,
    check_leibniz,
    check_mP,
    compose_D,
    degeneracy,
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
)
from planarprop.ordinals import MonotoneMap, all_epis, compose


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


class TestSymbolExactness:
    def test_m2_order_two(self, targets):
        res = symbol_exactness(targets["m2"], 2, 0)
        assert res["dim_Dn"] == 12
        assert res["dim_finest"] == 9
        assert res["symbol_rank"] == 9
        assert res["surjective"]
        assert res["degeneracy_rank"] == 3
        assert res["kernel_dim"] == 3
        assert res["kernel_equals_degeneracy_image"]

    def test_dual_numbers_order_two(self, targets):
        res = symbol_exactness(targets["dualnum"], 2, 0)
        assert res["kernel_equals_degeneracy_image"]


class TestExtendDegenerate:
    def test_unit_insertion_matches_block_structure(self, targets):
        B = targets["dualnum"]
        P = solve_Dn(B, 1, 0)[0]
        ext = extend_degenerate(P, (0, 1))
        assert ext
        # the extension in shape (0,1) evaluates P with a unit in slot 0
        for g_ext, mat in ext.items():
            assert mat.ncols == B.A.dim ** 2
