"""Truncated automorphism families, their operators, and pullbacks."""

import itertools
from fractions import Fraction

import pytest
from test_leibniz import conjugate

from planarprop.algebras import FinAlgebra, GradedTarget, dual_numbers, kxk, m2
from planarprop.families import (
    AutFamily,
    FamilyError,
    derivation_lifts,
    from_derivations,
    identity_family,
    is_double_derivation,
    lift_derivation,
    pullback,
    r_map,
    surjectivity_probe,
    units_inserted,
    validate_aut,
)
from planarprop.linalg import Matrix
from planarprop.operators import (
    DiffOperator,
    check_leibniz,
    degeneracy,
    is_totally_positive,
    solve_Dn,
    unit_operator,
)
from planarprop.ordinals import MonotoneMap, all_epis


@pytest.fixture(scope="module")
def Bdn():
    return GradedTarget(dual_numbers())


@pytest.fixture(scope="module")
def dd(Bdn):
    # the double derivation x -> x (x) x on k[x]/(x^2)
    d = Matrix.zeros(4, 2)
    d.rows[3][1] = Fraction(1)
    return d


class TestValidation:
    def test_double_derivation_example(self, Bdn, dd):
        assert is_double_derivation(Bdn, dd)
        not_dd = Matrix.zeros(4, 2)
        not_dd.rows[0][1] = Fraction(1)  # x -> 1 (x) 1 is not one
        assert not is_double_derivation(Bdn, not_dd)

    def test_from_derivations_validates(self, Bdn, dd):
        phi = from_derivations(Bdn, [dd], N=3)
        ok, where = validate_aut(phi)
        assert ok and where is None

    def test_iterated_word_value(self, Bdn, dd):
        # phi_hh(x) = x (x) x (x) x: the last coordinate of the grade-2 slot
        phi = from_derivations(Bdn, [dd], N=3)
        col = phi.word_map((0, 0)).col(1)
        assert col[7] == 1 and sum(1 for v in col if v) == 1

    def test_identity_family(self, Bdn):
        assert validate_aut(identity_family(Bdn, 2))[0]

    def test_broken_family_rejected(self, Bdn):
        bad = Matrix.zeros(4, 2)
        bad.rows[0][0] = Fraction(1)
        ok, where = validate_aut(AutFamily(Bdn, 1, 2, {(0,): bad}))
        assert not ok
        assert where is not None

    @pytest.mark.parametrize("shape", [(2, 2), (4, 4), (8, 2), (2, 4)])
    def test_misshapen_letter_is_named(self, Bdn, dd, shape):
        with pytest.raises(FamilyError, match=rf"letter 1 is a {shape[0]}x{shape[1]} matrix, expected 4x2"):
            from_derivations(Bdn, [dd, Matrix.zeros(*shape)], N=2)

    def test_letter_that_is_not_a_double_derivation_is_named(self, Bdn, dd):
        not_dd = Matrix.zeros(4, 2)
        not_dd.rows[0][1] = Fraction(1)
        with pytest.raises(FamilyError, match="letter 2 is not a double derivation"):
            from_derivations(Bdn, [dd, dd.scale(2), not_dd], N=2)

    @pytest.mark.parametrize("name", ["dualnum", "m2", "m2 conj"])
    def test_word_maps_apply_the_last_letter_to_the_last_leg(self, Bdn, dd, name):
        # the dense route: I_{a^(k-1)} (x) d composed after the prefix's map
        if name == "dualnum":
            B, letters, N = Bdn, [dd, dd.scale(Fraction(-3, 2))], 3
        else:
            B = GradedTarget(conjugate("m2") if name == "m2 conj" else m2())
            letters, N = derivation_lifts(B)[2], 3
        phi = from_derivations(B, letters, N=N)
        a = B.A.dim
        for k in range(2, N + 1):
            for w in itertools.product(range(len(letters)), repeat=k):
                dense = Matrix.identity(a ** (k - 1)).kron(letters[w[-1]]) @ phi.word_map(w[:-1])
                assert phi.word_map(w) == dense
        assert len(phi.maps) > 2 * len(letters)

    def test_word_longer_than_truncation_rejected(self, Bdn, dd):
        too_long = Matrix.zeros(8, 2)
        too_long.rows[0][0] = Fraction(1)
        with pytest.raises(FamilyError):
            AutFamily(Bdn, 1, 1, {(0, 0): too_long})


class TestRMap:
    def test_operator_invariants(self, Bdn, dd):
        phi = from_derivations(Bdn, [dd], N=3)
        for w in [(0,), (0, 0), (0, 0, 0)]:
            P = r_map(phi, w)
            assert P.shape == (len(w),)
            assert check_leibniz(P)
            assert is_totally_positive(P)

    def test_single_letter_is_the_derivation(self, Bdn, dd):
        phi = from_derivations(Bdn, [dd], N=3)
        P = r_map(phi, (0,))
        assert P.block((1,), (1,)) == dd

    def test_finest_component_is_tensor_of_derivations(self, Bdn, dd):
        # distinct single letters per part: the (1,1) block is d (x) d
        phi = from_derivations(Bdn, [dd, dd], N=2)
        P = r_map(phi, (0, 1))
        assert P.block((1, 1), (1, 1)) == dd.kron(dd)

    def test_empty_word_is_unit(self, Bdn, dd):
        phi = from_derivations(Bdn, [dd], N=2)
        assert r_map(phi, ()) == unit_operator(Bdn, 1)

    def test_grade_is_the_word_length_over_a_one_dimensional_algebra(self):
        # over Q every map is 1x1, so the grade cannot be read off the
        # row count: each block's grade vector is its refinement
        B = GradedTarget(FinAlgebra(1, (((Fraction(1),),),), (Fraction(1),)))
        one = Matrix([[1]])
        phi = AutFamily(B, 1, 2, {(0,): one, (0, 0): one})
        P = r_map(phi, (0, 0))
        assert P.grade == 2
        assert P.components == {(2,): {(2,): one}, (1, 1): {(1, 1): one}}

    def test_truncation_exceeded(self, Bdn, dd):
        phi = from_derivations(Bdn, [dd], N=2)
        with pytest.raises(FamilyError):
            r_map(phi, (0, 0, 0))


class TestPullback:
    def test_fold_example(self, Bdn, dd):
        # folding two letters onto one: singletons die, the pair picks up a
        # unit at the inner junction
        phi = from_derivations(Bdn, [dd], N=3)
        sig = MonotoneMap(2, 1, (1, 1))
        s_phi = pullback(sig, phi)
        assert s_phi.word_map((0,)).is_zero()
        assert s_phi.word_map((1,)).is_zero()
        col = s_phi.word_map((0, 1)).col(1)
        # image of x is x (x) 1 (x) x: tensor index 0b101 over the basis (1, x)
        assert col[0b101] == 1 and sum(1 for v in col if v) == 1
        assert validate_aut(s_phi)[0]

    def test_identity_pullback_fixes_family(self, Bdn, dd):
        phi = from_derivations(Bdn, [dd], N=3)
        assert pullback(MonotoneMap(1, 1, (1,)), phi).maps == phi.maps

    def test_degeneracy_square(self, Bdn, dd):
        # pulling back along sigma then applying r agrees with applying r
        # first and then the operator-level degeneracy, once the implicit
        # units at intra-fiber junctions are inserted
        B = Bdn
        for mtop in range(1, 4):
            for ntop in range(1, mtop + 1):
                for sigma in all_epis(mtop, ntop):
                    phiH = from_derivations(B, [dd] * ntop, N=mtop)
                    phiG = pullback(sigma, phiH)
                    w = tuple(range(ntop))
                    fibers = [len(sigma.fiber(h + 1)) for h in w]
                    v = tuple(g - 1 for h in w for g in sigma.fiber(h + 1))
                    left = r_map(phiG, v)
                    Q = r_map(phiH, w)
                    sig_vals = []
                    for t, k in enumerate(fibers, start=1):
                        sig_vals.extend([t] * k)
                    sig_pos = MonotoneMap(len(v), len(w), tuple(sig_vals))
                    degQ = degeneracy(sig_pos, Q)
                    comps = {}
                    for lamp, blocks in degQ.components.items():
                        lam = []
                        i = 0
                        for part in lamp:
                            acc = 0
                            cnt = 0
                            while acc < part:
                                acc += fibers[i]
                                i += 1
                                cnt += 1
                            lam.append(cnt)
                        fl = []
                        j = 0
                        for cnt in lam:
                            fl.append(fibers[j : j + cnt])
                            j += cnt
                        pos = 0
                        mats = []
                        grades = []
                        for idx, cnt in enumerate(lam):
                            sub = w[pos : pos + cnt]
                            pos += cnt
                            mats.append(units_inserted(B, phiH.word_map(sub), fl[idx]))
                            grades.append(sum(fl[idx]))
                        blk = mats[0]
                        for mm in mats[1:]:
                            blk = blk.kron(mm)
                        comps.setdefault(lamp, {})[tuple(grades)] = blk
                    expected = DiffOperator(B, (len(v),), len(v), comps)
                    assert left == expected


class TestLiftsAndProbes:
    def test_lift_recovers_derivation(self):
        # on M2 every derivation lifts to a double derivation
        B = GradedTarget(m2())
        ders = [P.block((1,), (0,)) for P in solve_Dn(B, 1, 0)]
        dd_basis = [P.block((1,), (1,)) for P in solve_Dn(B, 1, 1)]
        mm = B.A.mult_matrix()
        for der in ders:
            lifted = lift_derivation(B, der, dd_basis)
            assert lifted is not None
            assert mm @ lifted == der

    def test_no_lift_on_dual_numbers(self, Bdn):
        der = solve_Dn(Bdn, 1, 0)[0].block((1,), (0,))
        dd_basis = [P.block((1,), (1,)) for P in solve_Dn(Bdn, 1, 1)]
        assert lift_derivation(Bdn, der, dd_basis) is None

    @pytest.mark.parametrize("maker", [kxk, m2], ids=["k2", "m2"])
    @pytest.mark.parametrize("n", [1, 2])
    def test_probes_span(self, maker, n):
        report = surjectivity_probe(maker(), n)
        assert report["spanned"]
        assert report["span_rank"] == report["symbol_dim"]

    def test_m2_probe_dimensions(self):
        report = surjectivity_probe(m2(), 2)
        assert report["dim_derivations"] == 3
        assert report["dim_double_derivations"] == 12
        assert report["symbol_dim"] == 9
