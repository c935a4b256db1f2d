"""Finite-dimensional algebras and the graded tensor target."""

import functools
import itertools
import pathlib
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from test_leibniz import conjugate

from planarprop import algebras
from planarprop.algebras import (
    STANDARD_ALGEBRAS,
    AlgebraError,
    FinAlgebra,
    GradedTarget,
    check_algebra,
    dual_numbers,
    hochschild_d,
    is_formally_smooth_witness,
    kxk,
    load_algebra,
    m2,
    save_algebra,
)
from planarprop.linalg import Matrix, SparseEchelon, span_rank
from planarprop.operators import solve_Dn

ALGEBRAS = [dual_numbers, kxk, m2]
DATA = pathlib.Path(__file__).parent / "data"


@pytest.fixture(params=ALGEBRAS, ids=lambda f: f.__name__)
def algebra(request):
    return request.param()


def test_standard_algebras_check(algebra):
    check_algebra(algebra)


def test_non_associative_rejected():
    mult = [[[Fraction(0)] * 2 for _ in range(2)] for _ in range(2)]
    mult[0][0][0] = Fraction(1)
    mult[0][1][1] = mult[1][0][1] = Fraction(1)
    mult[1][1][0] = Fraction(1)  # x^2 = 1 makes this k[x]/(x^2-1); ok
    check_algebra(FinAlgebra(2, tuple(tuple(tuple(r) for r in p) for p in mult), (Fraction(1), Fraction(0))))
    mult[1][1][1] = Fraction(1)  # x^2 = 1 + x is still associative (commutative, 2-dim)
    check_algebra(FinAlgebra(2, tuple(tuple(tuple(r) for r in p) for p in mult), (Fraction(1), Fraction(0))))
    bad = [[[Fraction(0)] * 2 for _ in range(2)] for _ in range(2)]
    bad[0][0][0] = Fraction(1)
    bad[0][1][1] = bad[1][0][1] = Fraction(1)
    bad[1][1][1] = Fraction(1)
    bad[1][0][0] = Fraction(1)  # breaks both unitality and associativity
    with pytest.raises(AlgebraError):
        check_algebra(FinAlgebra(2, tuple(tuple(tuple(r) for r in p) for p in bad), (Fraction(1), Fraction(0))))


def reference_check_algebra(A: FinAlgebra) -> None:
    """check_algebra written with FinAlgebra.mul_vec on basis vectors."""
    if len(A.unit) != A.dim:
        raise AlgebraError("unit vector has wrong length")
    for i in range(A.dim):
        for j in range(A.dim):
            for k in range(A.dim):
                lhs = A.mul_vec(A.mul_vec(A.basis_vec(i), A.basis_vec(j)), A.basis_vec(k))
                rhs = A.mul_vec(A.basis_vec(i), A.mul_vec(A.basis_vec(j), A.basis_vec(k)))
                if lhs != rhs:
                    raise AlgebraError(f"associativity fails at basis triple ({i},{j},{k})")
    for i in range(A.dim):
        e = A.basis_vec(i)
        if A.mul_vec(list(A.unit), e) != e or A.mul_vec(e, list(A.unit)) != e:
            raise AlgebraError(f"unit is not two-sided at basis element {i}")


def _verdict(check, A):
    try:
        check(A)
    except AlgebraError as e:
        return str(e)
    return None


def _bumped(A: FinAlgebra, step: Fraction):
    """Every copy of A with one structure constant or one unit entry
    raised by step."""
    n = range(A.dim)
    for i, j, k in itertools.product(n, n, n):
        mult = [[list(row) for row in plane] for plane in A.mult]
        mult[i][j][k] += step
        yield FinAlgebra(A.dim, tuple(tuple(tuple(r) for r in p) for p in mult), A.unit)
    for i in n:
        unit = list(A.unit)
        unit[i] += step
        yield FinAlgebra(A.dim, A.mult, tuple(unit))


@pytest.mark.parametrize("name", ["dualnum", "k2", "m2"])
@pytest.mark.parametrize("kind", ["std", "conj"])
def test_check_algebra_matches_mul_vec_reference(name, kind):
    A = conjugate(name) if kind == "conj" else STANDARD_ALGEBRAS[name]()
    assert _verdict(check_algebra, A) is _verdict(reference_check_algebra, A) is None
    for step in (Fraction(1), Fraction(1, 2)):
        verdicts = [(_verdict(check_algebra, C), _verdict(reference_check_algebra, C)) for C in _bumped(A, step)]
        assert all(new == old for new, old in verdicts)
        assert sum(1 for new, _ in verdicts if new) >= A.dim  # every unit bump breaks the unit


def test_mult_matrix_agrees_with_mul_vec(algebra):
    A = algebra
    m = A.mult_matrix()
    for i in range(A.dim):
        for j in range(A.dim):
            xy = [Fraction(0)] * (A.dim * A.dim)
            xy[i * A.dim + j] = Fraction(1)
            assert m.apply(xy) == A.mul_vec(A.basis_vec(i), A.basis_vec(j))


def test_json_round_trip(algebra, tmp_path):
    p = tmp_path / "alg.json"
    save_algebra(algebra, p)
    A2 = load_algebra(p)
    assert A2 == algebra
    # bit-exact round trip of the file contents
    save_algebra(A2, tmp_path / "alg2.json")
    assert (tmp_path / "alg2.json").read_bytes() == p.read_bytes()


def mB_apply(B: GradedTarget, gx: int, x, gy: int, y):
    """The product of x in grade gx and y in grade gy through the junction map."""
    return B.mB_matrix(gx, gy).apply([xi * yj for xi in x for yj in y])


class TestGradedTarget:
    def test_mB_associative_and_unital(self, algebra):
        B = GradedTarget(algebra)
        a = algebra.dim
        rng = random.Random(1)

        def rand(g):
            return [Fraction(rng.randint(-2, 2)) for _ in range(a ** (g + 1))]

        one = list(algebra.unit)
        for g in range(3):
            x = rand(g)
            assert mB_apply(B, 0, one, g, x) == x
            assert mB_apply(B, g, x, 0, one) == x
        for g1 in range(2):
            for g2 in range(2):
                for g3 in range(2):
                    x, y, z = rand(g1), rand(g2), rand(g3)
                    left = mB_apply(B, g1 + g2, mB_apply(B, g1, x, g2, y), g3, z)
                    right = mB_apply(B, g1, x, g2 + g3, mB_apply(B, g2, y, g3, z))
                    assert left == right

    def test_insertions_are_junction_products(self, algebra):
        B = GradedTarget(algebra)
        a = algebra.dim
        rng = random.Random(2)
        for g in range(3):
            x = algebra.basis_vec(rng.randrange(a))
            v = [Fraction(rng.randint(-2, 2)) for _ in range(a ** (g + 1))]
            assert B.left_insert(x, g).apply(v) == mB_apply(B, 0, x, g, v)
            assert B.right_insert(x, g).apply(v) == mB_apply(B, g, v, 0, x)


class TestHochschild:
    @pytest.mark.parametrize("name", ["dualnum", "k2", "m2"])
    @pytest.mark.parametrize("kind", ["std", "conj"])
    def test_cocycle_kernel_is_the_order_one_solve(self, name, kind):
        # the 1-cochains A -> B_g with d c = 0 are the order-1 operators of
        # grade g: the kernel of c -> d c over all maps A -> B_g has the
        # dimension of the solver's basis, reached by another route
        A = conjugate(name) if kind == "conj" else STANDARD_ALGEBRAS[name]()
        B = GradedTarget(A)
        a = A.dim
        expected = {"dualnum": (1, 2), "k2": (0, 2), "m2": (3, 12)}[name]
        for g in range(2):
            rows = B.comp_dim(g)
            cols = []
            for k in range(rows * a):
                c = Matrix.zeros(rows, a)
                c.rows[k // a][k % a] = Fraction(1)
                cols.append([x for row in hochschild_d(c, 1, g, B).rows for x in row])
            kernel = rows * a - span_rank(cols)
            assert kernel == len(solve_Dn(B, 1, g)) == expected[g]

    def test_d_squared_is_zero(self, algebra):
        B = GradedTarget(algebra)
        a = algebra.dim
        rng = random.Random(9)
        for p in range(1, 4):
            c = Matrix(
                [[Fraction(rng.randint(-2, 2)) for _ in range(a**p)] for _ in range(a)]
            )
            dc = hochschild_d(c, p, 0, B)
            ddc = hochschild_d(dc, p + 1, 0, B)
            assert ddc.is_zero()

    def test_derivation_defect_is_a_coboundary_formula(self):
        # dc(x, y) = x c(y) - c(xy) + c(x) y for a 1-cochain: minus the
        # derivation defect c(xy) - x c(y) - c(x) y
        A = dual_numbers()
        B = GradedTarget(A)
        c = Matrix([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]])
        dc = hochschild_d(c, 1, 0, B)
        for i, j in itertools.product(range(A.dim), repeat=2):
            x, y = A.basis_vec(i), A.basis_vec(j)
            defect = [
                u - v - w
                for u, v, w in zip(c.apply(A.mul_vec(x, y)), A.mul_vec(x, c.apply(y)), A.mul_vec(c.apply(x), y))
            ]
            assert dc.col(i * A.dim + j) == [-d for d in defect]


def test_smoothness_witness_separates_m2_from_dual_numbers():
    assert is_formally_smooth_witness(m2())["feasible"]
    assert is_formally_smooth_witness(kxk())["feasible"]
    assert not is_formally_smooth_witness(dual_numbers())["feasible"]


# -- references: the differential and the smoothness witness written
# with one insertion matrix, one A^e action and one cochain column per
# basis tuple, compared with the junction-map versions above


def reference_hochschild_d(c: Matrix, p: int, grade: int, B: GradedTarget) -> Matrix:
    a = B.A.dim
    rows = B.comp_dim(grade)

    def value(tup):
        col = 0
        for t in tup:
            col = col * a + t
        return c.col(col)

    out = Matrix.zeros(rows, a ** (p + 1))
    for col, tup in enumerate(itertools.product(range(a), repeat=p + 1)):
        total = B.left_insert(B.A.basis_vec(tup[0]), grade).apply(value(tup[1:]))
        sign = -1
        for i in range(p):
            prod = B.A.mul_vec(B.A.basis_vec(tup[i]), B.A.basis_vec(tup[i + 1]))
            for k, ck in enumerate(prod):
                if ck:
                    v = value(tup[:i] + (k,) + tup[i + 2 :])
                    total = [t0 + sign * ck * vv for t0, vv in zip(total, v)]
            sign = -sign
        tail = B.right_insert(B.A.basis_vec(tup[-1]), grade).apply(value(tup[:-1]))
        total = [t0 + sign * tl for t0, tl in zip(total, tail)]
        for r in range(rows):
            out.rows[r][col] = total[r]
    return out


def reference_is_formally_smooth_witness(A: FinAlgebra) -> dict:
    a = A.dim
    one = list(A.unit)

    def env_act(u, v, w):
        """(e_u x e_v) . w: left mult on the first leg, right mult on the second."""
        return A.left_mult(A.basis_vec(u)).kron(A.right_mult(A.basis_vec(v))).apply(w)

    d_gen = []
    for j in range(a):
        ej = A.basis_vec(j)
        d_gen.append([one[i] * ej[k] - ej[i] * one[k] for i in range(a) for k in range(a)])
    cols = a * a * a
    pi = Matrix.zeros(a * a, cols)
    for j in range(a):
        for u in range(a):
            for v in range(a):
                img = env_act(u, v, d_gen[j])
                for r in range(a * a):
                    pi.rows[r][(j * a + u) * a + v] = img[r]
    relations = pi.nullspace()
    N = a * cols
    ech = SparseEchelon(N + 1)

    def unk(j, l, u, v):
        return (j * a + l) * a * a + u * a + v

    for j in range(a):
        for r in range(a * a):
            row = {}
            for l, u, v in itertools.product(range(a), repeat=3):
                if pi.rows[r][(l * a + u) * a + v]:
                    row[unk(j, l, u, v)] = pi.rows[r][(l * a + u) * a + v]
            if d_gen[j][r]:
                row[N] = -d_gen[j][r]
            ech.add_row(row)
    for rel in relations:
        for l, pu, pv in itertools.product(range(a), repeat=3):
            row = {}
            for j, u, v in itertools.product(range(a), repeat=3):
                c0 = rel[(j * a + u) * a + v]
                if not c0:
                    continue
                for x, y in itertools.product(range(a), repeat=2):
                    c1 = A.mult[u][x][pu] * A.mult[y][v][pv]
                    if c1:
                        row[unk(j, l, x, y)] = row.get(unk(j, l, x, y), 0) + c0 * c1
            row = {k: c for k, c in row.items() if c}
            if row:
                ech.add_row(row)
    feasible = N not in ech.pivot_rows
    report = {"dim": a, "kernel_module_dim": len(relations), "feasible": feasible}
    if feasible:
        sol = [Fraction(0)] * N
        for pc, prow in ech.rref().items():
            if pc < N:
                sol[pc] = -prow.get(N, Fraction(0))
        for j in range(a):
            img = [Fraction(0)] * (a * a)
            for l, u, v in itertools.product(range(a), repeat=3):
                if sol[unk(j, l, u, v)]:
                    contrib = env_act(u, v, d_gen[l])
                    img = [i0 + sol[unk(j, l, u, v)] * x for i0, x in zip(img, contrib)]
            assert img == d_gen[j]
        report["witness"] = sol
    return report


CORPUS = {
    **{name: make for name, make in STANDARD_ALGEBRAS.items()},
    **{f"{name} conj": functools.partial(conjugate, name) for name in STANDARD_ALGEBRAS},
    "k[x]/(x^3)": functools.partial(load_algebra, DATA / "kx3.json"),
    "T2": functools.partial(load_algebra, DATA / "t2.json"),
    "k[x,y]/(x^2,y^2)": functools.partial(load_algebra, DATA / "kxy2.json"),
}


@pytest.mark.parametrize("name", CORPUS)
def test_hochschild_d_matches_reference(name):
    A = CORPUS[name]()
    B = GradedTarget(A)
    a = A.dim
    rng = random.Random(11)
    compared = 0
    for p, grade in itertools.product(range(4), range(3)):
        if a ** (grade + 1) * a ** (p + 1) > 5000:
            continue
        c = Matrix(
            [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(a**p)] for _ in range(B.comp_dim(grade))]
        )
        assert hochschild_d(c, p, grade, B) == reference_hochschild_d(c, p, grade, B)
        compared += 1
    assert compared >= 9


@pytest.mark.parametrize("name", CORPUS)
def test_smoothness_report_matches_reference(name):
    A = CORPUS[name]()
    report = is_formally_smooth_witness(A)
    assert report == reference_is_formally_smooth_witness(A)
    expected = {"k[x]/(x^3)": False, "T2": True, "k[x,y]/(x^2,y^2)": False}
    if name in expected:
        assert report["feasible"] is expected[name]


# The junction map built as I (x) m (x) I by two Kronecker products: the
# oracle for `mB_matrix`, which writes it by index arithmetic, and for
# `junction`, which never builds it.


def reference_mB(B: GradedTarget, g: int, h: int) -> Matrix:
    a = B.A.dim
    return Matrix.identity(a**g).kron(B.A.mult_matrix()).kron(Matrix.identity(a**h))


def rescaled_kx3() -> FinAlgebra:
    """k[x]/(x^3) on the basis (1, x/2, 3x^2): e_1 e_1 = e_2 / 12, so its
    structure constants have denominators."""
    scales = (Fraction(1), Fraction(1, 2), Fraction(3))
    mult = [[[Fraction(0)] * 3 for _ in range(3)] for _ in range(3)]
    for i, j in itertools.product(range(3), repeat=2):
        if i + j < 3:
            mult[i][j][i + j] = scales[i] * scales[j] / scales[i + j]
    A = FinAlgebra(3, tuple(tuple(map(tuple, plane)) for plane in mult), (Fraction(1), Fraction(0), Fraction(0)))
    check_algebra(A)
    return A


JUNCTION_CORPUS = ["dualnum", "k2", "m2", "m2 conj", "T2", "k[x,y]/(x^2,y^2)", "k[x]/(x^3) rescaled"]


@functools.cache
def corpus_target(name: str) -> GradedTarget:
    return GradedTarget(rescaled_kx3() if name == "k[x]/(x^3) rescaled" else CORPUS[name]())


@pytest.mark.parametrize("name", JUNCTION_CORPUS)
def test_mB_matrix_matches_kron_construction(name):
    B = GradedTarget(corpus_target(name).A)
    for g, h in itertools.product(range(3), repeat=2):
        mb = B.mB_matrix(g, h)
        assert mb == reference_mB(B, g, h)
        assert mb.form() == reference_mB(B, g, h).form()
        assert B.mB_matrix(g, h) is mb and B._mB_cache[g, h] is mb


@st.composite
def st_leg_map(draw, a: int, legs: int, ncols: int):
    """A map into A^(x)legs in integer form over a drawn denominator, with
    some zero rows and at least one entry, and now and then the zero map."""
    nrows = a**legs
    if draw(st.integers(0, 7)) == 0:
        return Matrix.zeros(nrows, ncols)
    den = draw(st.sampled_from([1, 2, 3, 6]))
    density = draw(st.sampled_from([0.15, 0.5, 1.0]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    cells = [(r, c) for r in range(nrows) for c in range(ncols) if rng.random() < density]
    cells = cells or [(rng.randrange(nrows), rng.randrange(ncols))]
    return Matrix.from_entries(nrows, ncols, den, [(r, c, rng.choice([-3, -2, -1, 1, 2, 3])) for r, c in cells])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(JUNCTION_CORPUS), st.integers(0, 2), st.integers(0, 2), st.integers(1, 2), st.data())
def test_junction_is_the_junction_map_of_the_kron(name, g, h, ncols, data):
    B = corpus_target(name)
    a = B.A.dim
    m1 = data.draw(st_leg_map(a, g + 1, ncols))
    m2_ = data.draw(st_leg_map(a, h + 1, 3 - ncols))
    assert B.junction([(m1, m2_)]) == B.mB_matrix(g, h) @ m1.kron(m2_)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(JUNCTION_CORPUS), st.integers(0, 3), st.data())
def test_junction_sums_its_terms(name, k, data):
    """Terms at every cut g + h = k sum over one common denominator."""
    B = corpus_target(name)
    a = B.A.dim
    cuts = data.draw(st.lists(st.integers(0, k), min_size=1, max_size=k + 2))
    pairs = [(data.draw(st_leg_map(a, g + 1, 1)), data.draw(st_leg_map(a, k - g + 1, 1))) for g in cuts]
    expected = Matrix.zeros(a ** (k + 1), 1)
    for g, (m1, m2_) in zip(cuts, pairs):
        expected = expected + B.mB_matrix(g, k - g) @ m1.kron(m2_)
    assert B.junction(pairs) == expected


def test_junction_on_dense_conjugate_maps():
    """Every row and every constant nonzero: the dense case the accumulation lists serve."""
    B = corpus_target("m2 conj")
    rng = random.Random(5)
    for g, h in itertools.product(range(3), repeat=2):
        m1 = Matrix([[Fraction(rng.choice([-2, -1, 1, 2]), rng.randint(1, 3)) for _ in range(4)] for _ in range(4 ** (g + 1))])
        m2_ = Matrix([[Fraction(rng.choice([-1, 1, 3]), 2) for _ in range(4)] for _ in range(4 ** (h + 1))])
        assert B.junction([(m1, m2_)]) == reference_mB(B, g, h) @ m1.kron(m2_)


def test_junction_rejects_terms_of_different_shapes():
    B = GradedTarget(dual_numbers())
    one = Matrix.identity(2)
    with pytest.raises(ValueError, match="one shape"):
        B.junction([(one, one), (one, Matrix.zeros(4, 2))])
    with pytest.raises(ValueError, match="one shape"):
        B.junction([])


@pytest.mark.parametrize("shape", [(2, 3), (4, 2), (2, 1)])
def test_hochschild_d_rejects_a_misshapen_cochain(shape):
    # over the dual numbers a 1-cochain into grade 0 is 2x2, a 0-cochain 2x1
    B = GradedTarget(dual_numbers())
    c = Matrix.zeros(*shape)
    for p in (0, 1):
        if shape != (2, 2**p):
            with pytest.raises(AlgebraError, match="cochain"):
                hochschild_d(c, p, 0, B)


# The generators of an algebra, checked by multiplying out every word of
# length 1 to dim over a set of basis vectors with `mul_vec` and taking
# ranks with sympy: the span of the words of length at most L grows
# strictly with L until it is closed, so length dim reaches the closure.

def reordered(A: FinAlgebra, order) -> FinAlgebra:
    """A on its basis taken in the given order: new e_i is old e_order[i]."""
    mult = tuple(tuple(tuple(A.mult[p][q][z] for z in order) for q in order) for p in order)
    B = FinAlgebra(A.dim, mult, tuple(A.unit[z] for z in order))
    check_algebra(B)
    return B


def kx4_by_powers() -> FinAlgebra:
    """k[x]/(x^4) on the basis (x, x^2, x^3, 1): x^3 is a word of length
    three in x, so the search must close the span beyond products of two."""
    power = (1, 2, 3, 0)
    mult = tuple(
        tuple(tuple(Fraction(int(power[p] + power[q] == power[z])) for z in range(4)) for q in range(4))
        for p in range(4)
    )
    A = FinAlgebra(4, mult, (Fraction(0),) * 3 + (Fraction(1),))
    check_algebra(A)
    return A


GENERATOR_CORPUS = {
    **CORPUS,
    "k[x]/(x^3) rescaled": rescaled_kx3,
    **{f"{path.stem}.json": functools.partial(load_algebra, path) for path in sorted(DATA.glob("*.json"))},
    # bases whose later vectors are words in earlier ones before the
    # span is full, so the greedy choice skips them
    "k[x]/(x^4) by powers": kx4_by_powers,
    "k[x,y]/(x^2,y^2) on (y, x, xy, 1)": lambda: reordered(load_algebra(DATA / "kxy2.json"), (1, 2, 3, 0)),
}


def word_vectors(A: FinAlgebra, members) -> list:
    """The products of every word of length 1 to dim over the members."""
    layer = [A.basis_vec(g) for g in members]
    words = []
    for _ in range(A.dim):
        words += layer
        layer = [A.mul_vec(A.basis_vec(g), w) for g in members for w in layer]
    return words


def rank(vectors) -> int:
    return sympy.Matrix(vectors).rank() if vectors else 0


@pytest.mark.parametrize("name", GENERATOR_CORPUS)
def test_generators_are_chosen_greedily_and_span(name):
    """The words of the generators span A, and a basis index is a
    generator exactly when its vector lies outside the span of the words
    of the generators before it."""
    A = GENERATOR_CORPUS[name]()
    gens = GradedTarget(A).generators
    assert list(gens) == sorted(set(gens)) and gens
    assert rank(word_vectors(A, gens)) == A.dim
    for k in range(A.dim):
        words = word_vectors(A, [g for g in gens if g < k])
        assert (k in gens) == (rank(words + [A.basis_vec(k)]) > rank(words)), k


def test_generators_are_pinned():
    """E11, E12 and E21 generate the 2x2 matrices (E21 E12 = E22), and x
    with 1 generates k[x]/(x^3); a dense conjugate of m2 needs two."""
    assert GradedTarget(m2()).generators == (0, 1, 2)
    assert GradedTarget(load_algebra(DATA / "kx3.json")).generators == (0, 1)
    assert GradedTarget(conjugate("m2")).generators == (0, 1)
    assert GradedTarget(conjugate("dualnum")).generators == (0,)
    assert GradedTarget(dual_numbers()).generators == (0, 1)
    assert GradedTarget(kx4_by_powers()).generators == (0, 3)


def test_generators_of_the_standard_bases_need_no_row_reduction(algebra, monkeypatch):
    """Each product of two standard basis vectors is a multiple of one or
    zero, so the search meets only vectors it has found or new pivots."""
    calls = []
    eliminate = algebras._eliminate

    def counted(*args):
        calls.append(args)
        eliminate(*args)

    monkeypatch.setattr(algebras, "_eliminate", counted)
    assert GradedTarget(algebra).generators
    assert calls == []
    assert GradedTarget(conjugate("m2")).generators == (0, 1)
    assert calls
