"""Finite-dimensional associative algebras over Q and the graded target.

An algebra is given by structure constants c[i][j][k] (e_i e_j = sum_k
c[i][j][k] e_k) and a unit vector.  The graded target built on a base
algebra A has grade-g component A^{tensor (g+1)}; its multiplication
concatenates two tensors and multiplies the pair of factors at the
junction, so it is associative, unital in grade 0, and of degree 0.

Tensor coordinates are big-endian: the basis vector e_{i_1} x ... x e_{i_k}
has index i_1 a^{k-1} + ... + i_k (0-based), matching Matrix.kron.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, product
from math import gcd, lcm

from .linalg import Matrix, Q0, Q1, SparseEchelon, _eliminate, _exact, format_rationals, parse_rationals


class AlgebraError(ValueError):
    pass


@dataclass(frozen=True)
class FinAlgebra:
    dim: int
    mult: tuple  # mult[i][j][k], Fractions
    unit: tuple  # coordinates of 1
    basis_names: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.basis_names:
            object.__setattr__(self, "basis_names", tuple(f"e{i}" for i in range(self.dim)))

    def mul_vec(self, x, y) -> list[Fraction]:
        out = [Q0] * self.dim
        for i, xi in enumerate(x):
            if xi:
                for j, yj in enumerate(y):
                    if yj:
                        for k, c in enumerate(self.mult[i][j]):
                            if c:
                                out[k] += xi * yj * c
        return out

    def mult_matrix(self) -> Matrix:
        """The multiplication as a matrix A x A -> A (columns indexed by
        i * dim + j)."""
        m = Matrix.zeros(self.dim, self.dim * self.dim)
        for i in range(self.dim):
            for j in range(self.dim):
                for k in range(self.dim):
                    m.rows[k][i * self.dim + j] = self.mult[i][j][k]
        return m

    def left_mult(self, x) -> Matrix:
        m = Matrix.zeros(self.dim, self.dim)
        for i, xi in enumerate(x):
            if xi:
                for j in range(self.dim):
                    for k in range(self.dim):
                        c = self.mult[i][j][k]
                        if c:
                            m.rows[k][j] += xi * c
        return m

    def right_mult(self, y) -> Matrix:
        m = Matrix.zeros(self.dim, self.dim)
        for j, yj in enumerate(y):
            if yj:
                for i in range(self.dim):
                    for k in range(self.dim):
                        c = self.mult[i][j][k]
                        if c:
                            m.rows[k][i] += yj * c
        return m

    def basis_vec(self, i: int) -> list[Fraction]:
        v = [Q0] * self.dim
        v[i] = Q1
        return v

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "basis": list(self.basis_names),
            "unit": format_rationals([self.unit])[0],
            "mult": [format_rationals(plane) for plane in self.mult],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "FinAlgebra":
        if not isinstance(obj, dict):
            raise AlgebraError("an algebra spec must be a JSON object")
        dim = obj["dim"]
        if type(dim) is not int or dim < 1:
            raise AlgebraError(f"dim must be a positive integer, got {dim!r}")
        mult = parse_rationals(obj["mult"], (dim, dim, dim), f"mult must be a {dim}x{dim}x{dim} array of rationals")
        unit = parse_rationals(obj["unit"], (dim,), f"unit must be a list of {dim} rationals")
        basis = obj.get("basis", ())
        if basis and not (isinstance(basis, list) and len(basis) == dim and all(isinstance(x, str) for x in basis)):
            raise AlgebraError(f"basis must list {dim} names as strings")
        return cls(dim, mult, unit, tuple(basis))


def check_algebra(A: FinAlgebra) -> None:
    """Associativity on all basis triples and two-sidedness of the unit;
    raises with the offending triple.  Both are read straight off the
    structure constants, in ints when they are integral."""
    if len(A.unit) != A.dim:
        raise AlgebraError("unit vector has wrong length")
    n = range(A.dim)
    c = [[[_exact(x) for x in row] for row in plane] for plane in A.mult]
    # nonzero constants of each basis product e_i e_j
    nz = [[[(m, x) for m, x in enumerate(c[i][j]) if x] for j in n] for i in n]

    def combo(terms, planes):
        """sum over (m, x) in terms of x * planes[m], a vector over the basis"""
        return [sum(x * planes[m][t] for m, x in terms) for t in n]

    right = [[c[m][k] for m in n] for k in n]  # right[k][m]: e_m e_k
    for i in n:
        for j in n:
            for k in n:
                # (e_i e_j) e_k against e_i (e_j e_k)
                lhs = combo(nz[i][j], right[k])
                rhs = combo(nz[j][k], c[i])
                if lhs != rhs:
                    raise AlgebraError(f"associativity fails at basis triple ({i},{j},{k})")
    unit = [(m, _exact(x)) for m, x in enumerate(A.unit) if x]
    for i in n:
        e = [int(t == i) for t in n]
        if combo(unit, right[i]) != e or combo(unit, c[i]) != e:
            raise AlgebraError(f"unit is not two-sided at basis element {i}")


def load_algebra(path) -> FinAlgebra:
    with open(path) as fh:
        A = FinAlgebra.from_json(json.load(fh))
    check_algebra(A)
    return A


def save_algebra(A: FinAlgebra, path) -> None:
    with open(path, "w") as fh:
        json.dump(A.to_json(), fh, indent=1, sort_keys=True)
        fh.write("\n")


# -- standard examples -------------------------------------------------


def dual_numbers() -> FinAlgebra:
    """k[x]/(x^2), basis (1, x)."""
    z, o = Q0, Q1
    mult = (((o, z), (z, o)), ((z, o), (z, z)))
    return FinAlgebra(2, mult, (o, z), ("1", "x"))


def kxk() -> FinAlgebra:
    """k x k with the componentwise product, basis of idempotents."""
    z, o = Q0, Q1
    mult = (((o, z), (z, z)), ((z, z), (z, o)))
    return FinAlgebra(2, mult, (o, o), ("p1", "p2"))


def m2() -> FinAlgebra:
    """2x2 matrices over Q, basis of matrix units E11, E12, E21, E22."""
    units = [(0, 0), (0, 1), (1, 0), (1, 1)]
    mult = [[[Q0] * 4 for _ in range(4)] for _ in range(4)]
    for i, (a, b) in enumerate(units):
        for j, (c, d) in enumerate(units):
            if b == c:
                k = units.index((a, d))
                mult[i][j][k] = Q1
    mult = tuple(tuple(tuple(row) for row in plane) for plane in mult)
    return FinAlgebra(4, mult, (Q1, Q0, Q0, Q1), ("E11", "E12", "E21", "E22"))


STANDARD_ALGEBRAS = {"dualnum": dual_numbers, "k2": kxk, "m2": m2}


# -- graded target -----------------------------------------------------


class GradedTarget:
    """The tensor algebra target over a base algebra: grade g component is
    A^{tensor (g+1)}, so grade 0 is A itself; the product of grades (g, h)
    concatenates and multiplies the two factors meeting at the junction."""

    def __init__(self, A: FinAlgebra):
        self.A = A
        self._mB_cache: dict[tuple[int, int], Matrix] = {}
        # the Leibniz templates per (core, grade), which
        # `operators._leibniz_templates` builds and shares
        self._leibniz_cache: dict[tuple[tuple[int, ...], int], list] = {}

    def comp_dim(self, g: int) -> int:
        return self.A.dim ** (g + 1)

    @functools.cached_property
    def _constants(self) -> tuple[int, list, list]:
        """The structure constants as integers over one denominator den:
        (den, by_right, by_out), where by_right[q] lists the (p, z, c)
        with c / den the coefficient of e_z in e_p e_q, over its nonzero c,
        and by_out[z] holds the increasing indices p a + q of the nonzero
        c_pq^z and their numerators, as two tuples."""
        a = self.A.dim
        ratios = [[[x.as_integer_ratio() for x in row] for row in plane] for plane in self.A.mult]
        den = lcm(*(d for plane in ratios for row in plane for n, d in row if n))
        by_right = [[] for _ in range(a)]
        by_out = [([], []) for _ in range(a)]
        for p, q in product(range(a), repeat=2):
            for z, (n, d) in enumerate(ratios[p][q]):
                if n:
                    c = n * (den // d)
                    by_right[q].append((p, z, c))
                    by_out[z][0].append(p * a + q)
                    by_out[z][1].append(c)
        return den, by_right, [(tuple(pq), tuple(c)) for pq, c in by_out]

    @functools.cached_property
    def generators(self) -> tuple[int, ...]:
        """Increasing basis indices G whose words of length at least one
        span A, chosen greedily: index k joins G when e_k lies outside the
        span W of the words of the earlier members, and W is then closed
        again as span(G) + G W.  `operators._leibniz_blocks` feeds an
        order-one slot's rows only for first inputs in G.  It presumes A
        associative, as every CLI path checks first (`check_algebra`).

        The closure multiplies each new vector of W by each member on the
        left, skips a product it has already found (up to a scalar) and
        stops at full rank, so a basis whose products are multiples of
        basis vectors, as the standard ones, needs no row reduction."""
        a = self.A.dim
        _, by_right, _ = self._constants
        by_left = [[[] for _ in range(a)] for _ in range(a)]  # [p][q] -> (z, c) of e_p e_q
        for q, terms in enumerate(by_right):
            for p, z, c in terms:
                by_left[p][q].append((z, c))
        pivots: dict[int, dict[int, int]] = {}  # W's rows by lead, reduced lead by lead
        found = set()  # the primitive forms of the vectors met

        def times(p, v):
            out: dict[int, int] = {}
            for q, x in v.items():
                for z, c in by_left[p][q]:
                    out[z] = out.get(z, 0) + x * c
            return {z: y for z, y in out.items() if y}

        def new(v) -> bool:
            """Whether v, met for the first time, adds to W (then kept)."""
            g = gcd(*v.values()) * (1 if v[min(v)] > 0 else -1)
            key = tuple(sorted((z, y // g) for z, y in v.items()))
            if key in found:
                return False
            found.add(key)
            while v and min(v) in pivots:
                lead = min(v)
                _eliminate(v, pivots[lead], lead)
            if v:
                pivots[min(v)] = v
            return bool(v)

        gens: list[int] = []
        for k in range(a):
            if len(pivots) == a:
                break
            basis = list(pivots.values())
            e = {k: 1}
            if not new(e):
                continue
            gens.append(k)
            queue = [times(k, w) for w in basis] + [times(g, e) for g in gens]
            while queue and len(pivots) < a:
                v = queue.pop()
                if v and new(v):
                    queue += [times(g, v) for g in gens]
        return tuple(gens)

    def mB_matrix(self, g: int, h: int) -> Matrix:
        """Multiplication B_g x B_h -> B_{g+h} as a matrix from the
        Kronecker-ordered tensor basis: I_{a^g} (x) m (x) I_{a^h}, which
        multiplies legs g+1 and g+2 of A^{(x)(g+h+2)}.  It is written by
        index arithmetic: row (u, z, v) holds c_pq^z at column (u, p, q, v).
        This is the one junction map of adjacent legs; `check_mP` (its
        d-fold product and its collapses), `hochschild_d` and the A^e
        action of `is_formally_smooth_witness` multiply through it, and
        `validate_aut`, `lift_derivation` and `surjectivity_probe` read
        the multiplication m itself as mB(0, 0); `junction` multiplies
        the same legs from the same constants without building it.  It
        is built once per (g, h) and target and shared, so no caller
        writes into it, through `.rows` or otherwise."""
        key = (g, h)
        if key not in self._mB_cache:
            a = self.A.dim
            den, _, by_out = self._constants
            right = a**h
            cols, nums = [], []
            for u in range(a**g):
                for pqs, cs in by_out:
                    base = [(u * a * a + pq) * right for pq in pqs]
                    for v in range(right):
                        cols.append(tuple([b + v for b in base]))
                        nums.append(cs)
            self._mB_cache[key] = Matrix.from_form(a ** (g + h + 1), a ** (g + h + 2), den, cols, nums)
        return self._mB_cache[key]

    def junction(self, pairs) -> Matrix:
        """The sum over the pairs (m1, m2) of mB(g, h) @ (m1 (x) m2), where
        m1 has g + 1 output legs and m2 h + 1: each term multiplies the
        last leg of m1 with the first leg of m2.  Every term must give
        the same shape, so g + h and the column counts agree across pairs.

        No Kronecker product or junction map is built.  Row (u, z, v) of a
        term is the sum over p of row (u, p) of m1 (x) w(p, z, v), where
        w(p, z, v) = sum over q of c_pq^z row (q, v) of m2; the w are
        formed once per term from the nonzero rows of m2, then each
        nonzero row of m1 adds its products to the rows it reaches,
        accumulated in one list per touched row as `Matrix.__matmul__`
        does, over the common denominator of all terms."""
        a = self.A.dim
        den_c, by_right, _ = self._constants
        pairs = list(pairs)
        shapes = {(m1.nrows * m2.nrows // a, m1.ncols * m2.ncols) for m1, m2 in pairs}
        if len(shapes) != 1:
            raise ValueError(f"junction terms must share one shape, got {sorted(shapes)}")
        ((nrows, width),) = shapes
        den, terms = 1, []
        for m1, m2 in pairs:
            f1, f2 = m1.form(), m2.form()
            den = lcm(den, f1[0] * f2[0])
            terms.append((m2.nrows // a, m2.ncols, f1, f2))
        accs: dict[int, list[int]] = {}
        for right, q2, (d1, cols1, nums1), (d2, cols2, nums2) in terms:
            # w(p, z, v) keyed by its index (p a + z) right + v, dense of width q2
            block = a * right
            w: dict[int, list[int]] = {}
            for r in compress(range(len(cols2)), cols2):
                q, v = divmod(r, right)
                c, n = cols2[r], nums2[r]
                for p, z, cc in by_right[q]:
                    key = p * block + z * right + v
                    vec = w.get(key)
                    if vec is None:
                        vec = w[key] = [0] * q2
                    for y, t in zip(c, n):
                        vec[y] += cc * t
            # per p, the nonzero w(p, z, v) as (z right + v, sparse row)
            by_p = [[] for _ in range(a)]
            for key, vec in w.items():
                row = [(y, t) for y, t in enumerate(vec) if t]
                if row:
                    p, key = divmod(key, block)
                    by_p[p].append((key, row))
            scale = den // (d1 * d2)
            for r in compress(range(len(cols1)), cols1):
                rows2 = by_p[r % a]
                if not rows2:
                    continue
                row1 = [(x * q2, s * scale) for x, s in zip(cols1[r], nums1[r])]
                start = r // a * block
                for key, row2 in rows2:
                    acc = accs.get(start + key)
                    if acc is None:
                        acc = accs[start + key] = [0] * width
                    for base, s in row1:
                        for y, t in row2:
                            acc[base + y] += s * t
        return Matrix.from_dense_rows(nrows, width, den * den_c, accs)

    def left_insert(self, x, g: int) -> Matrix:
        """Left multiplication by x: B_g -> B_g (acts on the first tensor
        factor)."""
        lm = self.A.left_mult(x)
        return lm.kron(Matrix.identity(self.A.dim**g))

    def right_insert(self, x, g: int) -> Matrix:
        """Right multiplication by x: B_g -> B_g (last factor)."""
        rm = self.A.right_mult(x)
        return Matrix.identity(self.A.dim**g).kron(rm)


def hochschild_d(c: Matrix, p: int, grade: int, B: GradedTarget) -> Matrix:
    """Differential of a cochain c: A^{tensor p} -> B_grade, with A acting
    on the first and last tensor factors of B_grade:

        (dc)(a_1..a_{p+1}) = a_1 c(a_2..a_{p+1})
            + sum_{i=1}^{p} (-1)^i c(.., a_i a_{i+1}, ..)
            + (-1)^{p+1} c(a_1..a_p) a_{p+1}.

    Every product is a junction map of B: the ith inner term multiplies
    legs i and i+1 of A^{tensor (p+1)}."""
    a = B.A.dim
    if (c.nrows, c.ncols) != (B.comp_dim(grade), a**p):
        raise AlgebraError(f"a {p}-cochain into grade {grade} is a {B.comp_dim(grade)}x{a**p} matrix")
    ident = Matrix.identity(a)
    out = B.mB_matrix(0, grade) @ ident.kron(c)
    for i in range(1, p + 1):
        out = out + (c @ B.mB_matrix(i - 1, p - i)).scale((-1) ** i)
    return out + (B.mB_matrix(grade, 0) @ c.kron(ident)).scale((-1) ** (p + 1))


# -- formal smoothness witness ----------------------------------------


def is_formally_smooth_witness(A: FinAlgebra) -> dict:
    """Search for a splitting certifying that the kernel of the
    multiplication A x A -> A is projective as a bimodule.

    The free bimodule on one generator per basis element surjects onto
    the kernel module via eps_j -> 1 x e_j - e_j x 1.  A bimodule-linear
    right inverse is a linear-feasibility problem: unknown images s_j in
    the free module, constrained to kill the relation module and to
    project back to the generators.  Success yields a witness; failure
    reports infeasibility (a negative control, not a proof)."""
    a = A.dim
    one = list(A.unit)
    B = GradedTarget(A)
    # the A^e product (e_u x e_v)(e_x x e_y) = e_u e_x x e_y e_v is the
    # junction map of A^{(x)4} at legs 1-2 and then at the legs of y and v,
    # read at the column ((u a + x) a + y) a + v; act[r] lists the
    # (u, x a + y, v, c) of the nonzero constants c of output coordinate r
    act = [
        [(col // a**3, col // a % (a * a), col % a, c) for col, c in enumerate(row) if c]
        for row in (B.mB_matrix(1, 0) @ B.mB_matrix(0, 2)).rows
    ]

    # d(e_j) = 1 x e_j - e_j x 1 in A x A
    d_gen = []
    for j in range(a):
        v = [Q0] * (a * a)
        ej = A.basis_vec(j)
        for i in range(a):
            for k in range(a):
                v[i * a + k] += one[i] * ej[k] - ej[i] * one[k]
        d_gen.append(v)

    # pi: (A^e)^a -> A x A, (r_j) -> sum r_j . d(e_j); the coordinate of
    # r_j on (e_u x e_v) sits at column (j a + u) a + v
    cols = a * a * a  # a generators x a^2 coordinates of A^e
    pi = [[0] * cols for _ in act]
    for r, terms in enumerate(act):
        for j in range(a):
            for u, xy, v, c in terms:
                pi[r][(j * a + u) * a + v] += c * d_gen[j][xy]
    pi = Matrix(pi)
    relations = pi.nullspace()

    # unknown splitting: s_j in (A^e)^a, so a * cols unknowns, s_j's
    # coordinates at j * cols plus the columns of pi; equations:
    #   (R)  sum_j r_j . s_j = 0 for each relation basis vector (r_j)
    #   (P)  pi(s_j) = d(e_j)
    n_unk = a * cols
    N = n_unk  # augmented rhs column index
    ech = SparseEchelon(N + 1)

    # (P): for each j, each coordinate r of A x A
    for j in range(a):
        for r in range(a * a):
            row = {j * cols + col: c for col, c in enumerate(pi.rows[r]) if c}
            if d_gen[j][r]:
                row[N] = -d_gen[j][r]
            ech.add_row(row)

    # (R): relation (r_j)_j with r_j in A^e acts on s_j by the A^e product;
    # the constraint lives in (A^e)^a, at generator l and coordinate r, and
    # the rows of generator l are those of generator 0 shifted by l a^2
    for rel in relations:
        # rel coordinate at ((j, u, v)) = coefficient of e_u x e_v in r_j
        rows = []
        for terms in act:
            row = {}
            for j in range(a):
                for u, xy, v, c in terms:
                    c0 = rel[(j * a + u) * a + v]
                    if c0:
                        row[j * cols + xy] = row.get(j * cols + xy, Q0) + c0 * c
            rows.append({k: x for k, x in row.items() if x})
        for l in range(a):
            for row in rows:
                if row:
                    ech.add_row({k + l * a * a: x for k, x in row.items()})

    feasible = N not in ech.pivot_rows
    report = {"dim": a, "kernel_module_dim": len(relations), "feasible": feasible}
    if feasible:
        sol = [Q0] * n_unk
        for pc, prow in ech.rref().items():
            if pc < N:
                sol[pc] = -prow.get(N, Q0)
        # verify: pi(s_j) = d(e_j)
        for j in range(a):
            s_j = sol[j * cols:(j + 1) * cols]
            if [sum(x * y for x, y in zip(row, s_j)) for row in pi.rows] != d_gen[j]:
                raise AlgebraError("splitting verification failed")
        report["witness"] = sol
    return report
