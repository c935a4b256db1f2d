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

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction

from .linalg import Matrix, Q0, Q1, SparseEchelon, _exact, format_rationals, parse_rationals


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

    def comp_dim(self, g: int) -> int:
        return self.A.dim ** (g + 1)

    def mB_matrix(self, g: int, h: int) -> Matrix:
        """Multiplication B_g x B_h -> B_{g+h} as a matrix from the
        Kronecker-ordered tensor basis."""
        key = (g, h)
        if key not in self._mB_cache:
            a = self.A.dim
            m = self.A.mult_matrix()
            left = Matrix.identity(a**g)
            right = Matrix.identity(a**h)
            self._mB_cache[key] = left.kron(m).kron(right)
        return self._mB_cache[key]

    def mB_apply(self, gx: int, x, gy: int, y):
        """Product of x in grade gx and y in grade gy; returns the grade
        gx + gy coordinate vector."""
        a = self.A.dim
        if len(x) != a ** (gx + 1) or len(y) != a ** (gy + 1):
            raise AlgebraError("graded vector length mismatch")
        xy = [xi * yj for xi in x for yj in y]
        return self.mB_matrix(gx, gy).apply(xy)

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
    """
    a = B.A.dim
    rows = B.comp_dim(grade)
    out = Matrix.zeros(rows, a ** (p + 1))
    for tup in itertools.product(range(a), repeat=p + 1):
        col = 0
        for t in tup:
            col = col * a + t
        total = [Q0] * rows
        head = B.left_insert(B.A.basis_vec(tup[0]), grade).apply(_eval_cochain(c, tup[1:], a))
        total = [t0 + h for t0, h in zip(total, head)]
        sign = -1
        for i in range(p):
            prod = B.A.mul_vec(B.A.basis_vec(tup[i]), B.A.basis_vec(tup[i + 1]))
            for k, ck in enumerate(prod):
                if ck:
                    merged = tup[:i] + (k,) + tup[i + 2 :]
                    v = _eval_cochain(c, merged, a)
                    total = [t0 + sign * ck * vv for t0, vv in zip(total, v)]
            sign = -sign
        tail = B.right_insert(B.A.basis_vec(tup[-1]), grade).apply(_eval_cochain(c, tup[:-1], a))
        total = [t0 + sign * tl for t0, tl in zip(total, tail)]
        for r in range(rows):
            out.rows[r][col] = total[r]
    return out


def _eval_cochain(c: Matrix, tup, a: int):
    col = 0
    for t in tup:
        col = col * a + t
    return c.col(col)


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

    def env_act(u_idx, v_idx, w):
        """(e_u x e_v) . w for w a coordinate vector in A x A, acting by
        left mult on the first and right mult on the second leg."""
        lm = A.left_mult(A.basis_vec(u_idx))
        rm = A.right_mult(A.basis_vec(v_idx))
        return lm.kron(rm).apply(w)

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
    # r_j on (e_u x e_v) contributes env_act(u, v, d_gen[j])
    cols = a * a * a  # a generators x a^2 coordinates of A^e
    pi = Matrix.zeros(a * a, cols)
    for j in range(a):
        for u in range(a):
            for v in range(a):
                col = (j * a + u) * a + v
                img = env_act(u, v, d_gen[j])
                for r in range(a * a):
                    pi.rows[r][col] = img[r]
    relations = pi.nullspace()

    # unknown splitting: s_j in (A^e)^a, so a * cols unknowns; equations:
    #   (R)  sum_j r_j . s_j = 0 for each relation basis vector (r_j)
    #   (P)  pi(s_j) = d(e_j)
    n_unk = a * cols
    N = n_unk  # augmented rhs column index
    ech = SparseEchelon(N + 1)

    def unk(j, l, u, v):
        # coordinate of s_j on generator l, basis e_u x e_v of A^e
        return (j * a + l) * a * a + u * a + v

    # (P): for each j, each coordinate r of A x A
    for j in range(a):
        for r in range(a * a):
            row: dict[int, Fraction] = {}
            for l in range(a):
                for u in range(a):
                    for v in range(a):
                        c = pi.rows[r][(l * a + u) * a + v]
                        if c:
                            row[unk(j, l, u, v)] = row.get(unk(j, l, u, v), Q0) + c
            rhs = d_gen[j][r]
            if rhs:
                row[N] = -rhs
            row = {k: x for k, x in row.items() if x}
            ech.add_row(row)

    # (R): relation (r_j)_j with r_j in A^e acts on s_j by the A^e product
    # (x x y)(x' x y') = xx' x y'y; constraint lives in (A^e)^a
    for rel in relations:
        # rel coordinate at ((j, u, v)) = coefficient of e_u x e_v in r_j
        for l in range(a):  # generator coordinate of the free module
            for pu in range(a):  # output basis of A^e first leg
                for pv in range(a):
                    row = {}
                    for j in range(a):
                        for u in range(a):
                            for v in range(a):
                                c0 = rel[(j * a + u) * a + v]
                                if not c0:
                                    continue
                                # (e_u x e_v) (e_x x e_y) = e_u e_x x e_y e_v
                                for x in range(a):
                                    for y in range(a):
                                        c1 = A.mult[u][x][pu] * A.mult[y][v][pv]
                                        if c1:
                                            key = unk(j, l, x, y)
                                            row[key] = row.get(key, Q0) + c0 * c1
                    row = {k: c for k, c in row.items() if c}
                    if row:
                        ech.add_row(row)

    feasible = N not in ech.pivot_rows
    report = {"dim": a, "kernel_module_dim": len(relations), "feasible": feasible}
    if feasible:
        sol = [Q0] * n_unk
        for pc, prow in ech.rref().items():
            if pc < N:
                sol[pc] = -prow.get(N, Q0)
        # verify: pi(s_j) = d(e_j)
        for j in range(a):
            img = [Q0] * (a * a)
            for l in range(a):
                for u in range(a):
                    for v in range(a):
                        c = sol[unk(j, l, u, v)]
                        if c:
                            contrib = env_act(u, v, d_gen[l])
                            img = [i0 + c * x for i0, x in zip(img, contrib)]
            if img != d_gen[j]:
                raise AlgebraError("splitting verification failed")
        report["witness"] = sol
    return report
