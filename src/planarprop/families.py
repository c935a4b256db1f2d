"""Truncated automorphism families and their comparison with operators.

A family assigns to every word w over a finite ordered alphabet (up to a
truncation length N) a linear map A -> A^{(|w|+1)}, with the empty word
acting as the identity.  The defining relation is multiplicativity with
junction products:

    phi_w(ab) = sum over splittings w = w' w'' of phi_{w'}(a) phi_{w''}(b)

where the product multiplies the last tensor factor of the left term with
the first factor of the right one.  At single letters this is exactly the
double-derivation rule, which is how families are built in practice.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .algebras import FinAlgebra, GradedTarget
from .linalg import Matrix, span_rank
from .operators import DiffOperator, OperatorError, solve_D, solve_Dn, symbol, unit_operator
from .ordinals import MonotoneMap
from .partitions import OrderedPartition, compositions


class FamilyError(ValueError):
    pass


def _words(n_letters: int, max_len: int):
    for k in range(max_len + 1):
        yield from itertools.product(range(n_letters), repeat=k)


class AutFamily:
    """maps: word (tuple of 0-based letters) -> Matrix A -> A^{(|w|+1)}.
    Missing words act as zero.  The empty word is always the identity and
    is not stored."""

    def __init__(self, B: GradedTarget, n_letters: int, N: int, maps: dict):
        if N < 1:
            raise FamilyError("truncation length must be at least 1")
        self.B = B
        self.n_letters = n_letters
        self.N = N
        self.maps = {tuple(w): m for w, m in maps.items() if not m.is_zero()}
        a = B.A.dim
        for w, m in self.maps.items():
            if len(w) == 0:
                raise FamilyError("the empty word is fixed to the identity")
            if len(w) > N:
                raise FamilyError(f"word {w} exceeds the truncation length {N}")
            if m.ncols != a or m.nrows != a ** (len(w) + 1):
                raise FamilyError(f"map for word {w} has wrong dimensions")

    def word_map(self, w) -> Matrix:
        w = tuple(w)
        if len(w) == 0:
            return Matrix.identity(self.B.A.dim)
        m = self.maps.get(w)
        if m is None:
            a = self.B.A.dim
            return Matrix.zeros(a ** (len(w) + 1), a)
        return m

    def to_json(self) -> dict:
        return {
            "alphabet": self.n_letters,
            "truncation": self.N,
            "maps": [
                {"word": list(w), "matrix": [[str(x) for x in row] for row in m.rows]}
                for w, m in sorted(self.maps.items(), key=lambda t: (len(t[0]), t[0]))
            ],
        }

    @classmethod
    def from_json(cls, B: GradedTarget, obj: dict) -> "AutFamily":
        maps = {
            tuple(e["word"]): Matrix([[Fraction(x) for x in row] for row in e["matrix"]])
            for e in obj["maps"]
        }
        return cls(B, obj["alphabet"], obj["truncation"], maps)


def identity_family(B: GradedTarget, n_letters: int, N: int = 3) -> AutFamily:
    return AutFamily(B, n_letters, N, {})


def validate_aut(phi: AutFamily) -> tuple[bool, tuple | None]:
    """Check multiplicativity for every word up to the truncation, as an
    identity of maps A (x) A -> A^{(|w|+1)}; returns (ok, first failing
    (word, i, j)), the basis pair read off the first column that differs."""
    B = phi.B
    a = B.A.dim
    mm = B.A.mult_matrix()
    for w in _words(phi.n_letters, phi.N):
        k = len(w)
        lhs = phi.word_map(w) @ mm
        rhs = Matrix.zeros(lhs.nrows, lhs.ncols)
        for cut in range(k + 1):
            m1, m2 = phi.word_map(w[:cut]), phi.word_map(w[cut:])
            if m1.is_zero() or m2.is_zero():
                continue
            rhs = rhs + B.mB_matrix(cut, k - cut) @ m1.kron(m2)
        if lhs != rhs:
            col = next(c for c in range(a * a) if lhs.col(c) != rhs.col(c))
            return False, (w, col // a, col % a)
    return True, None


def is_double_derivation(B: GradedTarget, mat: Matrix) -> bool:
    """mat: A -> A tensor A with mat(ab) = mat(a)(1 (x) b) + (a (x) 1) mat(b)."""
    a = B.A.dim
    for i in range(a):
        for j in range(a):
            prod = B.A.mul_vec(B.A.basis_vec(i), B.A.basis_vec(j))
            lhs = mat.apply(prod)
            rhs = B.right_insert(B.A.basis_vec(j), 1).apply(mat.col(i))
            lv = B.left_insert(B.A.basis_vec(i), 1).apply(mat.col(j))
            rhs = [x + y for x, y in zip(rhs, lv)]
            if lhs != rhs:
                return False
    return True


def from_derivations(B: GradedTarget, ders: list[Matrix], N: int = 3) -> AutFamily:
    """The family with phi_w the iterated rightmost application of the
    double derivations indexed by the letters of w."""
    a = B.A.dim
    for d in ders:
        if not is_double_derivation(B, d):
            raise FamilyError("input map is not a double derivation")
    maps = {}
    for w in _words(len(ders), N):
        if not w:
            continue
        m = ders[w[0]]
        for t, letter in enumerate(w[1:], start=1):
            m = Matrix.identity(a**t).kron(ders[letter]) @ m
        maps[w] = m
    return AutFamily(B, len(ders), N, maps)


def units_inserted(B: GradedTarget, mat: Matrix, fiber_sizes) -> Matrix:
    """Reinterpret a map into the interleaved tensor A^(k+1) as a map
    into A^(K+1) where letter t of the word expands into fiber_sizes[t]
    letters: a copy of the unit of A appears at each intra-fiber
    position (a0 g1 g2 a1 equals a0 g1 1 g2 a1 in the free product)."""
    a = B.A.dim
    k = len(fiber_sizes)
    extra = sum(s - 1 for s in fiber_sizes)
    if extra == 0:
        return mat
    uvec = [Fraction(x) for x in B.A.unit]
    # slot layout: factor 0, then per letter (s_t - 1) units and factor t
    is_unit = [False]
    for s in fiber_sizes:
        is_unit.extend([True] * (s - 1))
        is_unit.append(False)
    out = Matrix.zeros(a ** (k + 1 + extra), mat.ncols)
    for row in range(mat.nrows):
        rowvals = mat.rows[row]
        if not any(rowvals):
            continue
        digits = []
        r = row
        for _ in range(k + 1):
            digits.append(r % a)
            r //= a
        digits.reverse()
        for zdig in itertools.product(range(a), repeat=extra):
            coeff = Fraction(1)
            for z, d in enumerate(zdig):
                coeff *= uvec[d]
            if not coeff:
                continue
            rp = 0
            di = iter(digits)
            zi = iter(zdig)
            for flag in is_unit:
                rp = rp * a + (next(zi) if flag else next(di))
            for c, v in enumerate(rowvals):
                if v:
                    out.rows[rp][c] += coeff * v
    return out


def pullback(sigma: MonotoneMap, phi: AutFamily) -> AutFamily:
    """Alphabet change along an epi of ordered alphabets: each letter h
    expands to the product of its fiber in order, with units of A filling
    the intra-fiber positions; the pulled-back family is supported on
    expanded words only."""
    if sigma.cod != phi.n_letters:
        raise FamilyError(f"epi must target an alphabet of {phi.n_letters} letters")
    fibers = {h: tuple(g - 1 for g in sigma.fiber(h + 1)) for h in range(phi.n_letters)}
    maps = {}
    for w, m in phi.maps.items():
        v = tuple(itertools.chain.from_iterable(fibers[h] for h in w))
        if len(v) <= phi.N:
            maps[v] = units_inserted(phi.B, m, [len(fibers[h]) for h in w])
    return AutFamily(phi.B, sigma.dom, phi.N, maps)


def r_map(phi: AutFamily, w) -> DiffOperator:
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


def lift_derivation(B: GradedTarget, der: Matrix, dd_basis: list[Matrix]) -> Matrix | None:
    """A double derivation collapsing to the given derivation under the
    multiplication, found in the span of the given double derivations;
    None when the linear system has no solution."""
    mm = B.A.mult_matrix()
    cols = []
    for dd in dd_basis:
        coll = mm @ dd
        cols.append([coll.rows[r][c] for r in range(coll.nrows) for c in range(coll.ncols)])
    target = [der.rows[r][c] for r in range(der.nrows) for c in range(der.ncols)]
    sol = Matrix.from_cols(cols, nrows=len(target)).solve(target) if cols else None
    if sol is None:
        return None
    out = Matrix.zeros(dd_basis[0].nrows, dd_basis[0].ncols)
    for c, dd in zip(sol, dd_basis):
        if c:
            out = out + dd.scale(c)
    return out


def derivation_lifts(B: GradedTarget) -> tuple[list[Matrix], list[Matrix], list[Matrix] | None]:
    """The derivations of the algebra and its double derivations (the
    order-1 operators at grade 0 and 1, as matrices), and a lift of each
    derivation to a double derivation; the lifts are None when one of
    them is infeasible."""
    ders = [P.block((1,), (0,)) for P in solve_Dn(B, 1, 0)]
    dd = [P.block((1,), (1,)) for P in solve_Dn(B, 1, 1)]
    lifts = [lift_derivation(B, d, dd) if dd else None for d in ders]
    return ders, dd, None if any(m is None for m in lifts) else lifts


def surjectivity_probe(A: FinAlgebra, n: int) -> dict:
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
            coll = mm @ r_map(phi, (i,)).block((1,), (1,))
            vecs.append([x for row in coll.rows for x in row])
        rank = span_rank(vecs)
    else:
        target_dim = len(solve_D(B, (1, 1), 0))
        vecs = []
        for i in range(len(lifts)):
            for j in range(len(lifts)):
                sym = symbol(r_map(phi, (i, j))).block((1, 1), (1, 1))
                coll = mm.kron(mm) @ sym
                vecs.append([x for row in coll.rows for x in row])
        rank = span_rank(vecs)
    report["symbol_dim"] = target_dim
    report["span_rank"] = rank
    report["spanned"] = rank == target_dim
    return report
