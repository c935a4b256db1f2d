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

import functools
import itertools
from fractions import Fraction

from .algebras import FinAlgebra, GradedTarget
from .linalg import Q0, Matrix, SparseEchelon, _int_rows
from .operators import DiffOperator, solve_Dn, unit_operator
from .ordinals import MonotoneMap
from .partitions import compositions


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
                {"word": list(w), "matrix": m.text()}
                for w, m in sorted(self.maps.items(), key=lambda t: (len(t[0]), t[0]))
            ],
        }


def identity_family(B: GradedTarget, n_letters: int, N: int = 3) -> AutFamily:
    return AutFamily(B, n_letters, N, {})


def validate_aut(phi: AutFamily) -> tuple[bool, tuple | None]:
    """Check multiplicativity for every word up to the truncation, as an
    identity of maps A (x) A -> A^{(|w|+1)}; returns (ok, first failing
    (word, i, j)), the basis pair read off the first column that differs.
    The left side is the word's map after mB(0, 0); the right side sums
    the junction products of every cut with nonzero factors at once."""
    B = phi.B
    a = B.A.dim
    mm = B.mB_matrix(0, 0)
    for w in _words(phi.n_letters, phi.N):
        lhs = phi.word_map(w) @ mm
        cuts = [(phi.word_map(w[:cut]), phi.word_map(w[cut:])) for cut in range(len(w) + 1)]
        cuts = [(m1, m2) for m1, m2 in cuts if not (m1.is_zero() or m2.is_zero())]
        rhs = B.junction(cuts) if cuts else Matrix.zeros(lhs.nrows, lhs.ncols)
        if lhs != rhs:
            col = next(c for c in range(a * a) if lhs.col(c) != rhs.col(c))
            return False, (w, col // a, col % a)
    return True, None


def is_double_derivation(B: GradedTarget, mat: Matrix) -> bool:
    """mat: A -> A tensor A with mat(ab) = mat(a)(1 (x) b) + (a (x) 1) mat(b).

    The defect d(p, q) = mat(pq) - mat(p)(1 (x) q) - (p (x) 1) mat(q) is
    bilinear, and in an associative A

        d(pq, s) = d(p, qs) + (p (x) 1) d(q, s) - d(p, q)(1 (x) s).

    So d vanishing at (g, s) for every generator g and every s makes it
    vanish at (w, s) for every word w in the generators, by induction on
    the length of w, and these words span A.  The check therefore runs
    over the pairs (e_g, e_j) with g in `B.generators` only, and presumes
    A associative, as `GradedTarget.generators` does; the maps it applies
    are built once per target (`GradedTarget._actions`)."""
    lefts, rights, products = B._actions
    cols = [mat.col(i) for i in range(B.A.dim)]
    for g, left, prods in zip(B.generators, lefts, products):
        for j, prod in enumerate(prods):
            lhs = mat.apply(prod)
            # apply gives zeros as the shared Q0: most terms skip the sum
            rhs = zip(rights[j].apply(cols[g]), left.apply(cols[j]))
            if lhs != [y if x is Q0 else x if y is Q0 else x + y for x, y in rhs]:
                return False
    return True


def from_derivations(B: GradedTarget, ders: list[Matrix], N: int = 3) -> AutFamily:
    """The family with phi_w the iterated rightmost application of the
    double derivations indexed by the letters of w: each word's map is
    its last letter applied to the last factor of its prefix's map.
    Raises FamilyError naming the first letter that is not an a^2 x a
    matrix or not a double derivation."""
    a = B.A.dim
    for t, d in enumerate(ders):
        if (d.nrows, d.ncols) != (a * a, a):
            raise FamilyError(f"letter {t} is a {d.nrows}x{d.ncols} matrix, expected {a * a}x{a}")
        if not is_double_derivation(B, d):
            raise FamilyError(f"letter {t} is not a double derivation")
    maps = {}
    for w in _words(len(ders), N):
        if len(w) == 1:
            maps[w] = ders[w[0]]
        elif w:
            maps[w] = _on_last_leg(ders[w[-1]], maps[w[:-1]])
    return AutFamily(B, len(ders), N, maps)


def _on_last_leg(d: Matrix, m: Matrix) -> Matrix:
    """(I (x) d) @ m for a map d: A -> A^(x)2, which applies d to the last
    leg of m's output: each nonzero row (u, p) of m adds d[s, p] times
    itself to row (u, s), accumulated in one list per touched row."""
    a = d.ncols
    dd, dcols, dnums = d.form()
    by_col = [[] for _ in range(a)]  # p -> (s, d[s, p]) of the nonzero d[s, p]
    for s, (c, n) in enumerate(zip(dcols, dnums)):
        for p, v in zip(c, n):
            by_col[p].append((s, v))
    dm, mcols, mnums = m.form()
    out, width = d.nrows, m.ncols
    accs: dict[int, list[int]] = {}
    for r, (c, n) in enumerate(zip(mcols, mnums)):
        if not c:
            continue
        u, p = divmod(r, a)
        for s, v in by_col[p]:
            key = u * out + s
            acc = accs.get(key)
            if acc is None:
                acc = accs[key] = [0] * width
            for j, x in zip(c, n):
                acc[j] += v * x
    return Matrix.from_dense_rows(m.nrows // a * out, width, dm * dd, accs)


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
    # the unit as integers over du: each output entry is a stored entry
    # times a product of `extra` unit coordinates, over den * du^extra
    du, (ucols,), (unums,) = _int_rows([B.A.unit])
    unit = dict(zip(ucols, unums))
    # slot layout: factor 0, then per letter (s_t - 1) units and factor t
    is_unit = [False]
    for s in fiber_sizes:
        is_unit.extend([True] * (s - 1))
        is_unit.append(False)
    den, mcols, mnums = mat.form()
    nrows = a ** (k + 1 + extra)
    cols, nums = [()] * nrows, [()] * nrows
    for row, (c, n) in enumerate(zip(mcols, mnums)):
        if not c:
            continue
        digits = []
        r = row
        for _ in range(k + 1):
            digits.append(r % a)
            r //= a
        digits.reverse()
        for zdig in itertools.product(unit, repeat=extra):
            coeff = 1
            for d in zdig:
                coeff *= unit[d]
            rp = 0
            di = iter(digits)
            zi = iter(zdig)
            for flag in is_unit:
                rp = rp * a + (next(zi) if flag else next(di))
            cols[rp] = c
            nums[rp] = n if coeff == 1 else tuple([coeff * v for v in n])
    return Matrix.from_form(nrows, mat.ncols, den * du**extra, cols, nums)


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
    """The operator of order and grade |w| whose component at a
    non-degenerate index lam is the tensor of the family's maps on the
    subwords lam cuts w into; a subword of length k maps into grade k, so
    the block's grade vector is lam itself."""
    w = tuple(w)
    n = len(w)
    B = phi.B
    if n > phi.N:
        raise FamilyError(f"word of length {n} exceeds the truncation {phi.N}")
    if n == 0:
        return unit_operator(B, 1)
    comps: dict = {}
    for d in range(1, n + 1):
        for lam in compositions(n, d, positive=True):
            cuts = list(itertools.accumulate(lam, initial=0))
            mats = [phi.maps.get(w[i:j]) for i, j in zip(cuts, cuts[1:])]
            if all(m is not None for m in mats):
                comps[lam] = {lam: functools.reduce(Matrix.kron, mats)}
    return DiffOperator(B, (n,), n, comps)


def lift_derivation(B: GradedTarget, der: Matrix, dd_basis: list[Matrix]) -> Matrix | None:
    """A double derivation collapsing to the given derivation under the
    multiplication, found in the span of the given double derivations;
    None when the linear system has no solution."""
    mm = B.mB_matrix(0, 0)
    cols = [_flat(mm @ dd) for dd in dd_basis]
    target = _flat(der)
    sol = Matrix.from_cols(cols, nrows=len(target)).solve(target) if cols else None
    if sol is None:
        return None
    out = Matrix.zeros(dd_basis[0].nrows, dd_basis[0].ncols)
    for c, dd in zip(sol, dd_basis):
        if c:
            out = out + dd.scale(c)
    return out


def _flat(m: Matrix) -> list[Fraction]:
    """The entries of a matrix row by row, as one dense vector."""
    den, cols, nums = m.form()
    out = [Q0] * (m.nrows * m.ncols)
    for r, (c, n) in enumerate(zip(cols, nums)):
        for j, v in zip(c, n):
            out[r * m.ncols + j] = Fraction(v, den)
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
    are hit by families built from lifted derivations: the rank of the
    collapsed symbols of r_map over the words of length n against the
    dimension of the symbol space.  Infeasible lifts span nothing; they
    occur only when a derivation exists, so the symbol space is not zero."""
    if n not in (1, 2):
        raise FamilyError("the probe is implemented at order 1 and 2")
    B = GradedTarget(A)
    ders, dd_basis, lifts = derivation_lifts(B)
    letters = lifts or []
    fin = (1,) * n
    phi = from_derivations(B, letters, N=n)
    collapse = functools.reduce(Matrix.kron, [B.mB_matrix(0, 0)] * n)
    span = None
    for w in itertools.product(range(len(letters)), repeat=n):
        coll = collapse @ r_map(phi, w).block(fin, fin)
        if span is None:
            span = SparseEchelon(coll.nrows * coll.ncols)
        # a common denominator scales the vector, not its span
        _, cols, nums = coll.form()
        span.add_row({r * coll.ncols + j: v for r, (c, n) in enumerate(zip(cols, nums)) for j, v in zip(c, n)})
    symbol_dim = len(ders) ** n  # D_(1,...,1)(0) = D_(1)(0)^(x)n: slots act apart
    rank = span.rank if span else 0
    return {
        "order": n,
        "dim_derivations": len(ders),
        "dim_double_derivations": len(dd_basis),
        "lift_feasible": lifts is not None,
        "symbol_dim": symbol_dim,
        "span_rank": rank,
        "spanned": rank == symbol_dim,
    }
