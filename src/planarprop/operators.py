"""Multi-differential operators as exact kernels, with all compositions.

An operator of shape lambda (a tuple of non-negative slot orders) over a
graded target B is a family of multilinear maps indexed by slotwise
refinements of the shape.  A refinement's component takes one algebra
element per slot and lands in a tensor of graded pieces of B, recorded by
a grade vector.  Storage convention: only the positive parts of an index
are stored (its "positive core"); slots of order zero always act by
inserting the input itself as an extra tensor factor, and are
reconstructed on demand by `extend_degenerate`.  Operators are
grade-homogeneous.

The defining linear system ("Leibniz system"): for every stored
refinement kappa, every slot i and every grade vector, feeding a product
ab into slot i equals the sum over all two-part splits of that slot,
where the split (0, kappa_i) multiplies the slot's output by a on the
left, (kappa_i, 0) by b on the right, and a positive split
(x, y) applies the junction product of B to the correspondingly refined
component.  Slots of size one are constrained too (both splits
degenerate), making order-one operators exactly the derivations.

The output type tag pi is an ordered partition of the slot count used
purely for bookkeeping in the typed compositions; no multiplication is
ever applied to the stored matrices when retagging.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .algebras import GradedTarget
from .linalg import Matrix, Q0, SparseEchelon, _exact, span_echelon, span_rank
from .ordinals import MonotoneMap, all_epis, compose, merge
from .partitions import (
    OrderedPartition,
    compositions,
    enumerate_partitions,
    lift_output_type,
    refinement_witness,
    refinements_of,
)


class OperatorError(ValueError):
    pass


def _positive(t) -> tuple[int, ...]:
    return tuple(x for x in t if x > 0)


def _core_refinements(core: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Positive refinements of a positive partition, deterministic order;
    [()] for the empty core."""
    if core == ():
        return [()]
    return [r.fine.parts for r in refinements_of(OrderedPartition(core))]


def _gradevecs(d: int, total: int) -> list[tuple[int, ...]]:
    return list(compositions(total, d))


@dataclass
class DiffOperator:
    """shape: slot orders (zeros allowed, e.g. units); grade: total output
    grade; components: positive core refinement -> grade vector -> matrix
    (rows: output tensor coordinates, cols: one algebra input per stored
    slot); pi: output type, an ordered partition of len(shape)."""

    B: GradedTarget
    shape: tuple[int, ...]
    grade: int
    components: dict[tuple[int, ...], dict[tuple[int, ...], Matrix]]
    pi: tuple[int, ...] = None

    def __post_init__(self):
        if self.pi is None:
            self.pi = (1,) * len(self.shape)
        if sum(self.pi) != len(self.shape):
            raise OperatorError(f"type {self.pi} is not a partition of {len(self.shape)} slots")
        self.prune()

    # -- basic structure ----------------------------------------------

    @property
    def order(self) -> int:
        return sum(self.shape)

    @property
    def core(self) -> tuple[int, ...]:
        return _positive(self.shape)

    @property
    def out_label(self) -> int:
        """Number of output tensor factors after applying the type tag."""
        return len(self.pi) + self.grade

    def genus(self) -> int:
        return self.order - self.out_label + 1

    def prune(self) -> "DiffOperator":
        for kappa in list(self.components):
            blocks = self.components[kappa]
            for g in list(blocks):
                if blocks[g].is_zero():
                    del blocks[g]
            if not blocks:
                del self.components[kappa]
        return self

    def is_zero(self) -> bool:
        return not self.components

    def block(self, kappa: tuple[int, ...], g: tuple[int, ...]) -> Matrix | None:
        return self.components.get(tuple(kappa), {}).get(tuple(g))

    def top_gradevec(self) -> tuple[int, ...]:
        """Grade vector over the shape's slots: the push of every block's
        grade vector to the coarsest index must agree (zero slots carry
        grade zero)."""
        core = self.core
        mu_core = None
        for kappa, blocks in self.components.items():
            rho = refinement_witness(OrderedPartition(kappa), OrderedPartition(core))
            if rho is None:
                raise OperatorError(f"component {kappa} does not refine the shape core {core}")
            for g in blocks:
                push = tuple(
                    sum(g[j - 1] for j in rho.fiber(t)) for t in range(1, len(core) + 1)
                )
                if mu_core is None:
                    mu_core = push
                elif mu_core != push:
                    raise OperatorError(
                        f"mixed output grade vectors {mu_core} vs {push}; split the operator first"
                    )
        if mu_core is None:
            mu_core = (0,) * len(core)
        out = []
        it = iter(mu_core)
        for x in self.shape:
            out.append(next(it) if x > 0 else 0)
        return tuple(out)

    # -- linear structure ---------------------------------------------

    def copy(self) -> "DiffOperator":
        return DiffOperator(
            self.B,
            self.shape,
            self.grade,
            {k: dict(v) for k, v in self.components.items()},
            self.pi,
        )

    def scale(self, c) -> "DiffOperator":
        return DiffOperator(
            self.B,
            self.shape,
            self.grade,
            {k: {g: m.scale(c) for g, m in v.items()} for k, v in self.components.items()},
            self.pi,
        )

    def add(self, other: "DiffOperator") -> "DiffOperator":
        if (self.shape, self.grade, self.pi) != (other.shape, other.grade, other.pi):
            raise OperatorError("cannot add operators of different shape, grade, or type")
        out = self.copy()
        for kappa, blocks in other.components.items():
            dst = out.components.setdefault(kappa, {})
            for g, m in blocks.items():
                dst[g] = dst[g] + m if g in dst else m
        return out.prune()

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiffOperator):
            return NotImplemented
        if (self.shape, self.grade, self.pi) != (other.shape, other.grade, other.pi):
            return False
        keys = set(self.components) | set(other.components)
        for kappa in keys:
            b1 = self.components.get(kappa, {})
            b2 = other.components.get(kappa, {})
            for g in set(b1) | set(b2):
                m1, m2 = b1.get(g), b2.get(g)
                if m1 is None:
                    if not m2.is_zero():
                        return False
                elif m2 is None:
                    if not m1.is_zero():
                        return False
                elif m1 != m2:
                    return False
        return True

    # -- serialization ------------------------------------------------

    def to_json(self) -> dict:
        comps = []
        for kappa in sorted(self.components, key=lambda k: (len(k), k)):
            for g in sorted(self.components[kappa]):
                m = self.components[kappa][g]
                comps.append(
                    {
                        "refinement": list(kappa),
                        "grades": list(g),
                        "matrix": [[str(x) for x in row] for row in m.rows],
                    }
                )
        return {
            "shape": list(self.shape),
            "type": list(self.pi),
            "grade": self.grade,
            "components": comps,
        }

    @classmethod
    def from_json(cls, B: GradedTarget, obj: dict) -> "DiffOperator":
        """Raises OperatorError when a block's refinement does not refine
        the positive core of the shape, its grade vector does not fit its
        refinement or the grade, or its size does not fit the algebra."""
        a = B.A.dim
        shape = tuple(obj["shape"])
        grade = obj["grade"]
        refinements = _core_refinements(_positive(shape))
        comps: dict = {}
        for c in obj["components"]:
            kappa = tuple(c["refinement"])
            g = tuple(c["grades"])
            M = Matrix([[Fraction(x) for x in row] for row in c["matrix"]])
            if kappa not in refinements:
                raise OperatorError(f"block {list(kappa)} does not refine the shape {list(shape)}")
            if len(g) != len(kappa) or sum(g) != grade or min(g, default=0) < 0:
                raise OperatorError(f"block {list(kappa)} has grades {list(g)}, which do not fit grade {grade}")
            size = (a ** (grade + len(kappa)), a ** len(kappa))
            if (M.nrows, M.ncols) != size:
                raise OperatorError(
                    f"block {list(kappa)} is {M.nrows}x{M.ncols}, expected {size[0]}x{size[1]}"
                    f" over an algebra of dimension {a}"
                )
            comps.setdefault(kappa, {})[g] = M
        return cls(B, shape, grade, comps, tuple(obj["type"]))


# -- constructors ------------------------------------------------------


def one_operator(B: GradedTarget) -> DiffOperator:
    """The horizontal unit: the scalar 1 with no slots."""
    return DiffOperator(B, (), 0, {(): {(): Matrix([[1]])}}, ())


def unit_operator(B: GradedTarget, q: int = 1) -> DiffOperator:
    """u^q: q slots of order zero, each passing its input through."""
    return DiffOperator(B, (0,) * q, 0, {(): {(): Matrix([[1]])}}, (1,) * q)


def mult_operator(B: GradedTarget) -> DiffOperator:
    """The multiplication tag (u o_h u)[(2)]: two order-zero slots whose
    outputs are merged by the type (2); the stored data is that of u^2."""
    return DiffOperator(B, (0, 0), 0, {(): {(): Matrix([[1]])}}, (2,))


# -- degenerate extension ----------------------------------------------


def extend_degenerate(P: DiffOperator, lam_prime: tuple[int, ...]) -> dict[tuple[int, ...], Matrix]:
    """Component blocks at a zero-extended index: the stored block whose
    positive parts match, with the input of each zero slot inserted as a
    grade-zero tensor factor.  Keys are the extended grade vectors;
    empty dict if the positive core is absent."""
    lam_prime = tuple(lam_prime)
    kappa = _positive(lam_prime)
    stored = P.components.get(kappa)
    if stored is None:
        return {}
    if 0 not in lam_prime:
        return dict(stored)
    a = P.B.A.dim
    out: dict[tuple[int, ...], Matrix] = {}
    for g, M in stored.items():
        it = iter(g)
        g_ext = tuple(next(it) if x > 0 else 0 for x in lam_prime)
        # the weight of each slot's output coordinate in a row index
        weights = [1] * len(g_ext)
        for j in range(len(g_ext) - 1, 0, -1):
            weights[j - 1] = weights[j] * a ** (g_ext[j] + 1)
        # a stored row's index, its slot coordinates placed at the positive
        # slots; and per column, the stored column and the row offset of
        # the zero slots, whose output coordinate is their input digit
        rowmap = [0]
        cols = [(0, 0)]
        for j, x in enumerate(lam_prime):
            if x > 0:
                rowmap = [r + t * weights[j] for r in rowmap for t in range(a ** (g_ext[j] + 1))]
                cols = [(cc * a + t, z) for cc, z in cols for t in range(a)]
            else:
                cols = [(cc, z + t * weights[j]) for cc, z in cols for t in range(a)]
        entries = [[] for _ in range(M.ncols)]
        for r, row in enumerate(M.rows):
            for cc, v in enumerate(row):
                if v:
                    entries[cc].append((rowmap[r], v))
        ext = Matrix.zeros(weights[0] * a ** (g_ext[0] + 1), len(cols))
        for col, (cc, z) in enumerate(cols):
            for r, v in entries[cc]:
                ext.rows[r + z][col] = v
        out[g_ext] = ext
    return out


# -- the Leibniz system ------------------------------------------------


def _iter_constraints(core: tuple[int, ...], grade: int):
    """The constraint blocks of a shape core at a fixed total grade, in
    system order: tuples (kappa, i, g), one per stored refinement kappa,
    grade vector g and slot i, the finest refinement first."""
    for kappa in reversed(_core_refinements(core)):
        if not kappa:
            continue
        for g in _gradevecs(len(kappa), grade):
            for i in range(len(kappa)):
                yield kappa, i, g


def leibniz_rows(B: GradedTarget, core: tuple[int, ...], grade: int):
    """Yield the Leibniz system of a shape core at a fixed total grade as
    sparse rows (unknown index -> coefficient) over the unknowns of
    `vector_layout`; the coefficients are integers when the structure
    constants are.  For block (kappa, g), slot i, inputs `rest` in
    the other slots and a basis pair (r, s) fed into slot i, the row at
    output coordinate `row` reads

        sum_k c[r][s][k] P[kappa][g](.., k, ..)
      - (e_r on the slot's first factor) P[kappa][g](.., s, ..)
      - (e_s on the slot's last factor) P[kappa][g](.., r, ..)
      - sum over splits (x, y) of kappa_i and (h1, h2) of g_i of the
        junction product of P[kappa'][g'](.., r, s, ..) = 0,

    each term found by index arithmetic on tensor coordinates.  Rows come
    in the order of `_iter_constraints`, then rest, r, s and row; zero
    rows are skipped.

    The blocks come finest refinement first.  A constraint at kappa
    involves only kappa and its one-step refinements, and those at the
    finest refinement form a closed system (each slot a derivation), so
    the system is triangular over refinements.  Fed in this order, an
    elimination reduces each coarser row against a complete echelon of
    the finer blocks instead of storing a partly reduced tail as fill;
    the row set, and with it the reduced echelon form, is the same in
    any order."""
    A = B.A
    a = A.dim
    c = [[[_exact(x) for x in row] for row in plane] for plane in A.mult]
    blocks = vector_layout(B, core, grade)["blocks"]
    # products of basis pairs, and for each factor coordinate x the terms
    # (j, coeff) of e_r e_j and of e_j e_r at x
    prod = [[[(k, c[r][s][k]) for k in range(a) if c[r][s][k]] for s in range(a)] for r in range(a)]
    left = [[[(j, c[r][j][x]) for j in range(a) if c[r][j][x]] for x in range(a)] for r in range(a)]
    right = [[[(j, c[j][r][x]) for j in range(a) if c[j][r][x]] for x in range(a)] for r in range(a)]
    junction = [[(u, v, c[u][v][k]) for u in range(a) for v in range(a) if c[u][v][k]] for k in range(a)]

    for kappa, i, g in _iter_constraints(core, grade):
        d = len(kappa)
        base = blocks[(kappa, g)][0]
        nc = a**d
        n_i = g[i] + 1
        S = a**n_i  # coordinates of slot i's output
        Q = a ** sum(gj + 1 for gj in g[i + 1 :])  # of the slots after it
        P = a ** sum(gj + 1 for gj in g[:i])  # of the slots before it
        hi = S // a
        # per slot coordinate: the left/right action terms (new slot
        # coordinate, coeff) and the junction terms (block offset, refined
        # slot coordinate, coeff) of every split
        lterms = [[[(sl + (j - sl // hi) * hi, v) for j, v in left[r][sl // hi]] for sl in range(S)] for r in range(a)]
        rterms = [[[(sl + j - sl % a, v) for j, v in right[s][sl % a]] for sl in range(S)] for s in range(a)]
        jterms = [[] for _ in range(S)]
        for x in range(1, kappa[i]):
            kp = kappa[:i] + (x, kappa[i] - x) + kappa[i + 1 :]
            for h1 in range(n_i):
                h2 = g[i] - h1
                off2 = blocks[(kp, g[:i] + (h1, h2) + g[i + 1 :])][0]
                w = a**h2
                for sl in range(S):
                    top, k, lo = sl // (w * a), sl // w % a, sl % w
                    for u, v, cv in junction[k]:
                        jterms[sl].append((off2, ((top * a + u) * a + v) * w + lo, cv))
        S2 = S * a
        nc2 = nc * a
        tail = a ** (d - 1 - i)
        for rest in itertools.product(range(a), repeat=d - 1):
            head = 0
            for t in rest[:i]:
                head = head * a + t
            low = 0
            for t in rest[i:]:
                low = low * a + t
            col = [(head * a + t) * tail + low for t in range(a)]
            for r in range(a):
                cr = col[r]
                for s in range(a):
                    cs = col[s]
                    pr = [(col[k], v) for k, v in prod[r][s]]
                    lt, rt = lterms[r], rterms[s]
                    c2 = ((head * a + r) * a + s) * tail + low
                    for pre in range(P):
                        for sl in range(S):
                            for post in range(Q):
                                row = (pre * S + sl) * Q + post
                                eq: dict = {}
                                at = base + row * nc
                                for ck, v in pr:
                                    idx = at + ck
                                    eq[idx] = eq.get(idx, 0) + v
                                for sl2, v in lt[sl]:
                                    idx = base + ((pre * S + sl2) * Q + post) * nc + cs
                                    eq[idx] = eq.get(idx, 0) - v
                                for sl2, v in rt[sl]:
                                    idx = base + ((pre * S + sl2) * Q + post) * nc + cr
                                    eq[idx] = eq.get(idx, 0) - v
                                for off2, slx, v in jterms[sl]:
                                    idx = off2 + ((pre * S2 + slx) * Q + post) * nc2 + c2
                                    eq[idx] = eq.get(idx, 0) - v
                                eq = {j: v for j, v in eq.items() if v}
                                if eq:
                                    yield eq


def solve_D(B: GradedTarget, shape: tuple[int, ...], grade: int = 0) -> list[DiffOperator]:
    """Deterministic basis of the space of operators of the given shape
    and total grade: the exact nullspace of the Leibniz system over all
    refinements and slots, unpacked into operators.  Refinements are
    ordered by (size, parts), grade vectors lexicographically, matrix
    entries row-major."""
    shape = tuple(shape)
    core = _positive(shape)
    if core == ():
        return [unit_operator(B, len(shape))] if grade == 0 and shape else (
            [one_operator(B)] if grade == 0 else []
        )
    layout = vector_layout(B, core, grade)
    ech = SparseEchelon(layout["total"])
    for row in leibniz_rows(B, core, grade):
        ech.add_row(row)
    # each kernel entry lands in the block whose offset is the last one
    # at or below its index
    blocks = list(layout["blocks"].items())
    offsets = [off for _, (off, _, _) in blocks]
    basis = []
    for vec in ech.nullspace():
        comps: dict = {}
        for idx, v in vec.items():
            (kappa, g), (off, nr, nc) = blocks[bisect_right(offsets, idx) - 1]
            dst = comps.setdefault(kappa, {})
            if g not in dst:
                dst[g] = Matrix.zeros(nr, nc)
            r, col = divmod(idx - off, nc)
            dst[g].rows[r][col] = v
        basis.append(DiffOperator(B, shape, grade, comps))
    return basis


def solve_Dn(B: GradedTarget, n: int, grade: int = 0) -> list[DiffOperator]:
    if n == 0:
        return [one_operator(B)] if grade == 0 else []
    return solve_D(B, (n,), grade)


def check_leibniz(P: DiffOperator) -> bool:
    """The defining invariant: every row of the Leibniz system vanishes on
    the operator's coordinates.  False when a block lies outside the
    layout of the shape and grade."""
    layout = vector_layout(P.B, P.shape, P.grade)
    if any((kappa, g) not in layout["blocks"] for kappa, blocks in P.components.items() for g in blocks):
        return False
    vec = op_vector(P, layout)
    den = lcm(*(x.denominator for x in vec))
    vec = [x.numerator * (den // x.denominator) for x in vec]
    return not any(
        sum(v * vec[j] for j, v in row.items()) for row in leibniz_rows(P.B, P.core, P.grade)
    )


def check_mP(P: DiffOperator, d: int) -> bool:
    """The collapsed identity: the top component applied to a d-fold
    product equals the sum over all size-d indices (including degenerate
    ones) of the fully multiplied finer components.  Both sides are maps
    A^{(x)d} -> B_grade, compared as whole matrices."""
    B = P.B
    a = B.A.dim
    n = P.order
    if len(P.core) != 1 and n > 0:
        raise OperatorError("check_mP applies to single-slot shapes")
    mm = B.A.mult_matrix()
    prod = Matrix.identity(a)
    for _ in range(d - 1):
        prod = mm @ prod.kron(Matrix.identity(a))
    top = P.block((n,), (P.grade,)) if n > 0 else P.block((), ())
    if top is None:
        lhs = Matrix.zeros(a ** (P.grade + 1), a**d)
    elif n > 0:
        lhs = top @ prod
    else:
        lhs = prod.scale(top.rows[0][0])
    rhs = Matrix.zeros(lhs.nrows, lhs.ncols)
    for lam in enumerate_partitions(n, d):
        for g_ext, M in extend_degenerate(P, lam.parts).items():
            # collapse the first two slots with the product of B until one is left
            gg = list(g_ext)
            while len(gg) > 1:
                post = a ** sum(gj + 1 for gj in gg[2:])
                M = B.mB_matrix(gg[0], gg[1]).kron(Matrix.identity(post)) @ M
                gg = [gg[0] + gg[1]] + gg[2:]
            rhs = rhs + M
    return lhs == rhs


# -- compositions ------------------------------------------------------


def compose_D(Q: DiffOperator, P: DiffOperator) -> DiffOperator:
    """Composition in the order algebra D = (+) D_n: the vertical
    composition `v_compose` of two grade-zero operators with at most one
    slot each.  An operator of order zero (the slotless `one_operator` or
    the single-wire unit) acts as the scalar it stores, zero when it
    stores nothing; two of them compose to `one_operator` scaled by the
    product."""
    if Q.grade or P.grade:
        raise OperatorError("order-algebra composition is defined at grade zero")
    for X in (Q, P):
        if len(X.shape) > 1:
            raise OperatorError(f"order-algebra composition takes single-slot operators, got shape {X.shape}")
    if Q.order and P.order:
        return v_compose(Q, P)
    if Q.order:
        return Q.scale(_scalar(P))
    if P.order:
        return P.scale(_scalar(Q))
    return one_operator(Q.B).scale(_scalar(Q) * _scalar(P))


def _scalar(P: DiffOperator) -> Fraction:
    """The value of an operator of order zero."""
    M = P.block((), ())
    return Q0 if M is None else M.rows[0][0]


def h_compose(P: DiffOperator, Q: DiffOperator) -> DiffOperator:
    """Side-by-side composition: components are slotwise tensor products
    of components of the factors; type tags concatenate."""
    if P.B is not Q.B:
        raise OperatorError("operators over different targets")
    comps: dict = {}
    for k1, b1 in P.components.items():
        for k2, b2 in Q.components.items():
            dst = comps.setdefault(k1 + k2, {})
            for g1, m1 in b1.items():
                for g2, m2 in b2.items():
                    key = g1 + g2
                    m = m1.kron(m2)
                    dst[key] = dst[key] + m if key in dst else m
    return DiffOperator(P.B, P.shape + Q.shape, P.grade + Q.grade, comps, P.pi + Q.pi)


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


def v_compose(Q: DiffOperator, P: DiffOperator) -> DiffOperator:
    """Untyped vertical composition: Q consumes the output tensor factors
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


# -- typed vertical composition ---------------------------------------


class OperatorSum:
    """Formal sum of operators of different shapes (a single element of
    the graded direct sum).  Terms are keyed by (shape, type)."""

    def __init__(self, terms=()):
        self.terms: dict = {}
        for t in terms:
            self.add(t)

    def add(self, op: DiffOperator):
        if op.is_zero():
            return self
        key = (op.shape, op.pi)
        if key in self.terms:
            self.terms[key] = self.terms[key].add(op)
            if self.terms[key].is_zero():
                del self.terms[key]
        else:
            self.terms[key] = op
        return self

    def single(self) -> DiffOperator:
        if len(self.terms) != 1:
            raise OperatorError(f"expected a single shape, found {len(self.terms)}")
        return next(iter(self.terms.values()))

    def __eq__(self, other) -> bool:
        if isinstance(other, DiffOperator):
            other = OperatorSum([other])
        if not isinstance(other, OperatorSum):
            return NotImplemented
        if set(self.terms) != set(other.terms):
            return False
        return all(self.terms[k] == other.terms[k] for k in self.terms)

    def __iter__(self):
        return iter(self.terms.values())


def restrict_to(Q: DiffOperator, nu_prime: tuple[int, ...]) -> DiffOperator:
    """The operator of shape nu_prime whose components are Q's components
    at refinements of nu_prime (a refinement of Q's shape)."""
    core = _positive(nu_prime)
    comps = {}
    for kappa in _core_refinements(core):
        if kappa in Q.components:
            comps[kappa] = dict(Q.components[kappa])
    return DiffOperator(Q.B, tuple(nu_prime), Q.grade, comps)


def bullet_v(Q: DiffOperator, P: DiffOperator) -> OperatorSum:
    """Typed vertical composition: P's type tag merges its output slots,
    so Q's input slots are unmerged along the lifted type before the
    untyped composition, and the result is retagged by the pushout of Q's
    tag along the merged-grade layout."""
    q = len(P.shape)
    s = len(P.pi)
    p_c = P.grade + 1
    if len(Q.shape) != s + p_c - 1:
        raise OperatorError(
            f"typed arity mismatch: {len(Q.shape)} input slots vs {s + p_c - 1} output factors"
        )
    mu = P.top_gradevec()
    rho0 = _epi_with_fiber_sizes([m + 1 for m in mu])
    pi_part = OrderedPartition(P.pi)
    pi_tilde = lift_output_type(pi_part, rho0) if q else OrderedPartition(())

    # retag data
    pi_map = pi_part.to_map()
    h_groups = [sum(mu[t - 1] for t in pi_map.fiber(i)) for i in range(1, s + 1)]
    mu_tilde = _epi_with_fiber_sizes([h + 1 for h in h_groups])
    sigma_map = OrderedPartition(Q.pi).to_map()
    _, push_mu, _ = merge(mu_tilde, sigma_map)
    tag_map = compose(push_mu, pi_map)
    tag = tag_map.fiber_sizes()

    out = OperatorSum()
    fiber_sizes = list(pi_tilde.parts)
    split_choices = [list(compositions(Q.shape[x], fiber_sizes[x])) for x in range(len(Q.shape))]
    for parts in itertools.product(*split_choices):
        nu_prime = tuple(itertools.chain.from_iterable(parts))
        Qr = restrict_to(Q, nu_prime)
        if Qr.is_zero() and Q.order > 0:
            continue
        comp = v_compose(Qr, P)
        comp.pi = tag
        if sum(tag) != len(comp.shape):
            raise OperatorError("type retag does not match the composite shape")
        out.add(comp)
    return out


def _epi_with_fiber_sizes(sizes) -> MonotoneMap:
    vals = []
    for t, k in enumerate(sizes, start=1):
        vals.extend([t] * k)
    return MonotoneMap(len(vals), len(sizes), tuple(vals))


# -- positivity, degeneracies, symbol ---------------------------------


def is_totally_positive(P: DiffOperator) -> bool:
    """Every nonzero block's index dominates its grade vector termwise."""
    for kappa, blocks in P.components.items():
        for g in blocks:
            if any(k < gj for k, gj in zip(kappa, g)):
                return False
    return True


def degeneracy(sigma: MonotoneMap, P: DiffOperator) -> DiffOperator:
    """s(sigma) for sigma: [m] ->> [n] and P of single-slot shape (n):
    the operator of shape (m) whose component at an index is P's block
    when the index is the sigma-pushforward of one of P's, zero
    otherwise."""
    n = P.order
    m = sigma.dom
    if sigma.cod != n:
        raise OperatorError(f"degeneracy epi must target [{n}]")
    fibers = list(sigma.fiber_sizes())
    comps: dict = {}
    for lam_prime in (r.fine.parts for r in refinements_of(OrderedPartition((m,)))):
        lam = _degeneracy_parse(lam_prime, fibers)
        if lam is None:
            continue
        blocks = P.components.get(lam)
        if blocks:
            comps[lam_prime] = dict(blocks)
    return DiffOperator(P.B, (m,), P.grade, comps)


def _degeneracy_parse(lam_prime, fibers):
    """lam with lam_prime = lam o sigma, i.e. each part of lam_prime is a
    sum of consecutive sigma-fiber sizes; None if no such grouping."""
    lam = []
    i = 0
    for part in lam_prime:
        acc = 0
        cnt = 0
        while acc < part:
            if i >= len(fibers):
                return None
            acc += fibers[i]
            i += 1
            cnt += 1
        if acc != part:
            return None
        lam.append(cnt)
    if i != len(fibers):
        return None
    return tuple(lam)


def symbol(P: DiffOperator) -> DiffOperator:
    """Projection to the finest index (1, ..., 1)."""
    n = P.order
    fin = (1,) * n
    blocks = P.components.get(fin, {})
    return DiffOperator(P.B, fin, P.grade, {fin: dict(blocks)} if blocks else {})


def op_vector(P: DiffOperator, layout) -> list[Fraction]:
    """Flatten an operator to coordinates in a fixed layout (as produced
    by `vector_layout`)."""
    total = layout["total"]
    vec = [Q0] * total
    for (kappa, g), (off, nr, nc) in layout["blocks"].items():
        M = P.block(kappa, g)
        if M is not None:
            for r in range(nr):
                for c in range(nc):
                    vec[off + r * nc + c] = M.rows[r][c]
    return vec


def vector_layout(B: GradedTarget, shape, grade) -> dict:
    a = B.A.dim
    core = _positive(tuple(shape))
    blocks = {}
    pos = 0
    for kappa in _core_refinements(core):
        d = len(kappa)
        for g in _gradevecs(d, grade):
            nr, nc = a ** (sum(g) + d), a**d
            blocks[(kappa, g)] = (pos, nr, nc)
            pos += nr * nc
    return {"blocks": blocks, "total": pos}


def symbol_exactness(B: GradedTarget, n: int, grade: int = 0) -> dict:
    """The short-exact-sequence check at a single-slot shape: computes the
    order-n space, the finest-shape space, the symbol ranks, and whether
    the symbol's kernel is exactly the span of degeneracy images of the
    order n-1 space."""
    basis_n = solve_Dn(B, n, grade)
    basis_fine = solve_D(B, (1,) * n, grade)
    fine_layout = vector_layout(B, (1,) * n, grade)
    sym_vecs = [op_vector(symbol(P), fine_layout) for P in basis_n]
    sym_rank = span_rank(sym_vecs)
    fine_dim = len(basis_fine)
    surjective = sym_rank == fine_dim

    full_layout = vector_layout(B, (n,), grade)
    basis_lower = solve_Dn(B, n - 1, grade) if n >= 1 else []
    deg_vecs = []
    for sigma in all_epis(n, n - 1):
        for Q in basis_lower:
            deg_vecs.append(op_vector(degeneracy(sigma, Q), full_layout))
    deg = span_echelon(deg_vecs, full_layout["total"])
    deg_rank = deg.rank
    kernel_dim = len(basis_n) - sym_rank
    # membership: every combination of basis_n with zero symbol lies in
    # the degeneracy span
    ker_ok = True
    sym_matrix = Matrix.from_cols(sym_vecs, nrows=fine_layout["total"]) if basis_n else Matrix.zeros(0, 0)
    ker_coeffs = sym_matrix.nullspace() if basis_n else []
    for coeffs in ker_coeffs:
        vec = [Q0] * full_layout["total"]
        for c, P in zip(coeffs, basis_n):
            if c:
                pv = op_vector(P, full_layout)
                vec = [x + c * y for x, y in zip(vec, pv)]
        if not deg.contains({j: x for j, x in enumerate(vec) if x}):
            ker_ok = False
            break
    return {
        "dim_Dn": len(basis_n),
        "dim_finest": fine_dim,
        "symbol_rank": sym_rank,
        "surjective": surjective,
        "degeneracy_rank": deg_rank,
        "kernel_dim": kernel_dim,
        "kernel_equals_degeneracy_image": ker_ok and deg_rank == kernel_dim,
    }
