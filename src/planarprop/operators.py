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
import reprlib
from bisect import bisect_right
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod

from .algebras import GradedTarget
from .linalg import Matrix, Q0, SparseEchelon, _exact, _integral, parse_rationals
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


def _naturals(v) -> bool:
    """A list of non-negative ints, as JSON reads them (no bools or floats)."""
    return isinstance(v, list) and all(type(x) is int and x >= 0 for x in v)


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


@dataclass(slots=True)
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
                        "matrix": m.text(),
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
        """Raises OperatorError when obj is not an object whose components
        are a list of objects, the shape is not a list of non-negative
        integers, the grade not a non-negative integer, or the type not a
        list of positive integers summing to the slot count; and when a
        block's refinement or grades are not lists of non-negative
        integers, its refinement does not refine the positive core of the
        shape, its grade vector does not fit its refinement or the grade,
        or its matrix is not a list of rows of rationals of the size
        `vector_layout` gives that block."""
        a = B.A.dim
        if not isinstance(obj, dict):
            raise OperatorError(f"an operator is a JSON object, got {type(obj).__name__}")
        shape, grade, pi = obj["shape"], obj["grade"], obj["type"]
        if not _naturals(shape):
            raise OperatorError(f"shape {shape!r} is not a list of non-negative integers")
        if not _naturals([grade]):
            raise OperatorError(f"grade {grade!r} is not a non-negative integer")
        if not (_naturals(pi) and all(pi) and sum(pi) == len(shape)):
            raise OperatorError(f"type {pi!r} is not a list of positive integers summing to {len(shape)}")
        shape = tuple(shape)
        refinements = _core_refinements(_positive(shape))
        layout = vector_layout(B, shape, grade)["blocks"]
        comps: dict = {}
        blocks = obj["components"]
        if not (isinstance(blocks, list) and all(isinstance(c, dict) for c in blocks)):
            raise OperatorError("components is not a list of objects")
        for c in blocks:
            for field in ("refinement", "grades"):
                if not _naturals(c[field]):
                    raise OperatorError(f"block {field} {c[field]!r} is not a list of non-negative integers")
            kappa = tuple(c["refinement"])
            g = tuple(c["grades"])
            if kappa not in refinements:
                raise OperatorError(f"block {list(kappa)} does not refine the shape {list(shape)}")
            if (kappa, g) not in layout:
                raise OperatorError(f"block {list(kappa)} has grades {list(g)}, which do not fit grade {grade}")
            _, nr, nc = layout[(kappa, g)]
            what = (
                f"is not a list of rows of rationals, expected {nr}x{nc}"
                f" for block {list(kappa)} over an algebra of dimension {a}"
            )
            try:
                comps.setdefault(kappa, {})[g] = Matrix(parse_rationals(c["matrix"], (nr, nc), what))
            except ValueError as e:
                raise OperatorError(f"block matrix {reprlib.repr(c['matrix'])} {e}") from None
        return cls(B, shape, grade, comps, tuple(pi))


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
        # the extension moves entries and keeps their values, so it keeps
        # M's denominator; walking its columns in order fills each row's
        # columns in increasing order
        den, mcols, mnums = M.form()
        entries = [[] for _ in range(M.ncols)]
        for r, c, n in zip(rowmap, mcols, mnums):
            for cc, v in zip(c, n):
                entries[cc].append((r, v))
        moved = ((r + z, col, v) for col, (cc, z) in enumerate(cols) for r, v in entries[cc])
        out[g_ext] = Matrix.from_entries(weights[0] * a ** (g_ext[0] + 1), len(cols), den, moved)
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


def _leibniz_blocks(B: GradedTarget, core: tuple[int, ...], grade: int):
    """The Leibniz system of a shape core at a fixed total grade, one
    constraint block (kappa, i, g) at a time, in the order of
    `_iter_constraints`, each built by `_leibniz_block_builder` over the
    layout of the core and grade."""
    build = _leibniz_block_builder(B, vector_layout(B, core, grade)["blocks"])
    for kappa, i, g in _iter_constraints(core, grade):
        yield build(kappa, i, g)


def _leibniz_block_builder(B: GradedTarget, blocks: dict):
    """A builder of single constraint blocks over a layout's `blocks`:
    build(kappa, i, g) returns the tuple (template, own, rests, outs,
    spanning) of slot i at the block (kappa, g).

    For block (kappa, g), slot i, inputs `rest` in the other slots, `pre`
    and `post` output coordinates of the slots before and after slot i,
    and a basis pair (r, s) fed into slot i, the row at slot coordinate
    `sl` reads

        sum_k c[r][s][k] P[kappa][g](.., k, ..)
      - (e_r on the slot's first factor) P[kappa][g](.., s, ..)
      - (e_s on the slot's last factor) P[kappa][g](.., r, ..)
      - sum over splits (x, y) of kappa_i and (h1, h2) of g_i of the
        junction product of P[kappa'][g'](.., r, s, ..) = 0,

    each term found by index arithmetic on tensor coordinates.  Slot i's
    constraints act on slot i's legs only, so the rows for one choice of
    (rest, pre, post) are the rows at rest = pre = post = 0, the
    `template` (sparse rows over the unknowns of `vector_layout`, zero
    rows skipped, in r, s, sl order), moved by a shift.  A row's terms in
    the block (kappa, g) itself, the columns in the range `own`, move by
    the first entry of a shift; its terms in the refined blocks move by
    the second, as `_split` reads them for the solver (`_copies`) and the
    checker (`check_leibniz`) alike.  A copy's shift is the sum of one
    pair of `rests` (the inputs of the other slots) and one of `outs`
    (the output coordinates of the slots before and after slot i), and
    `_shifts` lists them; the copies lie on pairwise disjoint columns,
    and a block has one copy exactly when kappa has one part.

    For a slot of order one (kappa_i = 1) the r run over `B.generators`
    first, and the template's first `spanning` rows are those with r a
    generator, which span its rows (see `_leibniz_echelon`); otherwise
    `spanning` counts every row."""
    A = B.A
    a = A.dim
    c = [[[_exact(x) for x in row] for row in plane] for plane in A.mult]
    # products of basis pairs, and for each factor coordinate x the terms
    # (j, coeff) of e_r e_j and of e_j e_r at x
    prod = [[[(k, c[r][s][k]) for k in range(a) if c[r][s][k]] for s in range(a)] for r in range(a)]
    left = [[[(j, c[r][j][x]) for j in range(a) if c[r][j][x]] for x in range(a)] for r in range(a)]
    right = [[[(j, c[j][r][x]) for j in range(a) if c[j][r][x]] for x in range(a)] for r in range(a)]
    junction = [[(u, v, c[u][v][k]) for u in range(a) for v in range(a) if c[u][v][k]] for k in range(a)]
    # an order-one slot's first inputs, the generators first
    gens = B.generators
    firsts = gens + tuple(r for r in range(a) if r not in gens)

    def build(kappa, i, g):
        d = len(kappa)
        base, nr, nc = blocks[(kappa, g)]
        n_i = g[i] + 1
        S = a**n_i  # coordinates of slot i's output
        Q = a ** sum(gj + 1 for gj in g[i + 1 :])  # of the slots after it
        P = a ** sum(gj + 1 for gj in g[:i])  # of the slots before it
        S2, nc2 = S * a, nc * a
        tail = a ** (d - 1 - i)
        hi = S // a
        # per slot coordinate: the own-block column offsets (relative to
        # the row at sl, before the input column) of the left and right
        # action terms, and the refined columns of the junction terms
        step = Q * nc  # between the rows of consecutive slot coordinates
        lterms = [[[((j - sl // hi) * hi * step, v) for j, v in left[r][sl // hi]] for sl in range(S)] for r in range(a)]
        rterms = [[[((j - sl % a) * step, v) for j, v in right[s][sl % a]] for sl in range(S)] for s in range(a)]
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
                        jterms[sl].append((off2 + (((top * a + u) * a + v) * w + lo) * Q * nc2, cv))
        template, spanning = [], 0
        for r in firsts if kappa[i] == 1 else range(a):
            for s in range(a):
                pr = [(k * tail, v) for k, v in prod[r][s]]
                lt, rt = lterms[r], rterms[s]
                c2 = (r * a + s) * tail
                for sl in range(S):
                    at = base + sl * step
                    eq: dict = {}
                    for ck, v in pr:
                        idx = at + ck
                        eq[idx] = eq.get(idx, 0) + v
                    for dl, v in lt[sl]:
                        idx = at + dl + s * tail
                        eq[idx] = eq.get(idx, 0) - v
                    for dl, v in rt[sl]:
                        idx = at + dl + r * tail
                        eq[idx] = eq.get(idx, 0) - v
                    for idx, v in jterms[sl]:
                        idx += c2
                        eq[idx] = eq.get(idx, 0) - v
                    eq = {j: v for j, v in eq.items() if v}
                    if eq:
                        template.append(eq)
            if kappa[i] > 1 or r in gens:
                spanning = len(template)
        rests = []
        for rest in itertools.product(range(a), repeat=d - 1):
            head = 0
            for t in rest[:i]:
                head = head * a + t
            low = 0
            for t in rest[i:]:
                low = low * a + t
            rests.append((head * a * tail + low, head * a * a * tail + low))
        outs = [((pre * S * Q + post) * nc, (pre * S2 * Q + post) * nc2) for pre in range(P) for post in range(Q)]
        return template, range(base, base + nr * nc), rests, outs, spanning

    return build


def _shifts(rests, outs) -> list[tuple[int, int]]:
    """The shifts of a block's copies, (0, 0) first: each pair of `rests`
    plus each pair of `outs`, the outputs fastest."""
    return [(r0 + o0, r1 + o1) for r0, r1 in rests for o0, o1 in outs]


def _split(rows, own: range) -> list[list[tuple[int, int, bool]]]:
    """The terms (column, coefficient, k) of each template row, where k
    picks the entry of a shift that moves the column: 0 for a column of
    the block itself (in `own`), 1 for one of a refined block."""
    return [[(j, v, j not in own) for j, v in row.items()] for row in rows]


def _copies(rows, own: range, shifts):
    """Each row moved by each shift of its block, shift by shift, as a
    new dict per copy; the rows themselves when the only shift is (0, 0)."""
    if shifts == [(0, 0)]:
        yield from rows
        return
    split = _split(rows, own)
    for shift in shifts:
        for terms in split:
            yield {j + shift[k]: v for j, v, k in terms}


def _leibniz_templates(B: GradedTarget, core: tuple[int, ...], grade: int) -> list:
    """The blocks of `_leibniz_blocks` as a list, built once per (core,
    grade) and target and shared by the solver and `check_leibniz`, so
    no caller writes into a template.  It holds a block's shifts as
    their `rests` and `outs`, not their product, which would outweigh
    the templates many times over."""
    key = (core, grade)
    if key not in B._leibniz_cache:
        B._leibniz_cache[key] = list(_leibniz_blocks(B, core, grade))
    return B._leibniz_cache[key]


def _slot_coordinate(a: int, g: tuple[int, ...], j: int):
    """The slot-j coordinate of an offset into a block at grade vector g:
    slot j's output coordinate and input basis index, as one int."""
    S = a ** (g[j] + 1)
    right = a ** (len(g) + sum(gk + 1 for gk in g[j + 1 :]))  # nc times the later outputs
    tail = a ** (len(g) - 1 - j)
    return lambda o: o // right % S * a + o // tail % a


def _finest_rows(a: int, g: tuple[int, ...], order_one: list[SparseEchelon], base: int):
    """The reduced integer rows of the finest refinement's block at grade
    vector g, which starts at column `base`, from `order_one`, per slot
    the echelon of the order-one system at the slot's grade over its own
    coordinates t = output * a + input.  A tuple p of slot coordinates
    with some p_i a pivot of its slot's echelon leads the row

        (prod_i den_i) e_p - sum over the tuples F of free coordinates of
            (prod_i E_i[F_i]) e_F,

    where a free p_i has den_i = 1 and E_i = e_(p_i), and a pivot p_i with
    integer row R has den_i = R[p_i] and E_i[f] = -R[f] at its free
    columns f, so that E_i / den_i is p_i's entry in the canonical kernel
    vectors.  The slots' coordinates are laid out (out_0, ..., out_(d-1),
    in_0, ..., in_(d-1)), each tuple F above is larger than p, and the
    rows are produced slot by slot, the coordinates of the last slot
    fastest."""
    d = len(g)
    slots = []
    for i in range(d):
        # as in `_slot_coordinate`: nc times the later slots' outputs, and
        # the weight of slot i's input
        outw, inw = a ** (d + sum(gj + 1 for gj in g[i + 1 :])), a ** (d - 1 - i)

        def at(t, outw=outw, inw=inw):
            return t // a * outw + t % a * inw

        rows = order_one[i].pivot_rows
        entries = []
        for t in range(a ** (g[i] + 2)):
            R = rows.get(t)
            if R is None:
                entries.append((at(t), 1, ((at(t), 1),), True))
            else:
                entries.append((at(t), R[t], tuple((at(f), -v) for f, v in R.items() if f != t), False))
        slots.append(entries)
    prefix = [(base, 1, ((base, 1),), True)]
    for entries in slots[:-1]:
        prefix = [
            (x + y, p * q, tuple((u + s, v * w) for u, v in terms for s, w in more), free and free2)
            for x, p, terms, free in prefix
            for y, q, more, free2 in entries
        ]
    for x, p, terms, free in prefix:
        for y, q, more, free2 in slots[-1]:
            if free and free2:
                continue
            row = {u + s: -v * w for u, v in terms for s, w in more}
            row[x + y] = p * q
            yield row


def _leibniz_echelon(B: GradedTarget, shape, grade: int) -> tuple[dict, SparseEchelon]:
    """The layout of a shape's operators at a total grade and the echelon
    of their Leibniz system.  It is the only elimination of a system of
    one positive slot; for several, `dim_D` and `solve_D` build the space
    from the slots' own spaces, and this echelon of the whole system is
    the reference the tests hold them to.  The blocks of `_leibniz_blocks`
    come finest refinement first: a constraint at kappa involves only
    kappa and its one-step refinements, and the finest refinement's
    constraints are closed (each slot a derivation), so each coarser row
    reduces against a complete echelon of the finer blocks, not a partly
    reduced tail.

    The finest refinement's blocks, when it has two or more parts, are
    not fed: their reduced rows are written into the echelon
    (`_finest_rows`, `SparseEchelon.add_reduced`).  Slot i of the block
    (1, ..., 1) at grade vector g carries the order-one system C_i at
    grade g_i, which is its template at shift (0, 0) read through
    `_slot_coordinate`, and its rows act as C_i (x) I, so the block's
    kernel is the tensor product of the kernels K(g_i) = ker C_i.  The
    block's columns run in the order (out_0, ..., out_(d-1), in_0, ...,
    in_(d-1)), so the last nonzero index of a product of vectors u_i is
    the tuple of the last nonzero indices of the u_i.  The canonical
    kernel vectors k_f of K(h), 1 at their free column f and 0 at every
    other, have their last nonzero entry at f.  So the block's free
    columns are the tuples F of free columns, the products k_F of the
    k_(f_i) are its canonical kernel vectors, and its reduced row with
    pivot p is e_p - sum_F k_F[p] e_F.  Those blocks' rows close on their
    own columns and come first, so the echelon after them is that reduced
    echelon form, however it was built.  Each K(h) is eliminated once per
    call, from the first finest slot at grade h, fed as a block with one
    copy is.  Shape (1,) has one block, with one copy, which is fed.

    A block with more than one copy has its template eliminated once, in
    an echelon of its own, and only that echelon's reduced rows are
    replicated: the copies lie on disjoint columns, so they span the same
    rows as the copies of the template.  A block with a single copy
    (kappa of one part, so every block of a single-slot shape's coarsest
    refinement and all of shape (1,)) is fed directly, since eliminating
    its template first would eliminate it twice.  A shape with no
    positive slot has one 1x1 block at grade 0, none above, no rows.

    The skip rule: within one (kappa, g), slot i's copies are fed only
    at shifts that put no earlier slot j at a lead x_j of slot j's
    reduced template in the block's own columns, x_j read as slot j's
    output coordinate and input basis index (`_slot_coordinate`).  The
    skipped copies lie in the span of the fed rows.  Take slot i's
    reduced row R_i and slot j's R_j with lead x_j, and their product
    R_i (x) R_j, the two constraints applied to slots i and j at once.
    It is a combination of slot-j copies in kappa and in the block that
    splits slot i; it is also one of slot-i copies in kappa, at x_j and
    at slot j's non-lead own coordinates, and of copies in the block
    that splits slot j.  The split blocks are finer, so fed earlier, and
    solving for the slot-i copy at x_j leaves copies whose smallest
    earlier-slot lead index is larger; induction on that index ends the
    argument.  So the fed rows span the whole system, and its RREF, the
    dimension and the basis are those of every copy fed.

    The generator rule: a block whose slot i has order one is fed, to its
    template's echelon or directly, only its first `spanning` rows, those
    whose first input r lies in `B.generators`.  Write row(r, s) for the
    constraint D(rs) - r D(s) - D(r) s of slot i at one copy, valued in
    slot i's output; r acts on its first factor and s on its last.  By
    associativity

        row(pq, s) = row(p, qs) + p row(q, s) - row(p, q) s,

    and the three terms on the right are rows of the same copy, combined
    through the actions on slot i's outer factors.  Induction on the
    length of a word in the generators puts row(w, s) in the span of the
    rows with r a generator, and the words span A, so those rows span
    the block.  Its reduced template, the leads the skip rule reads and
    the RREF are unchanged.  A block with one copy is fed its rows in
    decreasing order of their first columns, so its pivots arrive from
    the right and each new one has few stored rows to clear; the RREF
    does not depend on the order of the rows."""
    layout = vector_layout(B, shape, grade)
    core = _positive(tuple(shape))
    a = B.A.dim
    ech = SparseEchelon(layout["total"])
    order_one: dict[int, SparseEchelon] = {}  # grade h -> echelon of the order-one system
    blocks = zip(_iter_constraints(core, grade), _leibniz_templates(B, core, grade))
    for (kappa, i, g), (template, own, rests, outs, spanning) in blocks:
        if len(kappa) == sum(core) > 1:  # the finest refinement, of two or more parts
            if g[i] not in order_one:
                at = _slot_coordinate(a, g, i)
                order_one[g[i]] = SparseEchelon(a ** (g[i] + 2))
                for row in sorted(template[:spanning], key=min, reverse=True):
                    order_one[g[i]].add_row({at(j - own.start): v for j, v in row.items()})
            if i == len(kappa) - 1:
                for row in _finest_rows(a, g, [order_one[h] for h in g], own.start):
                    ech.add_reduced(row)
            continue
        shifts = _shifts(rests, outs)
        if len(shifts) > 1:
            reduced = SparseEchelon(layout["total"])
            for row in template[:spanning]:
                reduced.add_row(row)
            template = reduced.pivot_rows.values()
            if i == 0:
                earlier = []  # (slot coordinate, its leads) per slot j < i
            shifts = [sh for sh in shifts if not any(at(sh[0]) in leads for at, leads in earlier)]
            at = _slot_coordinate(a, g, i)
            earlier.append((at, {at(lead - own.start) for lead in reduced.pivot_rows if lead in own}))
        else:
            template = sorted(template[:spanning], key=min, reverse=True)
        for row in _copies(template, own, shifts):
            ech.add_row(row)
    return layout, ech


def _kernel(B: GradedTarget, shape, grade: int) -> tuple[dict, Iterator[tuple[int, list[tuple[int, int]]]]]:
    """The layout of a shape's operators at a total grade and the
    canonical basis of the kernel of their Leibniz system: one vector per
    free column F of the system's RREF, 1 at F and 0 at every other free
    column, in increasing F, each as a denominator and its (index,
    numerator) pairs in increasing index, read one at a time.

    With at most one positive slot it is the nullspace of
    `_leibniz_echelon`.  Otherwise it is built from the slots' own
    kernels.  A block (kappa, g) of a shape with positive slots lambda_1,
    ..., lambda_k is the Kronecker product of one block of each D_(lambda_i)
    at grade g_i, as `h_compose` forms it, and slot i's rows act as
    C_i (x) I on it, so the kernel is the sum over grade splits of the
    tensor products of the slots' kernels: the intersection of the kernels
    of the C_i (x) I is the tensor product of the kernels of the C_i.  The
    basis above is the reduced echelon form of the kernel with its columns
    reversed (its vector for F has its last nonzero entry at F), so any
    basis reduces to it, the products of the slots' bases included: they
    are reduced, as integer rows over reversed columns, in one
    `SparseEchelon`, and each row is read back scaled to 1 at its lead."""
    core = _positive(tuple(shape))
    if len(core) < 2:
        layout, ech = _leibniz_echelon(B, shape, grade)
        return layout, map(_integer_vector, ech.nullspace())
    layout = vector_layout(B, core, grade)
    last, blocks = layout["total"] - 1, layout["blocks"]
    splits = _gradevecs(len(core), grade)
    slots = {}  # (order, grade) -> the slot's kernel vectors, split by block
    for n, h in sorted({x for split in splits for x in zip(core, split)}):
        slot_layout, vecs = _kernel(B, (n,), h)
        by_block = _by_block(slot_layout)
        slots[n, h] = [by_block(items) for _, items in vecs]
    ech = SparseEchelon(layout["total"])
    for split in splits:
        for vecs in itertools.product(*(slots[x] for x in zip(core, split))):
            parts = [((), (), 1, 1, [(0, 0, 1)])]
            for vec in vecs:
                parts = [
                    (k1 + k2, g1 + g2, nr1 * nr2, nc1 * nc2,
                     [(r1 * nr2 + r2, c1 * nc2 + c2, v1 * v2) for r1, c1, v1 in e1 for r2, c2, v2 in e2])
                    for k1, g1, nr1, nc1, e1 in parts
                    for (k2, g2), nr2, nc2, e2 in vec
                ]
            row = {}
            for kappa, g, _, nc, entries in parts:
                top = last - blocks[kappa, g][0]
                for r, c, v in entries:
                    row[top - r * nc - c] = v
            ech.add_row(row)
    rows = ech.pivot_rows

    def vectors():  # each row is dropped once it is read
        for lead in sorted(rows, reverse=True):
            row = rows.pop(lead)
            yield row[lead], [(last - j, row[j]) for j in sorted(row, reverse=True)]

    return layout, vectors()


def _integer_vector(vec: dict[int, Fraction]) -> tuple[int, list[tuple[int, int]]]:
    """A sparse rational vector as a denominator and its (index,
    numerator) pairs, in the vector's order."""
    den = lcm(*[v.denominator for v in vec.values()])
    return den, [(idx, v.numerator * (den // v.denominator)) for idx, v in vec.items()]


def _by_block(layout):
    """A reader of kernel vectors of a layout, (index, numerator) pairs in
    increasing index: it returns their entries per block, ((kappa, g),
    nr, nc, [(row, column, numerator)]), blocks in layout order and each
    row's columns in increasing order.  An entry lands in the block whose
    offset is the last one at or below its index."""
    blocks = list(layout["blocks"].items())
    offsets = [off for _, (off, _, _) in blocks]

    def by_block(items):
        out, end = [], 0
        for idx, v in items:
            if idx >= end:
                key, (off, nr, nc) = blocks[bisect_right(offsets, idx) - 1]
                end = off + nr * nc
                entries = []
                out.append((key, nr, nc, entries))
            entries.append((*divmod(idx - off, nc), v))
        return out

    return by_block


def _kron_index(blocks: dict, parts) -> int:
    """The index, in a layout's `blocks`, of the Kronecker product of
    block entries `parts`, each ((kappa, g), nr, nc, row, column), as
    `h_compose` places it: the refinements and grade vectors concatenate,
    the rows and the columns combine first part slowest."""
    kappa, g, r, c = (), (), 0, 0
    for (k, gv), nr, nc, rr, cc in parts:
        kappa, g, r, c = kappa + k, g + gv, r * nr + rr, c * nc + cc
    off, _, nc = blocks[kappa, g]
    return off + r * nc + c


def _fiber_dim(B: GradedTarget, n: int, grade: int) -> int:
    """dim D_(n)(grade) for n >= 2, from the top block's rows and the
    agreement of the two-part spaces; `dim_D` gives the argument."""
    a = B.A.dim
    # per (m, h), m < n: the layout's blocks, each kernel vector's lead as
    # a block entry with its denominator, and per wanted index the
    # (vector, numerator) pairs of the vectors nonzero there: the top
    # block, and the tuples of leads of the spaces of each cut
    blocks, leads, values = {}, {}, {}
    for m in range(1, n):
        for h in range(grade + 1):
            layout, vecs = _kernel(B, (m,), h)
            blocks[m, h] = layout["blocks"]
            top = blocks[m, h][(m,), (h,)][0]
            wanted = set(range(top, top + a ** (h + 2)))
            for p in range(1, m):
                for h1 in range(h + 1):
                    pairs = itertools.product(leads[p, h1], leads[m - p, h - h1])
                    wanted.update(_kron_index(blocks[m, h], (L1, L2)) for (L1, _), (L2, _) in pairs)
            by_block = _by_block(layout)
            leads[m, h], values[m, h] = [], {}
            for k, (den, items) in enumerate(vecs):
                [(key, nr, nc, [(r, c, _)])] = by_block(items[-1:])
                leads[m, h].append(((key, nr, nc, r, c), den))
                vec = dict(items)
                for idx in wanted.intersection(vec):
                    values[m, h].setdefault(idx, []).append((k, vec[idx]))

    def at(m, h, parts):
        return values[m, h].get(_kron_index(blocks[m, h], parts), ())

    # the unknowns: the top block, then per cut x and grade h1 of its first
    # part the coefficients of the products of D_(x)(h1) and D_(n-x)(g-h1)
    alpha, total = {}, a ** (grade + 2)
    for x in range(1, n):
        for h1 in range(grade + 1):
            alpha[x, h1] = total
            total += len(leads[x, h1]) * len(leads[n - x, grade - h1])
    ech = SparseEchelon(total)
    # agreement of the cuts x < y at each tuple of leads of D_(x)(g1),
    # D_(y-x)(g2) and D_(n-y)(g3): Q_x reads it at the pair (f2, f3) of
    # D_(n-x), Q_y at the pair (f1, f2) of D_(y)
    for x in range(1, n):
        for y in range(x + 1, n):
            for g1, g2, g3 in _gradevecs(3, grade):
                leads1, leads2, leads3 = leads[x, g1], leads[y - x, g2], leads[n - y, g3]
                width = len(leads[n - x, g2 + g3])
                for L2, _ in leads2:
                    terms_x = [at(n - x, g2 + g3, (L2, L3)) for L3, _ in leads3]
                    terms_y = [at(y, g1 + g2, (L1, L2)) for L1, _ in leads1]
                    for i1, (_, d1) in enumerate(leads1):
                        for i3, (_, d3) in enumerate(leads3):
                            row = {alpha[x, g1] + i1 * width + k: d1 * v for k, v in terms_x[i3]}
                            row.update((alpha[y, g1 + g2] + k * len(leads3) + i3, -v * d3) for k, v in terms_y[i1])
                            ech.add_row(row)
    # the top block's own rows, each term in a two-part block written
    # through the products of top blocks that fill it
    layout = vector_layout(B, (n,), grade)
    by_block = _by_block(layout)
    template, block, *_ = _leibniz_block_builder(B, layout["blocks"])((n,), 0, (grade,))
    for eq in template:
        row: dict = {}
        for j, v in eq.items():
            if j in block:
                row[j - block.start] = v
                continue
            [(((x, _), (h1, h2)), _, _, [(r, c, _)])] = by_block([(j, v)])
            (r1, r2), (c1, c2) = divmod(r, a ** (h2 + 1)), divmod(c, a)
            terms1 = at(x, h1, [(((x,), (h1,)), a ** (h1 + 1), a, r1, c1)])
            terms2 = at(n - x, h2, [(((n - x,), (h2,)), a ** (h2 + 1), a, r2, c2)])
            for k1, v1 in terms1:
                for k2, v2 in terms2:
                    idx = alpha[x, h1] + k1 * len(leads[n - x, h2]) + k2
                    row[idx] = row.get(idx, 0) + v * v1 * v2
        ech.add_row(row)
    return total - ech.rank


def dim_D(B: GradedTarget, shape: tuple[int, ...], grade: int = 0) -> int:
    """Dimension of the space of operators of the given shape and total
    grade, no basis built.  With positive slots lambda_1, ..., lambda_k,
    k >= 2, it is the sum over grade splits g_1 + ... + g_k = g of the
    products of dim D_(lambda_i)(g_i), since the kernel is the sum of the
    tensor products of the slots' kernels (see `_kernel`).  With no
    positive slot, or one of order 1, it is the unknowns minus the rank of
    the Leibniz system.

    A single slot of order n >= 2 is counted as a fiber product of its
    two-part spaces, and only a small system is eliminated.
    - Cuts.  A block kappa other than the top block (n) has a cut at
      kappa_1.  A slot-i row at kappa touches only kappa and the blocks
      that split its part i, and those keep every cut of kappa.  So every
      row outside the top block is a row of the two-slot system (x, n-x)
      for a cut x of its block, on the columns R_x of the blocks cut at x,
      in `h_compose`'s Kronecker coordinates.
    - Two-part spaces.  D_(x,n-x)(g) is the sum over g1 + g2 = g of
      D_(x)(g1) (x) D_(n-x)(g2) (see `_kernel`), so P restricted to R_x
      is Q_x = sum of alpha (u1 (x) u2) over pairs of canonical basis
      vectors of those spaces, from `_kernel`, taken as integer vectors
      (denominator times the canonical vector).
    - Agreement.  On the blocks cut at both x and y (x < y), Q_x and Q_y
      both lie in the sum of the D_(x)(g1) (x) D_(y-x)(g2) (x) D_(n-y)(g3),
      by the same two facts one level down.  A canonical vector holds its
      denominator at its own lead, its last nonzero index, and 0 at every
      other lead, so restricting a tensor product of such bases to the
      tuples of leads is injective.  Agreeing there means agreeing on all
      of those blocks, and the pairs x < y cover every block with two cuts
      or more.
    - Top rows.  The top block's rows (`_leibniz_block_builder`) read the
      two-part blocks ((x, n-x), (h1, h2)); the entry at (r, c) there is
      the sum of u1[r1, c1] u2[r2, c2] alpha over the top blocks of
      D_(x)(h1) and D_(n-x)(h2), with r = r1 a^(h2+1) + r2, c = c1 a + c2.
    - Count.  The unknowns are the top block and the alphas.  Given a
      solution of the agreement and top rows, the operator that is the
      top block there and Q_x on each block with a cut x satisfies every
      row, and every P in D_(n)(g) arises once, since the map from (top
      block, alpha) to P is injective.  So the dimension is the number of
      unknowns minus the rank of those rows.  They are built from the
      kernel vectors' integer numerators, times the template's entries in
      the top rows."""
    core = _positive(tuple(shape))
    if len(core) == 1 and core[0] > 1:
        return _fiber_dim(B, core[0], grade)
    if len(core) < 2:
        layout, ech = _leibniz_echelon(B, shape, grade)
        return layout["total"] - ech.rank
    splits = _gradevecs(len(core), grade)
    dims = {x: dim_D(B, (x[0],), x[1]) for x in {x for split in splits for x in zip(core, split)}}
    return sum(prod(dims[x] for x in zip(core, split)) for split in splits)


def solve_D(B: GradedTarget, shape: tuple[int, ...], grade: int = 0) -> list[DiffOperator]:
    """Deterministic basis of the space of operators of the given shape
    and total grade, unpacked from `_kernel`: one operator per free column
    F of the RREF of the Leibniz system over all refinements and slots,
    1 at F and 0 at every other free column, in increasing F.  That basis
    is the reduced echelon form of the kernel with its columns reversed,
    so it does not depend on the route: a shape of one positive slot reads
    it off the nullspace of `_leibniz_echelon`, and a shape of several
    reduces the products of its slots' bases to it.  Refinements are
    ordered by (size, parts), grade vectors lexicographically, matrix
    entries row-major.  A shape with no positive slot gives its unit
    operator (`one_operator` for shape ()) at grade 0, nothing above."""
    shape = tuple(shape)
    layout, kernel = _kernel(B, shape, grade)
    by_block = _by_block(layout)
    basis = []
    for den, items in kernel:
        comps: dict = {}
        for (kappa, g), nr, nc, entries in by_block(items):
            comps.setdefault(kappa, {})[g] = Matrix.from_entries(nr, nc, den, entries)
        basis.append(DiffOperator(B, shape, grade, comps))
    return basis


def solve_Dn(B: GradedTarget, n: int, grade: int = 0) -> list[DiffOperator]:
    return solve_D(B, (n,) if n else (), grade)


def check_leibniz(P: DiffOperator) -> bool:
    """The defining invariant: every row of the Leibniz system vanishes on
    the operator's coordinates.  Each template of `_leibniz_templates` is
    evaluated, every row of it and not only the `spanning` rows the
    solver feeds, at each copy's shift directly on the coordinates (a block
    with one copy is its template, read as it is), and the check stops at
    the first row that does not vanish.  False when a block lies outside
    the layout of the shape and grade."""
    vec = op_vector(P, vector_layout(P.B, P.shape, P.grade))
    if vec is None:
        return False
    vec = _integral(vec)
    for template, own, rests, outs, _ in _leibniz_templates(P.B, P.core, P.grade):
        shifts = _shifts(rests, outs)
        if len(shifts) == 1:
            if any(sum(v * vec.get(j, 0) for j, v in row.items()) for row in template):
                return False
            continue
        split = _split(template, own)
        for shift in shifts:
            for terms in split:
                if sum(v * vec.get(j + shift[k], 0) for j, v, k in terms):
                    return False
    return True


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
    prod = Matrix.identity(a)
    for k in range(d - 1):
        prod = prod @ B.mB_matrix(0, k)
    top = P.block((n,), (P.grade,)) if n > 0 else P.block((), ())
    if top is None:
        lhs = Matrix.zeros(a ** (P.grade + 1), a**d)
    elif n > 0:
        lhs = top @ prod
    else:
        lhs = prod.scale(top.col(0)[0])
    rhs = Matrix.zeros(lhs.nrows, lhs.ncols)
    for lam in enumerate_partitions(n, d):
        for g_ext, M in extend_degenerate(P, lam.parts).items():
            # collapse the first two slots with the product of B until one is
            # left: mB(g0, g1) (x) I on the later legs is mB(g0, legs - g0 - 2)
            head, legs = g_ext[0], sum(g_ext) + len(g_ext)
            for gj in g_ext[1:]:
                M = B.mB_matrix(head, legs - head - 2) @ M
                head, legs = head + gj, legs - 1
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
    return Q0 if M is None else M.col(0)[0]


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


def v_compose(Q: DiffOperator, P: DiffOperator) -> DiffOperator:
    """Untyped vertical composition: Q consumes the output tensor factors
    of P, so Q needs len(P.shape) + P.grade slots.  Slot t of P has
    mu_t + 1 output factors (mu = `top_gradevec`), read by the next
    mu_t + 1 slots of Q; slot t of the composite has order sigma_t, the
    order lambda_t of P's slot plus those of its Q slots.

    The composite is the sum of Qmat @ Pmat over the admissible terms.  A
    term takes a stored refinement kappa of P and inserts zero slots among
    its parts over each slot t: at least one when lambda_t = 0, at most
    sigma_t - lambda_t, since each must receive Q order.  Pmat is a block
    of P's extension at the resulting index lam_p.  Its fine output
    factors merge at the junctions inside a slot of P, so each Q slot j
    reads a run of them.  The term splits nu_j over its run, giving
    Q's index lam_q and a block Qmat of Q's extension there, such that
    every fine slot gets a positive total tau.  Qmat @ Pmat lands at
    index tau, at the grade vector of Pmat plus, per fine slot, the
    grades of Qmat on its factors.  A slot with sigma_t = 0 passes its
    input through at both levels and is left out of every term.

    Each admissible term comes once, with a unique epi rho assigning the
    fine slots of lam_p to the slots of P.  Every inserted zero slot
    carries a positive Q part on its one factor; reading a boundary zero
    under another rho would move that part to the neighbouring Q slot,
    whose split would no longer sum to nu_j.  The push of each block's
    grade vector along rho is mu without a test: `top_gradevec` rejects
    P unless every stored block pushes to mu, and zero slots add grade
    zero."""
    q = len(P.shape)
    nu = Q.shape
    if len(nu) != q + P.grade:
        raise OperatorError(
            f"vertical arity mismatch: {len(nu)} input slots vs {q + P.grade} output factors"
        )
    mu = P.top_gradevec()
    reads = []  # the orders of the Q slots reading each slot of P
    j = 0
    for m in mu:
        reads.append(nu[j : j + m + 1])
        j += m + 1
    sigma = tuple(lam + sum(r) for lam, r in zip(P.shape, reads))
    live = [t for t in range(q) if sigma[t]]
    nu_live = [x for t in live for x in reads[t]]
    slot_of_part = [t for t in range(q) if P.shape[t]]  # P's slot of each core part
    comps: dict = {}
    for kappa in P.components:
        rho = refinement_witness(OrderedPartition(kappa), OrderedPartition(P.core))
        parts = [[] for _ in range(q)]
        for x, c in zip(kappa, rho.values):
            parts[slot_of_part[c - 1]].append(x)
        fibers = []  # per live slot, its parts with each choice of zero slots inserted
        for t in live:
            d = len(parts[t])
            fibers.append([])
            for z in range(0 if P.shape[t] else 1, sigma[t] - P.shape[t] + 1):
                for pos in itertools.combinations(range(d + z), d):
                    lam = [0] * (d + z)
                    for i, x in zip(pos, parts[t]):
                        lam[i] = x
                    fibers[-1].append(lam)
        for choice in itertools.product(*fibers):
            lam_p = tuple(itertools.chain.from_iterable(choice))
            for g_ext, Pmat in extend_degenerate(P, lam_p).items():
                # the fine slot of each fine factor, and the run length of
                # each Q slot: past the first fine slot of a slot of P, a
                # fine slot's first factor joins the run before it
                slot_of, runs = [], []
                s = 0
                for fib in choice:
                    for i in range(len(fib)):
                        if i:
                            runs[-1] += 1
                        runs += [1] * (g_ext[s] + (not i))
                        slot_of += [s] * (g_ext[s] + 1)
                        s += 1
                for split in itertools.product(*map(compositions, nu_live, runs)):
                    lam_q = tuple(itertools.chain.from_iterable(split))
                    tau = list(lam_p)
                    for s, x in zip(slot_of, lam_q):
                        tau[s] += x
                    if 0 in tau:
                        continue
                    dst = comps.setdefault(tuple(tau), {})
                    for gq, Qmat in extend_degenerate(Q, lam_q).items():
                        h = list(g_ext)
                        for s, y in zip(slot_of, gq):
                            h[s] += y
                        h = tuple(h)
                        prod = Qmat @ Pmat
                        dst[h] = dst[h] + prod if h in dst else prod
    return DiffOperator(P.B, sigma, P.grade + Q.grade, comps)


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
    rho0 = OrderedPartition(tuple(m + 1 for m in mu)).to_map()
    pi_part = OrderedPartition(P.pi)
    pi_tilde = lift_output_type(pi_part, rho0) if q else OrderedPartition(())

    # retag data
    pi_map = pi_part.to_map()
    h_groups = [sum(mu[t - 1] for t in pi_map.fiber(i)) for i in range(1, s + 1)]
    mu_tilde = OrderedPartition(tuple(h + 1 for h in h_groups)).to_map()
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
    fibers = OrderedPartition(sigma.fiber_sizes())
    comps: dict = {}
    for lam_prime in (r.fine.parts for r in refinements_of(OrderedPartition((m,)))):
        # lam with lam_prime = lam o sigma: each part of lam_prime a sum of
        # consecutive sigma-fiber sizes
        witness = refinement_witness(fibers, OrderedPartition(lam_prime))
        if witness is None:
            continue
        blocks = P.components.get(witness.fiber_sizes())
        if blocks:
            comps[lam_prime] = dict(blocks)
    return DiffOperator(P.B, (m,), P.grade, comps)


def symbol(P: DiffOperator) -> DiffOperator:
    """Projection to the finest index (1, ..., 1)."""
    n = P.order
    fin = (1,) * n
    blocks = P.components.get(fin, {})
    return DiffOperator(P.B, fin, P.grade, {fin: dict(blocks)} if blocks else {})


def op_vector(P: DiffOperator, layout) -> dict[int, Fraction] | None:
    """The nonzero coordinates (index -> entry) of an operator in a fixed
    layout, as produced by `vector_layout`; None when one of its blocks
    lies outside the layout.  The entries of a block with denominator 1
    are its ints, the others Fractions."""
    vec = {}
    for kappa, blocks in P.components.items():
        for g, M in blocks.items():
            if (kappa, g) not in layout["blocks"]:
                return None
            off, _, nc = layout["blocks"][(kappa, g)]
            den, cols, nums = M.form()
            for r, (c, n) in enumerate(zip(cols, nums)):
                base = off + r * nc
                if den == 1:
                    vec.update(zip([base + j for j in c], n))
                else:
                    vec.update((base + j, Fraction(v, den)) for j, v in zip(c, n))
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
    """The short-exact-sequence check at a single-slot shape: dim D_n, the
    finest-shape dimension, the symbol's rank on D_n, and whether its
    kernel K is the span of the degeneracy images of D_(n-1).  It is when
    every image has zero symbol and lies in D_n (so the images span a
    subspace of K) and the images have rank dim K."""
    fin = (1,) * n
    layout, ech = _leibniz_echelon(B, (n,), grade)
    # the finest refinement's blocks close the layout, in the order of
    # the finest shape's own layout
    start = layout["blocks"][fin, _gradevecs(n, grade)[0]][0]
    basis_n = ech.nullspace()
    span_n = SparseEchelon(layout["total"])
    sym = SparseEchelon(layout["total"] - start)
    for vec in basis_n:
        span_n.add_row(vec)
        sym.add_row({j - start: v for j, v in vec.items() if j >= start})
    deg = SparseEchelon(layout["total"])
    in_kernel = True
    lower = solve_Dn(B, n - 1, grade)
    for sigma in all_epis(n, n - 1):
        for Q in lower:
            D = degeneracy(sigma, Q)
            image = op_vector(D, layout)
            deg.add_row(image)
            in_kernel = in_kernel and fin not in D.components and span_n.contains(image)
    kernel_dim = len(basis_n) - sym.rank
    dim_finest = dim_D(B, fin, grade)
    return {
        "dim_Dn": len(basis_n),
        "dim_finest": dim_finest,
        "symbol_rank": sym.rank,
        "surjective": sym.rank == dim_finest,
        "degeneracy_rank": deg.rank,
        "kernel_dim": kernel_dim,
        "kernel_equals_degeneracy_image": in_kernel and deg.rank == kernel_dim,
    }
