"""Elementary prop expressions, normal forms, and graph evaluation.

An element of P(m, n) has m outputs and n inputs.  Vertical composition
glues the inputs of the left factor to the outputs of the right factor,
so in `X . Y` the right factor sits on the input side.  Horizontal
composition is side by side.  Units: `u` in P(1,1), `u0` in P(0,0).

Text syntax: generators `a#m,n`, `*` horizontal (binds tighter),
`.` vertical, parentheses.  The parser reads each product as nesting to
the left; the printer brackets a vertical product inside a horizontal
one and a right factor that is a product of the same kind, so
parse_expr(print_expr(e)) == e for every well-typed tree e whose
generator names the parser reads.  A NormalForm.embed() nests to the
left and has no vertical product inside a horizontal one, so str(nf)
has no brackets and parses back to nf.embed().

A normal form is a vertical product of layers (u^i o_h a o_h u^j), factor
1 nearest the outputs, subject to: for all k and l < k,

    i_k < min(i_l, ..., i_{k-1})  implies  i_k + m_k > min(i_l, ..., i_{k-1}).

Rewriting uses the compatibility relation to push an offending layer
toward the output end; the leftmost violating adjacent pair is always
swapped first, which makes the result canonical.

Evaluating in a prop is one fold over those layers, `eval_nf`.  A planar
graph evaluates through the normal form its level embedding gives, and
the braid relation compares two three-layer forms.  `eval_expr` walks
the expression tree instead and is the independent route the normal
form is checked against.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import reduce

from .graphs import Corolla, PlanarGraph
from .linalg import Matrix


class PropError(ValueError):
    pass


# -- expression trees -------------------------------------------------


@dataclass(frozen=True)
class Gen:
    name: str
    n_out: int
    n_in: int

    def __post_init__(self):
        if self.n_out < 1 or self.n_in < 1:
            raise PropError("generators must have at least one input and one output")


@dataclass(frozen=True)
class Unit:
    """u in P(1,1)."""


@dataclass(frozen=True)
class HUnit:
    """u0 in P(0,0)."""


@dataclass(frozen=True)
class HComp:
    left: "PropExpr"
    right: "PropExpr"


@dataclass(frozen=True)
class VComp:
    left: "PropExpr"  # output side
    right: "PropExpr"  # input side


PropExpr = Gen | Unit | HUnit | HComp | VComp


def arity(e: PropExpr) -> tuple[int, int]:
    """(outputs, inputs) of an expression; raises on inner mismatch."""
    nf = _flatten(e)
    return (nf.n_out, nf.n_in)


# -- parser / printer --------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(?P<gen>[A-Za-z_]\w*#\d+,\d+)|(?P<u0>u0\b)|(?P<u>u\b)|(?P<op>[.*()]))")


def parse_expr(text: str) -> PropExpr:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise PropError(f"cannot tokenize {text[pos:]!r}")
            break
        pos = m.end()
        if m.lastgroup == "gen":
            name, ar = m.group("gen").split("#")
            o, i = ar.split(",")
            tokens.append(("gen", Gen(name, int(o), int(i))))
        elif m.lastgroup == "u0":
            tokens.append(("u0", HUnit()))
        elif m.lastgroup == "u":
            tokens.append(("u", Unit()))
        else:
            tokens.append((m.group("op"), None))
    idx = 0

    def peek():
        return tokens[idx][0] if idx < len(tokens) else None

    def atom() -> PropExpr:
        nonlocal idx
        t = peek()
        if t == "(":
            idx += 1
            e = vertical()
            if peek() != ")":
                raise PropError("missing closing parenthesis")
            idx += 1
            return e
        if t in ("gen", "u", "u0"):
            e = tokens[idx][1]
            idx += 1
            return e
        if t is None:
            raise PropError("unexpected end of expression")
        raise PropError(f"unexpected token {t!r}")

    def horizontal() -> PropExpr:
        nonlocal idx
        e = atom()
        while peek() == "*":
            idx += 1
            e = HComp(e, atom())
        return e

    def vertical() -> PropExpr:
        nonlocal idx
        e = horizontal()
        while peek() == ".":
            idx += 1
            e = VComp(e, horizontal())
        return e

    e = vertical()
    if idx != len(tokens):
        raise PropError(f"trailing tokens after expression: {tokens[idx:]}")
    arity(e)
    return e


def print_expr(e: PropExpr) -> str:
    match e:
        case Gen(name, m, n):
            return f"{name}#{m},{n}"
        case Unit():
            return "u"
        case HUnit():
            return "u0"
        case HComp(a, b):
            sa = print_expr(a)
            sb = print_expr(b)
            if isinstance(a, VComp):
                sa = f"({sa})"
            if isinstance(b, (HComp, VComp)):
                sb = f"({sb})"
            return f"{sa} * {sb}"
        case VComp(a, b):
            sb = print_expr(b)
            if isinstance(b, VComp):
                sb = f"({sb})"
            return f"{print_expr(a)} . {sb}"
    raise PropError(f"not a prop expression: {e!r}")


# -- normal forms ------------------------------------------------------


@dataclass(frozen=True)
class NormalForm:
    """Vertical product of single-generator layers; layer k is
    (left pad, generator, right pad), layer 1 nearest the outputs.
    `width` is the wire count of a layerless form (powers of u); for
    non-empty forms it is redundant and kept at the output width."""

    layers: tuple[tuple[int, Gen, int], ...]
    width: int

    @property
    def n_out(self) -> int:
        if not self.layers:
            return self.width
        i, g, j = self.layers[0]
        return i + g.n_out + j

    @property
    def n_in(self) -> int:
        if not self.layers:
            return self.width
        i, g, j = self.layers[-1]
        return i + g.n_in + j

    def check_widths(self) -> None:
        for (i1, g1, j1), (i2, g2, j2) in zip(self.layers, self.layers[1:]):
            if i1 + g1.n_in + j1 != i2 + g2.n_out + j2:
                raise PropError("inconsistent layer widths")

    def is_normal(self) -> bool:
        """The defining condition on left pads, checked in full."""
        pads = [i for i, _, _ in self.layers]
        outs = [g.n_out for _, g, _ in self.layers]
        r = len(pads)
        for k in range(1, r):
            for l in range(k):
                m = min(pads[l:k])
                if pads[k] < m and pads[k] + outs[k] <= m:
                    return False
        return True

    def embed(self) -> PropExpr:
        """Back to an expression: u^width for the empty form, otherwise the
        vertical product of (u^i * a * u^j) layers.  Every product nests
        to the left, as the parser reads `*` and `.`, so str(self) parses
        back to this expression."""
        if not self.layers:
            return reduce(HComp, [Unit()] * self.width) if self.width else HUnit()
        return reduce(VComp, (reduce(HComp, [Unit()] * i + [g] + [Unit()] * j) for i, g, j in self.layers))

    def __str__(self) -> str:
        return print_expr(self.embed())


def _violates(a: tuple[int, Gen, int], b: tuple[int, Gen, int]) -> bool:
    # b is one layer closer to the inputs; its block must not lie strictly
    # to the left of a's block
    i1, _, _ = a
    i2, g2, _ = b
    return i2 < i1 and i2 + g2.n_out <= i1


def _swap(a: tuple[int, Gen, int], b: tuple[int, Gen, int]):
    """Compatibility swap for a disjoint adjacent pair with b's block to
    the left; b moves to the output side, a's pads shift by b's defect."""
    i1, g1, j1 = a
    i2, g2, j2 = b
    new_b = (i2, g2, i1 + g1.n_out + j1 - i2 - g2.n_out)
    new_a = (i1 + g2.n_in - g2.n_out, g1, j1)
    return new_b, new_a


def _rewrite(layers: list[tuple[int, Gen, int]]) -> tuple[tuple[int, Gen, int], ...]:
    layers = list(layers)
    while True:
        for k in range(len(layers) - 1):
            if _violates(layers[k], layers[k + 1]):
                layers[k], layers[k + 1] = _swap(layers[k], layers[k + 1])
                break
        else:
            return tuple(layers)


def normalize(e: PropExpr) -> NormalForm:
    nf = _flatten(e)
    nf = NormalForm(_rewrite(list(nf.layers)), nf.width)
    nf.check_widths()
    assert nf.is_normal()
    return nf


def _flatten(e: PropExpr) -> NormalForm:
    match e:
        case Gen() as g:
            return NormalForm(((0, g, 0),), g.n_out)
        case Unit():
            return NormalForm((), 1)
        case HUnit():
            return NormalForm((), 0)
        case HComp(a, b):
            fa, fb = _flatten(a), _flatten(b)
            # (A o_h u^{out(B)}) o_v (u^{in(A)} o_h B)
            left = [(i, g, j + fb.n_out) for i, g, j in fa.layers]
            right = [(i + fa.n_in, g, j) for i, g, j in fb.layers]
            return NormalForm(tuple(left + right), fa.n_out + fb.n_out)
        case VComp(a, b):
            fa, fb = _flatten(a), _flatten(b)
            if fa.n_in != fb.n_out:
                raise PropError(f"vertical arity mismatch: {fa.n_in} inputs vs {fb.n_out} outputs")
            return NormalForm(fa.layers + fb.layers, fa.n_out if fa.layers or fb.layers else fa.width)
        case _:
            raise PropError(f"not a prop expression: {e!r}")


# -- evaluation --------------------------------------------------------


class EndProp:
    """Endomorphism prop of a dim-dimensional space: P(m, n) consists of
    dim^m x dim^n matrices, h_compose is the Kronecker product, v_compose
    is the matrix product."""

    def __init__(self, dim: int):
        if dim < 1:
            raise PropError("dimension must be positive")
        self.dim = dim
        self.u = (1, 1, Matrix.identity(dim))
        self.u0 = (0, 0, Matrix.identity(1))

    def element(self, m: int, n: int, mat: Matrix):
        if mat.nrows != self.dim**m or mat.ncols != self.dim**n:
            raise PropError(f"matrix shape {mat.nrows}x{mat.ncols} does not fit P({m},{n})")
        return (m, n, mat)

    def h_compose(self, x, y):
        (m1, n1, a), (m2, n2, b) = x, y
        return (m1 + m2, n1 + n2, a.kron(b))

    def v_compose(self, x, y):
        (m, n, a), (p, q, b) = x, y
        if n != p:
            raise PropError(f"vertical arity mismatch: {n} != {p}")
        return (m, q, a @ b)

    def u_power(self, k: int):
        return (k, k, Matrix.identity(self.dim**k))

    def equal(self, x, y) -> bool:
        return x[0] == y[0] and x[1] == y[1] and x[2] == y[2]


def eval_expr(e: PropExpr, prop, labels: dict[str, object]):
    """Evaluate an expression in any prop interface; generator names are
    looked up in `labels`."""
    match e:
        case Gen(name, m, n):
            el = labels[name]
            if el[0] != m or el[1] != n:
                raise PropError(f"label for {name} has arity ({el[0]},{el[1]}), expected ({m},{n})")
            return el
        case Unit():
            return prop.u
        case HUnit():
            return prop.u0
        case HComp(a, b):
            return prop.h_compose(eval_expr(a, prop, labels), eval_expr(b, prop, labels))
        case VComp(a, b):
            return prop.v_compose(eval_expr(a, prop, labels), eval_expr(b, prop, labels))
    raise PropError(f"not a prop expression: {e!r}")


def eval_nf(nf: NormalForm, prop, labels: dict[str, object]):
    """Evaluate a normal form in any prop interface: u^width for a form
    with no layers, otherwise the vertical product of the layers
    u^i o_h a o_h u^j, composed output side first.  Generators are looked
    up through `eval_expr`, which checks each label's arity.  This is the
    one layer fold: graphs and the braid relation evaluate through it."""
    if not nf.layers:
        return prop.u_power(nf.width)

    def layer(i: int, g: Gen, j: int):
        el = eval_expr(g, prop, labels)
        if i:
            el = prop.h_compose(prop.u_power(i), el)
        if j:
            el = prop.h_compose(el, prop.u_power(j))
        return el

    return reduce(prop.v_compose, (layer(*lay) for lay in nf.layers))


def eval_graph(G: PlanarGraph, labels, prop):
    """Evaluate a labeled essential planar graph through its normal form:
    the canonical level embedding gives one layer per vertex, whose
    generator is named by the vertex index.  `labels` maps vertex index
    to prop element; a label of the wrong arity raises PropError."""
    _, layers, _ = G.level_embed()
    nf = NormalForm(
        tuple((i, Gen(str(v), G.vertices[v].n_out, G.vertices[v].n_in), j) for i, v, j in layers),
        len(G.graph_outputs),
    )
    return eval_nf(nf, prop, {str(v): labels[v] for _, v, _ in layers})


def graph_of_nf(nf: NormalForm) -> tuple[PlanarGraph, dict[int, Gen]]:
    """The planar graph whose level embedding reproduces the layers: one
    vertex per layer, processed output side up, threading wires through a
    list of pending sinks.  A wire that never meets a vertex cannot be
    encoded as a half-edge pair, so such forms are rejected."""
    vertices = [Corolla(g.n_in, g.n_out) for _, g, _ in nf.layers]
    gen_of = {k: g for k, (_, g, _) in enumerate(nf.layers)}
    # pending[x] is the sink awaiting a source from above: either a graph
    # output slot ("slot", s) or a vertex input half-edge
    pending: list = [("slot", s) for s in range(nf.n_out)]
    graph_outputs: list = [None] * nf.n_out
    edges = []
    for k, (i, g, j) in enumerate(nf.layers):
        for p in range(1, g.n_out + 1):
            sink = pending[i + p - 1]
            src = (k, "out", p)
            if sink[0] == "slot":
                graph_outputs[sink[1]] = src
            else:
                edges.append((src, sink))
        pending = pending[:i] + [(k, "in", p) for p in range(1, g.n_in + 1)] + pending[i + g.n_out :]
    if any(s[0] == "slot" for s in pending) or any(o is None for o in graph_outputs):
        raise PropError("normal form has a wire not meeting any generator; no half-edge graph exists")
    G = PlanarGraph(vertices=vertices, edges=edges, graph_inputs=list(pending), graph_outputs=graph_outputs)
    G.validate()
    return G, gen_of


def braid_check(R: Matrix, dim: int) -> bool:
    """Whether R in P(2,2) of the endomorphism prop satisfies the braid
    relation (s o_h u) o_v (u o_h s) o_v (s o_h u) = (u o_h s) o_v
    (s o_h u) o_v (u o_h s), both sides evaluated as normal forms."""
    P = EndProp(dim)
    s = Gen("s", 2, 2)
    labels = {"s": P.element(2, 2, R)}
    lhs = eval_nf(NormalForm(((0, s, 1), (1, s, 0), (0, s, 1)), 3), P, labels)
    rhs = eval_nf(NormalForm(((1, s, 0), (0, s, 1), (1, s, 0)), 3), P, labels)
    return P.equal(lhs, rhs)
