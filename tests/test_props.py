"""Prop expressions, normal forms, evaluation, and braid relations."""

import random
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st
from test_graphs import random_planar_composite

from planarprop.graphs import Corolla, PlanarGraph
from planarprop.linalg import Matrix
from planarprop.props import (
    EndProp,
    Gen,
    HComp,
    HUnit,
    NormalForm,
    PropError,
    Unit,
    VComp,
    arity,
    braid_check,
    eval_expr,
    eval_graph,
    eval_nf,
    graph_of_nf,
    normalize,
    parse_expr,
    print_expr,
)


def rand_matrix(rng, nrows, ncols):
    return Matrix([[Fraction(rng.randint(-3, 3)) for _ in range(ncols)] for _ in range(nrows)])


def labels_for(rng, expr, prop):
    out = {}

    def walk(e):
        match e:
            case Gen(name, m, n):
                if name not in out:
                    out[name] = prop.element(m, n, rand_matrix(rng, prop.dim**m, prop.dim**n))
            case HComp(a, b) | VComp(a, b):
                walk(a)
                walk(b)

    walk(expr)
    return out


def random_expr(rng, n_gens=4, max_wires=3):
    """A well-typed expression over at most n_gens generators, wire count
    capped so exact evaluation stays small."""
    atoms = [Gen(f"g{i}", rng.randint(1, 2), rng.randint(1, 2)) for i in range(n_gens)]

    def build(depth):
        if depth == 0:
            return rng.choice(atoms) if rng.random() < 0.8 else Unit()
        a = build(depth - 1)
        b = build(depth - 1)
        am, an = arity(a)
        bm, bn = arity(b)
        if an == bm and rng.random() < 0.5:
            return VComp(a, b)
        if am + bm <= max_wires and an + bn <= max_wires:
            return HComp(a, b)
        return a

    return build(rng.randint(1, 3))


class TestParsing:
    def test_round_trip(self):
        for text in ["a#2,1", "u", "u0", "a#1,2 * u", "a#1,1 . b#1,1", "(a#1,1 * u) . (u * a#1,1)"]:
            e = parse_expr(text)
            assert parse_expr(print_expr(e)) == e

    def test_round_trip_on_random_trees(self):
        """Right factors that are products of the same kind, which the
        parser alone would nest to the left, come back bracketed."""
        for text in ["u * (u * a#1,1)", "a#1,1 . (b#1,1 . c#1,1)", "u0 * (u0 * (u * u))"]:
            e = parse_expr(text)
            assert print_expr(e) == text
            assert parse_expr(print_expr(e)) == e

        def right_nested(e):
            match e:
                case HComp(a, b) | VComp(a, b):
                    return (type(b) is type(e)) + right_nested(a) + right_nested(b)
            return 0

        rng = random.Random(8)
        nested = 0
        for _ in range(500):
            e = random_expr(rng)
            wrap = rng.randrange(3)
            if wrap == 1:
                e = HComp(rng.choice([Unit(), HUnit()]), e)
            elif wrap == 2:
                e = VComp(reduce(HComp, [Unit()] * arity(e)[0]), e)
            assert parse_expr(print_expr(e)) == e
            nested += right_nested(e) > 0
        assert nested >= 100

    def test_arity_mismatch_rejected(self):
        with pytest.raises(PropError):
            arity(parse_expr("a#1,2 . b#1,1"))

    def test_printed_normal_form_parses_back_to_its_embedding(self):
        for text in ["u * u * a#1,1", "a#1,1 * b#1,1 * c#1,1", "u * u * a#2,1 * u . u * b#1,2 * u * u"]:
            nf = normalize(parse_expr(text))
            assert parse_expr(str(nf)) == nf.embed()
        rng = random.Random(21)
        wide_pads = 0
        for _ in range(500):
            nf = normalize(random_expr(rng))
            assert parse_expr(str(nf)) == nf.embed()
            wide_pads += any(i >= 2 for i, _, _ in nf.layers)
        assert wide_pads >= 50
        for width in range(4):
            nf = NormalForm((), width)
            assert parse_expr(str(nf)) == nf.embed()

    def test_bad_syntax_rejected(self):
        for text in ["", "a#", "a#1", "* u", "a#1,1 ."]:
            with pytest.raises(PropError):
                parse_expr(text)


class TestNormalForm:
    def test_power_of_units_collapses(self):
        nf = normalize(parse_expr("u . u"))
        assert nf.layers == ()
        assert nf.width == 1

    def test_horizontal_unit_is_empty(self):
        nf = normalize(parse_expr("u0"))
        assert nf.layers == ()
        assert nf.width == 0

    def test_two_generator_example(self):
        nf = normalize(parse_expr("a#1,1 * b#1,1"))
        assert len(nf.layers) == 2
        (i1, g1, j1), (i2, g2, j2) = nf.layers
        assert (g1.name, i1, j1) == ("a", 0, 1)
        assert (g2.name, i2, j2) == ("b", 1, 0)

    def test_normal_form_predicate_holds(self):
        rng = random.Random(2)
        for _ in range(100):
            nf = normalize(random_expr(rng))
            nf.check_widths()
            assert nf.is_normal()

    def test_idempotent(self):
        rng = random.Random(4)
        for _ in range(100):
            nf = normalize(random_expr(rng))
            assert normalize(nf.embed()) == nf

    def test_soundness_random(self):
        rng = random.Random(8)
        P = EndProp(2)
        for _ in range(100):
            e = random_expr(rng)
            nf = normalize(e)
            labels = labels_for(rng, e, P)
            assert P.equal(eval_expr(e, P, labels), eval_nf(nf, P, labels))

    def test_single_relation_instances_normalize_identically(self):
        # expressions differing by one defining relation have equal forms
        a = Gen("a", 1, 2)
        b = Gen("b", 2, 1)
        u = Unit()
        # unit laws
        assert normalize(VComp(a, HComp(u, u))) == normalize(a)
        assert normalize(HComp(HUnit(), a)) == normalize(a)
        # compatibility swap
        lhs = VComp(HComp(a, HComp(u, u)), HComp(HComp(u, u), b))
        rhs = HComp(a, b)
        assert normalize(lhs) == normalize(rhs)
        # horizontal associativity is strict on trees
        c = Gen("c", 1, 1)
        assert normalize(HComp(HComp(a, b), c)) == normalize(HComp(a, HComp(b, c)))


class TestGraphEvaluation:
    def test_eval_graph_matches_nf(self):
        rng = random.Random(12)
        P = EndProp(2)
        checked = 0
        for _ in range(60):
            e = random_expr(rng)
            nf = normalize(e)
            try:
                G, vertex_gen = graph_of_nf(nf)
            except PropError:
                continue  # free wires have no graph encoding
            labels = labels_for(rng, e, P)
            glabels = {v: labels[g.name] for v, g in vertex_gen.items()}
            assert P.equal(eval_graph(G, glabels, P), eval_nf(nf, P, labels))
            checked += 1
        assert checked >= 20


def swap_matrix(dim: int) -> Matrix:
    S = Matrix.zeros(dim * dim, dim * dim)
    for i in range(dim):
        for j in range(dim):
            S.rows[i * dim + j][j * dim + i] = Fraction(1)
    return S


class TestBraid:
    def test_swap_satisfies_braid(self):
        assert braid_check(swap_matrix(2), 2)

    def test_hecke_solution(self):
        q = Fraction(2)
        R = Matrix(
            [
                [q, 0, 0, 0],
                [0, q - 1 / q, 1, 0],
                [0, 1, 0, 0],
                [0, 0, 0, q],
            ]
        )
        assert braid_check(R, 2)

    def test_generic_matrix_fails(self):
        rng = random.Random(99)
        R = rand_matrix(rng, 4, 4)
        assert not braid_check(R, 2)


# -- reference routes --------------------------------------------------
# The evaluators as they stood before `eval_nf` became the one layer fold:
# `arity` as its own recursive walk, `eval_nf` through the rebuilt
# expression tree, `eval_graph` folding the level embedding by itself, and
# the braid relation through two hand-built 3-vertex graphs.


def reference_arity(e):
    match e:
        case Gen(_, m, n):
            return (m, n)
        case Unit():
            return (1, 1)
        case HUnit():
            return (0, 0)
        case HComp(a, b):
            m1, n1 = reference_arity(a)
            m2, n2 = reference_arity(b)
            return (m1 + m2, n1 + n2)
        case VComp(a, b):
            m, n = reference_arity(a)
            p, q = reference_arity(b)
            if n != p:
                raise PropError(f"vertical arity mismatch: {n} inputs vs {p} outputs")
            return (m, q)
    raise PropError(f"not a prop expression: {e!r}")


def reference_eval_nf(nf, prop, labels):
    return eval_expr(nf.embed(), prop, labels)


def reference_eval_graph(G, labels, prop):
    order, layers, _ = G.level_embed()
    if not order:
        return prop.u_power(len(G.graph_inputs))
    for v in order:
        el = labels[v]
        cor = G.vertices[v]
        if el[0] != cor.n_out or el[1] != cor.n_in:
            raise PropError(f"label arity mismatch at vertex {v}")

    def term(i, v, j):
        el = labels[v]
        if i:
            el = prop.h_compose(prop.u_power(i), el)
        if j:
            el = prop.h_compose(el, prop.u_power(j))
        return el

    acc = term(*layers[0])
    for lay in layers[1:]:
        acc = prop.v_compose(acc, term(*lay))
    return acc


def reference_braid_graphs():
    c = Corolla(2, 2)
    left = PlanarGraph(
        vertices=[c, c, c],
        edges=[((2, "out", 2), (1, "in", 1)), ((2, "out", 1), (0, "in", 1)), ((1, "out", 1), (0, "in", 2))],
        graph_inputs=[(2, "in", 1), (2, "in", 2), (1, "in", 2)],
        graph_outputs=[(0, "out", 1), (0, "out", 2), (1, "out", 2)],
    )
    right = PlanarGraph(
        vertices=[c, c, c],
        edges=[((2, "out", 1), (1, "in", 2)), ((1, "out", 2), (0, "in", 1)), ((2, "out", 2), (0, "in", 2))],
        graph_inputs=[(1, "in", 1), (2, "in", 1), (2, "in", 2)],
        graph_outputs=[(1, "out", 1), (0, "out", 1), (0, "out", 2)],
    )
    return left, right


def reference_braid_check(R, dim):
    P = EndProp(dim)
    el = P.element(2, 2, R)
    gl, gr = reference_braid_graphs()
    lhs = reference_eval_graph(gl, {0: el, 1: el, 2: el}, P)
    rhs = reference_eval_graph(gr, {0: el, 1: el, 2: el}, P)
    return P.equal(lhs, rhs)


def untyped_expr(rng, depth):
    """Any tree of generators, units and products, arities unchecked, with
    now and then a leaf that is not a prop expression at all."""
    if depth == 0 or rng.random() < 0.2:
        r = rng.random()
        if r < 0.05:
            return "junk"
        if r < 0.2:
            return HUnit()
        if r < 0.4:
            return Unit()
        return Gen(f"g{rng.randint(0, 3)}", rng.randint(1, 3), rng.randint(1, 3))
    node = HComp if rng.random() < 0.5 else VComp
    return node(untyped_expr(rng, depth - 1), untyped_expr(rng, depth - 1))


def outcome(f, *args):
    """f's value, or the message of the PropError it raises."""
    try:
        return f(*args)
    except PropError as e:
        return ("PropError", str(e))


class TestAgainstReference:
    def test_arity(self):
        rng = random.Random(31)
        kinds = {True: 0, False: 0}
        for _ in range(300):
            e = untyped_expr(rng, rng.randint(0, 5))
            got = outcome(arity, e)
            assert got == outcome(reference_arity, e)
            kinds[got[0] != "PropError"] += 1
        assert min(kinds.values()) >= 50

    def test_eval_nf(self):
        rng = random.Random(32)
        P = EndProp(2)
        for width in range(4):
            nf = NormalForm((), width)
            assert P.equal(eval_nf(nf, P, {}), reference_eval_nf(nf, P, {}))
        for _ in range(100):
            e = random_expr(rng)
            nf = normalize(e)
            labels = labels_for(rng, e, P)
            assert P.equal(eval_nf(nf, P, labels), reference_eval_nf(nf, P, labels))

    def test_eval_graph(self):
        rng = random.Random(33)
        P = EndProp(2)
        for _ in range(60):
            G = random_planar_composite(rng)
            labels = {
                v: P.element(c.n_out, c.n_in, rand_matrix(rng, P.dim**c.n_out, P.dim**c.n_in))
                for v, c in enumerate(G.vertices)
            }
            assert P.equal(eval_graph(G, labels, P), reference_eval_graph(G, labels, P))

    def test_eval_graph_rejects_a_label_of_the_wrong_arity(self):
        P = EndProp(2)
        G = PlanarGraph.corolla(2, 1)
        wrong = P.element(2, 1, rand_matrix(random.Random(34), 4, 2))
        with pytest.raises(PropError):
            eval_graph(G, {0: wrong}, P)
        with pytest.raises(PropError):
            reference_eval_graph(G, {0: wrong}, P)

    def test_braid_check(self):
        rng = random.Random(35)
        q = Fraction(3)
        hecke = Matrix([[q, 0, 0, 0], [0, q - 1 / q, 1, 0], [0, 1, 0, 0], [0, 0, 0, q]])
        cases = [swap_matrix(2), hecke, Matrix.identity(4)] + [rand_matrix(rng, 4, 4) for _ in range(30)]
        for R in cases:
            assert braid_check(R, 2) == reference_braid_check(R, 2)
        assert [braid_check(R, 2) for R in cases[:3]] == [True, True, True]
