"""Planar directed graphs: validation, level embedding, genus."""

import itertools
import random
import re

import pytest

from planarprop.graphs import (
    Corolla,
    GraphError,
    NotPlanar,
    PlanarGraph,
    hcomp_graph,
    vcomp_graph,
)


def crossing_graph() -> PlanarGraph:
    """Two wires that cross: inputs enter in one order, leave in the other."""
    return PlanarGraph(
        vertices=[Corolla(1, 1), Corolla(1, 1), Corolla(1, 1), Corolla(1, 1)],
        edges=[((2, "out", 1), (1, "in", 1)), ((3, "out", 1), (0, "in", 1))],
        graph_inputs=[(2, "in", 1), (3, "in", 1)],
        graph_outputs=[(0, "out", 1), (1, "out", 1)],
    )


def random_planar_composite(rng: random.Random, max_vertices: int = 6) -> PlanarGraph:
    """Grow a graph by substituting planar patterns into corolla vertices."""
    G = PlanarGraph.corolla(rng.randint(1, 3), rng.randint(1, 3))
    while len(G.vertices) < max_vertices:
        v = rng.randrange(len(G.vertices))
        cor = G.vertices[v]
        if rng.random() < 0.5:
            # vertical pattern: split v into a stack of two
            k = rng.randint(1, 3)
            inner = vcomp_graph(Corolla(k, cor.n_out), Corolla(cor.n_in, k))
        else:
            # horizontal pattern: split v side by side (needs both arities >= 2)
            if cor.n_in < 2 or cor.n_out < 2:
                continue
            i1 = rng.randint(1, cor.n_in - 1)
            o1 = rng.randint(1, cor.n_out - 1)
            inner = hcomp_graph(Corolla(i1, o1), Corolla(cor.n_in - i1, cor.n_out - o1))
        G = G.substitute(v, inner)
    return G


class TestValidation:
    def test_corolla_validates(self):
        PlanarGraph.corolla(2, 3).validate()

    def test_negative_arity_rejected(self):
        with pytest.raises(GraphError):
            Corolla(-1, 2)

    def test_dangling_half_edge_rejected(self):
        G = PlanarGraph.corolla(1, 1)
        G.graph_inputs = []
        with pytest.raises(GraphError):
            G.validate()

    @pytest.mark.parametrize(
        "inputs, outputs, missing",
        [
            ([(0, "in", 1), (5, "in", 1)], [(0, "out", 1)], (5, "in", 1)),
            ([(0, "in", 1)], [(0, "out", 1), (0, "out", 7)], (0, "out", 7)),
        ],
    )
    def test_boundary_names_a_missing_half_edge(self, inputs, outputs, missing):
        G = PlanarGraph(vertices=[Corolla(1, 1)], edges=[], graph_inputs=inputs, graph_outputs=outputs)
        with pytest.raises(GraphError, match=f"boundary half-edge {re.escape(str(missing))} is not a half-edge"):
            G.validate()

    def test_substitute_preserves_validity(self):
        rng = random.Random(5)
        for _ in range(20):
            random_planar_composite(rng).validate()


class TestLevelEmbedding:
    def test_single_corolla(self):
        order, layers, _ = PlanarGraph.corolla(2, 1).level_embed()
        assert order == [0]
        assert layers == [(0, 0, 0)]

    def test_composites_embed_and_topologically(self):
        rng = random.Random(11)
        for _ in range(40):
            G = random_planar_composite(rng)
            order, layers, _ = G.level_embed()
            assert sorted(order) == list(range(len(G.vertices)))
            # every edge points from a later level to an earlier one
            # (order is listed output side first)
            pos = {v: k for k, v in enumerate(order)}
            for (v_src, _, _), (v_dst, _, _) in G.edges:
                assert pos[v_src] > pos[v_dst]

    def test_crossing_rejected(self):
        with pytest.raises(NotPlanar):
            crossing_graph().level_embed()

    def test_crossing_rejected_even_with_backtracking(self):
        with pytest.raises(NotPlanar):
            crossing_graph().level_embed(backtrack=True)

    def test_greedy_agrees_with_backtracking_on_composites(self):
        # the canonical greedy choice should never fail where an exhaustive
        # search of extraction orders succeeds
        rng = random.Random(23)
        for _ in range(25):
            G = random_planar_composite(rng, max_vertices=5)
            G.level_embed(backtrack=True)

    def test_non_essential_rejected(self):
        G = PlanarGraph.corolla(0, 2)
        with pytest.raises(GraphError):
            G.level_embed()

    def test_frontier_trace_attached_on_failure(self):
        try:
            crossing_graph().level_embed()
        except NotPlanar as e:
            assert e.frontiers
            assert e.frontiers[0] == [(0, "out", 1), (1, "out", 1)]
        else:
            pytest.fail("crossing graph embedded")


class TestGenus:
    def test_disjoint_pair_has_genus_minus_one(self):
        G = hcomp_graph(Corolla(1, 1), Corolla(2, 1))
        assert G.genus() == -1

    def test_parallel_edges_give_p_minus_one(self):
        for p in range(1, 5):
            G = vcomp_graph(Corolla(p, 1), Corolla(1, p))
            assert G.genus() == p - 1

    def test_corolla_marks_add(self):
        G = PlanarGraph.corolla(1, 1, genus=2)
        assert G.genus() == 2

    def test_substitution_with_matching_marks_preserves_genus(self):
        rng = random.Random(3)
        for _ in range(20):
            G = random_planar_composite(rng, max_vertices=4)
            g0 = G.genus()
            v = rng.randrange(len(G.vertices))
            cor = G.vertices[v]
            # a stack of two vertices with one mark absorbing the difference
            k = 2
            inner = vcomp_graph(Corolla(k, cor.n_out), Corolla(cor.n_in, k))
            inner.vertices[0] = Corolla(k, cor.n_out, cor.genus - inner.genus())
            G2 = G.substitute(v, inner)
            assert G2.genus() == g0


class TestSerialization:
    def test_round_trip(self):
        rng = random.Random(7)
        for _ in range(10):
            G = random_planar_composite(rng)
            G2 = PlanarGraph.from_json(G.to_json())
            assert G2.vertices == G.vertices
            assert G2.edges == G.edges
            assert G2.graph_inputs == G.graph_inputs
            assert G2.graph_outputs == G.graph_outputs
