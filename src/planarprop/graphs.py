"""Directed acyclic planar graphs with ordered ports and genus marks.

A half-edge is addressed as (vertex index, side, port) with side "in" or
"out" and 1-based ports.  Edges pair an out half-edge with an in
half-edge; unmatched half-edges form the ordered graph boundary.

Planarity is defined operationally: the greedy level-embedding
construction (repeatedly extract the vertex all of whose outputs are
current graph outputs, first with respect to the output order, requiring
its output block to sit consecutively in the frontier) either succeeds and
yields the canonical bottom-up vertex order, or the graph is rejected.
An exhaustive backtracking variant is available to cross-check the greedy
choice on small instances.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class GraphError(ValueError):
    pass


class NotPlanar(GraphError):
    pass


HalfEdge = tuple[int, str, int]  # (vertex, "in"|"out", port)


@dataclass(frozen=True)
class Corolla:
    n_in: int
    n_out: int
    genus: int = 0

    def __post_init__(self):
        if self.n_in < 0 or self.n_out < 0:
            raise GraphError("negative arity")


@dataclass
class PlanarGraph:
    vertices: list[Corolla]
    edges: list[tuple[HalfEdge, HalfEdge]]
    graph_inputs: list[HalfEdge] = field(default_factory=list)
    graph_outputs: list[HalfEdge] = field(default_factory=list)

    # -- construction helpers -----------------------------------------

    @classmethod
    def corolla(cls, n_in: int, n_out: int, genus: int = 0) -> "PlanarGraph":
        v = Corolla(n_in, n_out, genus)
        return cls(
            vertices=[v],
            edges=[],
            graph_inputs=[(0, "in", p) for p in range(1, n_in + 1)],
            graph_outputs=[(0, "out", p) for p in range(1, n_out + 1)],
        )

    def half_edges(self):
        for i, v in enumerate(self.vertices):
            for p in range(1, v.n_in + 1):
                yield (i, "in", p)
            for p in range(1, v.n_out + 1):
                yield (i, "out", p)

    # -- validation ----------------------------------------------------

    def validate(self) -> None:
        """Well-formedness: every boundary entry is a half-edge of the
        graph, every half-edge in exactly one edge or on the boundary,
        edges pair outputs with inputs, no directed cycles."""
        all_he = set(self.half_edges())
        seen: set[HalfEdge] = set()
        for src, dst in self.edges:
            if src not in all_he or dst not in all_he:
                raise GraphError(f"edge endpoint {src if src not in all_he else dst} is not a half-edge of the graph")
            if src[1] != "out" or dst[1] != "in":
                raise GraphError(f"decoration mismatch: edge must glue an output to an input, got {src} -> {dst}")
            for h in (src, dst):
                if h in seen:
                    raise GraphError(f"half-edge {h} used by more than one edge")
                seen.add(h)
        boundary = set(self.graph_inputs) | set(self.graph_outputs)
        if not boundary <= all_he:
            raise GraphError(f"boundary half-edge {min(boundary - all_he)} is not a half-edge of the graph")
        for h in all_he:
            on_edge = h in seen
            on_boundary = h in boundary
            if on_edge and on_boundary:
                raise GraphError(f"half-edge {h} is both internal and on the boundary")
            if not on_edge and not on_boundary:
                raise GraphError(f"dangling half-edge {h}")
        for h in self.graph_inputs:
            if h[1] != "in":
                raise GraphError(f"graph input {h} is not an input half-edge")
        for h in self.graph_outputs:
            if h[1] != "out":
                raise GraphError(f"graph output {h} is not an output half-edge")
        if len(set(self.graph_inputs)) != len(self.graph_inputs) or len(set(self.graph_outputs)) != len(self.graph_outputs):
            raise GraphError("repeated boundary half-edge")
        # acyclicity via Kahn's algorithm on the vertex digraph
        n = len(self.vertices)
        succ: list[set[int]] = [set() for _ in range(n)]
        indeg = [0] * n
        for (v1, _, _), (v2, _, _) in self.edges:
            if v2 not in succ[v1]:
                succ[v1].add(v2)
                indeg[v2] += 1
        queue = [i for i in range(n) if indeg[i] == 0]
        done = 0
        while queue:
            v = queue.pop()
            done += 1
            for w in succ[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    queue.append(w)
        if done != n:
            raise GraphError("directed cycle")

    def is_essential(self) -> bool:
        return all(v.n_in >= 1 and v.n_out >= 1 for v in self.vertices)

    # -- genus ----------------------------------------------------------

    def genus(self) -> int:
        """dim H1 - dim H0 + 1 + sum of vertex marks; for a graph with V
        vertices, E internal edges and C undirected components this is
        E - V + 1 + sum(marks): the components cancel."""
        return len(self.edges) - len(self.vertices) + 1 + sum(v.genus for v in self.vertices)

    # -- level embedding -------------------------------------------------

    def level_embed(self, backtrack: bool = False):
        """Canonical level embedding per the greedy frontier construction.

        Returns (order, layers, frontiers) where `order` is the canonical
        vertex list bottom-up, layers[k] = (left_pad, vertex, right_pad)
        and frontiers[k] is the wire list before extracting order[k].
        Raises NotPlanar if the frontier test fails (with backtrack=True,
        only after an exhaustive search over admissible extraction orders
        also fails)."""
        self.validate()
        if not self.is_essential():
            raise GraphError("level embedding requires an essential graph")
        try:
            return self._embed_greedy()
        except NotPlanar:
            if backtrack and self._embed_backtrack(self._initial_frontier(), set(range(len(self.vertices)))):
                raise GraphError("greedy canonical choice failed but a backtracking embedding exists")
            raise

    def _edge_map(self) -> dict[HalfEdge, HalfEdge]:
        return {dst: src for src, dst in self.edges}

    def _initial_frontier(self) -> list[HalfEdge]:
        # frontier wires are identified by the out half-edge (or graph
        # input half-edge) still waiting above
        return [h for h in self.graph_outputs]

    def _extract(self, frontier: list[HalfEdge], v: int) -> list[HalfEdge] | None:
        """Replace v's output block by its input wires; None if the block is
        not consecutive and in port order."""
        cor = self.vertices[v]
        positions = [i for i, h in enumerate(frontier) if h[0] == v and h[1] == "out"]
        if len(positions) != cor.n_out:
            return None
        lo = positions[0]
        expected = [(v, "out", p) for p in range(1, cor.n_out + 1)]
        if frontier[lo : lo + cor.n_out] != expected:
            return None
        src_of = self._edge_map()
        new_wires = []
        for p in range(1, cor.n_in + 1):
            h = (v, "in", p)
            new_wires.append(src_of.get(h, h))
        return frontier[:lo] + new_wires + frontier[lo + cor.n_out :]

    def _embed_greedy(self):
        frontier = self._initial_frontier()
        remaining = set(range(len(self.vertices)))
        order: list[int] = []
        layers: list[tuple[int, int, int]] = []
        frontiers: list[list[HalfEdge]] = []
        while remaining:
            ready = [
                v
                for v in remaining
                if all((v, "out", p) in frontier for p in range(1, self.vertices[v].n_out + 1))
            ]
            if not ready:
                err = NotPlanar("no vertex has all outputs on the frontier")
                err.frontiers = frontiers + [frontier]
                raise err
            # first ready vertex with respect to the output order
            pos = {h: i for i, h in enumerate(frontier)}
            v = min(ready, key=lambda v: pos[(v, "out", 1)])
            lo = pos[(v, "out", 1)]
            new_frontier = self._extract(frontier, v)
            if new_frontier is None:
                err = NotPlanar(f"outputs of vertex {v} are not consecutive on the frontier")
                err.frontiers = frontiers + [frontier]
                raise err
            frontiers.append(frontier)
            layers.append((lo, v, len(frontier) - lo - self.vertices[v].n_out))
            order.append(v)
            remaining.remove(v)
            frontier = new_frontier
        if frontier != list(self.graph_inputs):
            err = NotPlanar("residual frontier does not match the graph input order")
            err.frontiers = frontiers + [frontier]
            raise err
        return order, layers, frontiers

    def _embed_backtrack(self, frontier: list[HalfEdge], remaining: set[int]) -> bool:
        if not remaining:
            return frontier == list(self.graph_inputs)
        for v in sorted(remaining):
            if not all((v, "out", p) in frontier for p in range(1, self.vertices[v].n_out + 1)):
                continue
            nf = self._extract(frontier, v)
            if nf is not None and self._embed_backtrack(nf, remaining - {v}):
                return True
        return False

    # -- substitution -----------------------------------------------------

    def substitute(self, v: int, inner: "PlanarGraph") -> "PlanarGraph":
        """Replace vertex v by the graph `inner` (arities must match),
        reconnecting boundary half-edges of `inner` in port order."""
        cor = self.vertices[v]
        if len(inner.graph_inputs) != cor.n_in or len(inner.graph_outputs) != cor.n_out:
            raise GraphError(
                f"arity mismatch: vertex has ({cor.n_in},{cor.n_out}), "
                f"graph has ({len(inner.graph_inputs)},{len(inner.graph_outputs)})"
            )
        outer_n = len(self.vertices)
        # outer vertices keep indices (with v removed, shifted), inner appended
        omap: dict[int, int] = {}
        k = 0
        for i in range(outer_n):
            if i == v:
                continue
            omap[i] = k
            k += 1
        imap = {i: k + i for i in range(len(inner.vertices))}

        def ren_outer(h: HalfEdge) -> HalfEdge:
            return (omap[h[0]], h[1], h[2])

        def ren_inner(h: HalfEdge) -> HalfEdge:
            return (imap[h[0]], h[1], h[2])

        # where does the wire attached to v's port p go, inside `inner`?
        inner_in = {p + 1: ren_inner(h) for p, h in enumerate(inner.graph_inputs)}
        inner_out = {p + 1: ren_inner(h) for p, h in enumerate(inner.graph_outputs)}

        def resolve(h: HalfEdge) -> HalfEdge:
            if h[0] != v:
                return ren_outer(h)
            return inner_in[h[2]] if h[1] == "in" else inner_out[h[2]]

        vertices = [self.vertices[i] for i in range(outer_n) if i != v] + list(inner.vertices)
        edges = [(resolve(a), resolve(b)) for a, b in self.edges]
        edges += [(ren_inner(a), ren_inner(b)) for a, b in inner.edges]
        return PlanarGraph(
            vertices=vertices,
            edges=edges,
            graph_inputs=[resolve(h) for h in self.graph_inputs],
            graph_outputs=[resolve(h) for h in self.graph_outputs],
        )

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "vertices": [{"in": v.n_in, "out": v.n_out, "genus": v.genus} for v in self.vertices],
            "edges": [[list(a), list(b)] for a, b in self.edges],
            "inputs": [list(h) for h in self.graph_inputs],
            "outputs": [list(h) for h in self.graph_outputs],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "PlanarGraph":
        """Raises GraphError when obj is not an object of lists, a vertex
        not an object with non-negative integer "in", "out" and optional
        "genus", an edge not a pair of half-edges, or a half-edge not a
        [vertex, "in" or "out", port] triple of that form."""
        fields = ("vertices", "edges", "inputs", "outputs")
        if not (isinstance(obj, dict) and all(isinstance(obj[k], list) for k in fields)):
            raise GraphError("a graph is a JSON object with lists vertices, edges, inputs and outputs")
        for v in obj["vertices"]:
            if not (isinstance(v, dict) and all(_natural(x) for x in (v["in"], v["out"], v.get("genus", 0)))):
                raise GraphError(f"vertex {v!r} is not an object of non-negative integers in, out and genus")
        for e in obj["edges"]:
            if not (isinstance(e, list) and len(e) == 2):
                raise GraphError(f"edge {e!r} is not a pair of half-edges")
        return cls(
            vertices=[Corolla(v["in"], v["out"], v.get("genus", 0)) for v in obj["vertices"]],
            edges=[(_half_edge(a), _half_edge(b)) for a, b in obj["edges"]],
            graph_inputs=[_half_edge(h) for h in obj["inputs"]],
            graph_outputs=[_half_edge(h) for h in obj["outputs"]],
        )


def _natural(x) -> bool:
    return type(x) is int and x >= 0


def _half_edge(x) -> HalfEdge:
    if not (isinstance(x, list) and len(x) == 3 and _natural(x[0]) and x[1] in ("in", "out") and _natural(x[2])):
        raise GraphError(f"half-edge {x!r} is not a [vertex, \"in\" or \"out\", port] triple")
    return (x[0], x[1], x[2])


def hcomp_graph(a: Corolla, b: Corolla) -> PlanarGraph:
    """Two corollas side by side (horizontal composition pattern)."""
    return PlanarGraph(
        vertices=[a, b],
        edges=[],
        graph_inputs=[(0, "in", p) for p in range(1, a.n_in + 1)]
        + [(1, "in", p) for p in range(1, b.n_in + 1)],
        graph_outputs=[(0, "out", p) for p in range(1, a.n_out + 1)]
        + [(1, "out", p) for p in range(1, b.n_out + 1)],
    )


def vcomp_graph(a: Corolla, b: Corolla) -> PlanarGraph:
    """b stacked above a: all outputs of b glued to the inputs of a in
    order; requires b.n_out == a.n_in."""
    if b.n_out != a.n_in:
        raise GraphError("inner arity mismatch for vertical composition")
    return PlanarGraph(
        vertices=[a, b],
        edges=[((1, "out", p), (0, "in", p)) for p in range(1, a.n_in + 1)],
        graph_inputs=[(1, "in", p) for p in range(1, b.n_in + 1)],
        graph_outputs=[(0, "out", p) for p in range(1, a.n_out + 1)],
    )
