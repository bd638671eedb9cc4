"""Finite simple graphs and edge-preserving group actions on them."""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple, Sequence

from .perms import FiniteGroupTable, Perm, bfs_tree, generate_closure


class OrientedEdge(NamedTuple):
    origin: int
    target: int

    def reverse(self) -> OrientedEdge:
        return OrientedEdge(self.target, self.origin)


class Graph:
    """Undirected graph without loops or multiple edges."""

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]]):
        self.vertex_count = vertex_count
        es = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(f"edge ({u},{v}) out of range")
            es.add((min(u, v), max(u, v)))
        self.edges = frozenset(es)
        adj: list[list[int]] = [[] for _ in range(vertex_count)]
        for u, v in es:
            adj[u].append(v)
            adj[v].append(u)
        self.adjacency = [tuple(sorted(ns)) for ns in adj]

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def oriented_edges_at(self, v: int) -> list[OrientedEdge]:
        return [OrientedEdge(v, w) for w in self.adjacency[v]]

    def is_connected(self) -> bool:
        if self.vertex_count == 0:
            return True
        reached = bfs_tree(0, lambda u: [(w, w) for w in self.adjacency[u]])
        return len(reached) == self.vertex_count

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Graph) and self.vertex_count == other.vertex_count
                and self.edges == other.edges)

    def __repr__(self) -> str:
        return f"Graph({self.vertex_count}, {len(self.edges)} edges)"


class ActionedGraph:
    """A graph together with an action of a finite group on it.

    The group is carried by a FiniteGroupTable; `action[i]` is the vertex
    permutation by which element i acts.  For faithful permutation actions
    the carriers and the action coincide, but e.g. a double cover acts
    through a quotient, so the two are kept separate.
    """

    def __init__(self, graph: Graph, group: FiniteGroupTable,
                 action: Sequence[Perm] | None = None,
                 generator_labels: Mapping[str, int] | None = None):
        self.graph = graph
        self.group = group
        if action is None:
            action = group.elements
        self.action = list(action)
        if len(self.action) != group.order:
            raise ValueError("need one action permutation per group element")
        for p in self.action:
            if p.degree != graph.vertex_count:
                raise ValueError("vertex permutation degree must equal vertex_count")
        self.generator_labels = dict(generator_labels or {})
        self._stabilizers: dict[int, tuple[int, ...]] = {}

    @staticmethod
    def from_generators(graph: Graph, gens: Mapping[str, Perm], limit: int = 100_000) -> ActionedGraph:
        names = list(gens)
        table = generate_closure([gens[n] for n in names], limit=limit)
        labels = {n: table.gen_indices[i] for i, n in enumerate(names)}
        return ActionedGraph(graph, table, None, labels)

    def apply(self, g: int, vertex: int) -> int:
        return self.action[g](vertex)

    def apply_edge(self, g: int, e: OrientedEdge) -> OrientedEdge:
        p = self.action[g]
        return OrientedEdge(p(e.origin), p(e.target))

    def kernel(self) -> tuple[int, ...]:
        return tuple(i for i, p in enumerate(self.action) if p.is_identity())

    def stabilizer(self, v: int) -> tuple[int, ...]:
        """Indices of the elements fixing the vertex v, in increasing order."""
        if v not in self._stabilizers:
            self._stabilizers[v] = tuple(
                i for i, p in enumerate(self.action) if p(v) == v)
        return self._stabilizers[v]

    def edge_stabilizer(self, e: OrientedEdge) -> tuple[int, ...]:
        """Elements fixing both endpoints of e."""
        if not self.graph.has_edge(e.origin, e.target):
            raise ValueError(f"{e} is not an edge")
        return tuple(i for i in self.stabilizer(e.origin)
                     if self.action[i](e.target) == e.target)


def validate_action(graph: Graph, gens: Mapping[str, Perm],
                    loops: Iterable[Sequence[int]] = ()) -> str | None:
    """The first reason the data do not describe a graph action, or None.

    The graph must have a vertex and be connected, every generator must
    permute its vertices and map edges to edges, and every loop must walk
    along edges.  Checking the generators is enough: products and inverses
    of edge-preserving permutations preserve edges.
    """
    if graph.vertex_count < 1:
        return "the graph has no vertices"
    if not gens:
        return "no generators"
    edges = sorted(graph.edges)
    for name, p in gens.items():
        if p.degree != graph.vertex_count:
            return (f"generator {name} permutes {p.degree} points, "
                    f"the graph has {graph.vertex_count} vertices")
        for u, v in edges:
            if not graph.has_edge(p(u), p(v)):
                return f"generator {name} maps the edge ({u},{v}) to a non-edge"
    if not graph.is_connected():
        return "the graph is not connected"
    for loop in loops:
        if not loop or not all(graph.has_edge(a, b) for a, b in zip(loop, loop[1:])):
            return f"loop {list(loop)} does not walk along edges"
    return None


def vertex_orbits(ag: ActionedGraph) -> list[tuple[int, ...]]:
    """Orbit partition of the vertices, ordered by least representative."""
    n = ag.graph.vertex_count
    seen = [False] * n
    orbits = []
    for v in range(n):
        if seen[v]:
            continue
        orbit = sorted({p(v) for p in ag.action})
        for w in orbit:
            seen[w] = True
        orbits.append(tuple(orbit))
    return orbits


def orbit_of_vertex(ag: ActionedGraph, v: int) -> tuple[int, ...]:
    return tuple(sorted({p(v) for p in ag.action}))


def find_inversion(ag: ActionedGraph, e: OrientedEdge) -> int | None:
    """Least-index element swapping the endpoints of e, or None."""
    for i, p in enumerate(ag.action):
        if p(e.origin) == e.target and p(e.target) == e.origin:
            return i
    return None


def edge_orbits_at(ag: ActionedGraph, v: int) -> list[tuple[OrientedEdge, ...]]:
    """Orbits of the stabilizer of v on the oriented edges with origin v."""
    stab = ag.stabilizer(v)
    remaining = set(ag.graph.oriented_edges_at(v))
    orbits = []
    while remaining:
        e = min(remaining)
        orbit = sorted({ag.apply_edge(t, e) for t in stab})
        remaining.difference_update(orbit)
        orbits.append(tuple(orbit))
    orbits.sort(key=lambda orb: orb[0])
    return orbits
