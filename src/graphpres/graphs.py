"""Finite simple graphs and edge-preserving group actions on them."""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Mapping, NamedTuple, Sequence

from .perms import FiniteGroupTable, Perm, bfs_tree, generate_closure, perm


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
                 action: Sequence[Sequence[int]] | None = None,
                 generator_labels: Mapping[str, int] | None = None):
        self.graph = graph
        self.group = group
        self.action = group.elements if action is None else [perm(p) for p in action]
        if len(self.action) != group.order:
            raise ValueError("need one action permutation per group element")
        for p in self.action:
            if len(p) != graph.vertex_count:
                raise ValueError("vertex permutation degree must equal vertex_count")
        self.generator_labels = dict(generator_labels or {})
        self._stabilizers: dict[int, tuple[int, ...]] = {}
        self._carriers: dict[int, dict[int, int]] = {}

    @staticmethod
    def from_generators(graph: Graph, gens: Mapping[str, Perm]) -> ActionedGraph:
        names = list(gens)
        table = generate_closure([gens[n] for n in names])
        labels = {n: table.gen_indices[i] for i, n in enumerate(names)}
        return ActionedGraph(graph, table, None, labels)

    def apply(self, g: int, vertex: int) -> int:
        return self.action[g][vertex]

    def apply_edge(self, g: int, e: OrientedEdge) -> OrientedEdge:
        p = self.action[g]
        return OrientedEdge(p[e.origin], p[e.target])

    def stabilizer(self, v: int) -> tuple[int, ...]:
        """Indices of the elements fixing the vertex v, in increasing order."""
        if v not in self._stabilizers:
            self._stabilizers[v] = tuple(
                i for i, p in enumerate(self.action) if p[v] == v)
        return self._stabilizers[v]

    def carriers(self, v: int) -> dict[int, int]:
        """`first_carriers` of the vertex v over all elements: each vertex of
        its orbit -> the least-index element carrying v there."""
        if v not in self._carriers:
            found: dict[int, int] = {}
            for i, p in enumerate(self.action):
                found.setdefault(p[v], i)
            self._carriers[v] = found
        return self._carriers[v]

    def edge_stabilizer(self, e: OrientedEdge) -> tuple[int, ...]:
        """Elements fixing both endpoints of e."""
        if not self.graph.has_edge(e.origin, e.target):
            raise ValueError(f"{e} is not an edge")
        return tuple(i for i in self.stabilizer(e.origin)
                     if self.action[i][e.target] == e.target)


def degree_problem(vertex_count: int, gens: Mapping[str, Perm]) -> str | None:
    """The first reason the generators cannot permute `vertex_count`
    vertices, or None; it needs no Graph, so a file's vertex count can be
    checked before one is allocated."""
    if vertex_count < 1:
        return "the graph has no vertices"
    if not gens:
        return "no generators"
    for name, p in gens.items():
        if len(p) != vertex_count:
            return f"generator {name} permutes {len(p)} points, the graph has {vertex_count} vertices"
    return None


def validate_action(graph: Graph, gens: Mapping[str, Perm],
                    loops: Iterable[Sequence[int]] = ()) -> str | None:
    """The first reason the data do not describe a graph action, or None.

    The graph must have a vertex and be connected, every generator must
    permute its vertices and map edges to edges, and every loop must walk
    along edges.  Checking the generators is enough: products and inverses
    of edge-preserving permutations preserve edges.
    """
    problem = degree_problem(graph.vertex_count, gens)
    if problem is not None:
        return problem
    edges = sorted(graph.edges)
    for name, p in gens.items():
        for u, v in edges:
            if not graph.has_edge(p[u], p[v]):
                return f"generator {name} maps the edge ({u},{v}) to a non-edge"
    if not graph.is_connected():
        return "the graph is not connected"
    return loop_problem(graph, loops)


def loop_problem(graph: Graph, loops: Iterable[Sequence[int]]) -> str | None:
    """The first loop that is empty or steps between non-adjacent vertices,
    as a reason, or None."""
    for loop in loops:
        if not loop or not all(graph.has_edge(a, b) for a, b in zip(loop, loop[1:])):
            return f"loop {list(loop)} does not walk along edges"
    return None


def first_carriers(elements: Iterable, act: Callable[[object, Hashable], Hashable],
                   x: Hashable) -> dict:
    """Each image of x -> the first of the elements carrying x there, by
    act(element, x), in order of first occurrence.  Every orbit, carrier and
    transversal of the package is read off this search."""
    carriers: dict = {}
    for g in elements:
        carriers.setdefault(act(g, x), g)
    return carriers


def vertex_orbits(ag: ActionedGraph) -> list[tuple[int, ...]]:
    """Orbit partition of the vertices, ordered by least representative."""
    seen: set[int] = set()
    orbits = []
    for v in range(ag.graph.vertex_count):
        if v not in seen:
            orbits.append(orbit_of_vertex(ag, v))
            seen.update(orbits[-1])
    return orbits


def orbit_of_vertex(ag: ActionedGraph, v: int) -> tuple[int, ...]:
    return tuple(sorted(ag.carriers(v)))


def find_inversion(ag: ActionedGraph, e: OrientedEdge) -> int | None:
    """Least-index element swapping the endpoints of e, or None."""
    for i, p in enumerate(ag.action):
        if p[e.origin] == e.target and p[e.target] == e.origin:
            return i
    return None


def edge_orbits_at(ag: ActionedGraph, v: int) -> list[tuple[OrientedEdge, ...]]:
    """Orbits of the stabilizer of v on the oriented edges with origin v,
    ordered by least edge."""
    stab = ag.stabilizer(v)
    remaining = set(ag.graph.oriented_edges_at(v))
    orbits = []
    while remaining:
        orbits.append(tuple(sorted(first_carriers(stab, ag.apply_edge, min(remaining)))))
        remaining.difference_update(orbits[-1])
    return orbits


class CycleSpace:
    """A growing GF(2) span of closed walks in a graph, kept as an echelon
    basis.  Edges get integer ids in sorted order, and a walk's mask has bit
    k set when it walks edge k an odd number of times.  The span is full at
    the rank |E| - |V| + 1 of the cycle space of a connected graph; `cells`
    are the walks inserted, one per basis vector."""

    def __init__(self, graph: Graph):
        self.ids: dict[tuple[int, int], int] = {}
        for k, (u, w) in enumerate(sorted(graph.edges)):
            self.ids[u, w] = self.ids[w, u] = k
        self.rank = len(graph.edges) - graph.vertex_count + 1
        self.basis: dict[int, int] = {}  # leading bit -> vector
        self.cells: list[list[int]] = []

    def mask(self, walk: Sequence[int]) -> int:
        m = 0
        for step in zip(walk, walk[1:]):
            m ^= 1 << self.ids[step]
        return m

    def reduce(self, m: int) -> int:
        """The mask less basis vectors: 0 exactly when the span holds it."""
        basis = self.basis
        while m:
            v = basis.get(m.bit_length() - 1)
            if v is None:
                break
            m ^= v
        return m

    def full(self) -> bool:
        return len(self.basis) == self.rank

    def insert_translates(self, walk: Sequence[int], action: Iterable[Perm]) -> None:
        """Insert each translate of the walk, in the order of `action`, that
        is outside the span, as a cell, until the span is full."""
        for p in action:
            if self.full():
                return
            translate = [p[x] for x in walk]
            m = self.reduce(self.mask(translate))
            if m:
                self.basis[m.bit_length() - 1] = m
                self.cells.append(translate)

    def collapses(self) -> bool:
        """Can the 2-cells attached along the cells all be removed, one at a
        time, each through a free edge: an edge the cell walks exactly once
        and no other remaining cell walks at all?"""
        ids, uses = self.ids, []  # per cell: edge id -> times walked
        total = [0] * (len(ids) // 2)  # ids holds both orientations of an edge
        users: list[list[int]] = [[] for _ in total]
        for k, cell in enumerate(self.cells):
            counts: dict[int, int] = {}
            for step in zip(cell, cell[1:]):
                e = ids[step]
                counts[e] = counts.get(e, 0) + 1
            uses.append(counts)
            for e, n in counts.items():
                total[e] += n
                users[e].append(k)
        live = set(range(len(self.cells)))
        free = [e for e, n in enumerate(total) if n == 1]
        while free:
            e = free.pop()
            if total[e] != 1:
                continue
            # one remaining cell walks e, and walks it once
            (k,) = (k for k in users[e] if k in live)
            live.remove(k)
            for f, n in uses[k].items():
                total[f] -= n
                if total[f] == 1:
                    free.append(f)
        return not live
