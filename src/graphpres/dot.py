"""Cayley diagrams and plain graphs as DOT text, plus a small isomorphism
checker used to compare the diagrams with polyhedral graphs."""

from __future__ import annotations

from typing import Mapping

from .graphs import Graph
from .perms import FiniteGroupTable, bfs_tree


def export_cayley_dot(table: FiniteGroupTable, gens: Mapping[str, int]) -> str:
    """DOT text of the Cayley diagram: one vertex per element, an edge from
    each element a to a*s labeled s, with order-2 generators drawn as single
    undirected edges.

    A non-generating set still yields the diagram of the subgroup it
    generates (the identity's component).
    """
    vertices = table.subgroup_closure(gens.values())
    vset = set(vertices)
    lines = ["digraph cayley {", "    node [shape=circle];"]
    for a in vertices:
        lines.append(f"    {a};")
    for name, s in gens.items():
        involutive = table.element_order(s) == 2
        for a in vertices:
            b = table.product(a, s)
            assert b in vset
            if involutive:
                if a < b:
                    lines.append(f'    {a} -> {b} [label="{name}", dir=none];')
            else:
                lines.append(f'    {a} -> {b} [label="{name}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def cayley_underlying_graph(table: FiniteGroupTable, gens: Mapping[str, int]) -> Graph:
    """The undirected graph beneath the Cayley diagram (vertices renumbered
    along the identity's component in increasing element order)."""
    vertices = table.subgroup_closure(gens.values())
    renumber = {a: i for i, a in enumerate(vertices)}
    edges = set()
    for s in gens.values():
        for a in vertices:
            b = table.product(a, s)
            if a != b:
                edges.add((min(renumber[a], renumber[b]), max(renumber[a], renumber[b])))
    return Graph(len(vertices), edges)


def export_graph_dot(graph: Graph) -> str:
    lines = ["graph g {"]
    for v in range(graph.vertex_count):
        lines.append(f"    {v};")
    for u, w in sorted(graph.edges):
        lines.append(f"    {u} -- {w};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _refine_colors(graph: Graph) -> list[int]:
    colors = [graph.degree(v) for v in range(graph.vertex_count)]
    while True:
        signature = [(colors[v], tuple(sorted(colors[w] for w in graph.neighbors(v))))
                     for v in range(graph.vertex_count)]
        palette = {sig: i for i, sig in enumerate(sorted(set(signature)))}
        new = [palette[sig] for sig in signature]
        if new == colors:
            return colors
        colors = new


def graph_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Backtracking isomorphism test with color refinement, exact."""
    if g1.vertex_count != g2.vertex_count or len(g1.edges) != len(g2.edges):
        return False
    n = g1.vertex_count
    if n == 0:
        return True
    c1, c2 = _refine_colors(g1), _refine_colors(g2)
    if sorted(c1) != sorted(c2):
        return False

    # assign vertices of g1 in a connectivity-friendly order
    order: list[int] = []
    placed: set[int] = set()
    for start in range(n):
        if start not in placed:
            component = bfs_tree(start, lambda u: [(w, w) for w in g1.neighbors(u)])
            order.extend(component)
            placed.update(component)

    mapping: dict[int, int] = {}
    used: set[int] = set()

    def candidates(u: int) -> list[int]:
        mapped_neighbors = [mapping[w] for w in g1.neighbors(u) if w in mapping]
        if mapped_neighbors:
            pool = set(g2.neighbors(mapped_neighbors[0]))
            for m in mapped_neighbors[1:]:
                pool &= set(g2.neighbors(m))
        else:
            pool = set(range(n))
        return sorted(v for v in pool
                      if v not in used and c2[v] == c1[u]
                      and g2.degree(v) == g1.degree(u))

    def extend(k: int) -> bool:
        if k == len(order):
            return True
        u = order[k]
        for v in candidates(u):
            ok = all(g2.has_edge(v, mapping[w]) == g1.has_edge(u, w)
                     for w in mapping)
            if not ok:
                continue
            mapping[u] = v
            used.add(v)
            if extend(k + 1):
                return True
            del mapping[u]
            used.remove(v)
        return False

    return extend(0)
