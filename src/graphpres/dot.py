"""Cayley diagrams and plain graphs as DOT text."""

from __future__ import annotations

from typing import Mapping

from .graphs import Graph
from .perms import FiniteGroupTable


def export_cayley_dot(table: FiniteGroupTable, gens: Mapping[str, int]) -> str:
    """DOT text of the Cayley diagram: one vertex per element, an edge from
    each element a to a*s labeled s, with order-2 generators drawn as single
    undirected edges.

    A non-generating set still yields the diagram of the subgroup it
    generates (the identity's component).
    """
    vertices = table.subgroup_closure(gens.values())
    lines = ["digraph cayley {", "    node [shape=circle];"]
    for a in vertices:
        lines.append(f"    {a};")
    for name, s in gens.items():
        involutive = table.element_order(s) == 2
        for a in vertices:
            b = table.product(a, s)
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

