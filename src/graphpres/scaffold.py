"""Scaffoldings: the bundle of choices turning a graph action into relations.

A scaffolding fixes orbit representatives for vertices and oriented edges,
for every oriented edge e with origin in the representative set an element
s_e carrying the base vertex of its far endpoint to that endpoint, and the
decomposition e = u(e0) of each such edge by a representative e0 and an
element u fixing the origin.  `build_regular_scaffolding` makes the
canonical deterministic choices satisfying the regularity conditions
(i)-(iv) checked by `validate_regularity`.
"""

from __future__ import annotations

import heapq
from typing import NamedTuple

from .graphs import (ActionedGraph, OrientedEdge, edge_orbits_at, find_inversion,
                     first_carriers, orbit_of_vertex, vertex_orbits)


class Scaffolding(NamedTuple):
    """Each choice is stored once; the representatives E0 are the keys of
    `iota`."""

    base_vertices: tuple[int, ...]                      # V, one per vertex orbit
    base_of: dict[int, int]                             # x -> v(x), the base vertex of its orbit
    tree_edges: tuple[tuple[int, int], ...]             # undirected edges of the subtree A on V
    pair_reps: tuple[OrientedEdge, ...]                 # E1, the sorted e in E0 with is_pair_rep(e)
    s: dict[OrientedEdge, int]                          # e -> s_e, carrying base_of[target(e)] to target(e)
    iota: dict[OrientedEdge, OrientedEdge]              # the reversal pairing on E0
    rep_decomposition: dict[OrientedEdge, tuple[OrientedEdge, int]]
    # e -> (representative e0, element u of G_origin) with u(e0) = e

    def is_pair_rep(self, e: OrientedEdge) -> bool:
        """Is the representative e in the pairing set E1, e <= iota(e)?"""
        return e <= self.iota[e]

    def oriented_tree_edges(self) -> tuple[OrientedEdge, ...]:
        out = []
        for u, w in self.tree_edges:
            out.append(OrientedEdge(u, w))
            out.append(OrientedEdge(w, u))
        return tuple(sorted(out))


class DisconnectedGraphError(ValueError):
    pass


def build_spanning_tree(ag: ActionedGraph) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """A subtree whose vertices represent the vertex orbits, grown greedily.

    Deterministic: starts at vertex 0 and always adds the least available
    (tree vertex, new neighbor) edge whose far end lies in an orbit not yet
    represented.  For a transitive action this is the single vertex 0.  The
    candidates wait in one heap, each vertex's listed when it joins; one
    whose far orbit got covered since is dropped when it comes up.
    """
    if not ag.graph.is_connected():
        raise DisconnectedGraphError("graph must be connected")
    partition = vertex_orbits(ag)
    orbits = {v: i for i, orbit in enumerate(partition) for v in orbit}
    n_orbits = len(partition)
    tree_vertices = [0]
    covered = {orbits[0]}
    tree_edges: list[tuple[int, int]] = []
    frontier = [(0, w) for w in ag.graph.neighbors(0)]
    heapq.heapify(frontier)
    while len(covered) < n_orbits:
        if not frontier:
            raise RuntimeError("no extension found; action data is inconsistent")
        u, w = heapq.heappop(frontier)
        if orbits[w] in covered:
            continue
        tree_vertices.append(w)
        tree_edges.append((u, w))
        covered.add(orbits[w])
        for x in ag.graph.neighbors(w):
            heapq.heappush(frontier, (w, x))
    return tuple(sorted(tree_vertices)), tuple(sorted(tree_edges))


def build_regular_scaffolding(ag: ActionedGraph) -> Scaffolding:
    """Construct the canonical regular scaffolding of a validated action.

    Choices, in one pass: tree edges keep s = 1 and represent their own
    orbits; the other orbits are visited by least edge, skipping those
    already represented.  An orbit admitting an inversion gets its least
    edge with the least-index inversion as s; any other orbit is primary in
    its reversal pair, its least edge choosing s freely (the least-index
    carrier, `ActionedGraph.carriers`) and forcing the partner's
    representative and s.  Every other edge d at a base vertex v is u(e0)
    for its representative e0 and the first carrier u in G_v
    (`first_carriers`), and inherits s from e0 through u.
    """
    base_vertices, tree_edges = build_spanning_tree(ag)
    group = ag.group
    orbit_of = {e: orbit for v in base_vertices
                for orbit in edge_orbits_at(ag, v) for e in orbit}
    base_of = {w: v for v in base_vertices for w in orbit_of_vertex(ag, v)}

    represented: set[tuple[OrientedEdge, ...]] = set()
    s: dict[OrientedEdge, int] = {}
    iota: dict[OrientedEdge, OrientedEdge] = {}
    for u, w in tree_edges:
        for e in (OrientedEdge(u, w), OrientedEdge(w, u)):
            represented.add(orbit_of[e])
            s[e] = 0
            iota[e] = e.reverse()

    for orbit in sorted(set(orbit_of.values())):
        if orbit in represented:
            continue
        rep = orbit[0]
        if (inversion := find_inversion(ag, rep)) is not None:
            s[rep] = inversion
            iota[rep] = rep
            continue
        s[rep] = ag.carriers(base_of[rep.target])[rep.target]
        partner = ag.apply_edge(group.inverse(s[rep]), rep.reverse())
        if orbit_of[partner] == orbit:
            raise RuntimeError(f"pairing failed at {rep}")
        represented.add(orbit_of[partner])
        s[partner] = group.inverse(s[rep])
        iota[rep] = partner
        iota[partner] = rep

    # propagation of s over each orbit, representatives in sorted order (so
    # grouped by base vertex): conjugation when the far endpoint shares the
    # origin's orbit (then u fixes the base vertex), plain translation
    # u s_e across orbits (then k(e,u) = 1)
    rep_decomposition: dict[OrientedEdge, tuple[OrientedEdge, int]] = {}
    for rep in sorted(iota):
        stab = ag.stabilizer(rep.origin)
        same_orbit = base_of[rep.target] == rep.origin
        carried = first_carriers(stab, ag.apply_edge, rep)
        for d, u in carried.items():
            rep_decomposition[d] = (rep, u)
            if d != rep:
                if same_orbit:
                    s[d] = group.word_product((u, s[rep], group.inverse(u)))
                else:
                    s[d] = group.product(u, s[rep])
        if len(carried) * len(ag.edge_stabilizer(rep)) != len(stab):
            raise RuntimeError("transversal size mismatch")

    sc = Scaffolding(base_vertices, base_of, tree_edges, (), s, iota, rep_decomposition)
    return sc._replace(pair_reps=tuple(sorted(filter(sc.is_pair_rep, iota))))


class RegularityViolation(NamedTuple):
    condition: str
    edge: OrientedEdge
    element: int | None = None
    detail: str = ""


def validate_regularity(sc: Scaffolding, ag: ActionedGraph) -> RegularityViolation | None:
    """Exhaustively check the regularity conditions; None when all hold.

    (0) every s_e carries base_of[target(e)], a base vertex, to target(e),
        and each representative (key of iota) has an s_e;
    (i) a representative admitting an inversion has an inversion as s_e and
        is paired with itself;
    (ii) otherwise s_e^{-1}(reversed e) is a representative with s = s_e^{-1},
         and iota pairs the two both ways; pair_reps are the sorted
         representatives e with e <= iota(e);
    (iii) the decomposed edges and the edges with an s are the oriented
          edges whose origin is a base vertex, each d = u(e0) with
          e0 a representative and u fixing its origin, and s_d = u s_{e0} u^{-1}
          when the far endpoint shares the origin's orbit, s_d = u s_{e0}
          across orbits (conjugation cannot carry the base vertex correctly
          there);
    (iv) oriented tree edges are representatives with s = 1.
    """
    group = ag.group
    for e, se in sorted(sc.s.items()):
        w = sc.base_of.get(e.target)
        if w is None or sc.base_of.get(w) != w or ag.apply(se, w) != e.target:
            return RegularityViolation("0", e, se, "s_e does not carry a base vertex to the target")
    for e in sorted(sc.iota):
        if e not in sc.s:
            return RegularityViolation("0", e, None, "representative without s_e")
        se = sc.s[e]
        if find_inversion(ag, e) is not None:
            p = ag.action[se]
            if not (p[e.origin] == e.target and p[e.target] == e.origin):
                return RegularityViolation("i", e, se, "s_e is not an inversion")
            if sc.iota[e] != e:
                return RegularityViolation("i", e, se, "inverted edge is not paired with itself")
        else:
            partner = ag.apply_edge(group.inverse(se), e.reverse())
            if partner not in sc.iota:
                return RegularityViolation("ii", e, se, "paired edge is not a representative")
            if sc.s.get(partner) != group.inverse(se):
                return RegularityViolation("ii", e, se, "paired edge has s != s_e^{-1}")
            if sc.iota[e] != partner or sc.iota[partner] != e:
                return RegularityViolation("ii", e, se,
                                           f"iota does not pair it with {tuple(partner)}")
    pair_reps = tuple(sorted(filter(sc.is_pair_rep, sc.iota)))
    if tuple(sc.pair_reps) != pair_reps:
        e = min(set(sc.pair_reps).symmetric_difference(pair_reps), default=pair_reps[0])
        return RegularityViolation("ii", e, None, "pair_reps are not the e <= iota(e)")
    vertices = range(ag.graph.vertex_count)  # a base vertex off the graph has no edges
    at_base = {e for v in sc.base_vertices if v in vertices
               for e in ag.graph.oriented_edges_at(v)}
    for edges, what in ((sc.s, "edges with s"), (sc.rep_decomposition, "decomposed edges")):
        if set(edges) != at_base:
            e = min(at_base.symmetric_difference(edges))
            return RegularityViolation("iii", e, None, f"{what} are not the edges at base vertices")
    for d, (e, u) in sorted(sc.rep_decomposition.items()):
        if e not in sc.iota:
            return RegularityViolation("iii", d, u, f"{tuple(e)} is not a representative")
        if ag.apply(u, e.origin) != e.origin or ag.apply_edge(u, e) != d:
            return RegularityViolation("iii", d, u,
                                       f"not u{tuple(e)} with u fixing the origin")
        if sc.base_of[e.target] == e.origin:
            expected = group.word_product((u, sc.s[e], group.inverse(u)))
        else:
            expected = group.product(u, sc.s[e])
        if sc.s[d] != expected:
            return RegularityViolation("iii", e, u,
                                       f"s of {tuple(d)} is not propagated from {tuple(e)}")
    for e in sc.oriented_tree_edges():
        if e not in sc.iota:
            return RegularityViolation("iv", e, None, "tree edge is not a representative")
        if sc.s[e] != 0:
            return RegularityViolation("iv", e, sc.s[e], "tree edge with s != 1")
    return None
