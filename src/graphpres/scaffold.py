"""Scaffoldings: the bundle of choices turning a graph action into relations.

A scaffolding fixes orbit representatives for vertices and oriented edges,
coset transversals inside the vertex stabilizers, and for every oriented
edge e with origin in the representative set an element s_e carrying the
base vertex of its far endpoint to that endpoint.  `build_regular_scaffolding`
makes the canonical deterministic choices satisfying the regularity
conditions (i)-(iv) checked by `validate_regularity`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from .graphs import (ActionedGraph, OrientedEdge, edge_orbits_at, find_inversion,
                     orbit_of_vertex, vertex_orbits)


@dataclass(frozen=True)
class Scaffolding:
    base_vertices: tuple[int, ...]                      # V, one per vertex orbit
    tree_edges: tuple[tuple[int, int], ...]             # undirected edges of the subtree A on V
    edge_reps: dict[int, tuple[OrientedEdge, ...]]      # per base vertex: orbit representatives (E0)
    pair_reps: tuple[OrientedEdge, ...]                 # one per reversal-pairing orbit (E1)
    transversals: dict[OrientedEdge, tuple[int, ...]]   # per representative: coset reps in G_v / G_e
    s: dict[OrientedEdge, int]                          # e -> element with s_e(v_of(e)) = target(e)
    v_of: dict[OrientedEdge, int]                       # e -> base vertex of the orbit of target(e)
    iota: dict[OrientedEdge, OrientedEdge]              # pairing on E0
    rep_decomposition: dict[OrientedEdge, tuple[OrientedEdge, int]] = field(default_factory=dict)
    # e -> (representative e0, transversal element u) with u(e0) = e

    @property
    def all_reps(self) -> tuple[OrientedEdge, ...]:
        return tuple(e for v in self.base_vertices for e in self.edge_reps[v])

    @property
    def edges(self) -> tuple[OrientedEdge, ...]:
        return tuple(sorted(self.s))

    def oriented_tree_edges(self) -> tuple[OrientedEdge, ...]:
        out = []
        for u, w in self.tree_edges:
            out.append(OrientedEdge(u, w))
            out.append(OrientedEdge(w, u))
        return tuple(sorted(out))

    def is_tree_edge(self, e: OrientedEdge) -> bool:
        return (min(e), max(e)) in {(min(t), max(t)) for t in self.tree_edges}


def scaffolding_to_json(sc: Scaffolding) -> dict:
    """Plain-data form (element indices and edge lists) for golden files."""
    def edge(e: OrientedEdge) -> list[int]:
        return [e.origin, e.target]

    return {
        "base_vertices": list(sc.base_vertices),
        "tree_edges": [list(t) for t in sc.tree_edges],
        "edge_reps": {str(v): [edge(e) for e in reps]
                      for v, reps in sorted(sc.edge_reps.items())},
        "pair_reps": [edge(e) for e in sc.pair_reps],
        "transversals": [[edge(e), list(us)] for e, us in sorted(sc.transversals.items())],
        "s": [[edge(e), g] for e, g in sorted(sc.s.items())],
        "pairing": [[edge(e), edge(d)] for e, d in sorted(sc.iota.items())],
    }


class DisconnectedGraphError(ValueError):
    pass


def build_spanning_tree(ag: ActionedGraph) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """A subtree whose vertices represent the vertex orbits, grown greedily.

    Deterministic: starts at vertex 0 and always adds the least available
    (tree vertex, new neighbor) edge whose far end lies in an orbit not yet
    represented.  For a transitive action this is the single vertex 0.
    """
    if not ag.graph.is_connected():
        raise DisconnectedGraphError("graph must be connected")
    partition = vertex_orbits(ag)
    orbits = {v: i for i, orbit in enumerate(partition) for v in orbit}
    n_orbits = len(partition)
    tree_vertices = [0]
    covered = {orbits[0]}
    tree_edges: list[tuple[int, int]] = []
    while len(covered) < n_orbits:
        candidates = [(u, w) for u in tree_vertices
                      for w in ag.graph.neighbors(u) if orbits[w] not in covered]
        if not candidates:
            raise RuntimeError("no extension found; action data is inconsistent")
        u, w = min(candidates)
        tree_vertices.append(w)
        tree_edges.append((u, w))
        covered.add(orbits[w])
    return tuple(sorted(tree_vertices)), tuple(sorted(tree_edges))


def build_regular_scaffolding(ag: ActionedGraph) -> Scaffolding:
    """Construct the canonical regular scaffolding of a validated action.

    Choices, in one pass: tree edges keep s = 1 and represent their own
    orbits; the other orbits are visited by least edge, skipping those
    already represented.  An orbit admitting an inversion gets its least
    edge with the least-index inversion as s; any other orbit is primary in
    its reversal pair, its least edge choosing s freely (least index) and
    forcing the partner's representative and s.  All non-representative
    edges inherit s by transversal conjugation.
    """
    base_vertices, tree_edges = build_spanning_tree(ag)
    group = ag.group
    orbit_of = {e: orbit for v in base_vertices
                for orbit in edge_orbits_at(ag, v) for e in orbit}
    # the base vertex of each vertex's orbit
    base_of = {w: v for v in base_vertices for w in orbit_of_vertex(ag, v)}

    def least_carrier(e: OrientedEdge) -> int:
        """Least-index element taking v_of(e) to target(e)."""
        w = base_of[e.target]
        for i, p in enumerate(ag.action):
            if p(w) == e.target:
                return i
        raise RuntimeError("no carrier element; orbit data inconsistent")

    rep_of: dict[tuple[OrientedEdge, ...], OrientedEdge] = {}
    s: dict[OrientedEdge, int] = {}
    iota: dict[OrientedEdge, OrientedEdge] = {}
    for u, w in tree_edges:
        for e in (OrientedEdge(u, w), OrientedEdge(w, u)):
            rep_of[orbit_of[e]] = e
            s[e] = 0
            iota[e] = e.reverse()

    for orbit in sorted(set(orbit_of.values())):
        if orbit in rep_of:
            continue
        rep = rep_of[orbit] = orbit[0]
        if (inversion := find_inversion(ag, rep)) is not None:
            s[rep] = inversion
            iota[rep] = rep
            continue
        s[rep] = least_carrier(rep)
        partner = ag.apply_edge(group.inverse(s[rep]), rep.reverse())
        if orbit_of[partner] == orbit:
            raise RuntimeError(f"pairing failed at {rep}")
        rep_of[orbit_of[partner]] = partner
        s[partner] = group.inverse(s[rep])
        iota[rep] = partner
        iota[partner] = rep

    pair_reps = tuple(sorted(e for e in iota if e <= iota[e]))
    edge_reps = {v: tuple(sorted(e for e in rep_of.values() if e.origin == v))
                 for v in base_vertices}

    # transversals and propagation of s over each orbit: conjugation when the
    # far endpoint shares the origin's orbit (then u fixes the base vertex),
    # plain translation u s_e across orbits (then k(e,u) = 1)
    transversals: dict[OrientedEdge, tuple[int, ...]] = {}
    rep_decomposition: dict[OrientedEdge, tuple[OrientedEdge, int]] = {}
    for v in base_vertices:
        stab = ag.stabilizer(v)
        for rep in edge_reps[v]:
            same_orbit = base_of[rep.target] == v
            trans: list[int] = []
            covered: set[OrientedEdge] = set()
            for u in stab:
                d = ag.apply_edge(u, rep)
                if d in covered:
                    continue
                trans.append(u)
                covered.add(d)
                rep_decomposition[d] = (rep, u)
                if d != rep:
                    if same_orbit:
                        s[d] = group.word_product((u, s[rep], group.inverse(u)))
                    else:
                        s[d] = group.product(u, s[rep])
            if len(trans) * len(ag.edge_stabilizer(rep)) != len(stab):
                raise RuntimeError("transversal size mismatch")
            transversals[rep] = tuple(trans)

    v_of = {e: base_of[e.target] for e in s}
    return Scaffolding(base_vertices, tree_edges, edge_reps, pair_reps,
                       transversals, s, v_of, iota, rep_decomposition)


@dataclass(frozen=True)
class RegularityViolation:
    condition: str
    edge: OrientedEdge
    element: int | None = None
    detail: str = ""


def validate_regularity(sc: Scaffolding, ag: ActionedGraph) -> RegularityViolation | None:
    """Exhaustively check the regularity conditions; None when all hold.

    (0) every s_e carries v_of(e) to target(e);
    (i) a representative admitting an inversion has an inversion as s_e;
    (ii) otherwise s_e^{-1}(reversed e) is a representative with s = s_e^{-1};
    (iii) s_{u(e)} = u s_e u^{-1} over each transversal when the far endpoint
          shares the origin's orbit, and s_{u(e)} = u s_e across orbits
          (conjugation cannot carry the base vertex correctly there);
    (iv) oriented tree edges are representatives with s = 1.
    """
    group = ag.group
    for e, se in sorted(sc.s.items()):
        if ag.apply(se, sc.v_of[e]) != e.target:
            return RegularityViolation("0", e, se, "s_e does not carry the base vertex to the target")
    rep_set = set(sc.all_reps)
    for e in sorted(rep_set):
        se = sc.s[e]
        if find_inversion(ag, e) is not None:
            p = ag.action[se]
            if not (p(e.origin) == e.target and p(e.target) == e.origin):
                return RegularityViolation("i", e, se, "s_e is not an inversion")
        else:
            partner = ag.apply_edge(group.inverse(se), e.reverse())
            if partner not in rep_set:
                return RegularityViolation("ii", e, se, "paired edge is not a representative")
            if sc.s[partner] != group.inverse(se):
                return RegularityViolation("ii", e, se, "paired edge has s != s_e^{-1}")
    for e in sorted(rep_set):
        same_orbit = sc.v_of[e] == e.origin
        for u in sc.transversals[e]:
            d = ag.apply_edge(u, e)
            if same_orbit:
                expected = group.word_product((u, sc.s[e], group.inverse(u)))
            else:
                expected = group.product(u, sc.s[e])
            if sc.s.get(d) != expected:
                return RegularityViolation("iii", e, u, f"s of {d} is not propagated from {e}")
    for e in sc.oriented_tree_edges():
        if e not in rep_set:
            return RegularityViolation("iv", e, None, "tree edge is not a representative")
        if sc.s[e] != 0:
            return RegularityViolation("iv", e, sc.s[e], "tree edge with s != 1")
    return None
