"""The one carrier search against brute-force least-index scans.

`graphs.first_carriers` and `ActionedGraph.carriers` answer every orbit and
carrier question of the pipeline.  The scans below are written out in full,
one element index at a time, the way the package asked those questions
before they went through one place: each orbit, carrier, transversal and
representative s_e must come out the same, in the same order.
"""

import random

import pytest

from graphpres.builtins import load_builtin
from graphpres.cli import action_from_json
from graphpres.derive import least_conjugate_stabilizer
from graphpres.graphs import (OrientedEdge, edge_orbits_at, find_inversion, first_carriers,
                              orbit_of_vertex, vertex_orbits)

from test_pinned import ACTIONS

BUILTINS = ["simplex:3", "simplex:4", "simplex:5", "dodecahedron", "binary-icosahedral",
            "dihedral:5", "dihedral:12"]


def relabelled(data: dict, rng: random.Random) -> dict:
    """The same action with its vertices renumbered at random."""
    perm = list(range(data["vertices"]))
    rng.shuffle(perm)
    gens = {}
    for label, images in data["generators"].items():
        gens[label] = [0] * len(perm)
        for v, w in enumerate(images):
            gens[label][perm[v]] = perm[w]
    return {"vertices": data["vertices"], "generators": gens,
            "edges": [[perm[u], perm[w]] for u, w in data["edges"]]}


def scan_carriers(ag, v):
    out = {}
    for i in range(ag.group.order):
        w = ag.action[i][v]
        if w not in out:
            out[w] = i
    return out


def scan_vertex_orbits(ag):
    seen, orbits = set(), []
    for v in range(ag.graph.vertex_count):
        if v not in seen:
            orbit = tuple(sorted({p[v] for p in ag.action}))
            seen.update(orbit)
            orbits.append(orbit)
    return orbits


def scan_edge_orbits_at(ag, v):
    stab = [i for i in range(ag.group.order) if ag.action[i][v] == v]
    remaining = set(ag.graph.oriented_edges_at(v))
    orbits = []
    while remaining:
        e = min(remaining)
        orbit = tuple(sorted({ag.apply_edge(t, e) for t in stab}))
        remaining.difference_update(orbit)
        orbits.append(orbit)
    return sorted(orbits)


def scan_transversal(ag, v, rep):
    trans, covered = [], {}
    for u in range(ag.group.order):
        if ag.action[u][v] != v:
            continue
        d = ag.apply_edge(u, rep)
        if d not in covered:
            covered[d] = u
            trans.append(u)
    return tuple(trans), covered


def scan_least_conjugate_stabilizer(ag, v):
    group = ag.group
    stab = [i for i in range(group.order) if ag.action[i][v] == v]
    best, carrier, seen = None, 0, set()
    for g in range(group.order):
        w = ag.action[g][v]
        if w not in seen:
            seen.add(w)
            conj = tuple(sorted(group.conjugate(g, x) for x in stab))
            if best is None or conj < best:
                best, carrier = conj, g
    return group.inverse(carrier), best


def check_against_scans(inp):
    ag, sc = inp.ag, inp.sc
    for v in range(ag.graph.vertex_count):
        assert list(ag.carriers(v).items()) == list(scan_carriers(ag, v).items())
        assert orbit_of_vertex(ag, v) == tuple(sorted(scan_carriers(ag, v)))
    assert vertex_orbits(ag) == scan_vertex_orbits(ag)
    for v in sc.base_vertices:
        assert edge_orbits_at(ag, v) == scan_edge_orbits_at(ag, v)
        assert least_conjugate_stabilizer(ag, v) == scan_least_conjugate_stabilizer(ag, v)

    # the least edge of each edge orbit, and the base vertex of each vertex orbit
    least_edge = {e: orbit[0] for v in sc.base_vertices
                  for orbit in scan_edge_orbits_at(ag, v) for e in orbit}
    base_of = {w: v for v in sc.base_vertices for w in scan_carriers(ag, v)}
    tree = set(sc.oriented_tree_edges())
    for e in sc.iota:
        if e in tree:
            assert sc.s[e] == 0
        elif (inversion := find_inversion(ag, e)) is not None:
            assert sc.s[e] == inversion
        elif least_edge[e] < least_edge[sc.iota[e]]:  # the primary edge of its pair
            assert sc.s[e] == scan_carriers(ag, base_of[e.target])[e.target]
        trans, covered = scan_transversal(ag, e.origin, e)
        assert tuple(u for e0, u in sc.rep_decomposition.values() if e0 == e) == trans
        for d, u in covered.items():
            assert sc.rep_decomposition[d] == (e, u)
    assert set(sc.rep_decomposition) == set(sc.s)


@pytest.mark.parametrize("name", list(ACTIONS))
def test_file_actions_match_the_scans(name):
    check_against_scans(action_from_json(ACTIONS[name], name))


@pytest.mark.parametrize("name", BUILTINS)
def test_builtins_match_the_scans(name):
    check_against_scans(load_builtin(name))


@pytest.mark.parametrize("name", ["petersen", "cube", "prism-4x3-dihedral", "prism-5x2"])
def test_relabelled_actions_match_the_scans(rng, name):
    for _ in range(3):
        check_against_scans(action_from_json(relabelled(ACTIONS[name], rng), name))


def test_first_carriers_keeps_the_first_element_in_first_occurrence_order():
    act = lambda g, x: (x + g) % 4
    assert list(first_carriers([2, 6, 1, 3, 5, 0], act, 1).items()) == [
        (3, 2), (2, 1), (0, 3), (1, 0)]
    assert first_carriers([], act, 1) == {}


def test_carriers_are_cached_per_vertex():
    ag = load_builtin("dihedral:5").ag
    assert ag.carriers(2) is ag.carriers(2)
    assert ag.carriers(2)[2] == 0
    assert all(ag.apply(g, 2) == w for w, g in ag.carriers(2).items())
    assert edge_orbits_at(ag, 0) == [(OrientedEdge(0, 1), OrientedEdge(0, 4))]
