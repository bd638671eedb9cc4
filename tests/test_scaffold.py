import pytest

from graphpres.builtins import (binary_icosahedral_action, dihedral_cycle_action,
                                dodecahedron_action, simplex_action)
from graphpres.cli import action_from_json
from graphpres.graphs import ActionedGraph, Graph, OrientedEdge
from graphpres.perms import identity, perm, transposition
from graphpres.scaffold import (DisconnectedGraphError, build_regular_scaffolding,
                                build_spanning_tree, validate_regularity)

from test_pinned import ACTIONS


def triangle_with_midpoints():
    """Two vertex orbits: triangle corners 0,1,2 and edge midpoints 3,4,5."""
    graph = Graph(6, [(0, 3), (3, 1), (1, 4), (4, 2), (2, 5), (5, 0)])
    # S3 permuting the corners, with the induced action on midpoints
    # midpoint 3 lies on {0,1}, 4 on {1,2}, 5 on {2,0}
    def lift(corner_perm):
        mids = {frozenset({0, 1}): 3, frozenset({1, 2}): 4, frozenset({2, 0}): 5}
        images = list(corner_perm)
        for pair, m in mids.items():
            target = frozenset(corner_perm[x] for x in pair)
            images.append(mids[target])
        return perm(images[:3] + images[3:])
    a = lift(transposition(3, 0, 1))
    b = lift(transposition(3, 1, 2))
    return ActionedGraph.from_generators(graph, {"a": a, "b": b})


def test_spanning_tree_transitive():
    inp = dodecahedron_action()
    v, tree = build_spanning_tree(inp.ag)
    assert v == (0,) and tree == ()


def test_spanning_tree_trivial_group_path():
    graph = Graph(3, [(0, 1), (1, 2)])
    ag = ActionedGraph.from_generators(graph, {"e": identity(3)})
    v, tree = build_spanning_tree(ag)
    assert v == (0, 1, 2)
    assert tree == ((0, 1), (1, 2))


def test_spanning_tree_two_orbits():
    ag = triangle_with_midpoints()
    v, tree = build_spanning_tree(ag)
    assert v == (0, 3)
    assert tree == ((0, 3),)


def test_spanning_tree_needs_connected():
    graph = Graph(4, [(0, 1), (2, 3)])
    ag = ActionedGraph.from_generators(graph, {"e": identity(4)})
    with pytest.raises(DisconnectedGraphError):
        build_spanning_tree(ag)


def transversal(sc, e):
    """The elements u of the decompositions u(e) of the edges in e's orbit."""
    return tuple(u for e0, u in sc.rep_decomposition.values() if e0 == e)


def test_simplex_scaffolding_matches_hand_data():
    inp = simplex_action(4)
    sc = inp.sc
    assert sc.base_vertices == (0,)
    assert tuple(sc.iota) == (OrientedEdge(0, 1),)
    e = OrientedEdge(0, 1)
    # the flip of the base edge
    p = inp.ag.action[sc.s[e]]
    assert p[0] == 1 and p[1] == 0 and p[2] == 2 and p[3] == 3
    # conjugated labels: s of (0,i) is the transposition (0 i)
    for i in (2, 3):
        q = inp.ag.action[sc.s[OrientedEdge(0, i)]]
        assert q[0] == i and q[i] == 0
        assert all(q[x] == x for x in range(4) if x not in (0, i))
    assert len(transversal(sc, e)) == 3


def test_dodecahedron_scaffolding_matches_hand_data():
    inp = dodecahedron_action()
    sc, ag = inp.sc, inp.ag
    e = OrientedEdge(0, 1)
    assert sc.pair_reps == (e,)
    assert len(transversal(sc, e)) == 3
    h = ag.generator_labels["h"]
    s1 = ag.generator_labels["s1"]
    assert sc.s[e] == s1
    assert set(transversal(sc, e)) == set(ag.stabilizer(0))
    # propagation by conjugation: s of h(e) is h s1 h^-1
    e3 = ag.apply_edge(h, e)
    assert sc.s[e3] == ag.group.conjugate(h, s1)


def test_double_cover_scaffolding():
    bi = binary_icosahedral_action()
    sc, ag = bi.input.sc, bi.input.ag
    e = OrientedEdge(0, 1)
    assert set(transversal(sc, e)) != set(ag.stabilizer(0))  # proper transversal
    assert len(transversal(sc, e)) == 3
    assert ag.group.product(sc.s[e], sc.s[e]) == bi.named["c"]


def test_regularity_of_all_builtins():
    inputs = [simplex_action(3), simplex_action(5), dodecahedron_action(),
              binary_icosahedral_action().input, dihedral_cycle_action(6)]
    for inp in inputs:
        assert validate_regularity(inp.sc, inp.ag) is None


def test_regularity_of_two_orbit_action():
    ag = triangle_with_midpoints()
    sc = build_regular_scaffolding(ag)
    assert validate_regularity(sc, ag) is None
    assert sc.base_vertices == (0, 3)
    # tree edges are representatives with the identity label
    for e in sc.oriented_tree_edges():
        assert sc.s[e] == 0


def test_regularity_violation_iii_detected():
    inp = dodecahedron_action()
    sc = inp.sc
    h = inp.ag.generator_labels["h"]
    e = OrientedEdge(0, 1)
    d = inp.ag.apply_edge(h, e)
    # s_d k with k != 1 fixing w still carries w to d's target, so only the
    # propagation s_d = u s_e u^-1 fails
    w = sc.base_of[d.target]
    k = next(k for k in inp.ag.stabilizer(w) if k != 0)
    broken = dict(sc.s)
    broken[d] = inp.ag.group.product(sc.s[d], k)
    mutated = sc._replace(s=broken)
    violation = validate_regularity(mutated, inp.ag)
    assert violation is not None and violation.condition == "iii"
    assert violation.detail == f"s of {tuple(d)} is not propagated from {tuple(e)}"


def test_regularity_violation_i_detected():
    inp = dodecahedron_action()
    sc = inp.sc
    e = OrientedEdge(0, 1)
    # replace the flip with another carrier of the far endpoint (not an inversion)
    other = next(i for i in range(inp.ag.group.order)
                 if inp.ag.apply(i, 0) == 1 and inp.ag.apply(i, 1) != 0)
    broken = dict(sc.s)
    broken[e] = other
    mutated = sc._replace(s=broken)
    violation = validate_regularity(mutated, inp.ag)
    assert violation is not None and violation.condition == "i"


def prism_5x2():
    return action_from_json(ACTIONS["prism-5x2"])


@pytest.mark.parametrize("build, change, condition", [
    # the inverted base edge paired with another edge
    (dodecahedron_action, lambda sc: {"iota": {OrientedEdge(0, 1): OrientedEdge(0, 2)}}, "i"),
    # (0, 1) and (0, 4) are reversal partners; (0, 1) paired with itself
    (prism_5x2, lambda sc: {"iota": {**sc.iota, OrientedEdge(0, 1): OrientedEdge(0, 1)}}, "ii"),
    (prism_5x2, lambda sc: {"pair_reps": sc.pair_reps[1:]}, "ii"),
    # (0, 4) is no image of (0, 1) under the identity
    (prism_5x2, lambda sc: {"rep_decomposition": {
        **sc.rep_decomposition, OrientedEdge(0, 4): (OrientedEdge(0, 1), 0)}}, "iii"),
    # the edge (0, 3) at the base vertex dropped from s and the decompositions
    (lambda: action_from_json(ACTIONS["square"]), lambda sc: {
        "s": {e: se for e, se in sc.s.items() if e != OrientedEdge(0, 3)},
        "rep_decomposition": {e: dec for e, dec in sc.rep_decomposition.items()
                              if e != OrientedEdge(0, 3)}}, "iii"),
], ids=["inverted-edge-paired-away", "partner-unpaired", "pair-reps-short", "wrong-decomposition",
        "edge-at-base-vertex-left-out"])
def test_regularity_violation_of_the_pairing_and_decompositions(build, change, condition):
    inp = build()
    assert validate_regularity(inp.sc, inp.ag) is None
    violation = validate_regularity(inp.sc._replace(**change(inp.sc)), inp.ag)
    assert violation is not None and violation.condition == condition


def prism_4x3_dihedral():
    return action_from_json(ACTIONS["prism-4x3-dihedral"])


def other_carrier(inp, e):
    """An element other than s_e that carries e's origin to its target."""
    return next(g for g in range(inp.ag.group.order)
                if inp.ag.apply(g, e.origin) == e.target and g != inp.sc.s[e])


E = OrientedEdge


@pytest.mark.parametrize("build, change, condition, edge, detail", [
    # the representative (0, 1) of K4 dropped from s
    (lambda: simplex_action(4), lambda inp: {"s": {e: se for e, se in inp.sc.s.items()
                                                   if e != E(0, 1)}},
     "0", E(0, 1), "representative without s_e"),
    # (0, 4), the reversal partner of (0, 1), dropped from the representatives
    (prism_5x2, lambda inp: {"iota": {e: f for e, f in inp.sc.iota.items() if e != E(0, 4)}},
     "ii", E(0, 1), "paired edge is not a representative"),
    # the tree edge (4, 0) given the flip, which fixes 0 and 4, as its s
    (prism_4x3_dihedral, lambda inp: {"s": {**inp.sc.s, E(4, 0): inp.ag.generator_labels["m"]}},
     "ii", E(0, 4), "paired edge has s != s_e^{-1}"),
    (prism_5x2, lambda inp: {"rep_decomposition": {**inp.sc.rep_decomposition,
                                                   E(0, 4): (E(1, 2), 0)}},
     "iii", E(0, 4), "(1, 2) is not a representative"),
    # s of (0, 2) still carries 0 to 2, but is not u s_(0, 1) u^-1
    (lambda: simplex_action(4),
     lambda inp: {"s": {**inp.sc.s, E(0, 2): other_carrier(inp, E(0, 2))}},
     "iii", E(0, 1), "s of (0, 2) is not propagated from (0, 1)"),
    (lambda: simplex_action(4), lambda inp: {"tree_edges": ((0, 2),)},
     "iv", E(0, 2), "tree edge is not a representative"),
    # (0, 1) represents its orbit, with an inversion as s
    (lambda: simplex_action(4), lambda inp: {"tree_edges": ((0, 1),)},
     "iv", E(0, 1), "tree edge with s != 1"),
], ids=["representative-without-s", "partner-not-a-representative", "partner-s-not-inverse",
        "decomposed-over-a-non-representative", "s-not-propagated",
        "tree-edge-not-a-representative", "tree-edge-with-s"])
def test_regularity_refusals_name_the_condition_and_the_edge(
        build, change, condition, edge, detail):
    inp = build()
    violation = validate_regularity(inp.sc._replace(**change(inp)), inp.ag)
    assert violation is not None
    assert (violation.condition, violation.edge, violation.detail) == (condition, edge, detail)


def test_scaffolding_determinism():
    a = build_regular_scaffolding(dodecahedron_action().ag)
    b = build_regular_scaffolding(dodecahedron_action().ag)
    assert a.s == b.s and a.pair_reps == b.pair_reps and a.rep_decomposition == b.rep_decomposition


def test_counting_invariants():
    for inp in (simplex_action(5), dodecahedron_action(), dihedral_cycle_action(8)):
        sc, ag = inp.sc, inp.ag
        total_edges = sum(len(ag.graph.oriented_edges_at(v)) for v in sc.base_vertices)
        assert len(sc.s) == total_edges
        assert sum(len(transversal(sc, r)) for r in sc.iota) == total_edges
        # the pairing representatives meet each pairing orbit exactly once
        seen = set()
        for r in sc.pair_reps:
            assert r not in seen
            seen.add(r)
            seen.add(sc.iota[r])
        assert seen == set(sc.iota)


def test_transversal_identity_k_property():
    # with the conjugation rule, s_{u(e)}^-1 u s_e collapses back to u
    for inp in (simplex_action(5), dodecahedron_action(),
                binary_icosahedral_action().input):
        sc, ag = inp.sc, inp.ag
        group = ag.group
        for d, (e, u) in sc.rep_decomposition.items():
            assert ag.apply_edge(u, e) == d
            k = group.word_product((group.inverse(sc.s[d]), u, sc.s[e]))
            assert k == u
