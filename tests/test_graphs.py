import pytest

from graphpres.builtins import binary_icosahedral_action, dodecahedron_action
from graphpres.graphs import (ActionedGraph, Graph, OrientedEdge, find_inversion,
                              validate_action, vertex_orbits)
from graphpres.perms import Perm
from graphpres.scaffold import build_regular_scaffolding


def assert_pairing_is_involution(ag, iota):
    # fixed points are exactly the representatives whose edge admits an inversion
    for r, partner in iota.items():
        assert iota[partner] == r
        assert (partner == r) == (find_inversion(ag, r) is not None)


def k4_s4():
    graph = Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    gens = {"a": Perm.transposition(4, 0, 1), "b": Perm.transposition(4, 1, 2),
            "c": Perm.transposition(4, 2, 3)}
    return ActionedGraph.from_generators(graph, gens)


def test_graph_rejects_loops_and_range():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 5)])


def test_validate_action_full_symmetric():
    ag = k4_s4()
    every_element = {str(i): p for i, p in enumerate(ag.action)}
    assert validate_action(ag.graph, every_element) is None


def test_validate_action_catches_broken_edge_map():
    graph = Graph(4, [(0, 1), (1, 2), (2, 3)])  # path
    bad = Perm.transposition(4, 0, 3)  # sends the edge (0,1) to the non-edge (3,1)
    problem = validate_action(graph, {"x": bad})
    assert problem is not None
    assert "edge (0,1)" in problem or "edge (2,3)" in problem


def test_vertex_orbits_transitive_dodecahedron():
    ag = dodecahedron_action().ag
    orbits = vertex_orbits(ag)
    assert len(orbits) == 1 and len(orbits[0]) == 20


def test_vertex_orbits_trivial_group():
    graph = Graph(3, [(0, 1), (1, 2)])
    ag = ActionedGraph.from_generators(graph, {"e": Perm.identity(3)})
    assert vertex_orbits(ag) == [(0,), (1,), (2,)]


def test_vertex_orbits_dihedral_cycle():
    from graphpres.builtins import dihedral_cycle_action
    ag = dihedral_cycle_action(7).ag
    assert vertex_orbits(ag) == [tuple(range(7))]


def test_stabilizer_dodecahedron_vertex():
    ag = dodecahedron_action().ag
    stab = ag.stabilizer(0)
    assert len(stab) == 3
    assert ag.group.subgroup_closure(stab) == stab
    # cyclic: one element has order 3 and generates
    orders = sorted(ag.group.element_order(i) for i in stab)
    assert orders == [1, 3, 3]


def test_stabilizer_k4():
    ag = k4_s4()
    assert len(ag.stabilizer(1)) == 6


def test_stabilizer_free_action():
    graph = Graph(3, [(0, 1), (1, 2), (0, 2)])
    rot = Perm.from_cycle(3, [0, 1, 2])
    ag = ActionedGraph.from_generators(graph, {"r": rot})
    assert ag.stabilizer(0) == (0,)


def test_orbit_stabilizer_theorem():
    for ag in (k4_s4(), dodecahedron_action().ag):
        for orbit in vertex_orbits(ag):
            for v in orbit:
                assert len(orbit) * len(ag.stabilizer(v)) == ag.group.order


def test_edge_stabilizer_dodecahedron_trivial():
    ag = dodecahedron_action().ag
    assert ag.edge_stabilizer(OrientedEdge(0, 1)) == (0,)


def test_edge_stabilizer_double_cover():
    bi = binary_icosahedral_action()
    ag = bi.input.ag
    stab = ag.edge_stabilizer(OrientedEdge(0, 1))
    assert stab == (0, bi.named["c"])


def test_edge_stabilizer_k4():
    ag = k4_s4()
    within = [g for g in ag.edge_stabilizer(OrientedEdge(0, 1))]
    assert len(within) == 2  # the identity and the distant swap


def test_find_inversion_dodecahedron():
    ag = dodecahedron_action().ag
    inv = find_inversion(ag, OrientedEdge(0, 1))
    assert inv is not None
    assert ag.group.element_order(inv) == 2


def test_find_inversion_trivial_group():
    graph = Graph(2, [(0, 1)])
    ag = ActionedGraph.from_generators(graph, {"e": Perm.identity(2)})
    assert find_inversion(ag, OrientedEdge(0, 1)) is None


def test_find_inversion_triangle_edges_of_truncation():
    from graphpres.builtins import truncated_dodecahedron
    Y = truncated_dodecahedron()
    ag = ActionedGraph(Y.graph, Y.group, Y.flag_action)
    pe = min(Y.pentagon_edges)
    te = min(Y.triangle_edges)
    assert find_inversion(ag, OrientedEdge(*pe)) is not None
    assert find_inversion(ag, OrientedEdge(*te)) is None


def test_conjugated_inversion_property():
    # an inversion of e conjugates to an inversion of h(e)
    ag = dodecahedron_action().ag
    e = OrientedEdge(0, 1)
    g = find_inversion(ag, e)
    for h in ag.stabilizer(0):
        conj = ag.group.conjugate(h, g)
        image = ag.apply_edge(h, e)
        p = ag.action[conj]
        assert p(image.origin) == image.target and p(image.target) == image.origin


def test_involution_fixes_invertible_representatives():
    ag = dodecahedron_action().ag
    e = OrientedEdge(0, 1)
    iota = build_regular_scaffolding(ag).iota
    assert iota == {e: e}
    assert_pairing_is_involution(ag, iota)


def test_involution_fixes_simplex_representative():
    from graphpres.builtins import simplex_action
    inp = simplex_action(4)
    e = OrientedEdge(0, 1)
    iota = build_regular_scaffolding(inp.ag).iota
    assert iota[e] == e
    assert_pairing_is_involution(inp.ag, iota)


def test_involution_swaps_free_rotation_orbits():
    # rotation-only action on the 4-cycle: the two edge orientations
    # at the base vertex lie in different orbits that the pairing swaps
    graph = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    rot = Perm.from_cycle(4, [0, 1, 2, 3])
    ag = ActionedGraph.from_generators(graph, {"r": rot})
    e1, e2 = OrientedEdge(0, 1), OrientedEdge(0, 3)
    iota = build_regular_scaffolding(ag).iota
    assert iota[e1] == e2 and iota[e2] == e1
    assert_pairing_is_involution(ag, iota)


def test_kernel_of_double_cover():
    bi = binary_icosahedral_action()
    assert bi.input.ag.kernel() == (0, bi.named["c"])
