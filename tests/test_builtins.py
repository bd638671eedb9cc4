from fractions import Fraction

import pytest

from graphpres.builtins import (binary_icosahedral_action, dihedral_cycle_action,
                                dodecahedron_action, load_builtin, simplex_action)
from graphpres.derive import validate_input
from graphpres.golden import GoldenNum, PHI, QUAT_C
from graphpres.graphs import OrientedEdge, validate_action, vertex_orbits
from graphpres.perms import identity, perm, perm_compose, perm_inverse, tree_fold
from graphpres.polyhedra import dodecahedron_model, icosian_group, truncated_dodecahedron


def test_simplex_rejects_small_n():
    with pytest.raises(ValueError):
        simplex_action(2)
    with pytest.raises(ValueError):
        dihedral_cycle_action(2)


def test_simplex_group_orders():
    assert simplex_action(3).ag.group.order == 6
    assert simplex_action(4).ag.group.order == 24
    assert simplex_action(5).ag.group.order == 120


def test_simplex_edges_single_orbit():
    inp = simplex_action(4)
    assert len(inp.ag.graph.oriented_edges_at(0)) == 3
    assert tuple(inp.sc.iota) == (OrientedEdge(0, 1),)


def test_all_builtins_validate():
    for inp in (simplex_action(3), simplex_action(5), dodecahedron_action(),
                binary_icosahedral_action().input, dihedral_cycle_action(7)):
        every_element = {str(i): p for i, p in enumerate(inp.ag.action)}
        assert validate_action(inp.ag.graph, every_element) is None
        validate_input(inp)


def test_dodecahedron_combinatorics():
    model = dodecahedron_model()
    assert model.graph.vertex_count == 20
    assert len(model.graph.edges) == 30
    assert all(len(model.graph.neighbors(v)) == 3 for v in range(20))
    assert len(model.faces) == 12
    assert all(len(f) == 5 for f in model.faces)
    inp = dodecahedron_action()
    assert inp.ag.group.order == 60
    assert vertex_orbits(inp.ag) == [tuple(range(20))]
    assert len(inp.ag.stabilizer(0)) == 3


def test_dodecahedron_base_loop_is_a_face():
    model = dodecahedron_model()
    loop = model.base_loop
    assert loop[0] == loop[-1] == model.labels["v"]
    for a, b in zip(loop, loop[1:]):
        assert model.graph.has_edge(a, b)
    face = tuple(loop[:-1])
    canon = {tuple(sorted(f)) for f in model.faces}
    assert tuple(sorted(face)) in canon


def test_double_cover_structure():
    bi = binary_icosahedral_action()
    ag = bi.input.ag
    assert ag.group.order == 120
    one = tuple(range(ag.graph.vertex_count))
    assert tuple(i for i, p in enumerate(ag.action) if p == one) == (0, bi.named["c"])
    h = bi.named["h"]
    assert ag.group.element_order(h) == 6
    h3 = ag.group.word_product((h, h, h))
    assert h3 == bi.named["c"]
    assert ag.group.element_order(bi.named["c"]) == 2


def test_binary_icosahedral_table_lists_the_carriers_in_tree_order():
    # reference: the carriers folded down the quaternion tree, the element
    # order the table was once given as a list
    bi = binary_icosahedral_action()
    tree, right = icosian_group(dodecahedron_model())
    quats = list(tree)
    index = {q: i for i, q in enumerate(quats)}
    gens = [perm_inverse(perm(index[right[q][k]] for q in quats)) for k in range(2)]
    carried = tree_fold(tree, identity(120), lambda p, k: perm_compose(p, gens[k]))
    assert bi.input.ag.group.elements == [carried[q] for q in quats]
    assert bi.quats == tuple(quats)


def test_double_cover_maps_onto_rotations_two_to_one():
    bi = binary_icosahedral_action()
    base = dodecahedron_action()
    images = {}
    for i, p in enumerate(bi.input.ag.action):
        images.setdefault(p, []).append(i)
    assert len(images) == 60
    assert all(len(pre) == 2 for pre in images.values())
    assert set(images) == set(base.ag.group.elements)
    # the two preimages differ by the central element
    c = bi.named["c"]
    for pre in images.values():
        a, b = pre
        assert bi.input.ag.group.product(a, c) == b or bi.input.ag.group.product(b, c) == a


def test_icosian_coordinate_types():
    bi = binary_icosahedral_action()
    half = Fraction(1, 2)
    units = axes = mixed = 0
    for q in bi.quats:
        coords = [q.w, q.x, q.y, q.z]
        abs_set = sorted((abs(c.a), abs(c.b)) for c in coords)
        if abs_set == [(0, 0), (0, 0), (0, 0), (1, 0)]:
            axes += 1
        elif abs_set == [(half, 0)] * 4:
            units += 1
        else:
            mixed += 1
            # even permutation of (0, 1/2, phi/2, 1/(2 phi)) up to signs
            inv_phi_half = (PHI - GoldenNum(1)) * GoldenNum(half)
            phi_half = PHI * GoldenNum(half)
            magnitudes = sorted(((abs(c.a), abs(c.b)) for c in coords))
            assert magnitudes == sorted([(Fraction(0), Fraction(0)),
                                         (half, Fraction(0)),
                                         (abs(phi_half.a), abs(phi_half.b)),
                                         (abs(inv_phi_half.a), abs(inv_phi_half.b))])
    assert axes == 8 and units == 16 and mixed == 96


def test_dihedral_builtin():
    inp = dihedral_cycle_action(9)
    assert inp.ag.group.order == 18
    assert len(inp.ag.stabilizer(0)) == 2
    assert len(inp.sc.pair_reps) == 1


def test_truncated_dodecahedron_counts():
    Y = truncated_dodecahedron()
    assert Y.graph.vertex_count == 60
    assert len(Y.graph.edges) == 90
    assert len(Y.pentagon_edges) == 30
    assert len(Y.graph.edges - Y.pentagon_edges) == 60
    assert len(Y.faces) == 32
    assert sorted(len(f) for f in Y.faces) == [3] * 20 + [10] * 12
    assert all(len(Y.graph.neighbors(v)) == 3 for v in range(60))


def test_truncated_action_is_free():
    Y = truncated_dodecahedron()
    for i, p in enumerate(Y.flag_action):
        if i != 0:
            assert all(p[x] != x for x in range(60))


def test_truncation_edge_labels():
    Y = truncated_dodecahedron()
    group = Y.group
    for e, t in Y.t_map.items():
        assert Y.flag_action[t][e.origin] == e.target
    # pentagon edges carry the same flip in both orientations
    for i, j in sorted(Y.pentagon_edges):
        assert Y.t_map[OrientedEdge(i, j)] == Y.t_map[OrientedEdge(j, i)]
        assert group.element_order(Y.t_map[OrientedEdge(i, j)]) == 2
    # triangle edges carry a third turn
    for i, j in sorted(Y.graph.edges - Y.pentagon_edges):
        fwd = Y.t_map[OrientedEdge(i, j)]
        back = Y.t_map[OrientedEdge(j, i)]
        assert group.product(fwd, back) == 0
        assert group.element_order(fwd) == 3


def test_load_builtin_names():
    assert load_builtin("simplex:4").name == "simplex:4"
    assert load_builtin("dodecahedron").name == "dodecahedron"
    assert load_builtin("binary-icosahedral").name == "binary-icosahedral"
    with pytest.raises(KeyError):
        load_builtin("nope")


def test_milnor_triple_is_exact():
    model = dodecahedron_model()
    from graphpres.golden import quat_mul
    assert quat_mul(quat_mul(model.h_quat.conj(), model.s1_quat), model.f_quat) == QUAT_C
    acc = model.s1_quat
    step = quat_mul(model.s1_quat, model.h_quat)
    prod = step
    for _ in range(4):
        prod = quat_mul(prod, step)
    assert prod == QUAT_C
