from graphpres.builtins import dodecahedron_action
from graphpres.dot import cayley_underlying_graph, export_cayley_dot, export_graph_dot
from graphpres.graphs import Graph
from graphpres.perms import generate_closure, transposition
from graphpres.polyhedra import truncated_dodecahedron


def test_cyclic_three_cayley_digraph():
    table = generate_closure([(1, 2, 0)])
    text = export_cayley_dot(table, {"a": table.gen_indices[0]})
    lines = [line.strip() for line in text.splitlines()]
    arrows = [line for line in lines if "->" in line]
    assert len(arrows) == 3
    assert all("dir=none" not in line for line in arrows)
    assert text == export_cayley_dot(table, {"a": table.gen_indices[0]})  # stable


def test_symmetric_three_all_undirected():
    table = generate_closure([transposition(3, 0, 1), transposition(3, 1, 2)])
    gens = {"a": table.gen_indices[0], "b": table.gen_indices[1]}
    text = export_cayley_dot(table, gens)
    arrows = [line for line in text.splitlines() if "->" in line]
    assert len(arrows) == 6  # 6 vertices * 2 involutions / 2
    assert all("dir=none" in line for line in arrows)
    graph = cayley_underlying_graph(table, gens)
    assert graph.vertex_count == 6 and len(graph.edges) == 6


def test_non_generating_set_gives_subgroup_diagram():
    table = generate_closure([transposition(4, 0, 1), transposition(4, 1, 2),
                              transposition(4, 2, 3)])
    sub = cayley_underlying_graph(table, {"a": table.gen_indices[0]})
    assert sub.vertex_count == 2


def test_export_graph_dot_shape():
    g = Graph(3, [(0, 1), (1, 2)])
    text = export_graph_dot(g)
    assert "0 -- 1;" in text and "1 -- 2;" in text


def test_cayley_diagram_of_rotations_is_the_truncation():
    inp = dodecahedron_action()
    table = inp.ag.group
    h = inp.ag.generator_labels["h"]
    gens = {"s1": inp.ag.generator_labels["s1"], "h": h, "h^-1": table.inverse(h)}
    cayley = cayley_underlying_graph(table, gens)
    Y = truncated_dodecahedron()
    assert Y.group.elements == table.elements  # flag_action is indexed like table
    assert cayley.vertex_count == 60 and len(cayley.edges) == len(Y.graph.edges) == 90
    # the witness, the element sending the base flag around, is a bijection
    # that maps each of the 90 edges to an edge: an isomorphism
    base = Y.flags.index((Y.model.labels["v"], Y.model.labels["w1"]))
    witness = {a: Y.flag_action[a][base] for a in range(60)}
    assert sorted(witness.values()) == list(range(60))
    assert all(Y.graph.has_edge(witness[u], witness[w]) for u, w in cayley.edges)
