import json
import random
import re

import pytest

import graphpres.derive as derive_module
from graphpres.builtins import (binary_icosahedral_action, dihedral_cycle_action,
                                dodecahedron_action, load_builtin, simplex_action)
from graphpres.coset import EnumerationLimitError, todd_coxeter
from graphpres.coxeter import PatternMismatchError, coxeter_substitution
from graphpres.derive import (DerivationInputError, StabilizerData, _free_cyclic_form,
                              auto_derivation_input, derive_presentation, greedy_generators,
                              fundamental_loops, pick_loops, presentation_matches,
                              stabilizer_presentation, validate_input)
from graphpres.cli import action_from_json, main
from graphpres.graphs import ActionedGraph, CycleSpace, Graph, OrientedEdge, find_inversion
from graphpres.perms import perm, transposition
from graphpres.presentation import Presentation
from graphpres.verify import derived_from_json, derived_to_json

from reference_picks import reference_collapses, reference_pick_loops
from test_carriers import relabelled
from test_coset import LOOSE_S3, standard_symmetric_presentation
from test_pinned import ACTIONS, PINNED, prism
from test_verify import trivial_grid


def square_action(loops=None):
    graph = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    gens = {"r": perm([1, 2, 3, 0]), "m": perm([0, 3, 2, 1])}
    return auto_derivation_input(ActionedGraph.from_generators(graph, gens), loops)


def complete_graph_action(n):
    """S_n on the complete graph K_n, by a transposition and an n-cycle."""
    graph = Graph(n, [(a, b) for a in range(n) for b in range(a + 1, n)])
    gens = {"s": transposition(n, 0, 1), "c": perm([*range(1, n), 0])}
    return ActionedGraph.from_generators(graph, gens)


def two_orbit_path_action():
    graph = Graph(3, [(0, 1), (1, 2)])
    swap = perm([2, 1, 0])
    return ActionedGraph.from_generators(graph, {"m": swap})


def test_validate_input_catches_bad_stabilizer_presentation():
    inp = dodecahedron_action()
    # h^4 = h in the stabilizer <h> of order 3, so the relator fails in G
    wrong = Presentation.from_strings(["h"], [[("h", 1)] * 4])
    inp.stabilizers[0] = StabilizerData(wrong, inp.stabilizers[0].gen_elements)
    with pytest.raises(DerivationInputError,
                       match="^stabilizer relator 0 at 0 does not evaluate to 1$"):
        validate_input(inp)


def test_validate_input_catches_stabilizer_relator_that_fails_in_G():
    # <s2, s3 | s2^6, s3 s2^-2> is Z6, of the stabilizer's order 6, but
    # s3 s2^-2 = s3 is not 1 in S4
    inp = simplex_action(4)
    unsound = Presentation.from_strings(
        ["s2", "s3"], [[("s2", 1)] * 6, [("s3", 1), ("s2", -1), ("s2", -1)]])
    assert todd_coxeter(unsound).n == len(inp.ag.stabilizer(0))
    inp.stabilizers[0] = StabilizerData(unsound, inp.stabilizers[0].gen_elements)
    with pytest.raises(DerivationInputError,
                       match="^stabilizer relator 1 at 0 does not evaluate to 1$"):
        validate_input(inp)


def test_validate_input_enumerates_when_the_chain_bound_is_too_large(monkeypatch):
    # the chain bounds the S3 at vertex 0 by 12; the enumeration proves 6
    inp = simplex_action(4)
    inp.stabilizers[0] = StabilizerData(LOOSE_S3, inp.stabilizers[0].gen_elements)
    enumerated = []

    def recording(*args, **kwargs):
        table = todd_coxeter(*args, **kwargs)
        enumerated.append(table.n)
        return table

    monkeypatch.setattr(derive_module, "todd_coxeter", recording)
    validate_input(inp)
    assert enumerated == [6]


def simplex6_with(change):
    """simplex:6 with its S5 presentation at vertex 0 changed by `change`."""
    inp = simplex_action(6)
    return inp._replace(stabilizers={0: change(inp.stabilizers[0])})


def without_relator(k):
    def change(data):
        relators = data.presentation.relators
        return StabilizerData(Presentation(data.presentation.generators,
                                           relators[:k] + relators[k + 1:]), data.gen_elements)
    return change


def irregular_dodecahedron():
    # the flip of the base edge swapped for a carrier that is no inversion
    inp = dodecahedron_action()
    other = next(i for i in range(inp.ag.group.order)
                 if inp.ag.apply(i, 0) == 1 and inp.ag.apply(i, 1) != 0)
    s = {**inp.sc.s, OrientedEdge(0, 1): other}
    return inp._replace(sc=inp.sc._replace(s=s))


def prism_with_a_shared_name():
    # the mirror at base vertex 4 named like the one at base vertex 0
    inp = action_from_json(ACTIONS["prism-4x3-dihedral"])
    data = inp.stabilizers[4]
    shared = StabilizerData(data.presentation.rename({"t4_g[0]": "t0_g[0]"}),
                            {"t0_g[0]": data.gen_elements["t4_g[0]"]})
    return inp._replace(stabilizers={**inp.stabilizers, 4: shared})


def dihedral_with_an_edge_name():
    # the mirror at base vertex 0 named like the edge generator g[0]
    inp = dihedral_cycle_action(5)
    data = inp.stabilizers[0]
    clash = StabilizerData(data.presentation.rename({"m": "g[0]"}),
                           {"g[0]": data.gen_elements["m"]})
    return inp._replace(stabilizers={0: clash})


def prism_with_a_broken_pairing():
    # the representative (0, 1), reversal-paired with (0, 4), paired with itself
    inp = action_from_json(ACTIONS["prism-5x2"])
    e = OrientedEdge(0, 1)
    assert inp.sc.iota[e] == OrientedEdge(0, 4)
    iota = {**inp.sc.iota, e: e}
    return inp._replace(sc=inp.sc._replace(iota=iota))


def square_missing_a_decomposition():
    # the edge (0, 3) = m(0, 1) keeps its s but loses its decomposition
    inp = action_from_json(ACTIONS["square"])
    d = OrientedEdge(0, 3)
    kept = {e: dec for e, dec in inp.sc.rep_decomposition.items() if e != d}
    assert len(kept) == len(inp.sc.rep_decomposition) - 1
    return inp._replace(sc=inp.sc._replace(rep_decomposition=kept))


def square_missing_an_edge():
    # the edge (0, 3) = m(0, 1) at the base vertex 0 dropped from s and from
    # the decompositions: every remaining record is consistent
    inp = action_from_json(ACTIONS["square"])
    d = OrientedEdge(0, 3)
    s = {e: se for e, se in inp.sc.s.items() if e != d}
    kept = {e: dec for e, dec in inp.sc.rep_decomposition.items() if e != d}
    return inp._replace(sc=inp.sc._replace(s=s, rep_decomposition=kept))


def square_based_off_the_graph():
    # the base vertex 9 of a 4-vertex graph: the edges with s are at vertex 0
    inp = action_from_json(ACTIONS["square"])
    return inp._replace(sc=inp.sc._replace(base_vertices=(9,)))


def dihedral_with_loops(*loops):
    return dihedral_cycle_action(5)._replace(loops=loops)


def square_missing_a_base_vertex():
    # vertex 1, the target of the base edge, has no base vertex recorded
    inp = action_from_json(ACTIONS["square"])
    base_of = {x: v for x, v in inp.sc.base_of.items() if x != 1}
    return inp._replace(sc=inp.sc._replace(base_of=base_of))


@pytest.mark.parametrize("build, error, message", [
    (irregular_dodecahedron, DerivationInputError,
     "scaffolding is not regular: (i) at (0, 1): s_e is not an inversion"),
    (prism_with_a_broken_pairing, DerivationInputError,
     "scaffolding is not regular: (ii) at (0, 1): iota does not pair it with (0, 4)"),
    (square_missing_a_decomposition, DerivationInputError,
     "scaffolding is not regular: (iii) at (0, 3): "
     "decomposed edges are not the edges at base vertices"),
    (square_missing_an_edge, DerivationInputError,
     "scaffolding is not regular: (iii) at (0, 3): "
     "edges with s are not the edges at base vertices"),
    (square_missing_a_base_vertex, DerivationInputError,
     "scaffolding is not regular: (0) at (0, 1): s_e does not carry a base vertex to the target"),
    (square_based_off_the_graph, DerivationInputError,
     "scaffolding is not regular: (iii) at (0, 1): "
     "edges with s are not the edges at base vertices"),
    (lambda: dihedral_with_loops((0, 2, 0)), DerivationInputError,
     "loop [0, 2, 0] does not walk along edges"),
    (lambda: dihedral_with_loops((0, 1, 2, 3, 4, 0), ()), DerivationInputError,
     "loop [] does not walk along edges"),
    (lambda: simplex_action(6)._replace(stabilizers={}), DerivationInputError,
     "missing stabilizer presentation for vertex 0"),
    (lambda: simplex6_with(lambda d: StabilizerData(
        d.presentation, dict.fromkeys(d.gen_elements, 0))),
     DerivationInputError, "stabilizer generators at 0 generate 1 of 120 elements"),
    (lambda: simplex6_with(without_relator(1)), EnumerationLimitError,
     "stabilizer presentation at 0: coset limit 100000 exceeded (100000 defined, 73551 live)"),
    (lambda: simplex6_with(without_relator(0)), DerivationInputError,
     "stabilizer presentation at 0 has order 360, action says 120"),
    (prism_with_a_shared_name, DerivationInputError,
     "generator name t0_g[0] used at two vertices"),
    (dihedral_with_an_edge_name, DerivationInputError,
     "stabilizer generator name g[0] at 0 is an edge generator's name"),
    (lambda: simplex6_with(lambda d: StabilizerData(d.presentation, {})), ValueError,
     "presentation generators and evaluation map disagree"),
], ids=["irregular-scaffolding", "broken-pairing", "missing-decomposition", "missing-edge",
        "missing-base-vertex", "base-vertex-off-the-graph", "loop-off-the-edges", "empty-loop",
        "missing-stabilizer", "non-generating-stabilizer", "open-stabilizer-presentation",
        "wrong-stabilizer-order", "shared-generator-name", "edge-generator-name",
        "evaluation-map-names"])
def test_derivation_refuses_bad_library_inputs(build, error, message):
    # validate_input alone refuses every input that derive_presentation refuses
    for check in (validate_input, derive_presentation):
        with pytest.raises(error, match=f"^{re.escape(message)}$") as exc:
            check(build())
        assert type(exc.value) is error


# a mirror fixing 0 and the opposite vertex: a pseudo-loop from one fixed
# base vertex to the other, with its mirror image, bounds the polygon
PSEUDO_LOOP_CASES = {
    "square": ({"vertices": 4, "edges": [[0, 1], [1, 2], [2, 3], [3, 0]],
                "generators": {"m": [0, 3, 2, 1]}, "loops": [[0, 3, 2]]}, 10),
    "hexagon": ({"vertices": 6, "edges": [[i, (i + 1) % 6] for i in range(6)],
                 "generators": {"m": [0, 5, 4, 3, 2, 1]}, "loops": [[0, 5, 4, 3]]}, 12),
}


@pytest.mark.parametrize("name", sorted(PSEUDO_LOOP_CASES))
def test_pseudo_loop_is_used_as_given(tmp_path, capsys, name):
    data, letters = PSEUDO_LOOP_CASES[name]
    (loop,) = data["loops"]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(data))
    assert main(["derive", "--action", str(path), "--out", str(tmp_path), "--verify"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["order"] == 2 and report["reconstruction"]["ok"]
    assert report["families"]["loop"] == 1
    stored = json.loads((tmp_path / f"{name}.presentation.json").read_text())
    assert sum(map(len, stored["relators"])) == letters
    # the loop relator walks the path once: one edge letter per step, and
    # no tree path from its end back to its start
    families = stored["families"]  # relators are stored family by family
    relator = stored["relators"][families["stabilizer"] + families["edge"]
                                 + families["edge_loop"]]
    edge_letters = [(n, s) for n, s in relator if n in stored["edge_gens"]]
    assert len(edge_letters) == len(loop) - 1 and all(s == -1 for _, s in edge_letters)


def test_pseudo_loop_along_a_tree_edge_is_a_loop_relator():
    # the path (0, 1) is the tree edge itself: its relator is g_t^-1, which
    # the loop family emits before the tree family would
    inp = auto_derivation_input(two_orbit_path_action(), [(0, 1)])
    assert inp.sc.base_vertices == (0, 1)
    d = derive_presentation(inp)
    assert d.families["loop"] == 1 and d.families["tree"] == 0
    assert todd_coxeter(d.presentation).n == 2


def test_derived_orders_match_groups():
    cases = [(simplex_action(3), 6), (simplex_action(4), 24), (simplex_action(5), 120),
             (dodecahedron_action(), 60), (binary_icosahedral_action().input, 120),
             (dihedral_cycle_action(6), 12)]
    for inp, order in cases:
        derived = derive_presentation(inp)
        assert todd_coxeter(derived.presentation).n == order == inp.ag.group.order


def test_relator_count_discipline():
    inp = simplex_action(5)
    d = derive_presentation(inp)
    invertible = sum(1 for e in inp.sc.pair_reps if find_inversion(inp.ag, e) is not None)
    assert d.families["edge_loop"] == invertible == 1
    edge_gens = [greedy_generators(inp.ag.group, inp.ag.edge_stabilizer(e))
                 for e in inp.sc.pair_reps]
    assert d.families["edge"] == sum(map(len, edge_gens)) == 2
    assert d.families["loop"] == len(inp.loops) == 1
    assert d.families["tree"] == 0
    assert len(d.presentation.relators) == sum(d.families.values())


def test_tree_relator_count_multi_orbit():
    ag = two_orbit_path_action()
    inp = auto_derivation_input(ag)
    d = derive_presentation(inp)
    oriented_tree = set(inp.sc.oriented_tree_edges())
    expected = len(oriented_tree & set(inp.sc.pair_reps))
    assert d.families["tree"] == expected == 1


def test_every_relator_evaluates_to_identity():
    inputs = [simplex_action(4), dodecahedron_action(),
              binary_icosahedral_action().input, dihedral_cycle_action(9)]
    for inp in inputs:
        d = derive_presentation(inp)
        group = inp.ag.group
        for rel in d.presentation.relators:
            acc = 0
            for i, s in rel:
                elem = d.gen_elements[d.presentation.generators[i]]
                if s < 0:
                    elem = group.inverse(elem)
                acc = group.product(acc, elem)
            assert acc == 0


def test_simplex_matches_standard_presentation():
    for n in (3, 4, 5):
        inp = simplex_action(n)
        d = derive_presentation(inp)
        assert presentation_matches(d, standard_symmetric_presentation(n), inp.ag)


def test_dodecahedron_matches_golden_presentation():
    inp = dodecahedron_action()
    d = derive_presentation(inp)
    target = Presentation.from_strings(
        ["g", "h"], [[("g", 1)] * 2, [("h", 1)] * 3, [("g", 1), ("h", 1)] * 5])
    assert presentation_matches(d, target, inp.ag)
    # and not a weaker one
    weaker = Presentation.from_strings(
        ["g", "h"], [[("g", 1)] * 2, [("h", 1)] * 3, [("g", 1), ("h", 1)] * 4])
    assert not presentation_matches(d, weaker, inp.ag)


def test_dihedral_golden_shape():
    for n in (3, 8):
        inp = dihedral_cycle_action(n)
        d = derive_presentation(inp)
        target = Presentation.from_strings(
            ["g", "m"], [[("m", 1)] * 2, [("g", 1)] * 2, [("g", 1), ("m", 1)] * n])
        assert presentation_matches(d, target, inp.ag)


def test_coxeter_substitution_from_derived():
    bi = binary_icosahedral_action()
    d = derive_presentation(bi.input)
    stz = coxeter_substitution(d.renamed())
    assert stz.generators == ("s", "t", "z")
    assert todd_coxeter(stz).n == 120


def test_coxeter_substitution_rejects_wrong_pattern():
    cases = [
        (["a"], [[("a", 1)] * 5], "^expected a presentation on two generators$"),
        # the modular group, infinite
        (["a", "b"], [[("a", 1)] * 2, [("b", 1)] * 3], "^input presentation does not close$"),
        # A4, of order 12
        (["a", "b"], [[("a", 1)] * 2, [("b", 1)] * 3, [("a", 1), ("b", 1)] * 3],
         "^input presents a group of order 12, not 120$"),
        # S5, of order 120: <a, b | a^2, b^5, (ab)^4, [a, b]^3>
        (["a", "b"], [[("a", 1)] * 2, [("b", 1)] * 5, [("a", 1), ("b", 1)] * 4,
                      [("a", -1), ("b", -1), ("a", 1), ("b", 1)] * 3],
         "^presentation is not the double-cover pattern$"),
    ]
    for generators, relators, message in cases:
        with pytest.raises(PatternMismatchError, match=message):
            coxeter_substitution(Presentation.from_strings(generators, relators))


def test_derived_json_round_trip():
    # a derived presentation holds exactly the fields of its file, for every
    # pinned builtin and file action
    for name in dict.fromkeys([*PINNED, *ACTIONS]):
        inp = action_from_json(ACTIONS[name], name) if name in ACTIONS else load_builtin(name)
        d = derive_presentation(inp)
        assert derived_from_json(derived_to_json(d)) == d, name


def test_random_dihedral_instances_sound(rng):
    for _ in range(12):
        n = rng.randint(3, 24)
        inp = dihedral_cycle_action(n)
        d = derive_presentation(inp)
        letters = [d.gen_elements[name] for name in d.presentation.generators]
        assert all(inp.ag.group.evaluate(letters, rel) == 0 for rel in d.presentation.relators)
        assert todd_coxeter(d.presentation).n == 2 * n


def test_greedy_generators_keep_only_what_the_kept_ones_do_not_generate():
    ag = complete_graph_action(5)
    stab = ag.stabilizer(0)
    kept = greedy_generators(ag.group, stab)
    assert kept[0] == min(g for g in stab if g != 0)
    assert ag.group.subgroup_closure(kept) == stab
    for k, g in enumerate(kept):
        assert g not in ag.group.subgroup_closure(kept[:k])
    assert greedy_generators(ag.group, (0,)) == []


@pytest.mark.parametrize("n", [4, 5, 6])
def test_schreier_presentation_presents_the_stabilizer(n):
    # the recursive derivation replaced the Schreier presentation; the name
    # is kept, and the test asks the same of its output
    ag = complete_graph_action(n)
    data = stabilizer_presentation(ag, 0, "t0_")
    pres = data.presentation
    stab = ag.stabilizer(0)
    assert all(name.startswith("t0_") for name in data.gen_elements)
    assert ag.group.subgroup_closure(data.gen_elements.values()) == stab
    assert todd_coxeter(pres).n == len(stab)
    letters = [data.gen_elements[name] for name in pres.generators]
    keys = set()
    for rel in pres.relators:
        assert rel and ag.group.evaluate(letters, rel) == 0
        keys.add(_free_cyclic_form(rel))
    assert len(keys) == len(pres.relators)


K6 = {"vertices": 6, "edges": [[a, b] for a in range(6) for b in range(a + 1, 6)],
      "generators": {"s": [1, 0, 2, 3, 4, 5], "c": [1, 2, 3, 4, 5, 0]}}


@pytest.mark.parametrize("name", ["petersen", "cube", "k6"])
def test_schreier_relators_do_not_depend_on_the_vertex_numbering(name):
    data, shapes = ACTIONS.get(name, K6), set()
    for seed in range(6):
        perm = list(range(data["vertices"]))
        random.Random(seed).shuffle(perm)
        gens = {}
        for label, images in data["generators"].items():
            gens[label] = [0] * len(perm)
            for v, w in enumerate(images):
                gens[label][perm[v]] = perm[w]
        inp = action_from_json({"vertices": data["vertices"], "generators": gens,
                                "edges": [[perm[u], perm[w]] for u, w in data["edges"]]})
        (v,) = inp.sc.base_vertices
        stab = stabilizer_presentation(inp.ag, v, "t_")
        assert inp.ag.group.subgroup_closure(stab.gen_elements.values()) == inp.ag.stabilizer(v)
        shapes.add(tuple(tuple(s for _, s in rel) for rel in stab.presentation.relators))
    assert len(shapes) == 1


def test_order_two_stabilizer_keeps_the_square_relator():
    data = square_action().stabilizers[0]
    (name,) = data.presentation.generators
    assert data.presentation.relators == (((0, -1), (0, -1)),)
    assert name == "t0_g[0]" and data.gen_elements[name] != 0


def test_a_repeated_relator_is_emitted_once():
    # the second loop is the first one walked backwards: its relator is a
    # conjugate of the inverse of the first one's
    inp = square_action([[0, 1, 2, 3, 0], [0, 3, 2, 1, 0]])
    d = derive_presentation(inp)
    assert len(inp.loops) == 2 and d.families["loop"] == 1
    assert len(d.presentation.relators) == sum(d.families.values())
    keys = [_free_cyclic_form(rel) for rel in d.presentation.relators]
    assert len(set(keys)) == len(keys)
    assert d.presentation == derive_presentation(square_action([[0, 1, 2, 3, 0]])).presentation
    assert todd_coxeter(d.presentation).n == 8


def test_degenerate_given_loops_emit_no_empty_relator(tmp_path, capsys):
    # a one-vertex loop and an out-and-back walk both reduce to the empty word
    path = tmp_path / "square.json"
    path.write_text(json.dumps({**ACTIONS["square"],
                                "loops": [[0, 1, 2, 3, 0], [0], [0, 1, 0]]}))
    assert main(["derive", "--action", str(path), "--out", str(tmp_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["relator_count"] == 3 and report["families"]["loop"] == 1
    relators = (tmp_path / "square.relators.txt").read_text().splitlines()
    assert len(relators) == 4 and "1" not in relators  # a header line, then the relators


# the pinned file actions, the four prisms of the multi-orbit benchmark, a
# grid with a base vertex per vertex, and a relabelled prism whose ring is
# picked at the fourth radius
PICKER_CASES = {**ACTIONS, **{f"prism-{n}x{k}" + ("-dihedral" if flip else ""): prism(n, k, flip)
                              for n, k, flip in [(60, 4, False), (40, 5, False),
                                                 (75, 3, False), (30, 4, True)]},
                "trivial-grid-6x6": trivial_grid(6, 6),
                "prism-12x6-relabelled": relabelled(prism(12, 6, False), random.Random(12))}


def cycle_space_rank(ag, loops):
    """GF(2) rank of the edge sets of every translate of the loops."""
    edges = sorted(ag.graph.edges)
    bit = {e: 1 << k for k, e in enumerate(edges)}
    basis = {}
    for loop in loops:
        for p in ag.action:
            m = 0
            for a, b in zip(loop, loop[1:]):
                m ^= bit[min(p[a], p[b]), max(p[a], p[b])]
            while m and m.bit_length() in basis:
                m ^= basis[m.bit_length()]
            if m:
                basis[m.bit_length()] = m
    return len(basis)


@pytest.mark.parametrize("name", list(PICKER_CASES))
def test_picked_loops_span_the_cycle_space_and_collapse(monkeypatch, name):
    verdicts = []
    collapses = CycleSpace.collapses

    def spy(space):
        verdicts.append(collapses(space))
        assert verdicts[-1] == reference_collapses(space.cells)
        return verdicts[-1]

    monkeypatch.setattr(CycleSpace, "collapses", spy)
    inp = action_from_json(PICKER_CASES[name], name)
    graph = inp.ag.graph
    # the action's own pick runs first; the stabilizers' derivations pick too
    assert verdicts and all(verdicts) and inp.loop_source == "picked"
    assert inp.loops == pick_loops(inp.ag, inp.sc)
    assert all(loop[0] == loop[-1] and loop[0] in inp.sc.base_vertices for loop in inp.loops)
    assert all(loop[1] != loop[-2] for loop in inp.loops)  # no stem
    assert cycle_space_rank(inp.ag, inp.loops) == len(graph.edges) - graph.vertex_count + 1


@pytest.mark.parametrize("name", list(PICKER_CASES))
def test_picks_match_the_reference(rng, name):
    for k in range(4):
        data = PICKER_CASES[name] if k == 0 else relabelled(PICKER_CASES[name], rng)
        inp = action_from_json(data, name)
        assert pick_loops(inp.ag, inp.sc) == reference_pick_loops(inp.ag, inp.sc)


def test_prism_picks_its_squares_and_one_ring():
    inp = action_from_json(PICKER_CASES["prism-60x4"], "prism-60x4")
    assert sorted(len(loop) - 1 for loop in inp.loops) == [4, 4, 4, 60]


def collapses(cells):
    """`CycleSpace.collapses` with these walks as its cells, checked against
    the reference."""
    edges = {step for cell in cells for step in zip(cell, cell[1:])}
    space = CycleSpace(Graph(1 + max(map(max, cells)), edges))
    space.cells = [list(cell) for cell in cells]
    assert space.collapses() == reference_collapses(cells)
    return space.collapses()


K4_TRIANGLES = [(0, 1, 2, 0), (0, 1, 3, 0), (0, 2, 3, 0), (1, 2, 3, 1)]


def test_the_sphere_of_k4_triangles_does_not_collapse():
    assert not collapses(K4_TRIANGLES)


@pytest.mark.parametrize("left_out", range(4))
def test_any_three_k4_triangles_collapse(left_out):
    assert collapses([t for k, t in enumerate(K4_TRIANGLES) if k != left_out])


def test_an_edge_walked_twice_is_never_free():
    assert not collapses([(0, 1, 0)])
    assert not collapses([(0, 1, 2, 1, 0)])
    # the triangle goes through (1, 2); the walk 0-1-0 then still uses (0, 1) twice
    assert not collapses([(0, 1, 2, 0), (0, 1, 0)])
    # a spur 1-3-1 is walked twice, but the cell still goes through (0, 1)
    assert collapses([(0, 1, 3, 1, 2, 0)])


def test_failed_collapse_falls_back_to_fundamental_loops(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(CycleSpace, "collapses", lambda space: False)
    inp = action_from_json(ACTIONS["cube"], "cube")
    assert inp.loop_source == "fundamental"
    assert list(inp.loops) == fundamental_loops(inp.ag, inp.sc.base_vertices[0])
    path = tmp_path / "cube.json"
    path.write_text(json.dumps(ACTIONS["cube"]))
    assert main(["derive", "--action", str(path), "--verify", "--out", str(tmp_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["loops"] == "fundamental" and report["order"] == 48


def test_given_loops_pass_through_unchanged(tmp_path, capsys):
    given = [[0, 3, 2, 1, 0], [0, 1, 2, 3, 0]]
    inp = square_action(given)
    assert inp.loop_source == "given" and inp.loops == tuple(map(tuple, given))
    path = tmp_path / "square.json"
    path.write_text(json.dumps({**ACTIONS["square"], "loops": given}))
    assert main(["derive", "--action", str(path), "--out", str(tmp_path)]) == 0
    assert json.loads(capsys.readouterr().out)["loops"] == "given"
    assert main(["derive", "--builtin", "dihedral:5", "--out", str(tmp_path)]) == 0
    assert json.loads(capsys.readouterr().out)["loops"] == "given"


def neighbor_calls(monkeypatch, data: dict) -> int:
    """`Graph.neighbors` calls made while deriving a presentation of `data`."""
    calls = 0
    neighbors = Graph.neighbors

    def counted(graph, v):
        nonlocal calls
        calls += 1
        return neighbors(graph, v)

    with monkeypatch.context() as m:
        m.setattr(Graph, "neighbors", counted)
        derive_presentation(action_from_json(data))
    return calls


def test_many_vertex_orbits_cost_linear_neighbor_calls(monkeypatch):
    # the trivial group on a path: every vertex is a base vertex and the
    # cycle space is 0, so the scaffolding lists each vertex's neighbors once
    # and `pick_loops` none
    small = neighbor_calls(monkeypatch, trivial_grid(1, 500))
    large = neighbor_calls(monkeypatch, trivial_grid(1, 2000))
    assert 0 < small and large <= 5 * small
    # on a grid `pick_loops` grows a ball of radius 2 around every vertex,
    # where its squares are
    small = neighbor_calls(monkeypatch, trivial_grid(20, 20))
    large = neighbor_calls(monkeypatch, trivial_grid(40, 40))
    assert 0 < small and large <= 5 * small



def test_base_vertex_tests_do_not_scan_the_base_vertices():
    # the trivial group on a 20x20 grid: 400 base vertices and 361 picked
    # squares, each traced from and back to a base vertex
    scanned = []

    class Counted(tuple):
        def __contains__(self, item):
            scanned.append(item)
            return super().__contains__(item)

    inp = action_from_json(trivial_grid(20, 20))
    inp = inp._replace(sc=inp.sc._replace(base_vertices=Counted(inp.sc.base_vertices)))
    derived = derive_presentation(inp)
    assert derived.families["loop"] == 19 * 19
    assert scanned == []
