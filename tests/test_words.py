import pytest

from graphpres.builtins import (binary_icosahedral_action, dihedral_cycle_action,
                                dodecahedron_action, simplex_action)
from graphpres.cli import action_from_json
from graphpres.graphs import OrientedEdge
from graphpres.perms import identity, transposition
from graphpres.presentation import Presentation, least_rotation, read_json
from graphpres.words import (EdgeLetter, StabLetter, cyclic_normal_form, edge_relation,
                             edge_word, evaluate_word_in_G, inverse_letters, loop_relation,
                             normal_form, rewrite_word_to_E1, trace_path)
from test_pinned import ACTIONS


def test_evaluate_empty_word():
    inp = simplex_action(4)
    assert evaluate_word_in_G((), inp.ag, inp.sc) == 0


def test_evaluate_base_edge_generator():
    inp = simplex_action(4)
    e = OrientedEdge(0, 1)
    idx = evaluate_word_in_G(edge_word(e), inp.ag, inp.sc)
    assert inp.ag.group.elements[idx] == transposition(4, 0, 1)


def test_evaluate_rejects_unknown_edge():
    inp = simplex_action(4)
    with pytest.raises(ValueError):
        evaluate_word_in_G(edge_word(OrientedEdge(1, 2)), inp.ag, inp.sc)


def test_free_reduce_cancels_and_folds():
    inp = dodecahedron_action()
    ag = inp.ag
    h = ag.generator_labels["h"]
    e = OrientedEdge(0, 1)
    w = (StabLetter(0, h), StabLetter(0, h), StabLetter(0, h),
         EdgeLetter(e, 1), EdgeLetter(e, -1))
    assert normal_form(w, ag) == ()
    w2 = (StabLetter(0, h), StabLetter(0, ag.group.inverse(h)))
    assert normal_form(w2, ag) == ()
    w3 = (StabLetter(0, h), StabLetter(0, h))
    (letter,) = normal_form(w3, ag)
    assert letter.element == ag.group.product(h, h)


def test_edge_relation_with_identity_is_freely_trivial():
    inp = binary_icosahedral_action().input
    e = OrientedEdge(0, 1)
    rel = edge_relation(e, 0, inp.ag, inp.sc)
    assert normal_form(rel, inp.ag) == ()


def test_edge_relation_simplex_commutation():
    inp = simplex_action(5)
    e = OrientedEdge(0, 1)
    t = inp.stabilizers[0].gen_elements["s3"]
    rel = edge_relation(e, t, inp.ag, inp.sc)
    assert evaluate_word_in_G(rel, inp.ag, inp.sc) == 0
    # shape: g^-1 t^-1 g k with k = t (the conjugated element is t itself)
    letters = normal_form(rel, inp.ag)
    assert [type(x) for x in letters] == [EdgeLetter, StabLetter, EdgeLetter, StabLetter]
    assert letters[1].element == inp.ag.group.inverse(t) == t
    assert letters[3].element == t


def test_edge_relation_double_cover_central():
    bi = binary_icosahedral_action()
    inp = bi.input
    rel = edge_relation(OrientedEdge(0, 1), bi.named["c"], inp.ag, inp.sc)
    assert evaluate_word_in_G(rel, inp.ag, inp.sc) == 0
    letters = normal_form(rel, inp.ag)
    stab_elems = [x.element for x in letters if isinstance(x, StabLetter)]
    assert stab_elems == [bi.named["c"], bi.named["c"]]


def test_edge_relation_rejects_non_stabilizer():
    inp = simplex_action(4)
    mover = next(i for i in range(inp.ag.group.order) if inp.ag.apply(i, 0) == 1)
    with pytest.raises(ValueError):
        edge_relation(OrientedEdge(0, 1), mover, inp.ag, inp.sc)


def test_trace_length_zero():
    inp = simplex_action(4)
    assert trace_path([0], inp.ag, inp.sc) == []


def test_trace_simplex_triangle():
    # the loop through the first three points traces to the hand sequence
    inp = simplex_action(4)
    edges = trace_path([0, 1, 2, 0], inp.ag, inp.sc)
    elems = [inp.ag.group.elements[inp.sc.s[e]] for e in edges]
    assert elems == [transposition(4, 0, 1),
                     transposition(4, 0, 2),
                     transposition(4, 0, 1)]
    product = inp.ag.group.word_product(inp.sc.s[e] for e in edges)
    assert inp.ag.group.elements[product] == transposition(4, 1, 2)


def test_trace_dodecahedron_pentagon():
    inp = dodecahedron_action()
    ag, sc = inp.ag, inp.sc
    edges = trace_path(inp.loops[0], ag, sc)
    h = ag.generator_labels["h"]
    s1 = ag.generator_labels["s1"]
    s3 = ag.group.conjugate(h, s1)
    s2 = ag.group.conjugate(ag.group.product(h, h), s1)
    assert [sc.s[e] for e in edges] == [s1, s3, s2, s1, s3]
    assert ag.group.word_product(sc.s[e] for e in edges) == h


def test_trace_rejects_bad_paths():
    inp = simplex_action(4)
    with pytest.raises(ValueError):
        trace_path([1, 2, 3], inp.ag, inp.sc)  # must start at the base vertex
    from graphpres.builtins import dihedral_cycle_action
    inp2 = dihedral_cycle_action(6)
    with pytest.raises(ValueError):
        trace_path([0, 2], inp2.ag, inp2.sc)  # not adjacent
    # a carrier that does not reach the edge's target: the square under D4
    # with s_(0,1) replaced by the identity
    inp3 = dihedral_cycle_action(4)
    sc = inp3.sc._replace(s={**inp3.sc.s, OrientedEdge(0, 1): 0})
    with pytest.raises(ValueError, match=r"^trace lost the path at 0,1; bad scaffolding$"):
        trace_path((0, 1), inp3.ag, sc)


def stabilizer_element(inp, v, a, b):
    """The first element fixing v that carries a to b."""
    return next(g for g in range(inp.ag.group.order)
                if inp.ag.apply(g, v) == v and inp.ag.apply(g, a) == b)


def edited(inp, **change):
    """The action and its scaffolding with some of the choices replaced."""
    return inp.ag, inp.sc._replace(**{k: {**getattr(inp.sc, k), **v} for k, v in change.items()})


@pytest.mark.parametrize("call, message", [
    # a stabilizer letter naming no element of S4
    (lambda inp: evaluate_word_in_G((StabLetter(0, 24),), inp.ag, inp.sc),
     "word references unknown element 24"),
    # s of (0, 2) replaced by the identity, which does not carry 0 to 2
    (lambda inp: edge_relation(OrientedEdge(0, 1), stabilizer_element(inp, 0, 1, 2),
                               *edited(inp, s={OrientedEdge(0, 2): 0})),
     "k(e,t) does not fix the base vertex; scaffolding data broken"),
    (lambda inp: trace_path((), inp.ag, inp.sc), "empty path"),
    (lambda inp: trace_path((0, 1), inp.ag, inp.sc._replace(
        s={e: se for e, se in inp.sc.s.items() if e != OrientedEdge(0, 1)})),
     "translated edge OrientedEdge(origin=0, target=1) has no origin in V; bad scaffolding"),
    # the square under D4 with 2 also made a base vertex: the walk 0, 1, 2
    # traces to (0, 1) and (0, 3), and the product, carrying 3's base vertex
    # 0 to 2, moves 2
    (lambda inp: loop_relation((0, 1, 2), *edited(dihedral_cycle_action(4), base_of={2: 2})),
     "traced product does not stabilize the endpoint"),
], ids=["unknown-element", "k-off-the-base-vertex", "empty-path", "edge-without-s",
        "product-off-the-endpoint"])
def test_word_functions_refuse_bad_words_and_scaffoldings(call, message):
    with pytest.raises(ValueError) as refused:
        call(simplex_action(4))
    assert str(refused.value) == message


def test_loop_relation_evaluates_to_identity():
    for inp in (simplex_action(4), dodecahedron_action(),
                binary_icosahedral_action().input):
        for loop in inp.loops:
            rel = loop_relation(loop, inp.ag, inp.sc)
            assert evaluate_word_in_G(rel, inp.ag, inp.sc) == 0


def test_loop_relation_rejects_open_path():
    inp = simplex_action(4)
    with pytest.raises(ValueError):
        loop_relation([0, 1, 2], inp.ag, inp.sc)


def test_edge_loop_relation_squares():
    # the out-and-back walk along an inverted edge traces it twice
    inp = dodecahedron_action()
    e = OrientedEdge(0, 1)
    rel = loop_relation((0, 1, 0), inp.ag, inp.sc)
    square = inp.ag.group.product(inp.sc.s[e], inp.sc.s[e])
    assert rel == (EdgeLetter(e, -1), EdgeLetter(e, -1), StabLetter(0, square))
    assert evaluate_word_in_G(rel, inp.ag, inp.sc) == 0
    # the flip squares to the identity here, so the relator is plain g^-2
    assert normal_form(rel, inp.ag) == (EdgeLetter(e, -1), EdgeLetter(e, -1))

    bi = binary_icosahedral_action()
    rel2 = loop_relation((0, 1, 0), bi.input.ag, bi.input.sc)
    letters = normal_form(rel2, bi.input.ag)
    assert letters[-1] == StabLetter(0, bi.named["c"])


def test_tautological_relation():
    # a tree edge's relator is its one-letter edge word
    from graphpres.derive import auto_derivation_input, derive_presentation
    from graphpres.graphs import ActionedGraph, Graph
    graph = Graph(3, [(0, 1), (1, 2)])
    ag = ActionedGraph.from_generators(graph, {"e": identity(3)})
    derived = derive_presentation(auto_derivation_input(ag))
    assert derived.families["tree"] == 2
    gens = derived.presentation.generators
    assert [(derived.edge_gens[gens[i]], s) for (i, s), in derived.presentation.relators] == \
        [(OrientedEdge(0, 1), 1), (OrientedEdge(1, 2), 1)]


def test_rewrite_identity_on_representatives():
    inp = dodecahedron_action()
    e = OrientedEdge(0, 1)
    w = edge_word(e)
    assert rewrite_word_to_E1(w, inp.ag, inp.sc) == w


def test_rewrite_dodecahedron_conjugation():
    inp = dodecahedron_action()
    ag, sc = inp.ag, inp.sc
    h = ag.generator_labels["h"]
    e3 = ag.apply_edge(h, OrientedEdge(0, 1))
    out = rewrite_word_to_E1(edge_word(e3), ag, sc)
    assert out == (StabLetter(0, h), EdgeLetter(OrientedEdge(0, 1), 1),
                   StabLetter(0, ag.group.inverse(h)))


def test_rewrite_simplex_conjugation():
    inp = simplex_action(4)
    ag, sc = inp.ag, inp.sc
    s2 = inp.stabilizers[0].gen_elements["s2"]
    e3 = ag.apply_edge(s2, OrientedEdge(0, 1))
    assert e3 == OrientedEdge(0, 2)
    out = rewrite_word_to_E1(edge_word(e3), ag, sc)
    assert out == (StabLetter(0, s2), EdgeLetter(OrientedEdge(0, 1), 1),
                   StabLetter(0, ag.group.inverse(s2)))


def test_rewrite_preserves_evaluation(rng):
    for inp in (simplex_action(5), dodecahedron_action(),
                binary_icosahedral_action().input):
        ag, sc = inp.ag, inp.sc
        edges = sorted(sc.s)
        stab = ag.stabilizer(0)
        for _ in range(25):
            letters = []
            for _ in range(rng.randint(1, 8)):
                if rng.random() < 0.6:
                    letters.append(EdgeLetter(rng.choice(edges), rng.choice((1, -1))))
                else:
                    letters.append(StabLetter(0, rng.choice(stab)))
            w = tuple(letters)
            out = rewrite_word_to_E1(w, ag, sc)
            for letter in out:
                if isinstance(letter, EdgeLetter):
                    assert letter.edge in sc.pair_reps
            assert (evaluate_word_in_G(out, ag, sc)
                    == evaluate_word_in_G(w, ag, sc))


def test_presentation_round_trip_and_rename():
    p = Presentation.from_strings(["a", "b"], [[("a", 1), ("b", -1)]])
    q = Presentation.from_strings(**p.to_json_dict())
    assert q == p
    r = p.rename({"a": "x"})
    assert r.generators == ("x", "b")
    with pytest.raises(ValueError, match=r"^generators\[1\]: repeated generator name 'b'$"):
        p.rename({"a": "b"})
    with pytest.raises(ValueError, match=r"^relators\[0\]\[1\]: expected a generator and 1 or -1$"):
        Presentation.from_strings(["a"], [[("a", 1), ("c", 1)]])
    with pytest.raises(ValueError, match=r"^relators\[1\]\[0\]: expected a generator and 1 or -1$"):
        Presentation.from_strings(["a"], [[("a", 1)], [("a", 0)]])


SHAPE = {"n": int, "pairs": [(int, int)], "names": {str: [str]}, "extra?": str}


@pytest.mark.parametrize("data", [
    {"n": 3, "pairs": [[0, 1], [1, 2]], "names": {"a": ["x"]}},
    {"n": 3, "pairs": ((0, 1),), "names": {}, "extra": "y", "unread": None},
], ids=["lists", "tuples-and-extra-keys"])
def test_read_json_accepts_the_shape(data):
    read_json(data, SHAPE)


@pytest.mark.parametrize("data, message", [
    ([], "the file: expected an object, got an array"),
    ({"pairs": [], "names": {}}, "n: expected an integer, got nothing"),
    ({"n": 3.0, "pairs": [], "names": {}}, "n: expected an integer, got 3.0"),
    ({"n": False, "pairs": [], "names": {}}, "n: expected an integer, got false"),
    ({"n": 3, "pairs": [[0, 1], [1, 2, 3]], "names": {}}, "pairs[1]: expected 2 entries, got 3"),
    ({"n": 3, "pairs": [[0, 1], [1, None]], "names": {}},
     "pairs[1][1]: expected an integer, got null"),
    ({"n": 3, "pairs": {}, "names": {}}, "pairs: expected an array, got an object"),
    ({"n": 3, "pairs": [], "names": {"a": ["x", 5]}},
     "names['a'][1]: expected a string, got 5"),
    ({"n": 3, "pairs": [], "names": {1: []}}, "names key: expected a string, got 1"),
    ({"n": 3, "pairs": [], "names": {}, "extra": 1.5}, "extra: expected a string, got 1.5"),
], ids=["not-an-object", "missing", "float", "bool", "long-entry", "null-entry",
        "object-for-array", "name-map-entry", "name-map-key", "optional-present"])
def test_read_json_names_the_path_and_the_expectation(data, message):
    with pytest.raises(ValueError) as exc:
        read_json(data, SHAPE)
    assert str(exc.value) == message


def test_cyclic_normal_form_rotation_and_inversion():
    inp = dodecahedron_action()
    ag = inp.ag
    h = ag.generator_labels["h"]
    e = OrientedEdge(0, 1)
    h_inv = ag.group.inverse(h)
    w1 = (EdgeLetter(e, 1), StabLetter(0, h)) * 3
    # a rotated and inverted variant
    w2 = (StabLetter(0, h_inv), EdgeLetter(e, -1)) * 3
    assert w2 == inverse_letters(w1, ag)
    assert cyclic_normal_form(w1, ag) == cyclic_normal_form(w2, ag)
    # conjugation disappears cyclically
    w3 = (StabLetter(0, h),) + w1 + (StabLetter(0, h_inv),)
    assert cyclic_normal_form(w3, ag) == cyclic_normal_form(w1, ag)


def test_word_layer_at_several_base_vertices(rng):
    # the flip of the dihedral prism fixes its base vertices 0, 4 and 8, so
    # one element names a letter at each of them; these must not fold
    inp = action_from_json(ACTIONS["prism-4x3-dihedral"], "prism")
    ag, sc = inp.ag, inp.sc
    stabs = {v: ag.stabilizer(v) for v in sc.base_vertices}
    assert sorted(stabs) == [0, 4, 8] and all(len(stab) == 2 for stab in stabs.values())
    flips = tuple(StabLetter(v, x) for v, stab in stabs.items() for x in stab if x)
    assert len(flips) == 3 and normal_form(flips, ag) == flips
    edges = sorted(sc.s)
    for _ in range(300):
        letters = []
        for _ in range(rng.randint(0, 12)):
            if rng.random() < 0.5:
                letters.append(EdgeLetter(rng.choice(edges), rng.choice((1, -1))))
            else:
                v = rng.choice(sc.base_vertices)
                letters.append(StabLetter(v, rng.choice(stabs[v])))
        w = tuple(letters)
        inverse = inverse_letters(w, ag)
        assert inverse_letters(inverse, ag) == w
        assert normal_form(w + inverse, ag) == ()
        reduced = normal_form(w, ag)
        assert evaluate_word_in_G(reduced, ag, sc) == evaluate_word_in_G(w, ag, sc)
        assert all(isinstance(x, EdgeLetter) or x.element for x in reduced)
        for x, y in zip(reduced, reduced[1:]):  # no two adjacent letters interact
            assert x[0] != y[0] or (isinstance(x, EdgeLetter) and x.sign == y.sign)
        form = cyclic_normal_form(w, ag)
        assert cyclic_normal_form(inverse, ag) == form
        r = rng.randrange(len(w) + 1)
        assert cyclic_normal_form(w[r:] + w[:r], ag) == form


def test_least_rotation_matches_every_rotation(rng):
    # the reference tries every rotation; words repeat a short stem now and
    # then so that several rotations tie
    def every_rotation(*words):
        return min((w[r:] + w[:r] for w in words for r in range(len(w))), default=())

    for _ in range(3000):
        stem = tuple(rng.randrange(3) for _ in range(rng.randint(0, 8)))
        word = stem * rng.choice([1, 1, 2, 3])
        other = tuple(rng.randrange(3) for _ in range(rng.randint(0, 6)))
        assert least_rotation(word) == every_rotation(word)
        assert least_rotation(word, other) == every_rotation(word, other)
    assert least_rotation() == least_rotation((), ()) == ()
