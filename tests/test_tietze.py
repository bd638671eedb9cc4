"""The verifier enumerates Tietze-reduced presentations and reads the tables
over every original generator.

`presentation.tietze_reduce` removes every generator that a relator of length one
or two pins down, and `TietzeReduction.word` respells a word over the
original generators as a word over the reduced ones.  The table of the
reduced presentation must then act as a complete coset table of the
original presentation over the original subgroup words, with the index
that enumerating the unreduced presentation gives.
"""

import json
import random

import pytest

from graphpres.cli import action_from_json, main
from graphpres.coset import todd_coxeter
from graphpres.derive import derive_presentation
from graphpres.verify import build_kozsul_model, check_covering_isomorphism
from graphpres.presentation import Presentation, TietzeReduction, tietze_reduce
from test_coset import inverse_word, random_word, rotated
from test_pinned import ACTIONS, prism
from verify_steps import checked_file, kozsul_model

PRISM_SHAPES = [(60, 4, False), (40, 5, False), (75, 3, False), (30, 4, True)]
RELABELLINGS = [1, 2, 3]


def check_reduced(presentation, subgroup_words, limit=100_000):
    """Property (a): the reduced table is complete, every original relator
    closes at every coset and the original subgroup words fix coset 0, each
    spelled through `reduction.word`, and the index is the one of the
    unreduced enumeration over the same words.  Words are traced letter by
    letter, independently of the table's own check."""
    reduction = tietze_reduce(presentation)
    table = todd_coxeter(reduction.presentation,
                         [reduction.word(w) for w in subgroup_words], limit=limit)
    ngens = len(reduction.presentation.generators)
    assert table.gen_names == reduction.presentation.generators
    assert all(len(row) == 2 * ngens for row in table.rows)
    cosets = list(range(table.n))
    for g in range(ngens):
        forward = [table.rows[c][2 * g] for c in cosets]
        backward = [table.rows[c][2 * g + 1] for c in cosets]
        assert sorted(forward) == cosets
        assert all(backward[forward[c]] == c for c in cosets)
    for rel in presentation.relators:
        word = reduction.word(rel)
        assert all(table.trace(c, word) == c for c in cosets), rel
    for w in subgroup_words:
        assert table.trace(0, reduction.word(w)) == 0
    assert table.n == todd_coxeter(presentation, subgroup_words, limit=limit).n
    return reduction, table


def stabilizer_words(derived):
    """Each base vertex's subgroup words, as the reconstruction spells them."""
    index = {name: i for i, name in enumerate(derived.presentation.generators)}
    words = {}
    for name, v in derived.stab_owners.items():
        words.setdefault(v, []).append(((index[name], 1),))
    return words


def check_action(inp):
    derived = derive_presentation(inp)
    words = stabilizer_words(derived)
    for v in inp.sc.base_vertices:
        check_reduced(derived.presentation, words.get(v, []))
    model = kozsul_model(derived, inp.ag)
    assert check_covering_isomorphism(model, inp.ag).ok
    return derived, model


def relabelled(data, seed):
    """The same action with its vertices renamed by a seeded permutation."""
    rng = random.Random(seed)
    n = data["vertices"]
    perm = list(range(n))
    rng.shuffle(perm)
    gens = {}
    for name, images in data["generators"].items():
        new = [0] * n
        for v in range(n):
            new[perm[v]] = perm[images[v]]
        gens[name] = new
    edges = sorted(sorted((perm[u], perm[v])) for u, v in data["edges"])
    return {"vertices": n, "edges": edges, "generators": gens}


def prism_input(n, k, flip, seed):
    label = f"prism-{n}x{k}" + ("-dihedral" if flip else "")
    return action_from_json(relabelled(prism(n, k, flip), seed), label)


def distinct_tables(model):
    return list({id(t): t for t in model.tables.values()}.values())


# -- (a) the reduced table over the original generators ------------------------

@pytest.mark.parametrize("name", list(ACTIONS))
def test_widened_tables_of_pinned_actions(name):
    check_action(action_from_json(ACTIONS[name], name))


@pytest.mark.parametrize("seed", RELABELLINGS)
@pytest.mark.parametrize("shape", PRISM_SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_widened_tables_of_benchmark_prisms(shape, seed):
    derived, _ = check_action(prism_input(*shape, seed))
    assert tietze_reduce(derived.presentation).presentation is not derived.presentation


def test_chain_of_pins_g_equals_h_equals_k_inverse():
    # g = h, h = k^-1, k = a over <a | a^5>: all three go, each onto a^+-1
    p = Presentation.from_strings(
        ["a", "g", "h", "k"],
        [[("a", 1)] * 5, [("g", 1), ("h", -1)], [("h", 1), ("k", 1)], [("a", -1), ("k", 1)]])
    reduction, table = check_reduced(p, [])
    assert reduction.presentation.generators == ("a",)
    assert reduction.pins == ((0, 1), (0, -1), (0, -1), (0, 1))
    assert table.n == 5


def test_elimination_that_makes_another_relator_short():
    # z = 1 turns a z b^-1 z^-1 into a b^-1, which then pins b = a
    p = Presentation.from_strings(
        ["a", "b", "z"],
        [[("a", 1), ("z", 1), ("b", -1), ("z", -1)], [("a", 1)] * 3, [("z", 1)]])
    reduction, table = check_reduced(p, [])
    assert reduction.presentation.generators == ("a",)
    assert reduction.presentation.relators == (((0, 1),) * 3,)
    assert reduction.pins == ((0, 1), (0, 1), None)
    assert table.n == 3


def test_presentation_without_short_relators_is_kept_as_it_is():
    p = Presentation.from_strings(["a", "b"], [[("a", 1)] * 2, [("b", 1)] * 3,
                                               [("a", 1), ("b", 1)] * 3])
    reduction = tietze_reduce(p)
    assert reduction.presentation is p
    assert reduction.pins == ((0, 1), (1, 1))


BASES = [
    (1, [[(0, 1)] * 5]),                                                   # C5
    (2, [[(0, 1)] * 2, [(1, 1)] * 3, [(0, 1), (1, 1)] * 3]),               # A4
    (2, [[(0, 1)] * 2, [(1, 1)] * 2, [(0, 1), (1, 1)] * 4]),               # D4
    (2, [[(0, 1)] * 4, [(0, 1), (0, 1), (1, -1), (1, -1)],
         [(1, -1), (0, 1), (1, 1), (0, 1)]]),                              # Q8
    (3, [[(0, 1)] * 2, [(1, 1)] * 2, [(2, 1)] * 2, [(0, 1), (1, 1)] * 3,
         [(1, 1), (2, 1)] * 3, [(0, 1), (2, 1)] * 2]),                     # S4
]


def presentation_with_short_relators(rng):
    """A small finite group with extra generators that short relators pin:
    x = 1 (sometimes conjugated, y x y^-1), x = y^+-1 for an earlier
    generator y (so chains form), and x pinned through a fresh z = 1 by
    x z y^-s z^-1, which is short only once z is gone.  The base relators
    are respelled over the copies, identity letters are inserted, and every
    relator is rotated or inverted at random; subgroup words use every
    generator, some of them conjugated."""
    base_ngens, base_rels = rng.choice(BASES)
    ngens = base_ngens
    alias = {g: (g, 1) for g in range(base_ngens)}  # generator -> base letter, None for 1
    pins = []

    def copy_of(y, s):
        return None if alias[y] is None else (alias[y][0], alias[y][1] * s)

    for _ in range(rng.randrange(1, 5)):
        kind = rng.choice(["one", "copy", "copy", "late"])
        x = ngens
        ngens += 1
        if kind == "one":
            alias[x] = None
            rel = [(x, rng.choice((1, -1)))]
            if rng.random() < 0.5:
                y = rng.randrange(x)
                rel = [(y, 1)] + rel + [(y, -1)]
        elif kind == "copy":
            y, s = rng.randrange(x), rng.choice((1, -1))
            alias[x] = copy_of(y, s)
            rel = [(x, 1), (y, -s)]
        else:
            z, x = x, x + 1
            ngens += 1
            alias[z] = None
            pins.append([(z, 1)])
            y, s = rng.randrange(z), rng.choice((1, -1))
            alias[x] = copy_of(y, s)
            rel = [(x, 1), (z, 1), (y, -s), (z, -1)]
        pins.append(rel)
    synonyms = {b: [(x, a[1]) for x, a in alias.items() if a is not None and a[0] == b]
                for b in range(base_ngens)}
    trivial = [x for x, a in alias.items() if a is None]
    rels = []
    for rel in base_rels:
        spelled = []
        for b, e in rel:
            x, s = rng.choice(synonyms[b])
            spelled.append((x, e * s))
            if trivial and rng.random() < 0.2:
                spelled.append((rng.choice(trivial), rng.choice((1, -1))))
        rels.append(spelled)
    rels = [rotated(rng, rel) for rel in rels + pins]
    rng.shuffle(rels)
    subgroup = []
    for _ in range(rng.randrange(3)):
        w = random_word(rng, ngens, rng.randrange(1, 3))
        if rng.random() < 0.5:
            u = random_word(rng, ngens, 1)
            w = u + w + inverse_word(u)
        subgroup.append(w)
    names = [f"x{g}" for g in range(ngens)]
    return Presentation(tuple(names), tuple(tuple(rel) for rel in rels)), subgroup, base_ngens


def test_widened_tables_of_random_presentations_with_short_relators(rng):
    for _ in range(100):
        presentation, subgroup, base_ngens = presentation_with_short_relators(rng)
        reduction, _ = check_reduced(presentation, subgroup)
        # every added generator is pinned, so at most the base ones survive
        assert len(reduction.presentation.generators) <= base_ngens


def test_reduction_that_contradicts_an_original_relator_is_refused():
    # C3 on a triangle, presented with a second name a for the rotation g;
    # a reduction that pins a to 1, not to g, breaks the relator a g^-1
    inp = action_from_json({"vertices": 3, "edges": [[0, 1], [1, 2], [0, 2]],
                            "generators": {"r": [1, 2, 0]}}, "triangle")
    derived = derive_presentation(inp)
    (g,) = derived.presentation.generators
    derived = derived._replace(presentation=Presentation.from_strings(
        [g, "a"], [[(g, 1)] * 3, [("a", 1), (g, -1)]]))
    derived.gen_elements["a"] = derived.gen_elements[g]
    assert tietze_reduce(derived.presentation).pins == ((0, 1), (0, 1))
    assert check_covering_isomorphism(kozsul_model(derived, inp.ag), inp.ag).ok
    wrong = TietzeReduction(Presentation.from_strings([g], [[(g, 1)] * 3]), ((0, 1), None))
    with pytest.raises(RuntimeError, match="original relator"):
        build_kozsul_model(checked_file(derived, inp.ag), wrong)


# -- (b) subgroup words are reduced freely, never cyclically -------------------

def test_conjugated_subgroup_word_keeps_its_conjugating_letters():
    # A4 = <a, b | a^3, b^2, (ab)^3> with c = b: <a c a^-1> is not <b>
    p = Presentation.from_strings(
        ["a", "b", "c"],
        [[("a", 1)] * 3, [("b", 1)] * 2, [("a", 1), ("b", 1)] * 3, [("c", 1), ("b", -1)]])
    word = [(0, 1), (2, 1), (0, -1)]
    reduction, table = check_reduced(p, [word])
    assert reduction.word(word) == ((0, 1), (1, 1), (0, -1))
    assert table.n == 6
    assert table.trace(0, [(1, 1)]) != 0  # b itself does not fix coset 0


# -- (c) every generator eliminated -------------------------------------------

def test_path_under_the_trivial_group_rebuilds_from_one_coset():
    n = 8
    inp = action_from_json({"vertices": n, "edges": [[i, i + 1] for i in range(n - 1)],
                            "generators": {"e": list(range(n))}}, "path")
    derived = derive_presentation(inp)
    assert derived.families["tree"] == n - 1
    reduction = tietze_reduce(derived.presentation)
    assert reduction.presentation.generators == () and reduction.presentation.relators == ()
    assert set(reduction.pins) == {None}
    model = kozsul_model(derived, inp.ag)
    (table,) = distinct_tables(model)
    assert table.n == 1
    assert table.gen_names == () and table.rows == [[]]
    assert check_covering_isomorphism(model, inp.ag).ok


# -- (d) the work the shared tables save ----------------------------------------

@pytest.mark.parametrize("seed", RELABELLINGS)
def test_dihedral_prism_shares_one_table_of_few_definitions(seed):
    inp = prism_input(30, 4, True, seed)
    model = kozsul_model(derive_presentation(inp), inp.ag)
    (table,) = distinct_tables(model)
    assert len(model.tables) == 4 and table.n == 30
    assert table.stats.defined <= 3 * table.n


@pytest.mark.parametrize("seed", RELABELLINGS)
def test_free_prism_table_defines_at_most_twice_its_index(seed):
    inp = prism_input(60, 4, False, seed)
    model = kozsul_model(derive_presentation(inp), inp.ag)
    (table,) = distinct_tables(model)
    assert table.n == 60 and table.stats.defined <= 2 * table.n


# -- the reconstruction counters in the report ----------------------------------

STAR_UNDER_S3 = {"vertices": 4, "edges": [[0, 1], [0, 2], [0, 3]],
                 "generators": {"s": [0, 2, 1, 3], "c": [0, 2, 3, 1]}}


@pytest.mark.parametrize("data, tables", [
    (relabelled(prism(30, 4, True), 1), 1),
    (STAR_UNDER_S3, 2),
], ids=["dihedral-prism", "star"])
def test_report_counts_cosets_over_distinct_tables(tmp_path, capsys, data, tables):
    path = tmp_path / "action.json"
    path.write_text(json.dumps(data))
    assert main(["derive", "--action", str(path), "--verify", "--out", str(tmp_path)]) == 0
    recon = json.loads(capsys.readouterr().out)["reconstruction"]
    inp = action_from_json(data, "action")
    distinct = distinct_tables(kozsul_model(derive_presentation(inp), inp.ag))
    assert len(distinct) == tables
    assert recon["cosets"] == sum(t.n for t in distinct)
    assert recon["cosets_defined"] == sum(t.stats.defined for t in distinct)
    assert recon["cosets_defined"] >= recon["cosets"]
