import json
import math

import pytest

import graphpres.cli
from graphpres.builtins import (binary_icosahedral_action, dodecahedron_action,
                                load_builtin, simplex_action)
from graphpres.cli import _verification_report, action_from_json, main
from graphpres.coset import COSET_LIMIT, CosetTable, todd_coxeter
from graphpres.derive import derive_presentation
from graphpres.perms import FiniteGroupTable, tree_fold
from graphpres.verify import (KozsulModel, _subgroup_key, abelianization_smith,
                              check_covering_isomorphism, presentation_order_check,
                              smith_normal_form)
from graphpres.presentation import Presentation, inverse_word, tietze_reduce
from graphpres.words import EdgeLetter, edge_word, rewrite_word_to_E1
from test_cli import PATH8_EXPONENTS
from test_pinned import ACTIONS, prism
from test_tietze import relabelled
from verify_steps import checked_file, kozsul_model


def test_order_check_simplex_factorials():
    for n in (3, 4, 5):
        inp = simplex_action(n)
        d = derive_presentation(inp)
        check = presentation_order_check(checked_file(d, inp.ag), lambda _: None)
        assert check.ok and check.enumerated == math.factorial(n)


def test_order_check_detects_dropped_relator():
    inp = dodecahedron_action()
    d = derive_presentation(inp)
    kept = tuple(rel for rel in d.presentation.relators if len(rel) < 8)
    assert len(kept) == len(d.presentation.relators) - 1  # the long loop relator goes
    d = d._replace(presentation=Presentation(d.presentation.generators, kept))
    check = presentation_order_check(checked_file(d, inp.ag), lambda _: None, limit=20_000)
    assert not check.ok
    assert "exceeded" in check.detail


def test_kozsul_triangle():
    inp = simplex_action(3)
    d = derive_presentation(inp)
    model = kozsul_model(d, inp.ag)
    assert len(model.f) == 3 and len(model.edges) == 3
    assert check_covering_isomorphism(model, inp.ag).ok


def test_kozsul_free_base_vertices_share_one_table():
    # C5 x P2 under rotation: two free vertex orbits, so both base vertices
    # enumerate over the same (empty) subgroup words
    n = 5
    edges = ([(i, (i + 1) % n) for i in range(n)]
             + [(n + i, n + (i + 1) % n) for i in range(n)]
             + [(i, n + i) for i in range(n)])
    rotate = [(i + 1) % n for i in range(n)] + [n + (i + 1) % n for i in range(n)]
    inp = action_from_json({"vertices": 2 * n, "edges": edges,
                            "generators": {"r": rotate}}, "prism-5x2")
    model = kozsul_model(derive_presentation(inp), inp.ag)
    first, second = (model.tables[v] for v in inp.sc.base_vertices)
    assert first is second and first.n == n
    assert check_covering_isomorphism(model, inp.ag).ok


def test_kozsul_dodecahedron():
    inp = dodecahedron_action()
    d = derive_presentation(inp)
    model = kozsul_model(d, inp.ag)
    assert len(model.f) == 20 and len(model.edges) == 30
    assert check_covering_isomorphism(model, inp.ag).ok


def test_kozsul_double_cover_quotient():
    bi = binary_icosahedral_action()
    d = derive_presentation(bi.input)
    model = kozsul_model(d, bi.input.ag)
    assert len(model.f) == 120 // 6 == 20
    assert check_covering_isomorphism(model, bi.input.ag).ok


def test_kozsul_detects_missing_loop_relation():
    # with no loops the presented group is infinite here, so the order check
    # must fail by hitting the enumeration limit rather than concluding
    inp = dodecahedron_action()._replace(loops=())
    d = derive_presentation(inp)
    check = presentation_order_check(checked_file(d, inp.ag), lambda _: None, limit=20_000)
    assert not check.ok
    assert "exceeded" in check.detail


def test_covering_reports_non_injective_witness():
    # a doubled model sends two vertices to each graph vertex; the checker
    # must return such a pair as its witness
    from graphpres.verify import KozsulModel
    inp = simplex_action(3)
    d = derive_presentation(inp)
    good = kozsul_model(d, inp.ag)
    edges = set()
    for (v, a), (w, b) in good.edges:
        edges.add(((v, a), (w, b)))
        edges.add(((v, a + 3), (w, b + 3)))
    doubled = KozsulModel(edges, {(0, c): good.f[(0, c % 3)] for c in range(6)}, good.tables)
    report = check_covering_isomorphism(doubled, inp.ag)
    assert not report.ok
    assert report.defect == "two vertices map to the same vertex"
    x, y = report.witness
    assert x != y and doubled.f[x] == doubled.f[y]


def test_covering_reports_local_defect():
    from graphpres.verify import KozsulModel
    inp = simplex_action(3)
    d = derive_presentation(inp)
    good = kozsul_model(d, inp.ag)
    kept = sorted(good.edges)[:2]
    broken = KozsulModel(set(kept), good.f, good.tables)
    report = check_covering_isomorphism(broken, inp.ag)
    assert not report.ok
    assert report.defect == "edges do not map onto the graph's edges"
    # the least edge of the graph that no kept edge maps onto
    hit = {tuple(sorted((good.f[a], good.f[b]))) for a, b in kept}
    assert report.witness == min(inp.ag.graph.edges - hit)


# the model as it was built before the reconstruction read the reduced
# tables alone: each reduced table widened back over every original
# generator, the covering map carried down the widened table's tree, and
# the edges as they were built before one orbit per edge generator: every
# oriented edge at every base vertex, spelled over the generators and
# carried down the coset table's spanning tree

def widen(table, presentation, pins):
    """A table of the Tietze-reduced presentation as a table over every
    generator of `presentation`: a generator pinned to the identity fixes
    every coset, and one pinned to h^s gets h's pair of columns, swapped
    when s = -1.  Every original relator must close at every coset."""
    columns, identity = table.columns(), list(range(table.n))
    widened_columns = [identity if pin is None
                       else columns[2 * pin[0] + (0 if s * pin[1] > 0 else 1)]
                       for pin in pins for s in (1, -1)]
    widened = CosetTable(presentation.generators,
                         [list(row) for row in zip(*widened_columns)], table.stats)
    for rel in presentation.relators:
        if not widened.relator_closes_everywhere(rel):
            raise RuntimeError("relator fails to close on the widened table")
    return widened


def widened_tables(derived, sc, limit):
    pres = derived.presentation
    name_index = {n: i for i, n in enumerate(pres.generators)}
    reduction = tietze_reduce(pres)
    by_words, tables = {}, {}
    for v in sc.base_vertices:
        key = _subgroup_key(reduction.word(((name_index[name], 1),))
                            for name, u in derived.stab_owners.items() if u == v)
        if key not in by_words:
            table = todd_coxeter(reduction.presentation, key, limit=limit)
            by_words[key] = widen(table, pres, reduction.pins)
        tables[v] = by_words[key]
    return tables


def reference_edges(derived, ag, sc, tables):
    group, pres = ag.group, derived.presentation
    name_index = {n: i for i, n in enumerate(pres.generators)}
    edge_index = {e: name_index[name] for name, e in derived.edge_gens.items()}
    owned = {v: {} for v in sc.base_vertices}
    for name, v in derived.stab_owners.items():
        owned[v][name] = derived.gen_elements[name]
    stab_words = {v: group.words(gens) for v, gens in owned.items()}

    def spell(word):
        out = []
        for letter in word:
            if isinstance(letter, EdgeLetter):
                out.append((edge_index[letter.edge], letter.sign))
            else:
                out.extend((name_index[n], s) for n, s in stab_words[letter.vertex][letter.element])
        return tuple(out)

    def carry(table, other, start):
        image = {}
        for c, (parent, step) in table.tree().items():
            image[c] = start if parent is None else other.trace(image[parent], [step])
        return image

    edges = set()
    for v in sc.base_vertices:
        for e in sorted(sc.s):
            if e.origin != v:
                continue
            w = sc.base_of[e.target]
            ge = spell(rewrite_word_to_E1(edge_word(e), ag, sc))
            start = tables[w].trace(0, inverse_word(ge))
            for c, n in carry(tables[v], tables[w], start).items():
                a, b = (v, c), (w, n)
                edges.add((a, b) if a < b else (b, a))
    return edges


def reference_kozsul_model(derived, ag, sc, limit=COSET_LIMIT, reduction=None):
    # the reference reduces the presentation itself; `reduction` is the
    # order check's, handed over by the CLI
    group = ag.group
    tables = widened_tables(derived, sc, limit)
    elements = [derived.gen_elements[name] for name in derived.presentation.generators]

    def extend(g, step):
        k, s = step
        return group.product(g, elements[k] if s > 0 else group.inverse(elements[k]))

    f = {}
    for v in sc.base_vertices:
        carried = tree_fold(tables[v].tree(), 0, extend)
        for c in range(tables[v].n):
            f[(v, c)] = ag.apply(group.inverse(carried[c]), v)
    return KozsulModel(reference_edges(derived, ag, sc, tables), f, tables)


def trivial_grid(rows: int, cols: int) -> dict:
    """The trivial group on a rows x cols grid (a path when rows is 1)."""
    def vid(i, j):
        return i * cols + j

    edges = [[vid(i, j), vid(i, j + 1)] for i in range(rows) for j in range(cols - 1)]
    edges += [[vid(i, j), vid(i + 1, j)] for i in range(rows - 1) for j in range(cols)]
    return {"vertices": rows * cols, "edges": edges,
            "generators": {"e": list(range(rows * cols))}}


def antiprism(n: int) -> dict:
    """The n-gonal antiprism under rotation: two vertex orbits, joined by the
    tree's orbit of rungs and by a second orbit, of diagonals, whose edge
    generator is not pinned to 1."""
    ring = [[i, (i + 1) % n] for i in range(n)]
    edges = ring + [[n + a, n + b] for a, b in ring]
    edges += [[i, n + i] for i in range(n)] + [[i, n + (i + 1) % n] for i in range(n)]
    rotate = [(i + 1) % n for i in range(n)] + [n + (i + 1) % n for i in range(n)]
    return {"vertices": 2 * n, "edges": edges, "generators": {"r": rotate}}


CROSS_CHECK_BUILTINS = ["simplex:3", "simplex:4", "simplex:5", "simplex:6", "simplex:7",
                        "dihedral:3", "dihedral:5", "dihedral:50", "dodecahedron",
                        "binary-icosahedral"]
CROSS_CHECK_FILES = {
    **ACTIONS,
    **{f"prism-{n}x{k}-dihedral-{seed}": relabelled(prism(n, k, True), seed)
       for n, k in [(30, 4), (7, 3)] for seed in (1, 2, 3)},
    "trivial-grid-5x5": trivial_grid(5, 5),
    "antiprism-5": antiprism(5),
}


@pytest.mark.parametrize("name", CROSS_CHECK_BUILTINS + list(CROSS_CHECK_FILES))
def test_edge_orbits_match_the_per_edge_reference(monkeypatch, name):
    if name in CROSS_CHECK_FILES:
        inp = action_from_json(CROSS_CHECK_FILES[name], name)
    else:
        inp = load_builtin(name)
    derived = derive_presentation(inp)
    model = kozsul_model(derived, inp.ag)
    reference = reference_kozsul_model(derived, inp.ag, inp.sc)
    assert list(model.f) == list(reference.f)
    assert model.f == reference.f
    assert model.edges == reference.edges
    report = _verification_report(derived, inp.ag, COSET_LIMIT)
    assert report[0]["reconstruction"]["ok"]
    monkeypatch.setattr(graphpres.cli, "build_kozsul_model",
                        lambda checked, reduction, limit: reference_kozsul_model(
                            checked.derived, checked.ag, inp.sc, limit, reduction))
    assert _verification_report(derived, inp.ag, COSET_LIMIT) == report


@pytest.mark.parametrize("name", CROSS_CHECK_BUILTINS + list(CROSS_CHECK_FILES))
def test_base_vertices_read_off_the_file_are_the_scaffoldings(name):
    # the verifier bases each orbit at a vertex the file names, never asking
    # the scaffolding; for every file derive writes the two agree
    data = CROSS_CHECK_FILES.get(name)
    inp = action_from_json(data, name) if data else load_builtin(name)
    derived = derive_presentation(inp)
    assert checked_file(derived, inp.ag).base_of == inp.sc.base_of


@pytest.mark.parametrize("name", CROSS_CHECK_BUILTINS + list(CROSS_CHECK_FILES))
def test_derive_verify_and_verify_of_the_written_file_report_the_same(tmp_path, capsys, name):
    # one verification for both commands, also on a copy of the file that
    # lists its stabilizer owners in the reverse order
    if name in CROSS_CHECK_FILES:
        (tmp_path / "action.json").write_text(json.dumps(CROSS_CHECK_FILES[name]))
        source, stem = ["--action", str(tmp_path / "action.json")], "action"
    else:
        source, stem = ["--builtin", name], name.replace(":", "_")
    assert main(["derive", *source, "--verify", "--out", str(tmp_path)]) == 0
    derived = json.loads(capsys.readouterr().out)
    written = tmp_path / f"{stem}.presentation.json"
    data = json.loads(written.read_text())
    reversed_owners = tmp_path / "reversed.presentation.json"
    reversed_owners.write_text(json.dumps(
        {**data, "stab_owners": dict(reversed(data["stab_owners"].items()))}))
    for path in (written, reversed_owners):
        assert main(["verify", str(path), *source]) == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["order_check"], report["reconstruction"]) == (
            derived["order_check"], derived["reconstruction"])


# every arithmetic method of FiniteGroupTable: the verifier reads the
# listed elements and the order alone
TABLE_ARITHMETIC = ("product", "inverse", "evaluate", "subgroup_closure", "index",
                    "word_product", "conjugate", "words", "element_order")


@pytest.mark.parametrize("name", CROSS_CHECK_BUILTINS + list(CROSS_CHECK_FILES))
def test_verification_calls_no_group_table_arithmetic(monkeypatch, name):
    data = CROSS_CHECK_FILES.get(name)
    inp = action_from_json(data, name) if data else load_builtin(name)
    derived = derive_presentation(inp)
    report = _verification_report(derived, inp.ag, COSET_LIMIT)
    ag = (action_from_json(data, name) if data else load_builtin(name)).ag

    def refuse(*args, **kwargs):
        raise AssertionError("the verifier called the group table's arithmetic")

    for method in TABLE_ARITHMETIC:
        monkeypatch.setattr(FiniteGroupTable, method, refuse)
    assert _verification_report(derived, ag, COSET_LIMIT) == report


def test_smith_normal_form_golden_cases():
    assert smith_normal_form([[2, 3], [-3, -5]]) == [1, 1]
    assert smith_normal_form([[5]]) == [5]
    assert smith_normal_form([[0, 0], [0, 0]]) == [0, 0]
    assert smith_normal_form([[2, 4], [6, 8]]) == [2, 4]
    assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]
    # the previous fix-up loops grew these to 70-digit entries and did not return
    assert smith_normal_form([[3, 1, -2, 2, 4, 6], [-5, -1, -5, 1, 0, 0], [4, -5, 2, 0, 4, 1],
                              [-1, -1, -1, 4, 2, 0], [3, 6, 0, 0, 6, 4], [6, -2, 0, 0, -1, -2],
                              [1, 6, 0, 3, -5, -2]]) == [1] * 6
    assert smith_normal_form(PATH8_EXPONENTS) == [1] * 6 + [3]


def test_smith_normal_form_against_minor_gcd_oracle(rng):
    # the product d_1...d_k equals the gcd of all k x k minors
    def minors_gcd(mat, k):
        from itertools import combinations
        rows, cols = len(mat), len(mat[0])
        g = 0
        for rsel in combinations(range(rows), k):
            for csel in combinations(range(cols), k):
                g = math.gcd(g, _det([[mat[i][j] for j in csel] for i in rsel]))
        return g

    def _det(m):
        n = len(m)
        if n == 1:
            return m[0][0]
        total = 0
        for j in range(n):
            minor = [row[:j] + row[j + 1 :] for row in m[1:]]
            total += (-1) ** j * m[0][j] * _det(minor)
        return total

    for _ in range(30):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        mat = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        diag = smith_normal_form(mat)
        prod = 1
        for k, d in enumerate(diag, start=1):
            prod = prod * d
            assert prod == minors_gcd(mat, k)
        for a, b in zip(diag, diag[1:]):
            if a != 0:
                assert b % a == 0 or b == 0


def test_abelianization_golden_cases():
    two_gen = Presentation.from_strings(
        ["g", "r"],
        [[("g", 1), ("g", 1), ("r", 1), ("r", 1), ("r", 1)],
         [("g", 1), ("g", 1)] + [("g", -1), ("r", -1)] * 5])
    assert abelianization_smith(two_gen) == [1, 1]
    assert abelianization_smith(
        Presentation.from_strings(["a"], [[("a", 1)] * 5])) == [5]
    assert abelianization_smith(Presentation.from_strings(["a", "b"], [])) == [0, 0]


def test_abelianization_of_substituted_presentation_without_z_order():
    from graphpres.coxeter import COXETER_STZ
    rels = [rel for rel in COXETER_STZ.relators if len(rel) != 2]
    p = Presentation(COXETER_STZ.generators, tuple(rels))
    assert abelianization_smith(p) == [1, 1, 1]
