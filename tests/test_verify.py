import math

import pytest

from graphpres.builtins import (binary_icosahedral_action, dodecahedron_action,
                                simplex_action)
from graphpres.cli import action_from_json
from graphpres.derive import derive_presentation
from graphpres.verify import (abelianization_smith, build_kozsul_model,
                              check_covering_isomorphism,
                              presentation_order_check, smith_normal_form)
from graphpres.words import Presentation


def test_order_check_simplex_factorials():
    for n in (3, 4, 5):
        inp = simplex_action(n)
        d = derive_presentation(inp)
        check = presentation_order_check(d, inp.ag)
        assert check.ok and check.enumerated == math.factorial(n)


def test_order_check_detects_dropped_relator():
    inp = dodecahedron_action()
    d = derive_presentation(inp)
    kept = tuple(rel for rel in d.presentation.relators if len(rel) < 8)
    assert len(kept) == len(d.presentation.relators) - 1  # the long loop relator goes
    d.presentation = Presentation(d.presentation.generators, kept)
    check = presentation_order_check(d, inp.ag, limit=20_000)
    assert not check.ok
    assert "exceeded" in check.detail


def test_kozsul_triangle():
    inp = simplex_action(3)
    d = derive_presentation(inp)
    model = build_kozsul_model(d, inp.ag, inp.sc)
    assert len(model.vertices) == 3 and len(model.edges) == 3
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
    model = build_kozsul_model(derive_presentation(inp), inp.ag, inp.sc)
    first, second = (model.tables[v] for v in inp.sc.base_vertices)
    assert first is second and first.n == n
    assert check_covering_isomorphism(model, inp.ag).ok


def test_kozsul_dodecahedron():
    inp = dodecahedron_action()
    d = derive_presentation(inp)
    model = build_kozsul_model(d, inp.ag, inp.sc)
    assert len(model.vertices) == 20 and len(model.edges) == 30
    assert check_covering_isomorphism(model, inp.ag).ok


def test_kozsul_double_cover_quotient():
    bi = binary_icosahedral_action()
    d = derive_presentation(bi.input)
    model = build_kozsul_model(d, bi.input.ag, bi.input.sc)
    assert len(model.vertices) == 120 // 6 == 20
    assert check_covering_isomorphism(model, bi.input.ag).ok


def test_kozsul_detects_missing_loop_relation():
    # with no loops the presented group is infinite here, so the order check
    # must fail by hitting the enumeration limit rather than concluding
    inp = dodecahedron_action()
    inp.loops = ()
    d = derive_presentation(inp)
    check = presentation_order_check(d, inp.ag, limit=20_000)
    assert not check.ok
    assert "exceeded" in check.detail


def test_covering_reports_non_injective_witness():
    # a doubled model sends two vertices to each graph vertex; the checker
    # must return such a pair as its witness
    from graphpres.verify import KozsulModel
    inp = simplex_action(3)
    d = derive_presentation(inp)
    good = build_kozsul_model(d, inp.ag, inp.sc)
    vertices = [(0, c) for c in range(6)]
    edges = set()
    for (v, a), (w, b) in good.edges:
        edges.add(((v, a), (w, b)))
        edges.add(((v, a + 3), (w, b + 3)))
    doubled = KozsulModel(vertices, edges,
                          {(0, c): good.f[(0, c % 3)] for c in range(6)},
                          good.tables)
    report = check_covering_isomorphism(doubled, inp.ag)
    assert not report.ok
    assert report.defect == "two vertices map to the same vertex"
    x, y = report.witness
    assert x != y and doubled.f[x] == doubled.f[y]


def test_covering_reports_local_defect():
    from graphpres.verify import KozsulModel
    inp = simplex_action(3)
    d = derive_presentation(inp)
    good = build_kozsul_model(d, inp.ag, inp.sc)
    broken = KozsulModel(good.vertices, set(list(good.edges)[:2]), good.f, good.tables)
    report = check_covering_isomorphism(broken, inp.ag)
    assert not report.ok
    assert report.defect == "neighborhood does not map bijectively"


def test_smith_normal_form_golden_cases():
    assert smith_normal_form([[2, 3], [-3, -5]]) == [1, 1]
    assert smith_normal_form([[5]]) == [5]
    assert smith_normal_form([[0, 0], [0, 0]]) == [0, 0]
    assert smith_normal_form([[2, 4], [6, 8]]) == [2, 4]
    assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]


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
    from graphpres.derive import COXETER_STZ
    rels = [rel for rel in COXETER_STZ.relators if len(rel) != 2]
    p = Presentation(COXETER_STZ.generators, tuple(rels))
    assert abelianization_smith(p) == [1, 1, 1]
