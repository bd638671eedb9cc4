import hashlib

import pytest

from graphpres.builtins import load_builtin
from graphpres.perms import (ClosureLimitError, FiniteGroupTable, bfs_tree, generate_closure,
                             identity, perm, perm_compose, perm_inverse, transposition,
                             tree_fold, tree_words)


def t(n, i, j):
    return transposition(n, i, j)


def test_compose_identity():
    q = perm([2, 0, 1, 3])
    assert perm_compose(identity(4), q) == q
    assert perm_compose(q, identity(4)) == q


def test_compose_hand_oracle():
    # apply q first, then p: points 0,1 swapped after 0,2 gives the cycle (0 2 1)
    p, q = t(3, 0, 1), t(3, 0, 2)
    r = perm_compose(p, q)
    assert r[0] == 2 and r[2] == 1 and r[1] == 0
    assert r == (2, 0, 1)


def test_compose_involution():
    p = t(3, 0, 1)
    assert perm_compose(p, p) == identity(3)


def test_compose_degree_mismatch():
    with pytest.raises(ValueError):
        perm_compose(t(3, 0, 1), t(4, 0, 1))


def test_perm_rejects_non_bijection():
    with pytest.raises(ValueError):
        perm([0, 0, 1])


def test_inverse_and_order():
    c = (1, 2, 3, 4, 0)
    assert perm_compose(c, perm_inverse(c)) == identity(5)


def test_closure_symmetric_group():
    gens = [t(4, 0, 1), t(4, 1, 2), t(4, 2, 3)]
    table = generate_closure(gens)
    assert table.order == 24
    assert table.elements[0] == identity(4)
    # closed and consistent with the product map
    for i in (0, 5, 17):
        for j in (1, 3, 23):
            assert table.elements[table.product(i, j)] == perm_compose(
                table.elements[i], table.elements[j])
    # Lagrange for a point stabilizer
    stab = [i for i, p in enumerate(table.elements) if p[0] == 0]
    assert len(stab) == 6 and 24 % len(stab) == 0


def test_closure_identity_only():
    # below degree 2 the identity is the one permutation, and an empty base
    # keys it by ()
    for degree in (0, 1, 3):
        table = generate_closure([identity(degree)])
        assert table.order == 1 and table.base == ()
        assert table.index(identity(degree)) == 0 and table.product(0, 0) == 0
        assert perm_compose(identity(degree), identity(degree)) == identity(degree)


def test_generators_are_looked_up_by_their_base_images():
    # the identity and a repeated generator among the generators; the base
    # is (0, 2), so the lookup reads two points of each generator
    gens = [t(4, 0, 1), identity(4), t(4, 2, 3), t(4, 0, 1)]
    table = FiniteGroupTable(gens)
    assert table.order == 4 and table.base == (0, 2)
    assert table.gen_indices == (1, 0, 2, 1)
    assert [table.elements[i] for i in table.gen_indices] == gens


def test_closure_is_deterministic():
    gens = [t(4, 0, 1), t(4, 1, 2), t(4, 2, 3)]
    t1 = generate_closure(gens)
    t2 = generate_closure(gens)
    assert t1.elements == t2.elements
    products = [[[t.product(i, j) for j in range(t.order)] for i in range(t.order)]
                for t in (t1, t2)]
    assert products[0] == products[1]


def test_closure_limit():
    gens = [t(5, 0, 1), (1, 2, 3, 4, 0)]
    with pytest.raises(ClosureLimitError, match="^closure exceeded 30 elements$"):
        generate_closure(gens, limit=30)


def test_closure_stops_at_the_entry_limit_on_a_large_cycle():
    # Z_40000 on 40000 points would store 1.6e9 image entries; the search
    # stops once 250 elements hold the 1e7 allowed
    cycle = perm([*range(1, 40_000), 0])
    with pytest.raises(ClosureLimitError, match=r"^closure exceeded 10000000 stored image "
                       r"entries \(250 elements of degree 40000\)$"):
        generate_closure([cycle])


def test_closure_orbit_of_short_words_oracle():
    # brute force: multiply words until stable, compare with the table
    gens = [t(3, 0, 1), t(3, 1, 2)]
    words = {identity(3)}
    while True:
        nxt = set(words)
        for w in words:
            for g in gens:
                nxt.add(perm_compose(w, g))
        if nxt == words:
            break
        words = nxt
    table = generate_closure(gens)
    assert set(table.elements) == words
    assert table.order == 6


def test_bfs_tree_discovery_order_on_cycle():
    # the 6-cycle from 0, stepping +1 before -1: layers {0}, {1, 5}, {2, 4}, {3}
    tree = bfs_tree(0, lambda v: [(+1, (v + 1) % 6), (-1, (v - 1) % 6)])
    assert list(tree) == [0, 1, 5, 2, 4, 3]
    assert tree[0] == (None, None)
    assert tree[3] == (2, +1)  # first reached from 2, never re-parented from 4
    assert tree_words(tree) == {0: (), 1: (1,), 5: (-1,), 2: (1, 1), 4: (-1, -1),
                                3: (1, 1, 1)}
    assert tree_fold(tree, 0, lambda total, step: total + step)[4] == -2


def test_bfs_tree_limit():
    def successor(n):
        return [("next", n + 1)] if n < 4 else []

    assert len(bfs_tree(0, successor, limit=5)) == 5  # exactly at the limit
    with pytest.raises(ClosureLimitError):
        bfs_tree(0, successor, limit=4)
    with pytest.raises(ClosureLimitError):
        bfs_tree(0, lambda n: [("next", n + 1)], limit=100)


def test_bfs_tree_on_directed_graph():
    # not a group: arcs go one way, node 4 is unreachable, 3 has two in-arcs
    arcs = {0: ["a", "b"], "a": [3], "b": [3], 3: [], 4: [0]}
    tree = bfs_tree(0, lambda u: [(w, w) for w in arcs[u]])
    assert list(tree) == [0, "a", "b", 3]
    assert tree[3] == ("a", 3)
    assert tree_words(tree)[3] == ("a", 3)


def test_group_words_are_geodesic():
    table = generate_closure([(1, 2, 3, 4, 5, 0)])
    r = table.gen_indices[0]
    words = table.words({"r": r})
    assert len(words) == 6
    assert max(len(w) for w in words.values()) == 3  # r^3 is as far as r^-3
    r_inv = table.inverse(r)
    for elem, word in words.items():
        assert table.word_product(r if s > 0 else r_inv for _, s in word) == elem


def _dihedral_7():
    n = 7
    return generate_closure([perm([(i + 1) % n for i in range(n)]),
                             perm([(n - i) % n for i in range(n)])])


def _binary_icosahedral_carrier():
    from graphpres.builtins import binary_icosahedral_action
    return binary_icosahedral_action().input.ag.group


def _symmetric(n):
    return generate_closure([t(n, i, i + 1) for i in range(n - 1)])


def _cyclic_regular(n):
    return generate_closure([perm([(i + 1) % n for i in range(n)])])


def _order(p):
    n, q = 1, p
    while q != identity(len(p)):
        q = perm_compose(q, p)
        n += 1
    return n


# The base lengths 0 and 1 are where the lookup key is not a tuple of
# images: an empty base keys the one element by (), a one-point base by a
# bare image.
@pytest.mark.parametrize("build, order, base_length", [
    (lambda: generate_closure([identity(1)]), 1, 0),
    (lambda: _cyclic_regular(12), 12, 1),
    (_binary_icosahedral_carrier, 120, 1),
    (_dihedral_7, 14, 2),
    (lambda: load_builtin("dihedral:200").ag.group, 400, 2),
    (lambda: _symmetric(4), 24, 3),
    (lambda: _symmetric(6), 720, 5),
], ids=["trivial", "c12-regular", "binary-icosahedral", "dihedral-7", "dihedral-200", "s4",
        "s6"])
def test_products_match_composition(build, order, base_length):
    table = build()
    assert table.order == order and len(table.base) == base_length
    elements = table.elements
    for i, p in enumerate(elements):
        assert table.index(p) == i
        assert elements[table.inverse(i)] == perm_inverse(p)
        assert table.element_order(i) == _order(p)
        for j, q in enumerate(elements):
            pq = perm_compose(p, q)
            assert elements[table.product(i, j)] == pq
            assert elements[table.word_product([i, j, i])] == perm_compose(pq, p)


# Taken before the table read permutations through operator.itemgetter: a
# change to the closure's order of discovery or to the base fails here, not
# only through the derive digests of test_pinned.
@pytest.mark.parametrize("build, digest", [
    (lambda: load_builtin("simplex:6").ag.group,
     "588b5a3228280f26a49df586f8275cdff5d3ce29554572a2a038b1bbf453b309"),
    (lambda: load_builtin("dihedral:50").ag.group,
     "80de5b08b797a5b52266132a199c2b62926c92831a780844607b2298104c7416"),
    (_binary_icosahedral_carrier,
     "186db629a495f3d2539b580422503a0276d5df4acc5aa43b0cd53fc847d22700"),
], ids=["simplex-6", "dihedral-50", "binary-icosahedral"])
def test_tables_keep_their_elements_and_base(build, digest):
    table = build()
    assert hashlib.sha256(repr((table.base, table.elements)).encode()).hexdigest() == digest
