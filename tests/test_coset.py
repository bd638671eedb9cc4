import pytest

import graphpres.coset
import graphpres.perms
from graphpres.builtins import standard_symmetric_presentation
from graphpres.coset import EnumerationLimitError, todd_coxeter
from graphpres.perms import ClosureLimitError
from graphpres.words import Presentation


def pres(gens, rels):
    return Presentation.from_strings(gens, rels)


CYCLIC3 = pres(["a"], [[("a", 1)] * 3])
S4 = pres(["a", "b", "c"],
          [[("a", 1)] * 2, [("b", 1)] * 2, [("c", 1)] * 2,
           [("a", 1), ("b", 1)] * 3, [("b", 1), ("c", 1)] * 3,
           [("a", 1), ("c", 1)] * 2])
BINARY_ICOSAHEDRAL = pres(
    ["g", "r"],
    [[("g", 1), ("g", 1), ("r", 1), ("r", 1), ("r", 1)],
     [("g", 1), ("g", 1)] + [("g", -1), ("r", -1)] * 5])
# the Frobenius group of order 21: reversing words does not respect its
# relators, so it tells left-to-right products from right-to-left ones
FROBENIUS21 = pres(["a", "b"], [[("a", 1)] * 7, [("b", 1)] * 3,
                                [("b", 1), ("a", 1), ("b", -1), ("a", -1), ("a", -1)]])
MODULAR_LIKE = pres(["g", "h"], [[("g", 1)] * 2, [("h", 1)] * 3])


def test_cyclic_three():
    assert todd_coxeter(CYCLIC3).n == 3


def test_symmetric_four():
    assert todd_coxeter(S4).n == 24


def test_binary_icosahedral_order():
    assert todd_coxeter(BINARY_ICOSAHEDRAL).n == 120


def test_subgroup_index():
    table = todd_coxeter(S4, subgroup_words=[[(0, 1)], [(1, 1)]])
    assert table.n == 4  # the parabolic generated by the first two swaps


def test_limit_reported():
    with pytest.raises(EnumerationLimitError) as err:
        todd_coxeter(MODULAR_LIKE, limit=2000)
    assert err.value.limit == 2000


def test_table_is_complete_and_relators_close():
    table = todd_coxeter(S4)
    for rel in S4.relators:
        assert table.relator_closes_everywhere(rel)
    for c in range(table.n):
        for g in range(3):
            assert 0 <= table.step(c, g, 1) < table.n
            assert table.step(table.step(c, g, 1), g, -1) == c


def test_determinism():
    t1 = todd_coxeter(BINARY_ICOSAHEDRAL)
    t2 = todd_coxeter(BINARY_ICOSAHEDRAL)
    assert t1.rows == t2.rows


def random_word(rng, ngens, length):
    return [(rng.randrange(ngens), rng.choice((1, -1))) for _ in range(length)]


def inverse_word(word):
    return [(g, -s) for g, s in reversed(word)]


def test_element_arithmetic_regular_table(rng):
    # regular_group() against words traced from coset 0: u = 1 exactly when u
    # returns to coset 0, u = w exactly when both reach the same coset
    for presentation in (S4, BINARY_ICOSAHEDRAL, FROBENIUS21):
        table = todd_coxeter(presentation)
        group = table.regular_group()
        assert group.order == table.n
        ngens = len(presentation.generators)

        def value(word):
            gens = group.gen_indices
            return group.word_product(gens[g] if s > 0 else group.inverse(gens[g])
                                      for g, s in word)

        def coset_of(j):
            return group.elements[j].images.index(0)

        assert sorted(map(coset_of, range(group.order))) == list(range(table.n))
        for _ in range(300):
            u = random_word(rng, ngens, rng.randrange(12))
            # w often spells u's element too: a conjugated relator inserted in u
            w = random_word(rng, ngens, rng.randrange(12))
            if rng.random() < 0.5:
                rel = list(rng.choice(presentation.relators))
                k = rng.randrange(len(u) + 1)
                w = u[:k] + w + rel + inverse_word(w) + u[k:]
            assert (value(u) == 0) == (table.trace(0, u) == 0)
            assert (value(u) == value(w)) == (table.trace(0, u) == table.trace(0, w))
            assert coset_of(value(u)) == table.trace(0, u)


def test_regular_group_rejects_table_over_nontrivial_subgroup():
    table = todd_coxeter(S4, subgroup_words=[[(0, 1)], [(1, 1)]])
    with pytest.raises(ValueError, match="not regular"):
        table.regular_group()


def test_regular_group_stops_before_listing_a_larger_image():
    # 8 cosets of <s2, ..., s7> in S8: the image on the cosets is all of S8,
    # and the search must give up at 9 elements, not list 40320
    s8 = standard_symmetric_presentation(8)
    table = todd_coxeter(s8, subgroup_words=[[(k, 1)] for k in range(1, 7)])
    assert table.n == 8
    with pytest.raises(ValueError, match="not regular: closure exceeded 8 elements"):
        table.regular_group()


def test_regular_group_past_the_entry_limit_is_a_limit_not_a_verdict(monkeypatch):
    # S4's 24 cosets need 576 image entries: with 575 allowed the search
    # stops at 23 elements, which says nothing about regularity
    monkeypatch.setattr(graphpres.perms, "CLOSURE_ENTRY_LIMIT", 575)
    monkeypatch.setattr(graphpres.coset, "CLOSURE_ENTRY_LIMIT", 575)
    with pytest.raises(ClosureLimitError, match="575 stored image entries"):
        todd_coxeter(S4).regular_group()


def test_empty_relator_is_tolerated():
    p = pres(["a"], [[], [("a", 1)] * 4])
    assert todd_coxeter(p).n == 4


def test_trivial_group():
    p = pres(["a"], [[("a", 1)]])
    assert todd_coxeter(p).n == 1


def test_free_group_rank_one_over_subgroup():
    p = pres(["a"], [])
    table = todd_coxeter(p, subgroup_words=[[(0, 1)] * 5])
    assert table.n == 5
