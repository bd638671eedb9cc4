import json

import pytest

import graphpres.coset
import graphpres.coxeter
import graphpres.derive
import graphpres.perms
import graphpres.verify
from graphpres.cli import main
from graphpres.coset import (CosetTable, EnumerationLimitError, EnumerationStats, _Enumerator,
                             _cols, prefix_chain, todd_coxeter)
from graphpres.perms import ClosureLimitError
from graphpres.presentation import Presentation
from test_pinned import ACTIONS


def pres(gens, rels):
    return Presentation.from_strings(gens, rels)


def standard_symmetric_presentation(n):
    """The Coxeter presentation of S_n on the adjacent swaps s1 .. s(n-1):
    squares, (x y)^3 for neighbouring swaps, commutators for distant ones."""
    names = [f"s{i}" for i in range(1, n)]
    rels = []
    for i, x in enumerate(names):
        rels.append([(x, 1)] * 2)
        for j in range(i + 1, len(names)):
            y = names[j]
            rels.append([(x, 1), (y, 1)] * 3 if j == i + 1
                        else [(x, 1), (y, 1), (x, -1), (y, -1)])
    return pres(names, rels)


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
            assert 0 <= table.trace(c, [(g, 1)]) < table.n
            assert table.trace(c, [(g, 1), (g, -1)]) == c


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
            return group.elements[j].index(0)

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


def test_tables_carry_enumeration_counters():
    table = todd_coxeter(S4)
    stats = table.stats
    assert stats.defined >= stats.peak_live >= table.n == 24
    # every coset defined beyond the final ones was merged away by a coincidence
    assert (stats.coincidences == 0) == (stats.defined == table.n)
    assert todd_coxeter(CYCLIC3).stats == EnumerationStats(3, 0, 3)


def _bad_run(rows):
    """An enumerator run that leaves `rows` as its table."""
    def run(self, relators, subgroup):
        self.table = [list(row) for row in rows]
        self.parent = list(range(len(rows)))
    return run


def test_incomplete_table_is_refused_without_assertions(monkeypatch):
    monkeypatch.setattr(_Enumerator, "run", _bad_run([[1, None], [None, 0]]))
    with pytest.raises(RuntimeError, match="incomplete row after enumeration"):
        todd_coxeter(CYCLIC3)


def test_table_where_a_relator_fails_is_refused_without_assertions(monkeypatch):
    # a complete table of two cosets swapped by a, where a^3 does not close
    monkeypatch.setattr(_Enumerator, "run", _bad_run([[1, 1], [0, 0]]))
    with pytest.raises(RuntimeError, match="relator fails to close"):
        todd_coxeter(CYCLIC3)


def test_cycle_check_agrees_with_tracing(rng):
    verdicts = []
    for _ in range(300):
        n, ngens = rng.randrange(1, 9), rng.randrange(1, 4)
        columns = []
        for _ in range(ngens):
            perm = list(range(n))
            rng.shuffle(perm)
            inverse = [0] * n
            for c, image in enumerate(perm):
                inverse[image] = c
            columns += [perm, inverse]
        table = CosetTable([f"x{g}" for g in range(ngens)],
                           [[col[c] for col in columns] for c in range(n)])
        root = random_word(rng, ngens, rng.randrange(4))
        word = root * rng.randrange(1, 7)
        if rng.random() < 0.3:
            word += random_word(rng, ngens, 1)
        traced = all(table.trace(c, word) == c for c in range(n))
        assert table.relator_closes_everywhere(word) == traced
        verdicts.append(traced)
    assert 50 <= sum(verdicts) <= 250


# The enumerator as it was before its scans resumed after each definition
# and skipped closed power relators: both scans restart from the relator's
# ends after every definition, entries are looked up through their
# representatives, and the completed table is checked by tracing.  The
# current enumerator must give the same rows after the same definitions.

class ReferenceEnumerator:
    def __init__(self, ngens, limit):
        self.ncols = 2 * ngens
        self.limit = limit
        self.table = [[None] * self.ncols]
        self.parent = [0]
        self.live = 1

    def rep(self, k):
        while self.parent[k] != k:
            self.parent[k] = self.parent[self.parent[k]]
            k = self.parent[k]
        return k

    def define(self, alpha, x):
        if len(self.table) >= self.limit:
            raise EnumerationLimitError(self.limit, len(self.table), self.live)
        beta = len(self.table)
        self.table.append([None] * self.ncols)
        self.parent.append(beta)
        self.live += 1
        self.table[alpha][x] = beta
        self.table[beta][x ^ 1] = alpha
        return beta

    def _merge(self, a, b, queue):
        a, b = self.rep(a), self.rep(b)
        if a == b:
            return
        lo, hi = min(a, b), max(a, b)
        self.parent[hi] = lo
        self.live -= 1
        queue.append(hi)

    def coincidence(self, a, b):
        queue = []
        self._merge(a, b, queue)
        while queue:
            gamma = queue.pop()
            row = self.table[gamma]
            for x in range(self.ncols):
                delta = row[x]
                if delta is None:
                    continue
                self.table[delta][x ^ 1] = None
                mu, nu = self.rep(gamma), self.rep(delta)
                if self.table[mu][x] is not None:
                    self._merge(nu, self.table[mu][x], queue)
                elif self.table[nu][x ^ 1] is not None:
                    self._merge(mu, self.table[nu][x ^ 1], queue)
                else:
                    self.table[mu][x] = nu
                    self.table[nu][x ^ 1] = mu

    def scan_and_fill(self, alpha, word):
        if not word:
            return
        while True:
            f, i = alpha, 0
            b, j = alpha, len(word) - 1
            while i <= j and self.table[f][word[i]] is not None:
                f = self.rep(self.table[f][word[i]])
                i += 1
            if i > j:
                if f != b:
                    self.coincidence(f, b)
                return
            while j >= i and self.table[b][word[j] ^ 1] is not None:
                b = self.rep(self.table[b][word[j] ^ 1])
                j -= 1
            if j < i:
                self.coincidence(f, b)
                return
            if i == j:
                self.table[f][word[i]] = b
                self.table[b][word[i] ^ 1] = f
                return
            self.define(f, word[i])
            alpha = self.rep(alpha)

    def run(self, relators, subgroup):
        for w in subgroup:
            self.scan_and_fill(self.rep(0), w)
        alpha = 0
        while alpha < len(self.table):
            if self.rep(alpha) != alpha:
                alpha += 1
                continue
            for rel in relators:
                self.scan_and_fill(alpha, rel)
                if self.rep(alpha) != alpha:
                    break
            if self.rep(alpha) == alpha:
                for x in range(self.ncols):
                    if self.table[alpha][x] is None:
                        self.define(alpha, x)
            alpha += 1


def reference_todd_coxeter(presentation, subgroup_words=(), limit=graphpres.coset.COSET_LIMIT):
    """(rows, cosets defined) of the reference enumeration."""
    enum = ReferenceEnumerator(len(presentation.generators), limit)
    enum.run([_cols(rel) for rel in presentation.relators],
             [_cols(w) for w in subgroup_words])
    live = [k for k in range(len(enum.table)) if enum.rep(k) == k]
    renumber = {old: new for new, old in enumerate(live)}
    rows = [[renumber[enum.rep(entry)] for entry in enum.table[old]] for old in live]
    table = CosetTable(presentation.generators, rows)
    assert all(table.trace(c, rel) == c for rel in presentation.relators for c in range(table.n))
    return rows, len(enum.table)


def assert_same_enumeration(presentation, subgroup_words=(), limit=graphpres.coset.COSET_LIMIT):
    try:
        expected = reference_todd_coxeter(presentation, subgroup_words, limit)
    except EnumerationLimitError as err:
        with pytest.raises(EnumerationLimitError) as ours:
            todd_coxeter(presentation, subgroup_words, limit)
        assert (ours.value.defined, ours.value.live) == (err.defined, err.live)
        return False
    table = todd_coxeter(presentation, subgroup_words, limit)
    assert (table.rows, table.stats.defined) == expected
    return True


def recorded_enumerations(monkeypatch, argv_list):
    """Every todd_coxeter call the pipeline makes while running the commands."""
    calls = []

    def spy(presentation, subgroup_words=(), limit=graphpres.coset.COSET_LIMIT):
        subgroup_words = [list(w) for w in subgroup_words]
        calls.append((presentation, subgroup_words, limit))
        return todd_coxeter(presentation, subgroup_words, limit)

    for module in (graphpres.derive, graphpres.verify, graphpres.coxeter):
        monkeypatch.setattr(module, "todd_coxeter", spy)
    for argv in argv_list:
        assert main(argv) == 0
    return calls


BUILTINS_TO_SIMPLEX6 = ["simplex:3", "simplex:4", "simplex:5", "simplex:6", "dihedral:5",
                        "dihedral:50", "dodecahedron", "binary-icosahedral"]


@pytest.mark.parametrize("name", BUILTINS_TO_SIMPLEX6)
def test_builtin_enumerations_match_the_reference(monkeypatch, tmp_path, capsys, name):
    argv = [["derive", "--builtin", name, "--verify", "--out", str(tmp_path)]]
    if name == "binary-icosahedral":
        argv.append(["coxeter-check"])
    calls = recorded_enumerations(monkeypatch, argv)
    capsys.readouterr()
    assert calls
    for presentation, subgroup_words, limit in calls:
        assert_same_enumeration(presentation, subgroup_words, limit)


@pytest.mark.parametrize("name", list(ACTIONS))
def test_pinned_action_enumerations_match_the_reference(monkeypatch, tmp_path, capsys, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(ACTIONS[name]))
    calls = recorded_enumerations(
        monkeypatch, [["derive", "--action", str(path), "--verify", "--out", str(tmp_path)]])
    capsys.readouterr()
    assert calls
    for presentation, subgroup_words, limit in calls:
        assert_same_enumeration(presentation, subgroup_words, limit)


def rotated(rng, word):
    """A random cyclic conjugate of the word or of its inverse."""
    k = rng.randrange(len(word))
    word = word[k:] + word[:k]
    return inverse_word(word) if rng.random() < 0.5 else word


def random_presentation(rng):
    """Finite groups full of power relators, given in a random spelling:
    von Dyck groups <a, b | a^p, b^q, (ab)^r> and Coxeter groups of the
    types A_k and B_k, sometimes with a random relator added, over a random
    subgroup; or a presentation drawn at random."""
    kind = rng.randrange(3)
    if kind == 0:
        ngens = 2
        p, q, r = rng.choice([(2, 2, rng.randrange(2, 30)), (2, 3, 3), (2, 3, 4), (2, 3, 5)])
        rels = [[(0, 1)] * p, [(1, 1)] * q, [(0, 1), (1, 1)] * r]
    elif kind == 1:
        ngens = rng.randrange(2, 5)
        bond = rng.choice([3, 4]) if ngens < 4 else 3  # B_k or A_k at the last bond
        rels = [[(g, 1)] * 2 for g in range(ngens)]
        for g in range(ngens):
            for h in range(g + 1, ngens):
                order = (bond if h == ngens - 1 else 3) if h == g + 1 else 2
                rels.append([(g, 1), (h, 1)] * order)
    else:
        ngens = rng.randrange(1, 4)
        rels = [[(g, 1)] * rng.randrange(2, 6) for g in range(ngens) if rng.random() < 0.8]
        rels.append(random_word(rng, ngens, rng.randrange(1, 5)) * rng.randrange(2, 7))
    if rng.random() < 0.3:
        rels.append(random_word(rng, ngens, rng.randrange(1, 6)) * rng.randrange(1, 4))
    perm = list(range(ngens))
    rng.shuffle(perm)
    rels = [rotated(rng, [(perm[g], s) for g, s in rel]) for rel in rels]
    rng.shuffle(rels)
    names = [f"x{g}" for g in range(ngens)]
    subgroup = [random_word(rng, ngens, rng.randrange(1, 4)) for _ in range(rng.randrange(3))]
    return pres(names, [[(names[g], s) for g, s in rel] for rel in rels]), subgroup


def test_random_presentations_match_the_reference(rng):
    completed = 0
    for _ in range(200):
        presentation, subgroup = random_presentation(rng)
        completed += assert_same_enumeration(presentation, subgroup, limit=3000)
    assert completed >= 100


def dihedral_over_mirror(n):
    """<m, g | m^2, g^2, (m g^-1)^n> over <m>: n cosets, one relator of length 2n."""
    return pres(["m", "g"], [[("m", 1)] * 2, [("g", 1)] * 2,
                             [("m", 1), ("g", -1)] * n]), [[(0, 1)]]


class CountingRow(list):
    """A table row that counts the entries read from it."""

    reads = 0

    def __getitem__(self, k):
        CountingRow.reads += 1
        return super().__getitem__(k)


class CountingEnumerator(_Enumerator):
    def __init__(self, ngens, limit):
        super().__init__(ngens, limit)
        self.table[0] = CountingRow(self.table[0])

    def define(self, alpha, x):
        beta = super().define(alpha, x)
        self.table[beta] = CountingRow(self.table[beta])
        return beta


def table_reads(presentation, subgroup):
    CountingRow.reads = 0
    enum = CountingEnumerator(len(presentation.generators), graphpres.coset.COSET_LIMIT)
    enum.run([_cols(rel) for rel in presentation.relators],
             [_cols(w) for w in subgroup])
    return CountingRow.reads


def test_scans_of_a_long_power_relator_grow_linearly():
    reads = {}
    for n in (50, 100, 200):
        presentation, subgroup = dihedral_over_mirror(n)
        assert todd_coxeter(presentation, subgroup).n == n
        assert_same_enumeration(presentation, subgroup)
        reads[n] = table_reads(presentation, subgroup)
    # doubling n doubles the work, where quadratic scans would quadruple it
    assert reads[100] < 2.2 * reads[50] and reads[200] < 2.2 * reads[100]


def test_prefix_chain_of_the_coxeter_presentation_of_s_n():
    # Q_k is S_(k+1), of index k + 1 over S_k
    for n in (2, 4, 7):
        assert prefix_chain(standard_symmetric_presentation(n)) == list(range(n, 1, -1))
    assert prefix_chain(pres([], [])) == []
    assert prefix_chain(CYCLIC3) == [3]


def test_prefix_chain_bound_depends_on_the_letter_order():
    # <a, b | a b^-1, b^2> has order 2: dropping b first leaves <a | >, which
    # is infinite, so no step closes; dropping a first leaves <b | b^2>
    relators = [[("a", 1), ("b", -1)], [("b", 1)] * 2]
    assert todd_coxeter(pres(["a", "b"], relators)).n == 2
    assert prefix_chain(pres(["a", "b"], relators), limit=1000) is None
    assert prefix_chain(pres(["b", "a"], relators), limit=1000) == [1, 2]


# S3 on the swaps s2, s3 of simplex:4's vertex stabilizer, where s2^2 = 1
# holds only through s3: its chain bound is [Q : <s2>] |<s2 | s2^4>| = 3 * 4
LOOSE_S3 = pres(["s2", "s3"], [[("s2", 1)] * 4, [("s3", 1)] * 2,
                               [("s2", 1), ("s2", 1), ("s3", -1), ("s3", -1)],
                               [("s2", 1), ("s3", 1)] * 3])


def test_prefix_chain_bound_can_exceed_the_order():
    assert todd_coxeter(LOOSE_S3).n == 6
    assert prefix_chain(LOOSE_S3) == [3, 4]


def test_prefix_chain_stops_at_its_limit():
    # the first step of S7, the index 7 over S6, defines more than 7 cosets
    s7 = standard_symmetric_presentation(7)
    assert prefix_chain(s7, limit=7) is None
    assert prefix_chain(s7, limit=100) == [7, 6, 5, 4, 3, 2]
