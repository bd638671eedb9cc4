"""Coset enumeration for finite presentations (relator-scanning strategy).

Deterministic throughout: cosets are defined in least-undefined order while
scanning relators coset by coset, coincidences merge towards the smaller
index, and the completed table is renumbered by increasing surviving index.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .perms import CLOSURE_ENTRY_LIMIT, ClosureLimitError, FiniteGroupTable, Perm, bfs_tree
from .words import Presentation

COSET_LIMIT = 1_000_000

SignedWord = Sequence[tuple[int, int]]  # (generator index, +-1)


class EnumerationLimitError(RuntimeError):
    def __init__(self, limit: int, defined: int, live: int):
        super().__init__(f"coset limit {limit} exceeded ({defined} defined, {live} live)")
        self.limit = limit
        self.defined = defined
        self.live = live


def _cols(word: SignedWord) -> list[int]:
    return [2 * g + (0 if s > 0 else 1) for g, s in word]


def _inv_col(c: int) -> int:
    return c ^ 1


class _Enumerator:
    def __init__(self, ngens: int, limit: int):
        self.ngens = ngens
        self.ncols = 2 * ngens
        self.limit = limit
        self.table: list[list[int | None]] = [[None] * self.ncols]
        self.parent = [0]
        self.live = 1

    def rep(self, k: int) -> int:
        while self.parent[k] != k:
            self.parent[k] = self.parent[self.parent[k]]
            k = self.parent[k]
        return k

    def define(self, alpha: int, x: int) -> int:
        if len(self.table) >= self.limit:
            raise EnumerationLimitError(self.limit, len(self.table), self.live)
        beta = len(self.table)
        self.table.append([None] * self.ncols)
        self.parent.append(beta)
        self.live += 1
        self.table[alpha][x] = beta
        self.table[beta][_inv_col(x)] = alpha
        return beta

    def _merge(self, a: int, b: int, queue: list[int]) -> None:
        a, b = self.rep(a), self.rep(b)
        if a == b:
            return
        lo, hi = min(a, b), max(a, b)
        self.parent[hi] = lo
        self.live -= 1
        queue.append(hi)

    def coincidence(self, a: int, b: int) -> None:
        queue: list[int] = []
        self._merge(a, b, queue)
        while queue:
            gamma = queue.pop()
            row = self.table[gamma]
            for x in range(self.ncols):
                delta = row[x]
                if delta is None:
                    continue
                self.table[delta][_inv_col(x)] = None
                mu, nu = self.rep(gamma), self.rep(delta)
                if self.table[mu][x] is not None:
                    self._merge(nu, self.table[mu][x], queue)
                elif self.table[nu][_inv_col(x)] is not None:
                    self._merge(mu, self.table[nu][_inv_col(x)], queue)
                else:
                    self.table[mu][x] = nu
                    self.table[nu][_inv_col(x)] = mu

    def scan_and_fill(self, alpha: int, word: list[int]) -> None:
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
            while j >= i and self.table[b][_inv_col(word[j])] is not None:
                b = self.rep(self.table[b][_inv_col(word[j])])
                j -= 1
            if j < i:
                self.coincidence(f, b)
                return
            if i == j:
                self.table[f][word[i]] = b
                self.table[b][_inv_col(word[i])] = f
                return
            self.define(f, word[i])
            alpha = self.rep(alpha)

    def run(self, relators: list[list[int]], subgroup: list[list[int]]) -> None:
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


class CosetTable:
    """A complete coset table: a transitive action of the generators."""

    def __init__(self, gen_names: Sequence[str], rows: list[list[int]]):
        self.gen_names = tuple(gen_names)
        self.rows = rows
        self.n = len(rows)
        self._tree: dict | None = None

    def step(self, coset: int, gen: int, sign: int = 1) -> int:
        return self.rows[coset][2 * gen + (0 if sign > 0 else 1)]

    def trace(self, coset: int, word: SignedWord) -> int:
        for g, s in word:
            coset = self.rows[coset][2 * g + (0 if s > 0 else 1)]
        return coset

    def tree(self) -> dict:
        """Breadth-first spanning tree from coset 0 over the steps (gen, +-1)."""
        if self._tree is None:
            # the letters in column order: (0, 1), (0, -1), (1, 1), ...
            letters = [(g, s) for g in range(len(self.gen_names)) for s in (1, -1)]
            self._tree = bfs_tree(0, lambda c: zip(letters, self.rows[c]))
        return self._tree

    def regular_group(self) -> FiniteGroupTable:
        """The group acting on the cosets, as the closure of its generators.

        Generator k is carried by the inverse of its column permutation
        c -> c k, which is the column of k^-1, so that words multiply left to
        right.  The carrier of an element u maps the coset 0 u to 0, so the
        coset of element j is `elements[j].images.index(0)`; over the trivial
        subgroup the group is the presented group.  The action is
        transitive, so its group has at least n elements, exactly n when it
        is regular: ValueError is raised as soon as the search finds n + 1.
        A table of more than CLOSURE_ENTRY_LIMIT entries (n * n of them)
        raises ClosureLimitError instead.
        """
        carriers = [Perm(row[2 * g + 1] for row in self.rows)
                    for g in range(len(self.gen_names))]
        try:
            return FiniteGroupTable(carriers, limit=self.n)
        except ClosureLimitError as exc:
            if self.n * self.n > CLOSURE_ENTRY_LIMIT:
                raise
            raise ValueError(f"the action on the cosets is not regular: {exc}") from exc

    def relator_closes_everywhere(self, word: SignedWord) -> bool:
        return all(self.trace(c, word) == c for c in range(self.n))


def todd_coxeter(presentation: Presentation, subgroup_words: Iterable[SignedWord] = (),
                 limit: int = COSET_LIMIT) -> CosetTable:
    """Enumerate the cosets of the subgroup generated by `subgroup_words`.

    Returns the complete table (coset 0 is the subgroup itself); raises
    EnumerationLimitError when more than `limit` cosets get defined.
    """
    ngens = len(presentation.generators)
    relators = [_cols(rel) for rel in presentation.relators]
    subgroup = [_cols(w) for w in subgroup_words]
    enum = _Enumerator(ngens, limit)
    enum.run(relators, subgroup)
    # compress to live cosets, renumbered in increasing order
    live = [k for k in range(len(enum.table)) if enum.rep(k) == k]
    renumber = {old: new for new, old in enumerate(live)}
    rows = []
    for old in live:
        row = enum.table[old]
        assert all(entry is not None for entry in row), "incomplete row after enumeration"
        rows.append([renumber[enum.rep(entry)] for entry in row])  # type: ignore[arg-type]
    table = CosetTable(presentation.generators, rows)
    for rel in presentation.relators:
        assert table.relator_closes_everywhere(rel), "relator fails to close"
    return table
