"""Coset enumeration for finite presentations (relator-scanning strategy).

Deterministic throughout: cosets are defined in least-undefined order while
scanning relators coset by coset, coincidences merge towards the smaller
index, and the completed table is renumbered by increasing surviving index.

The work is linear in the relator lengths, and every table is the one the
plain HLT procedure (Holt-Eick-O'Brien, Handbook of Computational Group
Theory, ch. 5) gives, for these reasons:

- Live rows name live cosets.  Entries are written only into empty slots,
  in inverse pairs, and `coincidence` clears every entry that points at a
  dead coset, moving it to the survivor.  So once it returns, every entry of
  a live row names a live coset, and the scans follow entries without
  looking up representatives.
- A scan resumes after each definition.  A definition only adds entries, so
  a scan restarted from the relator's ends would retrace the same entries to
  the same two points or beyond.  The resumed forward walk stops where the
  backward walk stands; a restarted one may walk on past it and then merge
  another pair.  That pair is reached from the resumed scan's pair by one
  stretch of the relator, along defined entries on both sides, so the two
  pairs generate the same congruence.  `coincidence` leaves the quotient of
  the table by that congruence, each class kept at its least coset, so the
  tables agree.
- A power relator u^m (m > 1) is scanned once per cycle of u.  When its scan
  at alpha ends with alpha live, u^m traces from alpha back to alpha, so it
  traces from every alpha u^i back to itself, round the same cycle.  These
  cosets are marked; a merge hands the marks of the dead coset to the
  survivor, whose class the quotient maps the whole trace into.  A marked
  coset skips that scan, which would only follow defined entries back to
  where it started.
- The completed table is checked against u^m by the cycles of u: u^m closes
  at every coset exactly when every cycle of u has a length dividing m.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .perms import CLOSURE_ENTRY_LIMIT, ClosureLimitError, FiniteGroupTable, bfs_tree
from .presentation import Presentation

COSET_LIMIT = 1_000_000
# cosets a vertex-stabilizer presentation may define before it counts as not
# closing
STABILIZER_COSET_LIMIT = 100_000

SignedWord = Sequence[tuple[int, int]]  # (generator index, +-1)


class EnumerationLimitError(RuntimeError):
    def __init__(self, limit: int, defined: int, live: int, where: str = ""):
        super().__init__(f"{where}coset limit {limit} exceeded ({defined} defined, {live} live)")
        self.limit = limit
        self.defined = defined
        self.live = live


def _cols(word: SignedWord) -> list[int]:
    return [2 * g + (0 if s > 0 else 1) for g, s in word]


def _inv_col(c: int) -> int:
    return c ^ 1


def _power(word: list[int]) -> tuple[list[int], int]:
    """(u, m) with word = u^m and m as large as possible."""
    n = len(word)
    for p in range(1, n // 2 + 1):
        if n % p == 0 and word[:p] * (n // p) == word:
            return word[:p], n // p
    return word, 1


class EnumerationStats(NamedTuple):
    """Counters of one enumeration."""

    defined: int  # cosets defined, coset 0 included
    coincidences: int  # coincidences that merged cosets, not counting the merges they forced
    peak_live: int  # the most cosets live at once


class _Enumerator:
    def __init__(self, ngens: int, limit: int):
        self.ngens = ngens
        self.ncols = 2 * ngens
        self.limit = limit
        self.table: list[list[int | None]] = [[None] * self.ncols]
        self.parent = [0]
        self.closed = [0]  # per coset: bit r set when power relator r closes there
        self.live = 1
        self.peak_live = 1
        self.coincidences = 0

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
        self.closed.append(0)
        self.live += 1
        self.peak_live = max(self.peak_live, self.live)
        self.table[alpha][x] = beta
        self.table[beta][_inv_col(x)] = alpha
        return beta

    def _merge(self, a: int, b: int, queue: list[int]) -> None:
        a, b = self.rep(a), self.rep(b)
        if a == b:
            return
        lo, hi = min(a, b), max(a, b)
        self.parent[hi] = lo
        self.closed[lo] |= self.closed[hi]
        self.live -= 1
        queue.append(hi)

    def coincidence(self, a: int, b: int) -> None:
        queue: list[int] = []
        self._merge(a, b, queue)
        if queue:
            self.coincidences += 1
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
        table = self.table
        f, i = alpha, 0  # alpha word[:i] = f
        b, j = alpha, len(word) - 1  # b word[j + 1:] = alpha
        while True:
            while i <= j and (nxt := table[f][word[i]]) is not None:
                f, i = nxt, i + 1
            if i > j:
                if f != b:
                    self.coincidence(f, b)
                return
            while j >= i and (nxt := table[b][_inv_col(word[j])]) is not None:
                b, j = nxt, j - 1
            if j < i:
                self.coincidence(f, b)
                return
            if i == j:
                table[f][word[i]] = b
                table[b][_inv_col(word[i])] = f
                return
            self.define(f, word[i])

    def close_cycle(self, alpha: int, root: list[int], r: int) -> None:
        """Mark every alpha root^k as closed for power relator r."""
        bit, c = 1 << r, alpha
        while True:
            self.closed[c] |= bit
            for x in root:
                c = self.table[c][x]  # type: ignore[assignment]
            if c == alpha:
                return

    def run(self, relators: list[list[int]], subgroup: list[list[int]]) -> None:
        for w in subgroup:
            self.scan_and_fill(0, w)
        powers = [_power(rel) for rel in relators]
        alpha = 0
        while alpha < len(self.table):
            if self.parent[alpha] != alpha:
                alpha += 1
                continue
            for r, rel in enumerate(relators):
                if self.closed[alpha] >> r & 1:
                    continue
                self.scan_and_fill(alpha, rel)
                if self.parent[alpha] != alpha:
                    break
                root, m = powers[r]
                if m > 1:
                    self.close_cycle(alpha, root, r)
            if self.parent[alpha] == alpha:
                for x in range(self.ncols):
                    if self.table[alpha][x] is None:
                        self.define(alpha, x)
            alpha += 1


class CosetTable:
    """A complete coset table: a transitive action of the generators."""

    def __init__(self, gen_names: Sequence[str], rows: list[list[int]],
                 stats: EnumerationStats | None = None):
        self.gen_names = tuple(gen_names)
        self.rows = rows
        self.n = len(rows)
        self.stats = stats  # set on the tables `todd_coxeter` returns
        self._tree: dict | None = None
        self._columns: list[list[int]] | None = None

    def trace(self, coset: int, word: SignedWord) -> int:
        for g, s in word:
            coset = self.rows[coset][2 * g + (0 if s > 0 else 1)]
        return coset

    def columns(self) -> list[list[int]]:
        """Column x of the rows, the map c -> c x, for each column x."""
        if self._columns is None:
            self._columns = [list(col) for col in zip(*self.rows)]
        return self._columns

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
        coset of element j is `elements[j].index(0)`; over the trivial
        subgroup the group is the presented group.  The action is
        transitive, so its group has at least n elements, exactly n when it
        is regular: ValueError is raised as soon as the search finds n + 1.
        A table of more than CLOSURE_ENTRY_LIMIT entries (n * n of them)
        raises ClosureLimitError instead.
        """
        carriers = [tuple(row[2 * g + 1] for row in self.rows)
                    for g in range(len(self.gen_names))]
        try:
            return FiniteGroupTable(carriers, limit=self.n)
        except ClosureLimitError as exc:
            if self.n * self.n > CLOSURE_ENTRY_LIMIT:
                raise
            raise ValueError(f"the action on the cosets is not regular: {exc}") from exc

    def relator_closes_everywhere(self, word: SignedWord) -> bool:
        """Does `word` = u^m trace from every coset back to it?  That is,
        does every cycle of u have a length dividing m?  The map c -> c u is
        composed from the columns of u's letters."""
        root, m = _power(_cols(word))
        columns, identity = self.columns(), list(range(self.n))
        u = columns[root[0]] if root else identity
        for col in root[1:]:
            column = columns[col]
            u = [column[c] for c in u]
        if m == 1:
            return u == identity
        seen = bytearray(self.n)
        for c in range(self.n):
            if seen[c]:
                continue
            x, d = u[c], 1
            while x != c:
                if d == m:
                    return False
                seen[x] = 1
                x, d = u[x], d + 1
            if m % d:
                return False
        return True


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
        if None in row:
            raise RuntimeError("incomplete row after enumeration")
        rows.append([renumber[enum.rep(entry)] for entry in row])  # type: ignore[arg-type]
    stats = EnumerationStats(len(enum.table), enum.coincidences, enum.peak_live)
    table = CosetTable(presentation.generators, rows, stats)
    for rel in presentation.relators:
        if not table.relator_closes_everywhere(rel):
            raise RuntimeError("relator fails to close")
    return table


def prefix_chain(presentation: Presentation, limit: int = COSET_LIMIT) -> list[int] | None:
    """Indices whose product bounds the order of the presented group Q, or
    None when a step defines more than `limit` cosets.

    Q_k is presented by the first k generators x_1 .. x_k and the relators
    of `presentation` that use only those; Q_n = Q and Q_0 = 1.  The relators
    of Q_(k-1) hold in Q_k, so <x_1 .. x_(k-1)> in Q_k is a quotient of
    Q_(k-1), and by Lagrange's theorem

        |Q_k| = [Q_k : <x_1 .. x_(k-1)>] |<x_1 .. x_(k-1)>|
              <= [Q_k : <x_1 .. x_(k-1)>] |Q_(k-1)|.

    The list holds these indices for k = n down to 1, the last generator
    dropped first (Neubueser 1982; Holt-Eick-O'Brien 2005, ch. 5), so
    |Q| <= their product.  The bound can exceed |Q|; with one generator the
    chain is the enumeration of Q itself, and the bound is |Q|.
    """
    chain = []
    for k in range(len(presentation.generators), 0, -1):
        q_k = presentation.restricted(range(k))
        try:
            chain.append(todd_coxeter(q_k, [((g, 1),) for g in range(k - 1)], limit).n)
        except EnumerationLimitError:
            return None
    return chain
