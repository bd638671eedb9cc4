"""Independent checks of a derived presentation against its source action.

Order comparison, reconstruction of the graph from the presented group (one
orbit of edges per edge generator, with the covering map onto the original
graph), integer abelianization via the Smith normal form, and the file of a
presentation with its checks: they read the file and the action alone.

The order check proves |Gamma| = |G| for the presented group Gamma and the
acting group G, by Lagrange's theorem where it can (the coset-table index
bound; Neubueser 1982, Holt-Eick-O'Brien 2005, ch. 5):

1. Sending each generator to its group element defines an onto map
   Gamma -> G: every relator evaluates to 1 (its letters' permutations,
   `group.elements`, compose to fix a base of G), and the elements generate
   G.  Hence |Gamma| >= |G|.  The file check (`check_presentation_file`)
   proves <S_v> = G_v at every base vertex v, S_v its stabilizer generators,
   so K = <elements> has K_v = G_v and |K| = |K v| |G_v|: K = G exactly when
   K v = G v, which is checked at the base vertex with the smallest stabilizer.
   The order check and the reconstruction take only the record the check
   returns (`CheckedFile`), so neither runs on a file it has not accepted.
2. The abelianization is a quotient of Gamma: when it is infinite or its
   order does not divide |G|, then |Gamma| != |G|, and the check fails
   before anything is enumerated.
3. The reconstruction (`build_kozsul_model`) enumerates the cosets of
   H_v = <S_v> in Gamma, so its table at v has [Gamma : H_v] rows.
4. Q_v is the group presented by S_v and those relators of Gamma that use
   only letters of S_v.  Each of them holds in Gamma, so H_v is a quotient
   of Q_v and |H_v| <= |Q_v|.  |Q_v| is bounded by the product of the
   indices down the chain of its generator prefixes (`coset.prefix_chain`),
   one table per generator in place of one table of |Q_v| cosets: for S_n
   on its Coxeter generators, tables of index n, n - 1, ..., 2, not one of
   index n!.
5. |Gamma| = [Gamma : H_v] |H_v| <= [Gamma : H_v] |Q_v| <= [Gamma : H_v] b,
   b the chain's bound.  When this product equals |G|, then
   |G| <= |Gamma| <= |G|, and the onto map is an isomorphism; so b = |Q_v|.

The vertex v of steps 3-5 is the base vertex with the smallest stabilizer
(the least such vertex), which makes Q_v the smallest group on offer.
For a free action Q_v is the trivial group, its chain is empty, and the
reconstruction's own table is the whole proof.

The chain's bound may exceed |Q_v|, or a step may not close within the
lesser of `limit` and `STABILIZER_COSET_LIMIT`.  When the bound does not
prove |G| -- or there is no reconstruction -- the check enumerates Gamma
over the trivial subgroup and compares the count with |G|.  So no verdict
depends on which proof ran: the bound accepts only presentations with
|Gamma| = |G|, which the full enumeration accepts too, and the
abelianization rejects only presentations with |Gamma| != |G|.  On the
files `derive` writes, Q_v's chain is the one `derive.validate_input`
proved equal to |G_v|.

The abelianization, the reconstruction and the full enumeration run on one
Tietze reduction of the presentation (`presentation.tietze_reduce`): every
generator that a relator of length one or two pins down (g = 1, or
g = h^+-1) is substituted away, to a fixpoint.  This is sound for these reasons:

- Each elimination is a Tietze move, so the reduced presentation presents
  the same group Gamma: the full enumeration counts |Gamma|, and the
  abelianization has Gamma's invariant factors (they are unique), up to how
  many of them are 1, which no verdict reads.
- A stabilizer word, rewritten through the eliminations and freely reduced,
  is the same element of Gamma, so the reduced words generate the same
  subgroup H_v.  The reduced table is the action of Gamma on the cosets of
  H_v, with the index [Gamma : H_v] that the unreduced table has.  Free
  reduction keeps the conjugating letters of a word u w u^-1, which a
  cyclic reduction would drop, changing the subgroup.
- Each eliminated generator acts on the reduced table as the element it
  equals (the identity, or h^+-1), so a word over the original generators
  acts as its respelling through `TietzeReduction.word`.  The covering map
  is carried down the reduced table's breadth-first tree with the elements
  of the surviving generators, and an edge generator's far coset is traced
  along its respelled inverse (`build_kozsul_model`).  A table spread over
  every original generator would give the same values: `tietze_reduce`
  pins a generator only to a smaller one, so each surviving generator's
  columns come before those of the generators pinned to it, which reach no
  coset that the survivor's did not, and that table's breadth-first tree has
  the same parents, reached by the same elements.  The code does not rely
  on this argument alone: every original relator, respelled, is checked to
  close at every coset of every reduced table.
"""

from __future__ import annotations

import math
from functools import reduce
from typing import Callable, Iterable, NamedTuple, Sequence

from .coset import (COSET_LIMIT, STABILIZER_COSET_LIMIT, CosetTable, EnumerationLimitError,
                    prefix_chain, todd_coxeter)
from .graphs import ActionedGraph, OrientedEdge, first_carriers
from .perms import (bfs_tree, identity, perm_compose, perm_inverse, separating_base,
                    tree_fold)
from .presentation import (Presentation, TietzeReduction, inverse_word, read_json,
                           tietze_reduce)


class DerivedPresentation(NamedTuple):
    presentation: Presentation
    families: dict[str, int]               # relator counts per family
    edge_gens: dict[str, OrientedEdge]     # edge generator name -> representative
    stab_owners: dict[str, int]            # stabilizer generator name -> base vertex
    gen_elements: dict[str, int]           # every generator -> group element index
    suggested_renaming: dict[str, str]
    name: str = ""

    def renamed(self) -> Presentation:
        return self.presentation.rename(self.suggested_renaming)


def derived_to_json(d: DerivedPresentation) -> dict:
    return {**d.presentation.to_json_dict(), "name": d.name, "families": dict(d.families),
            "edge_gens": {n: [e.origin, e.target] for n, e in d.edge_gens.items()},
            "stab_owners": dict(d.stab_owners), "gen_elements": dict(d.gen_elements),
            "renaming": dict(d.suggested_renaming)}


# the file `derived_to_json` writes; verify reads no families, renaming or name
PRESENTATION_FILE = {"generators": [str], "relators": [[(str, int)]],
                     "edge_gens": {str: (int, int)}, "stab_owners": {str: int},
                     "gen_elements": {str: int}, "families?": {str: int},
                     "renaming?": {str: str}, "name?": str}


def derived_from_json(data: dict) -> DerivedPresentation:
    """A stored presentation file; an error names the JSON path."""
    read_json(data, PRESENTATION_FILE)
    return DerivedPresentation(
        Presentation.from_strings(data["generators"], data["relators"]),
        dict(data.get("families", {})),
        {n: OrientedEdge(*pair) for n, pair in data["edge_gens"].items()},
        dict(data["stab_owners"]), dict(data["gen_elements"]),
        dict(data.get("renaming", {})), data.get("name", ""))


class CheckedFile(NamedTuple):
    """A presentation file that fits its action, with what the check read off it."""

    derived: DerivedPresentation
    ag: ActionedGraph
    base_of: dict[int, int]         # vertex -> its orbit's base vertex
    owned: dict[int, list[str]]     # base vertex, sorted -> its stabilizer generators


def check_presentation_file(derived: DerivedPresentation, ag: ActionedGraph) -> str | CheckedFile:
    """The first reason a stored presentation does not fit the action, or the
    checked file: generators name group elements, edges and vertices, named
    base vertices lie in distinct orbits, each base vertex's generators
    generate its stabilizer, and each undirected edge orbit holds one edge
    generator's edge.  With the order check, g_e rebuilds the orbit of the
    edge from e's origin to s_e(w), w the base of e's target: e's orbit if
    s_e(w) = target.

    An orbit's base vertex is the least vertex the file names in it (a
    stabilizer owner or an edge generator's origin), else the least far end
    s_e^-1(target of e) of an edge generator g_e, else its least vertex (an
    orbit without edges); for derive's files, the scaffolding's.  `owned`
    lists each base vertex's stabilizer generators in `stab_owners` order.
    """
    group, graph = ag.group, ag.graph
    generators = set(derived.presentation.generators)
    for name in derived.presentation.generators:
        if name not in derived.gen_elements:
            return f"generator {name} has no group element"
    for name in [*derived.edge_gens, *derived.stab_owners]:
        if name not in generators:
            return f"{name} is not a generator of the presentation"
    for name, elem in derived.gen_elements.items():
        if not 0 <= elem < group.order:
            return f"generator {name} names element {elem}, the group has {group.order}"
    for name, (a, b) in derived.edge_gens.items():
        if not graph.has_edge(a, b):
            return f"edge generator {name} names ({a}, {b}), not an edge of the graph"
    for name, v in derived.stab_owners.items():
        if not 0 <= v < graph.vertex_count:
            return f"stabilizer generator {name} belongs to {v}, not a vertex of the graph"
    base_of: dict[int, int] = {}
    named = {*derived.stab_owners.values(), *(e.origin for e in derived.edge_gens.values())}
    for v in sorted(named):
        if v in base_of:
            return f"vertices {base_of[v]} and {v} are named as base vertices of one orbit"
        base_of.update(dict.fromkeys(ag.carriers(v), v))
    # a far end lies in its target's orbit: only orbits without a named vertex ask for one
    far_ends = sorted(ag.action[derived.gen_elements[name]].index(e.target)
                      for name, e in derived.edge_gens.items() if e.target not in base_of)
    for v in (*far_ends, *range(graph.vertex_count)):
        if v not in base_of:
            base_of.update(dict.fromkeys(ag.carriers(v), v))
    owned: dict[int, list[str]] = {v: [] for v in sorted(set(base_of.values()))}
    for name, v in derived.stab_owners.items():
        owned[v].append(name)
    one = identity(len(group.elements[0]))
    for v, names in owned.items():
        # <S_v> is the closure of its permutations, or [one] (not hashed) when S_v is empty
        gens = [derived.gen_elements[name] for name in names]
        carriers = [group.elements[g] for g in gens]
        closure = (bfs_tree(one, lambda p: ((c, perm_compose(p, c)) for c in carriers))
                   if carriers else [one])
        if any(ag.apply(g, v) != v for g in gens) or len(closure) != len(ag.stabilizer(v)):
            return f"the stabilizer generators at {v} do not generate its stabilizer"
    named_by: dict[tuple[int, ...], str] = {}  # edge -> the generator naming its orbit
    for name, (a, b) in derived.edge_gens.items():
        if (edge := (min(a, b), max(a, b))) in named_by:
            return f"edge generators {named_by[edge]} and {name} name one edge orbit"
        orbit = first_carriers(ag.action,
                               lambda p, _: (p[a], p[b]) if p[a] < p[b] else (p[b], p[a]), edge)
        named_by.update(dict.fromkeys(orbit, name))
    if unnamed := graph.edges - named_by.keys():
        return f"no edge generator names the orbit of the edge {min(unnamed)}"
    return CheckedFile(derived, ag, base_of, owned)


class OrderCheck(NamedTuple):
    """The order check's verdict.

    `enumerated` is the proven order, or the count a failed enumeration
    reached; it is None when nothing was counted (a limit, or no onto map).
    `proof` is "lagrange", "abelianization" (a failure that `detail`
    explains) or "enumeration"; a Lagrange proof names its base vertex, the
    index [Gamma : H_v], the order of Q_v and Q_v's prefix chain, the
    indices whose product proved it.
    """

    ok: bool
    enumerated: int | None
    expected: int
    detail: str = ""
    proof: str | None = None
    base_vertex: int | None = None
    index: int | None = None
    stabilizer_order: int | None = None
    stabilizer_chain: list[int] | None = None


def presentation_order_check(
        checked: CheckedFile, reconstruct: Callable[[TietzeReduction], KozsulModel | None],
        limit: int = COSET_LIMIT) -> OrderCheck:
    """Prove that the presented group has the acting group's order.

    For a file `check_presentation_file` accepted, fails, naming the
    witness, when the generators do not generate G, a relator does not
    evaluate to 1, or the abelianization of the Tietze-reduced presentation
    rules |G| out.  Only then does it call `reconstruct` on that reduction,
    which returns the reconstruction of the same presentation or None, and
    try the Lagrange bound with Q_v's prefix chain at the base vertex with
    the smallest stabilizer; when the bound does not prove |G|, it
    enumerates the reduction; the module docstring has the argument.
    """
    derived, ag = checked.derived, checked.ag
    group, pres = ag.group, derived.presentation
    gens = [derived.gen_elements[name] for name in pres.generators]
    v = min(checked.owned, key=lambda u: (len(ag.stabilizer(u)), u))
    distinct = set(gens)
    reached = len(bfs_tree(v, lambda x: ((g, ag.apply(g, x)) for g in distinct)))
    orbit = len(ag.carriers(v))
    if reached != orbit:
        return OrderCheck(False, None, group.order,
                          f"generators carry {v} to {reached} of the {orbit} vertices of its orbit")
    # a relator holds when its letters' permutations compose to fix a base of G
    base = separating_base(group.elements)
    letter = {(g, s): p if s > 0 else perm_inverse(p)
              for g, p in zip(distinct, [group.elements[g] for g in distinct]) for s in (1, -1)}
    for k, rel in enumerate(pres.relators):
        carriers = [letter[gens[i], s] for i, s in reversed(rel)]
        if any(reduce(lambda y, p: p[y], carriers, x) != x for x in base):
            return OrderCheck(False, None, group.order, f"relator {k} does not evaluate to 1")
    reduction = tietze_reduce(pres)
    if ruled_out := _abelianization_rules_out(reduction.presentation, group.order):
        return OrderCheck(False, None, group.order, ruled_out, proof="abelianization")

    if (model := reconstruct(reduction)) is not None:
        index = model.tables[v].n
        q_v = pres.restricted(sorted(map(pres.generators.index, checked.owned[v])))
        chain = prefix_chain(q_v, min(limit, STABILIZER_COSET_LIMIT))
        if chain is not None and index * math.prod(chain) == group.order:
            return OrderCheck(True, group.order, group.order, proof="lagrange", base_vertex=v,
                              index=index, stabilizer_order=math.prod(chain),
                              stabilizer_chain=chain)
    try:
        table = todd_coxeter(reduction.presentation, limit=limit)
    except EnumerationLimitError as exc:
        return OrderCheck(False, None, group.order,
                          f"enumeration exceeded {exc.limit} cosets", proof="enumeration")
    ok = table.n == group.order
    detail = "" if ok else f"enumerated {table.n}, group has {group.order}"
    return OrderCheck(ok, table.n, group.order, detail, proof="enumeration")


def _subgroup_key(words: Iterable[tuple]) -> tuple:
    """Words that generate the same subgroup as `words`: each one spelled
    as itself or its inverse, whichever has its first letter positive
    (positive letters win ties further on), with empty and repeated words
    dropped."""
    def spelling(w: tuple) -> tuple:
        return min(w, inverse_word(w), key=lambda u: [(g, -s) for g, s in u])
    return tuple(dict.fromkeys(spelling(w) for w in words if w))


class KozsulModel(NamedTuple):
    """The graph rebuilt from the presented group, with its map back to X.

    Vertices, the keys of `f`, are pairs (base vertex, coset) over the coset
    tables of the presented group modulo each base vertex's stabilizer; base
    vertices whose Tietze-reduced stabilizer words agree share one table.
    """

    edges: set[tuple[tuple[int, int], tuple[int, int]]]
    f: dict[tuple[int, int], int]
    tables: dict[int, CosetTable]


def build_kozsul_model(checked: CheckedFile, reduction: TietzeReduction,
                       limit: int = COSET_LIMIT) -> KozsulModel:
    """Rebuild the graph from the presented group Gamma.

    Each base vertex v of the checked file contributes the cosets of
    H_v = <S_v>, enumerated over `reduction`, the order check's Tietze
    reduction (module docstring).  Each edge generator g_e, for the pairing
    representative e from v to the base vertex w of its far end, contributes
    the Gamma-orbit of the edge between coset 0 at v and coset g_e^-1 at w.
    These are all the edges:

    - An oriented edge u(e0) at v, with e0 a representative and u in G_v,
      has g_{u(e0)} = u g_{e0} k^-1 with u in H_v and k in H_w.  Its edge
      (0, 0 k g_{e0}^-1 u^-1) is the image of e0's edge under u^-1, which
      fixes coset 0 at v, so it lies in e0's orbit.
    - A representative outside the pairing set has g_{e0} = g_{e1}^-1 for
      its partner e1, which runs from w back to v, so it gives e1's orbit
      reversed.
    - The forward columns of the reduced tables generate Gamma's action on
      the cosets: both tables enumerate the same reduced presentation, every
      eliminated generator acts as a surviving one or as the identity, and
      an inverse column is a power of its forward one, the cosets being
      finitely many.  So the walk does not grow with the number of
      eliminated generators.
    - Conversely, an element of H_v that fixes e0 in X conjugates by
      g_{e0} into H_w once Gamma = G, so it fixes e0's edge, and the orbit
      holds just the edges of e0's orbit in X.  The covering check runs
      only after the order check has proved Gamma = G, so every relation
      of G holds in Gamma, and a stored presentation gets the same edge set
      as a derived one.
    """
    derived, ag, base_of = checked.derived, checked.ag, checked.base_of
    pres = derived.presentation
    name_index = {n: i for i, n in enumerate(pres.generators)}
    # enumerate the Tietze-reduced presentation; base vertices with equal
    # reduced subgroup words (none, for a free action) share one enumeration
    reduced_pres = reduction.presentation
    # every original relator, respelled over the reduced generators, must
    # close at every coset: the tables do not rest on the reduction alone
    original_relators = [reduction.word(rel) for rel in pres.relators]
    by_words: dict[tuple, CosetTable] = {}
    tables: dict[int, CosetTable] = {}
    for v, names in checked.owned.items():
        key = _subgroup_key(reduction.word(((name_index[name], 1),)) for name in names)
        if key not in by_words:
            table = by_words[key] = todd_coxeter(reduced_pres, key, limit=limit)
            for rel in original_relators:
                if not table.relator_closes_everywhere(rel):
                    raise RuntimeError("an original relator fails to close on the reduced table")
        tables[v] = by_words[key]
    # the vertex permutation of each reduced generator, and its inverse
    moves = [ag.action[derived.gen_elements[n]] for n in reduced_pres.generators]
    inverses = list(map(perm_inverse, moves))

    edges: set[tuple[tuple[int, int], tuple[int, int]]] = set()
    f: dict[tuple[int, int], int] = {}

    # the covering map f((v, c)) = phi(delta)^-1(v), carried down the coset
    # table's spanning tree as a vertex: phi(delta) = phi(parent) phi(letter),
    # so f(delta) = phi(letter)^-1(f(parent))
    for v in checked.owned:
        images = tree_fold(tables[v].tree(), v,
                           lambda x, step: (inverses if step[1] > 0 else moves)[step[0]][x])
        f.update(((v, c), images[c]) for c in range(tables[v].n))

    # edges: the orbit of (coset 0 at v, coset g_e^-1 at w) per edge generator
    for name, e in derived.edge_gens.items():
        v, w = e.origin, base_of[e.target]
        columns = list(zip(tables[v].columns()[::2], tables[w].columns()[::2]))
        start = (0, tables[w].trace(0, reduction.word(((name_index[name], -1),))))
        orbit = bfs_tree(start, lambda pair: ((None, (cv[pair[0]], cw[pair[1]]))
                                              for cv, cw in columns))
        for c, d in orbit:
            a, b = (v, c), (w, d)
            edges.add((a, b) if a < b else (b, a))

    return KozsulModel(edges, f, tables)


class CoveringReport(NamedTuple):
    ok: bool
    model_vertices: int
    graph_vertices: int
    model_edges: int
    graph_edges: int
    defect: str = ""
    witness: tuple = ()


def check_covering_isomorphism(model: KozsulModel, ag: ActionedGraph) -> CoveringReport:
    """Is the canonical map from the rebuilt graph to X a graph isomorphism?

    f must be injective on vertices, the vertex counts must agree, and f must
    carry the model's edges onto the graph's edges.  An injective f sends
    distinct edges to distinct pairs, so the last test is exact.  On failure
    the report carries a witness: a non-injective pair, or the least pair in
    the symmetric difference of the mapped edges and the graph's edges.
    """
    nX = ag.graph.vertex_count
    mX = len(ag.graph.edges)
    nM = len(model.f)
    mM = len(model.edges)

    image: dict[int, tuple[int, int]] = {}
    for x, fx in model.f.items():
        if fx in image:
            return CoveringReport(False, nM, nX, mM, mX,
                                  "two vertices map to the same vertex",
                                  (image[fx], x))
        image[fx] = x
    if nM != nX:
        return CoveringReport(False, nM, nX, mM, mX, "vertex counts differ")

    f = model.f
    mapped = {(f[a], f[b]) if f[a] < f[b] else (f[b], f[a]) for a, b in model.edges}
    if mapped != ag.graph.edges:
        return CoveringReport(False, nM, nX, mM, mX, "edges do not map onto the graph's edges",
                              min(mapped ^ ag.graph.edges))
    return CoveringReport(True, nM, nX, mM, mX)


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> list[int]:
    """Diagonal of the Smith normal form of an integer matrix.

    Returns nonnegative d_1 | d_2 | ... of length min(rows, cols).  Each
    round moves the least nonzero entry of the block from (t, t) on to
    (t, t) and clears its column and row by division with remainder.  A
    remainder left, or a block entry the pivot does not divide (its row is
    added to row t), gives a smaller pivot within two rounds: the loop ends.
    """
    a = [list(map(int, row)) for row in matrix]
    n = min(len(a), len(a[0]) if a else 0)
    for t in range(n):
        while block := [(abs(x), i, j) for i, row in enumerate(a[t:], t)
                        for j, x in enumerate(row[t:], t) if x]:
            _, pi, pj = min(block)  # (t, t) wins ties
            a[t], a[pi] = a[pi], a[t]
            for row in a:
                row[t], row[pj] = row[pj], row[t]
            for i in range(t + 1, len(a)):
                q = a[i][t] // a[t][t]
                a[i] = [x - q * y for x, y in zip(a[i], a[t])]
            for j in range(t + 1, len(a[t])):
                q = a[t][j] // a[t][t]
                for row in a[t:]:
                    row[j] -= q * row[t]
            if not any(a[t][t + 1:]) and not any(row[t] for row in a[t + 1:]):
                bad = next((row for row in a[t + 1:] if any(x % a[t][t] for x in row)), None)
                if bad is None:
                    break
                a[t] = [x + y for x, y in zip(a[t], bad)]
    return [abs(a[t][t]) for t in range(n)]


def _abelianization_rules_out(p: Presentation, order: int) -> str:
    """Why the presented group cannot have `order` elements, read off its
    abelianization, or "" when the abelianization allows it.

    The abelianization is a quotient of the presented group, so its order
    divides the group's: an infinite one (a zero invariant factor, as any
    presentation with fewer relators than generators has) or one whose
    order does not divide `order` rules the order out.
    """
    factors = [d for d in abelianization_smith(p) if d != 1]
    name = " x ".join("Z" if d == 0 else f"Z/{d}" for d in factors)
    if 0 in factors:
        return f"the abelianization {name} is infinite"
    if order % math.prod(factors):
        return (f"the abelianization {name} has order {math.prod(factors)}, "
                f"which does not divide {order}")
    return ""


def abelianization_smith(p: Presentation) -> list[int]:
    """Invariant factors of the abelianized presentation.

    Returns the Smith normal form diagonal of the relator exponent matrix,
    padded with zeros to the generator count (a zero per free rank).
    """
    ngens = len(p.generators)
    matrix = []
    for rel in p.relators:
        row = [0] * ngens
        for i, s in rel:
            row[i] += s
        matrix.append(row)
    nonzero = [d for d in smith_normal_form(matrix) if d != 0]
    return nonzero + [0] * (ngens - len(nonzero))
