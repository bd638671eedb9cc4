"""Independent checks of a derived presentation against its source action.

Order comparison by coset enumeration, reconstruction of the graph from the
presented group (with the covering map onto the original graph), and integer
abelianization via the Smith normal form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .coset import CosetTable, EnumerationLimitError, todd_coxeter
from .derive import DerivedPresentation, word_speller
from .graphs import ActionedGraph
from .perms import tree_fold
from .scaffold import Scaffolding
from .words import EdgeLetter, Presentation, Word, rewrite_word_to_E1


@dataclass(frozen=True)
class OrderCheck:
    ok: bool
    enumerated: int | None
    expected: int
    relators_sound: bool
    detail: str = ""


def presentation_order_check(derived: DerivedPresentation, ag: ActionedGraph,
                             limit: int = 1_000_000) -> OrderCheck:
    """Enumerate the presented group and compare with the acting group.

    Passes when the coset count over the trivial subgroup equals the group
    order and every relator evaluates to the identity under the generator
    assignment.
    """
    group = ag.group
    gens = [derived.gen_elements[name] for name in derived.presentation.generators]
    sound = all(group.word_product(gens[i] if s > 0 else group.inverse(gens[i])
                                   for i, s in rel) == 0
                for rel in derived.presentation.relators)
    try:
        table = todd_coxeter(derived.presentation, limit=limit)
    except EnumerationLimitError as exc:
        return OrderCheck(False, None, group.order, sound,
                          f"enumeration exceeded {exc.limit} cosets")
    ok = sound and table.n == group.order
    detail = "" if ok else f"enumerated {table.n}, group has {group.order}"
    return OrderCheck(ok, table.n, group.order, sound, detail)


@dataclass
class KozsulModel:
    """The graph rebuilt from the presented group, with its map back to X.

    Vertices are pairs (base vertex, coset) over the per-base-vertex coset
    tables of the presented group modulo the image of that stabilizer; base
    vertices whose stabilizer generators are the same words share one table.
    """

    vertices: list[tuple[int, int]]
    edges: set[tuple[tuple[int, int], tuple[int, int]]]
    f: dict[tuple[int, int], int]
    tables: dict[int, CosetTable]


def build_kozsul_model(derived: DerivedPresentation, ag: ActionedGraph, sc: Scaffolding,
                       limit: int = 1_000_000) -> KozsulModel:
    """Rebuild the graph from the presented group.

    For each base vertex v the vertex set contributes the cosets of the
    subgroup generated by v's stabilizer generators; each oriented edge e at
    v contributes the orbit of an edge between coset(1) at v and
    coset(g_e^-1) at the base vertex of its far end, transported along the
    common right action of the presented group's generators.
    """
    pres = derived.presentation
    group = ag.group
    name_index = {n: i for i, n in enumerate(pres.generators)}
    stab_gen_words: dict[int, list] = {v: [] for v in sc.base_vertices}
    for name, v in derived.stab_owners.items():
        stab_gen_words[v].append(((name_index[name], 1),))
    # base vertices with equal subgroup words (none, for a free action) share
    # one enumeration
    by_words: dict[tuple, CosetTable] = {}
    tables: dict[int, CosetTable] = {}
    for v in sc.base_vertices:
        key = tuple(stab_gen_words[v])
        if key not in by_words:
            by_words[key] = todd_coxeter(pres, stab_gen_words[v], limit=limit)
        tables[v] = by_words[key]
    spell = word_speller(group, sc.base_vertices, pres.generators, derived.gen_elements,
                         derived.stab_owners, derived.edge_gens)
    # the element each letter (generator index, +-1) evaluates to
    letter_element = {(i, s): elem if s > 0 else group.inverse(elem)
                      for i, elem in enumerate(derived.gen_elements[n] for n in pres.generators)
                      for s in (1, -1)}

    vertices = [(v, c) for v in sc.base_vertices for c in range(tables[v].n)]
    edges: set[tuple[tuple[int, int], tuple[int, int]]] = set()
    f: dict[tuple[int, int], int] = {}

    # the covering map f((v, c)) = phi(delta)^-1(v), with phi(delta) carried
    # down the coset table's spanning tree
    for v in sc.base_vertices:
        carried = tree_fold(tables[v].tree(), 0,
                            lambda g, step: group.product(g, letter_element[step]))
        for c in range(tables[v].n):
            f[(v, c)] = ag.apply(group.inverse(carried[c]), v)

    # edges: gG_v adjacent to g g_e G_w translates, on right cosets, to
    # (v, G_v d) ~ (w, G_w g_e^-1 d); propagate the base edge along words
    for v in sc.base_vertices:
        table_v = tables[v]
        for e in sorted(sc.s):
            if e.origin != v:
                continue
            w = sc.v_of[e]
            table_w = tables[w]
            ge = spell(rewrite_word_to_E1(Word([EdgeLetter(e, 1)]), ag, sc))
            ge_inv = [(g, -s) for g, s in reversed(ge)]
            start = table_w.trace(0, ge_inv)
            # equivariant propagation: coset c at v maps to neighbor n(c) at w
            n_of = tree_fold(table_v.tree(), start, lambda n, step: table_w.step(n, *step))
            for c in range(table_v.n):
                a, b = (v, c), (w, n_of[c])
                edges.add((min(a, b), max(a, b)))

    return KozsulModel(vertices, edges, f, tables)


@dataclass(frozen=True)
class CoveringReport:
    ok: bool
    model_vertices: int
    graph_vertices: int
    model_edges: int
    graph_edges: int
    defect: str = ""
    witness: tuple = ()


def check_covering_isomorphism(model: KozsulModel, ag: ActionedGraph) -> CoveringReport:
    """Is the canonical map from the rebuilt graph to X a graph isomorphism?

    Checks bijectivity on vertices and edges and the local condition that
    neighbors map bijectively onto neighbors at every vertex; on failure the
    report carries a witness (a non-injective pair, or a vertex whose
    neighborhood is defective).
    """
    nX = ag.graph.vertex_count
    mX = len(ag.graph.edges)
    nM = len(model.vertices)
    mM = len(model.edges)

    image: dict[int, tuple[int, int]] = {}
    for x in model.vertices:
        fx = model.f[x]
        if fx in image:
            return CoveringReport(False, nM, nX, mM, mX,
                                  "two vertices map to the same vertex",
                                  (image[fx], x))
        image[fx] = x
    if nM != nX:
        return CoveringReport(False, nM, nX, mM, mX, "vertex counts differ")

    neighbors: dict[tuple[int, int], set[tuple[int, int]]] = {x: set() for x in model.vertices}
    for a, b in model.edges:
        neighbors[a].add(b)
        neighbors[b].add(a)
    for x in model.vertices:
        fx = model.f[x]
        mapped = {model.f[y] for y in neighbors[x]}
        actual = set(ag.graph.neighbors(fx))
        if len(mapped) != len(neighbors[x]) or mapped != actual:
            return CoveringReport(False, nM, nX, mM, mX,
                                  "neighborhood does not map bijectively", (x,))
    if mM != mX:
        return CoveringReport(False, nM, nX, mM, mX, "edge counts differ")
    return CoveringReport(True, nM, nX, mM, mX)


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> list[int]:
    """Diagonal of the Smith normal form of an integer matrix.

    Returns nonnegative d_1 | d_2 | ... of length min(rows, cols).
    """
    a = [list(map(int, row)) for row in matrix]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    diag: list[int] = []
    t = 0
    while t < min(rows, cols):
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] != 0 and (pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        a[t], a[pi] = a[pi], a[t]
        for row in a:
            row[t], row[pj] = row[pj], row[t]
        while True:
            changed = False
            for i in range(t + 1, rows):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    for j in range(cols):
                        a[i][j] -= q * a[t][j]
                    if a[i][t]:  # nonzero remainder becomes the smaller pivot
                        a[t], a[i] = a[i], a[t]
                        changed = True
            for j in range(t + 1, cols):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    for row in a:
                        row[j] -= q * row[t]
                    if a[t][j]:
                        for row in a:
                            row[t], row[j] = row[j], row[t]
                        changed = True
            if not changed:
                break
        d = abs(a[t][t])
        bad_row = None
        for i in range(t + 1, rows):
            if any(a[i][j] % d for j in range(t + 1, cols)):
                bad_row = i
                break
        if bad_row is not None:
            # fold the offending row in and redo; restores the divisibility chain
            for j in range(cols):
                a[t][j] += a[bad_row][j]
            continue
        diag.append(d)
        t += 1
    while len(diag) < min(rows, cols):
        diag.append(0)
    return diag


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
    if not matrix:
        return [0] * ngens
    diag = smith_normal_form(matrix)
    rank = len([d for d in diag if d != 0])
    return [d for d in diag if d != 0] + [0] * (ngens - rank)
