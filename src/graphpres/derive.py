"""End-to-end assembly of a finite presentation from an action and scaffolding.

The output presentation has the supplied stabilizer generators plus one
generator per pairing representative, and carries the stabilizer relators
plus four added families, each built as a word of `words` and rewritten over
the representatives:

- edge relations against the greedy generators of each edge stabilizer,
  by `edge_relation`;
- out-and-back relations g_e^2 = s_e^2 for each inverted representative
  e = (v, w), by `loop_relation` on the walk (v, w, v);
- loop relations of the loops, by `loop_relation`;
- with several vertex orbits, tree relations g_e = 1 for the tree edges, by
  `edge_word`.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import groupby
from typing import NamedTuple, Sequence

from .coset import STABILIZER_COSET_LIMIT, EnumerationLimitError, prefix_chain, todd_coxeter
# unused here, but perfbench/tracing.py wraps derive.find_inversion by this name
from .graphs import (ActionedGraph, CycleSpace, Graph, OrientedEdge, find_inversion,  # noqa: F401
                     first_carriers, loop_problem)
from .perms import FiniteGroupTable, bfs_tree
from .presentation import (CheckedRecord, Presentation, cyclic_reduce, free_reduce,
                           inverse_word, least_rotation, tietze_reduce)
from .scaffold import Scaffolding, build_regular_scaffolding, validate_regularity
from .verify import DerivedPresentation
from .words import (EdgeLetter, StabLetter, Word, cyclic_normal_form, edge_relation, edge_word,
                    inverse_letters, loop_relation, normal_form, rewrite_word_to_E1)


class StabilizerData(CheckedRecord):
    """A presentation of one vertex stabilizer plus its evaluation map."""

    __slots__ = ("presentation", "gen_elements")

    def __init__(self, presentation: Presentation, gen_elements: dict[str, int]):
        if set(presentation.generators) != set(gen_elements):
            raise ValueError("presentation generators and evaluation map disagree")
        self.presentation = presentation
        self.gen_elements = gen_elements


class DerivationInput(NamedTuple):
    ag: ActionedGraph
    sc: Scaffolding
    loops: tuple[tuple[int, ...], ...]
    stabilizers: dict[int, StabilizerData]
    suggested_renaming: dict[str, str]
    name: str = ""
    loop_source: str = "given"  # "given", "picked" or "fundamental"


class DerivationInputError(ValueError):
    pass


def validate_input(inp: DerivationInput) -> None:
    """Check the input invariants; raises DerivationInputError on failure."""
    ag, sc = inp.ag, inp.sc
    if (violation := validate_regularity(sc, ag)) is not None:
        raise DerivationInputError(
            f"scaffolding is not regular: ({violation.condition}) at {tuple(violation.edge)}: "
            f"{violation.detail}")
    # the names derive_presentation gives the edge generators
    edge_names = {f"g[{k}]" for k in range(len(sc.pair_reps))}
    owners: dict[str, int] = {}
    for v in sc.base_vertices:
        if v not in inp.stabilizers:
            raise DerivationInputError(f"missing stabilizer presentation for vertex {v}")
        data = inp.stabilizers[v]
        for name in data.presentation.generators:
            if name in edge_names:
                raise DerivationInputError(
                    f"stabilizer generator name {name} at {v} is an edge generator's name")
            if owners.setdefault(name, v) != v:
                raise DerivationInputError(f"generator name {name} used at two vertices")
        stab = set(ag.stabilizer(v))
        gens = list(data.gen_elements.values())
        closure = set(ag.group.subgroup_closure(gens))
        if closure != stab:
            raise DerivationInputError(
                f"stabilizer generators at {v} generate {len(closure)} of {len(stab)} elements")
        letters = [data.gen_elements[name] for name in data.presentation.generators]
        for k, rel in enumerate(data.presentation.relators):
            if ag.group.evaluate(letters, rel) != 0:
                raise DerivationInputError(f"stabilizer relator {k} at {v} does not evaluate to 1")
        # the generators and relators give an onto map Q -> G_v, so |Q| >= |G_v|:
        # a chain bound of |G_v| proves the order, else Q is enumerated
        chain = prefix_chain(data.presentation, STABILIZER_COSET_LIMIT)
        if chain is not None and math.prod(chain) == len(stab):
            continue
        try:
            table = todd_coxeter(data.presentation, limit=STABILIZER_COSET_LIMIT)
        except EnumerationLimitError as exc:
            raise EnumerationLimitError(exc.limit, exc.defined, exc.live,
                                        f"stabilizer presentation at {v}: ") from None
        if table.n != len(stab):
            raise DerivationInputError(
                f"stabilizer presentation at {v} has order {table.n}, action says {len(stab)}")
    if (problem := loop_problem(ag.graph, inp.loops)) is not None:
        raise DerivationInputError(problem)
    for loop in inp.loops:
        if sc.base_of.get(loop[0]) != loop[0] or sc.base_of.get(loop[-1]) != loop[-1]:
            raise DerivationInputError(f"path {loop} does not begin and end at base vertices")


def derive_presentation(inp: DerivationInput) -> DerivedPresentation:
    """Validate a derivation input and run the pipeline on it; deterministic
    output order."""
    ag, sc = inp.ag, inp.sc
    validate_input(inp)

    gen_names: list[str] = []
    gen_elements: dict[str, int] = {}
    stab_owners: dict[str, int] = {}
    for v in sc.base_vertices:
        data = inp.stabilizers[v]
        for name in data.presentation.generators:
            gen_names.append(name)
            gen_elements[name] = data.gen_elements[name]
            stab_owners[name] = v

    edge_gens: dict[str, OrientedEdge] = {}
    for k, e in enumerate(sc.pair_reps):
        name = f"g[{k}]"
        gen_names.append(name)
        edge_gens[name] = e
        gen_elements[name] = sc.s[e]

    # free-product words spelled as (generator index, +-1) letters: an edge
    # letter becomes its edge generator, a stabilizer letter a geodesic word
    # over the generators its base vertex owns
    group = ag.group
    name_index = {name: i for i, name in enumerate(gen_names)}
    edge_index = {e: name_index[name] for name, e in edge_gens.items()}
    stab_words = {v: group.words({name: gen_elements[name]
                                  for name in inp.stabilizers[v].presentation.generators})
                  for v in sc.base_vertices}

    def spell(word: Word) -> tuple[tuple[int, int], ...]:
        out: list[tuple[int, int]] = []
        for letter in word:
            if isinstance(letter, EdgeLetter):
                out.append((edge_index[letter.edge], letter.sign))
            else:
                out.extend((name_index[n], s) for n, s in stab_words[letter.vertex][letter.element])
        return tuple(out)

    # free cyclic form -> the first relator with it; a later one is a conjugate
    # of it or of its inverse, so dropping it leaves the normal closure unchanged
    emitted: dict[tuple, tuple] = {}

    def emit(relator: Sequence[tuple[int, int]], family: str) -> None:
        relator = tuple(free_reduce(relator))
        if relator:  # an empty relator adds nothing to the normal closure
            emitted.setdefault(_free_cyclic_form(relator), (relator, family))

    def add(word: Word, family: str) -> None:
        emit(spell(normal_form(rewrite_word_to_E1(word, ag, sc), ag)), family)

    for v in sc.base_vertices:
        data = inp.stabilizers[v]
        for rel in data.presentation.relators:
            emit(tuple((name_index[data.presentation.generators[i]], s) for i, s in rel),
                 "stabilizer")
    # t -> s_e^-1 t s_e is a homomorphism on G_e, so the relations for a
    # generating set of G_e give those for all of it
    for e in sc.pair_reps:
        for t in greedy_generators(group, ag.edge_stabilizer(e)):
            add(edge_relation(e, t, ag, sc), "edge")
    for e in sc.pair_reps:
        if sc.iota[e] == e:
            add(loop_relation((e.origin, e.target, e.origin), ag, sc), "edge_loop")
    for loop in inp.loops:
        add(loop_relation(loop, ag, sc), "loop")
    for e in sc.oriented_tree_edges():
        if sc.is_pair_rep(e):
            add(edge_word(e), "tree")

    families = {"stabilizer": 0, "edge": 0, "edge_loop": 0, "loop": 0, "tree": 0}
    for _, family in emitted.values():
        families[family] += 1
    presentation = Presentation(tuple(gen_names), tuple(r for r, _ in emitted.values()))
    return DerivedPresentation(presentation, families, edge_gens, stab_owners, gen_elements,
                               dict(inp.suggested_renaming), inp.name)


def presentation_matches(derived: DerivedPresentation, target: Presentation,
                         ag: ActionedGraph) -> bool:
    """Are the derived and target presentations identical up to renaming,
    free and cyclic reduction, inversion, and folding of stabilizer runs?

    Relators that involve an edge generator are compared as normal forms in
    the free product (stabilizer runs collapse to group elements); relators
    purely over stabilizer generators are compared as cyclic words in the
    free group on those generators.
    """
    renamed = derived.renamed()
    if sorted(renamed.generators) != sorted(target.generators):
        return False
    rename = derived.suggested_renaming
    letter_of: dict[str, EdgeLetter | StabLetter] = {}
    for name, e in derived.edge_gens.items():
        letter_of[rename.get(name, name)] = EdgeLetter(e, 1)
    for name, vertex in derived.stab_owners.items():
        letter_of[rename.get(name, name)] = StabLetter(vertex, derived.gen_elements[name])

    def split(pres: Presentation) -> tuple[list, list]:
        pure, mixed = [], []
        for rel in pres.relators:
            names = [(pres.generators[i], s) for i, s in rel]
            if any(isinstance(letter_of[n], EdgeLetter) for n, _ in names):
                letters = [letter_of[n] if s > 0 else inverse_letters((letter_of[n],), ag)[0]
                           for n, s in names]
                mixed.append(cyclic_normal_form(letters, ag))
            else:
                pure.append(_free_cyclic_form(names))
        return sorted(pure), sorted(mixed)

    return split(renamed) == split(target)


def _free_cyclic_form(letters: Sequence[tuple]) -> tuple:
    word = cyclic_reduce(letters)
    return least_rotation(tuple(word), inverse_word(word))


def greedy_generators(group: FiniteGroupTable, elements: Sequence[int]) -> list[int]:
    """Each element, in order, that the ones kept before it do not generate."""
    kept, reached = [], {0}
    for g in elements:
        if g not in reached:
            kept.append(g)
            reached = set(group.subgroup_closure(kept))
    return kept


def least_conjugate_stabilizer(ag: ActionedGraph, v: int) -> tuple[int, tuple[int, ...]]:
    """(c, H): H is the least, as a sorted index tuple, of the stabilizers
    G_w of the vertices w in the orbit of v, and c carries w to v, so
    G_v = c H c^-1.  The element order comes from the generators alone, so
    H is the same subgroup however the vertices are numbered."""
    group, stab = ag.group, ag.stabilizer(v)
    best, carrier = None, 0
    for g in ag.carriers(v).values():
        conj = tuple(sorted(group.conjugate(g, x) for x in stab))  # G_w, w = g(v)
        if best is None or conj < best:
            best, carrier = conj, g
    return group.inverse(carrier), best


def stabilizer_presentation(ag: ActionedGraph, v: int, prefix: str) -> StabilizerData:
    """A presentation of the stabilizer G_v, derived by this module itself.

    H is the least conjugate stabilizer, G_v = c H c^-1, with its greedy
    generators X.  H acts through its carriers, the permutations that the
    group table holds, on the orbit of a moved point w whose stabilizer in
    H is least; the orbit is numbered by least carrier and joined by the
    orbital graph {h w, h x w} over x in X, connected because X generates
    H.  Deriving a presentation of that action presents H from the smaller
    stabilizers H_w, recursively down to the trivial group; the result is
    Tietze-reduced and its elements conjugated back to G_v.  The numbered
    orbit and its edges depend on H and H_w alone, so the relators do not
    depend on how the vertices are numbered."""
    group, elements = ag.group, ag.group.elements
    c, least = least_conjugate_stabilizer(ag, v)
    gens = greedy_generators(group, least)
    if not gens:
        return StabilizerData(Presentation((), ()), {})
    images = [elements[h] for h in least]
    moved = [x for x in range(len(images[0])) if any(p[x] != x for p in images)]
    w = min(moved, key=lambda x: tuple(h for h, p in zip(least, images) if p[x] == x))
    orbit = first_carriers(least, lambda h, x: elements[h][x], w)
    number = {x: k for k, x in enumerate(sorted(orbit, key=orbit.get))}
    sub = FiniteGroupTable([elements[g] for g in gens])
    steps = [elements[g][w] for g in gens if elements[g][w] != w]
    edges = {(number[q[w]], number[q[x]]) for q in sub.elements for x in steps}
    sub_ag = ActionedGraph(Graph(len(number), edges), sub,
                           [[number[q[x]] for x in number] for q in sub.elements])
    derived = derive_presentation(auto_derivation_input(sub_ag))
    reduced = tietze_reduce(derived.presentation).presentation
    names = {prefix + n: group.conjugate(c, group.index(sub.elements[derived.gen_elements[n]]))
             for n in reduced.generators}
    return StabilizerData(Presentation(tuple(names), reduced.relators), names)


def _fundamental_cycle(tree: dict, u: int, w: int) -> tuple[int, ...]:
    """The closed walk at the root of a breadth-first spanning `tree` of the
    graph through the edge (u, w): the tree path to u, the edge, and the
    tree path back from w."""
    def up(x):  # the tree path from x to the root
        while x is not None:
            yield x
            x = tree[x][0]
    return tuple([*up(u)][::-1] + [*up(w)])


def fundamental_loops(ag: ActionedGraph, root: int) -> list[tuple[int, ...]]:
    """One loop at root per edge off a breadth-first spanning tree based at
    root (`_fundamental_cycle`).  Their 2-cells make the graph simply
    connected, with no help from translates."""
    tree = bfs_tree(root, lambda u: [(w, w) for w in ag.graph.neighbors(u)])
    return [_fundamental_cycle(tree, u, w) for u, w in sorted(ag.graph.edges)
            if tree[u][0] != w and tree[w][0] != u]


class _Ball:
    """A breadth-first search from `root`, grown one radius at a time:
    `tree` maps each vertex found to (parent, depth, the vertex after the
    root on its tree path)."""

    def __init__(self, root: int, graph: Graph, space: CycleSpace):
        self.root, self.tree = root, {root: (None, 0, None)}
        self.queue = deque([root])  # found, neighbours not yet read
        self.paths = {root: 0}  # vertex -> mask of its tree path, when asked
        self.graph, self.ids = graph, space.ids

    def grow(self, radius: int) -> list[tuple[int, int, int]]:
        """Read the neighbours of every vertex within `radius`.  Returns
        (size, u, w), u < w, for each non-tree edge found whose tree paths
        leave the root by different edges: its fundamental cycle is then a
        simple cycle of `size` edges.  An edge is found when its later end,
        by (depth, vertex), is read, so once, at the radius both its ends
        are within."""
        tree, queue, neighbors, found = self.tree, self.queue, self.graph.neighbors, []
        while queue and tree[queue[0]][1] <= radius:
            x = queue.popleft()
            parent, depth, branch = tree[x]
            for y in neighbors(x):
                if y not in tree:
                    tree[y] = (x, depth + 1, branch if depth else y)
                    queue.append(y)
                    continue
                _, d, b = tree[y]
                if (d < depth or d == depth and y < x) and b != branch and y != parent:
                    found.append((depth + d + 1, min(x, y), max(x, y)))
        return found

    def mask(self, u: int, w: int) -> int:
        """The mask of the fundamental cycle through the non-tree edge (u, w)."""
        return self._path(u) ^ self._path(w) ^ 1 << self.ids[u, w]

    def _path(self, x: int) -> int:
        paths, chain = self.paths, []
        while (m := paths.get(x)) is None:
            chain.append(x)
            x = self.tree[x][0]
        for y in reversed(chain):
            m ^= 1 << self.ids[self.tree[y][0], y]
            paths[y] = m
        return m


def pick_loops(ag: ActionedGraph, sc: Scaffolding) -> tuple[tuple[int, ...], ...] | None:
    """Short loops whose translates make the graph a simply connected
    2-complex, or None when the collapse check cannot prove that.

    Candidates are the fundamental cycles of a breadth-first tree at each
    base vertex, shortest first as GF(2) edge masks (then by walk length,
    base vertex and walk).  A candidate is kept when it is outside the span
    of the translates kept so far; then each of its translates that is
    independent of the span is kept as a 2-cell, until the span has the rank
    r = |E| - |V| + 1 of the cycle space (`CycleSpace`).

    Only stemless candidates, whose tree paths leave the base vertex by
    different edges, are listed: one with a stem is never kept.  Say its
    paths part at x = g b', b' a base vertex, its mask C is a simple s-cycle
    and its walk has length l >= s + 3.  g^-1 C passes through b' and is the
    sum of the fundamental cycles of b''s tree at its non-tree edges; tree
    depths are at most distances along the cycle, so each of these has mask
    size <= s and walk length <= s + 1, comes first, and lies in the span
    when the candidate is reached.  The span is G-invariant, so it holds C.
    A stemless candidate has s = l - 1 and both ends at depth <= s // 2, and
    a search cut off at radius r has the full search's parents up to depth
    r.  So the balls of radius r = 1, 2, 4, ... around the base vertices
    (`_Ball`) list, at each radius, exactly the stemless candidates with
    2r' + 1 < s <= 2r + 1 (r' the radius before), walks unchanged, and are
    grown until the span is full or every ball is the whole graph.

    The proof: removing a 2-cell through a free edge
    (`CycleSpace.collapses`) deletes that open edge and open cell and is a
    deformation retraction.  If all r cells go this way, the graph with the
    cells is homotopy equivalent to the graph minus r edges, which is
    connected because the complex is, and has |V| - 1 edges, so it is a
    tree.  The complex is then simply connected, and so is the one with
    every translate of every kept loop: more 2-cells only add relations to
    the fundamental group.  By the theorem on groups acting on simply
    connected complexes, the kept loops then give a presentation of G
    before any verification runs.
    """
    space = CycleSpace(ag.graph)
    if space.rank == 0:  # a tree: no cycle to fill
        return ()
    balls = [_Ball(v, ag.graph, space) for v in sc.base_vertices]
    picked, radius = [], 1
    while not space.full() and any(ball.queue for ball in balls):
        found = sorted((size, order, u, w) for order, ball in enumerate(balls)
                       for size, u, w in ball.grow(radius))
        # by mask size, base vertex and walk (the walk length is size + 1);
        # walks are built for the masks outside the span only
        for (_, order), group in groupby(found, key=lambda c: c[:2]):
            if space.full():
                break
            ball = balls[order]
            masks = ((u, w, ball.mask(u, w)) for *_, u, w in group)
            for loop, m in sorted((_fundamental_cycle(ball.tree, u, w), m)
                                  for u, w, m in masks if space.reduce(m)):
                if space.full():
                    break
                if space.reduce(m):
                    picked.append(loop)
                    space.insert_translates(loop, ag.action)
        radius *= 2
    if not space.full() or not space.collapses():
        return None
    return tuple(picked)


def auto_derivation_input(ag: ActionedGraph, loops: Sequence[Sequence[int]] | None = None,
                          name: str = "action") -> DerivationInput:
    """Derivation input with defaults for actions supplied as plain data.

    Given loops are used as given.  Otherwise they are `pick_loops`, or,
    when its collapse check fails, the fundamental cycles of a breadth-first
    spanning tree at the first base vertex; either way their translates
    make the graph simply connected.  Stabilizer presentations are derived
    recursively (`stabilizer_presentation`).
    """
    sc = build_regular_scaffolding(ag)
    source = "given"
    if loops is None:
        loops, source = pick_loops(ag, sc), "picked"
        if loops is None:
            loops, source = fundamental_loops(ag, sc.base_vertices[0]), "fundamental"
    stabilizers = {v: stabilizer_presentation(ag, v, f"t{v}_") for v in sc.base_vertices}
    return DerivationInput(ag, sc, tuple(tuple(l) for l in loops), stabilizers, {}, name, source)
