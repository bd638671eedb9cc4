"""End-to-end assembly of a finite presentation from an action and scaffolding.

The output presentation has the supplied stabilizer generators plus one
generator per pairing representative, and carries the stabilizer relators
plus four added families: edge relations against the edge-stabilizer
generators, out-and-back relations for invertible representatives, the loop
relations rewritten over the representatives, and (with several vertex
orbits) the tree relations g_e = 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from .coset import CosetTable, EnumerationLimitError, todd_coxeter
# unused here, but perfbench/tracing.py wraps derive.find_inversion by this name
from .graphs import ActionedGraph, OrientedEdge, find_inversion  # noqa: F401
from .perms import FiniteGroupTable, bfs_tree, tree_words
from .scaffold import Scaffolding, build_regular_scaffolding, validate_regularity
from .words import (EdgeLetter, Presentation, StabLetter, Word, cyclic_reduce,
                    edge_loop_relation, edge_relation, least_rotation,
                    loop_relation, rewrite_word_to_E1, tautological_relation)


@dataclass(frozen=True)
class StabilizerData:
    """A presentation of one vertex stabilizer plus its evaluation map."""

    presentation: Presentation
    gen_elements: dict[str, int]

    def __post_init__(self):
        if set(self.presentation.generators) != set(self.gen_elements):
            raise ValueError("presentation generators and evaluation map disagree")


@dataclass
class DerivationInput:
    ag: ActionedGraph
    sc: Scaffolding
    loops: tuple[tuple[int, ...], ...]
    stabilizers: dict[int, StabilizerData]
    subgroup_gens: dict[OrientedEdge, tuple[int, ...]] = field(default_factory=dict)
    suggested_renaming: dict[str, str] = field(default_factory=dict)
    name: str = ""


class DerivationInputError(ValueError):
    pass


def validate_input(inp: DerivationInput, enumeration_limit: int = 100_000) -> None:
    """Check the input invariants; raises DerivationInputError on failure."""
    ag, sc = inp.ag, inp.sc
    if validate_regularity(sc, ag) is not None:
        raise DerivationInputError("scaffolding is not regular")
    for v in sc.base_vertices:
        if v not in inp.stabilizers:
            raise DerivationInputError(f"missing stabilizer presentation for vertex {v}")
        data = inp.stabilizers[v]
        stab = set(ag.stabilizer(v))
        gens = list(data.gen_elements.values())
        closure = set(ag.group.subgroup_closure(gens)) if gens else {0}
        if closure != stab:
            raise DerivationInputError(
                f"stabilizer generators at {v} generate {len(closure)} of {len(stab)} elements")
        try:
            table = todd_coxeter(data.presentation, limit=enumeration_limit)
        except EnumerationLimitError as exc:
            raise DerivationInputError(f"stabilizer presentation at {v} did not close") from exc
        if table.n != len(stab):
            raise DerivationInputError(
                f"stabilizer presentation at {v} has order {table.n}, action says {len(stab)}")
    for e in sc.pair_reps:
        gens = inp.subgroup_gens.get(e, ())
        g_e = set(ag.edge_stabilizer(e))
        closure = set(ag.group.subgroup_closure(gens)) if gens else {0}
        if closure != g_e:
            raise DerivationInputError(
                f"edge-stabilizer generators at {e} generate {len(closure)} of {len(g_e)}")
    for loop in inp.loops:
        if loop[0] not in sc.base_vertices:
            raise DerivationInputError(f"loop {loop} does not start at a base vertex")


def close_pseudo_loops(loops: Sequence[Sequence[int]], ag: ActionedGraph,
                       sc: Scaffolding) -> tuple[tuple[int, ...], ...]:
    """Close each path that ends at a different base vertex with a tree path.

    A path from one base vertex to another is prefixed by the tree path from
    its endpoint back to its start, which only adds tree relators; genuine
    loops pass through unchanged.
    """
    adjacency: dict[int, list[int]] = {v: [] for v in sc.base_vertices}
    for u, w in sc.tree_edges:
        adjacency[u].append(w)
        adjacency[w].append(u)

    def tree_path(a: int, b: int) -> tuple[int, ...]:
        paths = tree_words(bfs_tree(a, lambda u: [(w, w) for w in sorted(adjacency[u])]))
        if b not in paths:
            raise DerivationInputError("tree does not connect the base vertices")
        return (a,) + paths[b]

    out = []
    for loop in loops:
        loop = tuple(loop)
        if loop[0] not in sc.base_vertices or loop[-1] not in sc.base_vertices:
            raise DerivationInputError(f"path {loop} does not begin and end at base vertices")
        if loop[0] == loop[-1]:
            out.append(loop)
        else:
            prefix = tree_path(loop[-1], loop[0])
            out.append(prefix + loop[1:])
    return tuple(out)


@dataclass
class DerivedPresentation:
    presentation: Presentation
    relator_words: tuple[Word, ...]        # same order as presentation.relators
    families: dict[str, int]               # relator counts per family
    edge_gens: dict[str, OrientedEdge]     # edge generator name -> representative
    stab_owners: dict[str, int]            # stabilizer generator name -> base vertex
    gen_elements: dict[str, int]           # every generator -> group element index
    suggested_renaming: dict[str, str]
    name: str = ""

    def renamed(self) -> Presentation:
        return self.presentation.rename(self.suggested_renaming)


def word_speller(group: FiniteGroupTable, base_vertices: Sequence[int],
                 generators: Sequence[str], gen_elements: Mapping[str, int],
                 stab_owners: Mapping[str, int], edge_gens: Mapping[str, OrientedEdge]
                 ) -> Callable[[Word], tuple[tuple[int, int], ...]]:
    """Spell free-product words over the named generators, as (generator
    index, +-1) letters.

    An edge letter becomes its edge generator; a stabilizer letter becomes a
    geodesic word over the generators its base vertex owns.
    """
    name_index = {name: i for i, name in enumerate(generators)}
    edge_index = {e: name_index[name] for name, e in edge_gens.items()}
    owned: dict[int, dict[str, int]] = {v: {} for v in base_vertices}
    for name, v in stab_owners.items():
        owned[v][name] = gen_elements[name]
    stab_words = {v: group.words(gens) for v, gens in owned.items()}

    def spell(word: Word) -> tuple[tuple[int, int], ...]:
        out: list[tuple[int, int]] = []
        for letter in word.letters:
            if isinstance(letter, EdgeLetter):
                out.append((edge_index[letter.edge], letter.sign))
            else:
                elem = letter.element if letter.sign > 0 else group.inverse(letter.element)
                out.extend((name_index[n], s) for n, s in stab_words[letter.vertex][elem])
        return tuple(out)

    return spell


def derive_presentation(inp: DerivationInput, validate: bool = True) -> DerivedPresentation:
    """Run the pipeline on a derivation input; deterministic output order."""
    ag, sc = inp.ag, inp.sc
    if validate:
        validate_input(inp)
    loops = close_pseudo_loops(inp.loops, ag, sc)

    gen_names: list[str] = []
    gen_elements: dict[str, int] = {}
    stab_owners: dict[str, int] = {}
    for v in sc.base_vertices:
        data = inp.stabilizers[v]
        for name in data.presentation.generators:
            if name in gen_elements:
                raise DerivationInputError(f"generator name {name} used at two vertices")
            gen_names.append(name)
            gen_elements[name] = data.gen_elements[name]
            stab_owners[name] = v

    edge_gens: dict[str, OrientedEdge] = {}
    for k, e in enumerate(sc.pair_reps):
        name = f"g[{k}]"
        gen_names.append(name)
        edge_gens[name] = e
        gen_elements[name] = sc.s[e]

    name_index = {name: i for i, name in enumerate(gen_names)}
    word_to_relator = word_speller(ag.group, sc.base_vertices, gen_names, gen_elements,
                                   stab_owners, edge_gens)

    relators: list[tuple[tuple[int, int], ...]] = []
    relator_words: list[Word] = []
    families = {"stabilizer": 0, "edge": 0, "edge_loop": 0, "loop": 0, "tree": 0}

    def add(word: Word, family: str) -> None:
        reduced = rewrite_word_to_E1(word, ag, sc).free_reduce(ag)
        relator_words.append(reduced)
        relators.append(word_to_relator(reduced))
        families[family] += 1

    for v in sc.base_vertices:
        data = inp.stabilizers[v]
        for rel in data.presentation.relators:
            named = tuple((name_index[data.presentation.generators[i]], s) for i, s in rel)
            relators.append(named)
            relator_words.append(Word(
                StabLetter(v, data.gen_elements[data.presentation.generators[i]], s)
                for i, s in rel))
            families["stabilizer"] += 1
    pair_set = set(sc.pair_reps)
    for e in sc.pair_reps:
        for t in inp.subgroup_gens.get(e, ()):
            add(edge_relation(e, t, ag, sc), "edge")
    for e in sc.pair_reps:
        if sc.iota[e] == e:
            add(edge_loop_relation(e, ag, sc), "edge_loop")
    for loop in loops:
        add(loop_relation(loop, ag, sc), "loop")
    for e in sc.oriented_tree_edges():
        if e in pair_set:
            add(tautological_relation(e, sc), "tree")

    presentation = Presentation(tuple(gen_names), tuple(relators)).free_reduced()
    return DerivedPresentation(presentation, tuple(relator_words), families,
                               edge_gens, stab_owners, gen_elements,
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
        letter_of[rename.get(name, name)] = StabLetter(vertex, derived.gen_elements[name], 1)

    def split(pres: Presentation) -> tuple[list, list]:
        pure, mixed = [], []
        for rel in pres.relators:
            names = [(pres.generators[i], s) for i, s in rel]
            if any(isinstance(letter_of[n], EdgeLetter) for n, _ in names):
                letters = []
                for n, s in names:
                    base = letter_of[n]
                    if isinstance(base, EdgeLetter):
                        letters.append(EdgeLetter(base.edge, s))
                    else:
                        letters.append(StabLetter(base.vertex, base.element, s))
                mixed.append(Word(letters).cyclic_normal_form(ag))
            else:
                pure.append(_free_cyclic_form(names))
        return sorted(pure), sorted(mixed)

    return split(renamed) == split(target)


def _free_cyclic_form(letters: list[tuple[str, int]]) -> tuple:
    word = cyclic_reduce(letters)
    return least_rotation(tuple(word), tuple((n, -s) for n, s in reversed(word)))


class PatternMismatchError(ValueError):
    pass


COXETER_STZ = Presentation.from_strings(
    ("s", "t", "z"),
    [
        [("s", 1)] * 3 + [("z", -1)],
        [("t", 1)] * 5 + [("z", -1)],
        [("s", 1), ("t", 1)] * 2 + [("z", -1)],
        [("z", 1)] * 2,
    ],
)


def coxeter_substitution(p: Presentation, limit: int = 100_000) -> Presentation:
    """Tietze substitution z = g^2 = r^3, s = r^-1, t = rg on a two-generator
    presentation of the order-120 double cover; returns the s,t,z form.

    The input must present the same group: this is verified by enumerating
    both presentations and checking each one's relators map to the identity
    in the other.  Raises PatternMismatchError otherwise.
    """
    if len(p.generators) != 2:
        raise PatternMismatchError("expected a presentation on two generators")
    try:
        src = todd_coxeter(p, limit=limit)
    except EnumerationLimitError as exc:
        raise PatternMismatchError("input presentation does not close") from exc
    if src.n != 120:
        raise PatternMismatchError(f"input presents a group of order {src.n}, not 120")
    tgt = todd_coxeter(COXETER_STZ, limit=limit)
    if tgt.n != 120:
        raise RuntimeError("internal: s,t,z presentation should have order 120")

    for a, b in ((0, 1), (1, 0)):
        # candidate roles: generator a plays g, generator b plays r
        # forward: g -> s t, r -> s^-1 ; backward: s -> r^-1, t -> r g, z -> g g
        fwd = {a: [(0, 1), (1, 1)], b: [(0, -1)]}
        back = {0: [(b, -1)], 1: [(b, 1), (a, 1)], 2: [(a, 1), (a, 1)]}
        if _maps_to_identity(p, src=tgt, translation=fwd) and \
           _maps_to_identity(COXETER_STZ, src=src, translation=back):
            return COXETER_STZ
    raise PatternMismatchError("presentation is not the double-cover pattern")


def _maps_to_identity(pres: Presentation, src: CosetTable,
                      translation: Mapping[int, list[tuple[int, int]]]) -> bool:
    """Do all relators of `pres`, translated, evaluate to 1 in the table `src`?"""
    for rel in pres.relators:
        word: list[tuple[int, int]] = []
        for gidx, sign in rel:
            sub = translation[gidx]
            if sign > 0:
                word.extend(sub)
            else:
                word.extend((g, -s) for g, s in reversed(sub))
        if src.trace(0, word) != 0:
            return False
    return True


def derived_to_json(d: DerivedPresentation) -> dict:
    data = d.presentation.to_json_dict()
    data.update({
        "name": d.name,
        "families": dict(d.families),
        "edge_gens": {n: [e.origin, e.target] for n, e in d.edge_gens.items()},
        "stab_owners": dict(d.stab_owners),
        "gen_elements": dict(d.gen_elements),
        "renaming": dict(d.suggested_renaming),
    })
    return data


def derived_from_json(data: dict) -> DerivedPresentation:
    presentation = Presentation.from_json_dict(data)
    edge_gens = {n: OrientedEdge(*map(int, pair)) for n, pair in data["edge_gens"].items()}
    return DerivedPresentation(
        presentation, (), dict(data["families"]), edge_gens,
        {n: int(v) for n, v in data["stab_owners"].items()},
        {n: int(v) for n, v in data["gen_elements"].items()},
        dict(data.get("renaming", {})), data.get("name", ""))


def table_presentation(ag: ActionedGraph, v: int, prefix: str) -> StabilizerData:
    """Multiplication-table presentation of the stabilizer of v.

    One generator per non-identity element and one relator per cell of the
    multiplication table; crude but always valid, used for actions supplied
    as plain data files.
    """
    stab = ag.stabilizer(v)
    names = {g: f"{prefix}{g}" for g in stab if g != 0}
    gens = [names[g] for g in stab if g != 0]
    rels = []
    for a in stab:
        for b in stab:
            if a == 0 or b == 0:
                continue
            c = ag.group.product(a, b)
            rel = [(names[a], 1), (names[b], 1)]
            if c != 0:
                rel.append((names[c], -1))
            rels.append(rel)
    presentation = Presentation.from_strings(gens, rels)
    return StabilizerData(presentation, {names[g]: g for g in stab if g != 0})


def auto_derivation_input(ag: ActionedGraph, loops: Sequence[Sequence[int]] | None = None,
                          name: str = "action") -> DerivationInput:
    """Derivation input with defaults for actions supplied as plain data.

    Loops default to the fundamental cycles of a breadth-first spanning tree
    based at the first base vertex (their translates normally generate all
    closed paths, so the completeness check downstream is meaningful);
    stabilizer presentations default to multiplication-table presentations,
    and edge-stabilizer generators to all non-identity elements.
    """
    sc = build_regular_scaffolding(ag)
    root = sc.base_vertices[0]
    if loops is None:
        tree = bfs_tree(root, lambda u: [(w, w) for w in ag.graph.neighbors(u)])
        paths = tree_words(tree)  # root to u, without the root
        tree_edges = {(min(u, p), max(u, p)) for u, (p, _) in tree.items() if u != root}
        loops = []
        for u, w in sorted(ag.graph.edges):
            if (u, w) in tree_edges:
                continue
            loops.append((root,) + paths[u] + paths[w][::-1] + (root,))
    stabilizers = {v: table_presentation(ag, v, f"t{v}_") for v in sc.base_vertices}
    subgroup_gens = {}
    for e in sc.pair_reps:
        g_e = [g for g in ag.edge_stabilizer(e) if g != 0]
        if g_e:
            subgroup_gens[e] = tuple(g_e)
    return DerivationInput(ag, sc, tuple(tuple(l) for l in loops), stabilizers,
                           subgroup_gens, {}, name)
