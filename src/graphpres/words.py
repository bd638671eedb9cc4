"""Words over edge generators and stabilizer elements, and the relation families.

A word is a sequence of letters in the free product of the free group on the
edge generators with the vertex stabilizers: edge letters are formal symbols
g_e carrying a sign, stabilizer letters carry an actual group-element index
tagged with the base vertex that owns it.  Reduction multiplies adjacent
stabilizer letters inside their finite group, so reduced words are normal
forms in the free product.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from .graphs import ActionedGraph, OrientedEdge
from .scaffold import Scaffolding


class EdgeLetter(NamedTuple):
    edge: OrientedEdge
    sign: int


class StabLetter(NamedTuple):
    vertex: int
    element: int
    sign: int


Letter = EdgeLetter | StabLetter


class Word:
    """An unreduced sequence of letters; equality is literal."""

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[Letter] = ()):
        object.__setattr__(self, "letters", tuple(letters))

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    def __mul__(self, other: Word) -> Word:
        return Word(self.letters + other.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def inverse(self) -> Word:
        out = []
        for letter in reversed(self.letters):
            if isinstance(letter, EdgeLetter):
                out.append(EdgeLetter(letter.edge, -letter.sign))
            else:
                out.append(StabLetter(letter.vertex, letter.element, -letter.sign))
        return Word(out)

    def free_reduce(self, ag: ActionedGraph) -> Word:
        """Normal form in the free product: cancel g_e g_e^-1, fold stabilizer
        letters into single group elements, drop identities."""
        return Word(free_reduce(self._positive_letters(ag), _fold_stabilizers(ag)))

    def cyclic_normal_form(self, ag: ActionedGraph) -> tuple:
        """Canonical form under free-product reduction, rotation and inversion."""
        letters = cyclic_reduce(self._positive_letters(ag), _fold_stabilizers(ag))
        inverse = Word(letters).inverse().free_reduce(ag).letters
        return least_rotation(tuple(map(_letter_key, letters)),
                              tuple(map(_letter_key, inverse)))

    def _positive_letters(self, ag: ActionedGraph) -> Iterable[Letter]:
        """The letters with stabilizer letters as positive non-identity elements."""
        for letter in self.letters:
            if isinstance(letter, StabLetter):
                elem = letter.element if letter.sign > 0 else ag.group.inverse(letter.element)
                if elem == 0:
                    continue
                letter = StabLetter(letter.vertex, elem, 1)
            yield letter

    def pretty(self) -> str:
        parts = []
        for letter in self.letters:
            if isinstance(letter, EdgeLetter):
                base = f"g[{letter.edge.origin},{letter.edge.target}]"
            else:
                base = f"G[{letter.vertex}:{letter.element}]"
            parts.append(base if letter.sign > 0 else base + "^-1")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Word({self.pretty()})"


def _cancel(a: Sequence, b: Sequence) -> tuple | None:
    """The free-group rule: (x, s) followed by (x, -s) cancels."""
    return () if a[0] == b[0] and a[1] == -b[1] else None


def _fold_stabilizers(ag: ActionedGraph):
    """The free-product rule: positive stabilizer letters at one vertex
    multiply in the group; edge letters cancel as in the free group."""
    group = ag.group

    def merge(a: Letter, b: Letter) -> tuple | None:
        if isinstance(a, StabLetter) and isinstance(b, StabLetter) and a.vertex == b.vertex:
            elem = group.product(a.element, b.element)
            return () if elem == 0 else (StabLetter(a.vertex, elem, 1),)
        return _cancel(a, b)

    return merge


def free_reduce(letters: Iterable, merge=_cancel) -> list:
    """Reduce a word on a stack.

    `merge(a, b)` says what two adjacent letters become: () when they cancel,
    one letter when they fold, None when they do not interact.  The default
    reduces words of (generator, +-1) letters in the free group.
    """
    stack: list = []
    for letter in letters:
        merged = merge(stack[-1], letter) if stack else None
        if merged is None:
            stack.append(letter)
        else:
            stack.pop()
            stack.extend(merged)
    return stack


def cyclic_reduce(letters: Iterable, merge=_cancel) -> list:
    """Free reduction followed by merging the last letter with the first
    until they no longer interact."""
    letters = free_reduce(letters, merge)
    while len(letters) >= 2:
        merged = merge(letters[-1], letters[0])
        if merged is None:
            break
        letters = letters[1:-1] + list(merged)
    return letters


def least_rotation(*words: tuple) -> tuple:
    """The least rotation of any of the given words; () when all are empty."""
    return min((w[r:] + w[:r] for w in words for r in range(len(w))), default=())


def _letter_key(letter: Letter) -> tuple:
    if isinstance(letter, EdgeLetter):
        return (0, letter.edge, letter.sign)
    return (1, letter.vertex, letter.element, letter.sign)


def edge_word(e: OrientedEdge, sign: int = 1) -> Word:
    return Word([EdgeLetter(e, sign)])


def evaluate_word_in_G(word: Word, ag: ActionedGraph, sc: Scaffolding) -> int:
    """Image of a word under the map sending g_e to s_e and fixing stabilizers."""
    group = ag.group
    acc = 0
    for letter in word.letters:
        if isinstance(letter, EdgeLetter):
            if letter.edge not in sc.s:
                raise ValueError(f"word references unknown edge {letter.edge}")
            elem = sc.s[letter.edge]
        else:
            if not 0 <= letter.element < group.order:
                raise ValueError(f"word references unknown element {letter.element}")
            elem = letter.element
        if letter.sign < 0:
            elem = group.inverse(elem)
        acc = group.product(acc, elem)
    return acc


def edge_relation(e: OrientedEdge, t: int, ag: ActionedGraph, sc: Scaffolding) -> Word:
    """Relator of the relation g_d^-1 t g_e = k(e,t) with d = t(e).

    Here t must stabilize the origin of e; k(e,t) = s_d^-1 t s_e fixes the
    base vertex of the far endpoint and lands in its stabilizer.
    """
    v = e.origin
    if ag.apply(t, v) != v:
        raise ValueError(f"element {t} does not stabilize vertex {v}")
    d = ag.apply_edge(t, e)
    group = ag.group
    k = group.word_product((group.inverse(sc.s[d]), t, sc.s[e]))
    w = sc.v_of[e]
    if ag.apply(k, w) != w:
        raise ValueError("k(e,t) does not fix the base vertex; scaffolding data broken")
    # (g_d^-1 t g_e)^-1 * k
    return Word([EdgeLetter(e, -1), StabLetter(v, t, -1), EdgeLetter(d, 1),
                 StabLetter(w, k, 1)])


def trace_path(path: Sequence[int], ag: ActionedGraph, sc: Scaffolding) -> list[OrientedEdge]:
    """The unique edge sequence in E shadowing a path that starts in V.

    Returns edges e_1..e_n with s_1...s_{i-1}(e_i) equal to the i-th step of
    the path; the defining property s_1...s_i(v_of(e_i)) = path[i] is
    asserted at every step.
    """
    if not path:
        raise ValueError("empty path")
    if path[0] not in sc.base_vertices:
        raise ValueError(f"path must start at a base vertex, got {path[0]}")
    group = ag.group
    edges: list[OrientedEdge] = []
    prefix = 0  # product s_1 ... s_{i-1}
    for a, b in zip(path, path[1:]):
        if not ag.graph.has_edge(a, b):
            raise ValueError(f"vertices {a},{b} are not adjacent")
        step = OrientedEdge(a, b)
        e = ag.apply_edge(group.inverse(prefix), step)
        if e not in sc.s:
            raise ValueError(f"translated edge {e} has no origin in V; bad scaffolding")
        edges.append(e)
        prefix = group.product(prefix, sc.s[e])
        assert ag.apply(prefix, sc.v_of[e]) == b, "trace lost the path"
    return edges


def loop_relation(loop: Sequence[int], ag: ActionedGraph, sc: Scaffolding) -> Word:
    """Relator (g_1 ... g_n)^-1 (s_1 ... s_n) of a loop or pseudo-loop.

    The path must begin and end at base vertices; the product of the traced
    elements then lies in the stabilizer of the endpoint.
    """
    if loop[-1] not in sc.base_vertices:
        raise ValueError(f"path must end at a base vertex, got {loop[-1]}")
    edges = trace_path(loop, ag, sc)
    group = ag.group
    product = group.word_product(sc.s[e] for e in edges)
    end = loop[-1]
    if ag.apply(product, end) != end:
        raise ValueError("traced product does not stabilize the endpoint")
    letters: list[Letter] = [EdgeLetter(e, -1) for e in reversed(edges)]
    letters.append(StabLetter(end, product, 1))
    return Word(letters)


def edge_loop_relation(e: OrientedEdge, ag: ActionedGraph, sc: Scaffolding) -> Word:
    """Relator g_e^2 = s_e^2 of the out-and-back loop along an invertible edge."""
    if e not in sc.s:
        raise ValueError(f"{e} has no origin in V")
    se = sc.s[e]
    p = ag.action[se]
    if not (p(e.origin) == e.target and p(e.target) == e.origin):
        raise ValueError(f"s of {e} is not an inversion; the out-and-back relation "
                         "is a definition, not a relator, for such edges")
    group = ag.group
    square = group.product(se, se)
    return Word([EdgeLetter(e, -1), EdgeLetter(e, -1), StabLetter(e.origin, square, 1)])


def tautological_relation(e: OrientedEdge, sc: Scaffolding) -> Word:
    """Relator g_e for an oriented tree edge (whose s is the identity)."""
    if not sc.is_tree_edge(e):
        raise ValueError(f"{e} is not a tree edge")
    return Word([EdgeLetter(e, 1)])


def rewrite_word_to_E1(word: Word, ag: ActionedGraph, sc: Scaffolding) -> Word:
    """Rewrite every edge letter over the pairing representatives.

    Each edge decomposes as u(e0) with e0 a representative and u in its
    transversal, giving the definition g_e = u g_{e0} k(e0,u)^-1 with
    k(e0,u) = s_e^-1 u s_{e0} in the stabilizer of the far base vertex; a
    representative outside the pairing set is the reversal partner of one
    inside, giving g_{e0} = g_{e1}^-1.  The image under evaluation is
    unchanged.
    """
    group = ag.group
    keep = set(sc.pair_reps)
    out: list[Letter] = []
    for letter in word.letters:
        if isinstance(letter, StabLetter):
            out.append(letter)
            continue
        e0, u = sc.rep_decomposition[letter.edge]
        if e0 in keep:
            core = EdgeLetter(e0, 1)
        else:
            e1 = sc.iota[e0]
            if e1 not in keep:
                raise ValueError("pairing representatives are inconsistent")
            core = EdgeLetter(e1, -1)
        if u == 0:
            expansion = [core]
        else:
            v = letter.edge.origin
            w = sc.v_of[e0]
            k = group.word_product((group.inverse(sc.s[letter.edge]), u, sc.s[e0]))
            expansion = [StabLetter(v, u, 1), core, StabLetter(w, k, -1)]
        out.extend(expansion if letter.sign > 0 else Word(expansion).inverse().letters)
    return Word(out)


@dataclass(frozen=True)
class Presentation:
    """Generator names and relators as signed sequences over them."""

    generators: tuple[str, ...]
    relators: tuple[tuple[tuple[int, int], ...], ...]

    def __post_init__(self):
        for rel in self.relators:
            for idx, sign in rel:
                if not 0 <= idx < len(self.generators):
                    raise ValueError(f"relator references unknown generator {idx}")
                if sign not in (1, -1):
                    raise ValueError(f"bad exponent sign {sign}")

    @staticmethod
    def from_strings(generators: Sequence[str], relators: Iterable[Sequence[tuple[str, int]]]) -> Presentation:
        index = {name: i for i, name in enumerate(generators)}
        rels = tuple(tuple((index[name], sign) for name, sign in rel) for rel in relators)
        return Presentation(tuple(generators), rels)

    def free_reduced(self) -> Presentation:
        return Presentation(self.generators,
                            tuple(tuple(free_reduce(rel)) for rel in self.relators))

    def rename(self, mapping: dict[str, str]) -> Presentation:
        gens = tuple(mapping.get(g, g) for g in self.generators)
        if len(set(gens)) != len(gens):
            raise ValueError("renaming collides generator names")
        return Presentation(gens, self.relators)

    def pretty(self) -> str:
        lines = ["generators: " + " ".join(self.generators)]
        for rel in self.relators:
            parts = [self.generators[i] + ("" if s > 0 else "^-1") for i, s in rel]
            lines.append(" ".join(parts) if parts else "1")
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {"generators": list(self.generators),
                "relators": [[[self.generators[i], s] for i, s in rel] for rel in self.relators]}

    @staticmethod
    def from_json_dict(data: dict) -> Presentation:
        gens = list(data["generators"])
        rels = [[(name, int(sign)) for name, sign in rel] for rel in data["relators"]]
        return Presentation.from_strings(gens, rels)
