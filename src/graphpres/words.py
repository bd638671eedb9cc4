"""Words over edge generators and stabilizer elements, and the relation families.

A word is a tuple of letters in the free product of the free group on the
edge generators with the vertex stabilizers: edge letters are formal symbols
g_e carrying a sign, and a stabilizer letter is an element of G_v, an actual
group-element index tagged with the base vertex v that owns it (its inverse
is the inverse element).  Reduction (`normal_form`) multiplies adjacent
stabilizer letters inside their finite group, so reduced words are normal
forms in the free product.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .graphs import ActionedGraph, OrientedEdge
from .presentation import cancel, cyclic_reduce, free_reduce, least_rotation
from .scaffold import Scaffolding


class EdgeLetter(NamedTuple):
    edge: OrientedEdge
    sign: int


class StabLetter(NamedTuple):
    vertex: int
    element: int


Letter = EdgeLetter | StabLetter
Word = tuple[Letter, ...]  # a free-product word, not reduced


def _fold_stabilizers(ag: ActionedGraph):
    """The free-product rule: stabilizer letters at one vertex multiply in
    the group; edge letters cancel as in the free group."""
    group = ag.group

    def merge(a: Letter, b: Letter) -> tuple | None:
        if isinstance(a, StabLetter) and isinstance(b, StabLetter) and a.vertex == b.vertex:
            elem = group.product(a.element, b.element)
            return () if elem == 0 else (StabLetter(a.vertex, elem),)
        return cancel(a, b)

    return merge


def inverse_letters(word: Sequence[Letter], ag: ActionedGraph) -> Word:
    """The inverse of a word of edge and stabilizer letters."""
    inverse = ag.group.inverse
    return tuple(EdgeLetter(x.edge, -x.sign) if isinstance(x, EdgeLetter)
                 else StabLetter(x.vertex, inverse(x.element)) for x in reversed(word))


def normal_form(word: Iterable[Letter], ag: ActionedGraph) -> Word:
    """Normal form in the free product: cancel g_e g_e^-1, fold stabilizer
    letters into single group elements, drop identities."""
    return tuple(free_reduce(_non_identity(word), _fold_stabilizers(ag)))


def cyclic_normal_form(word: Iterable[Letter], ag: ActionedGraph) -> tuple:
    """Canonical form under free-product reduction, rotation and inversion.

    The inverse of a cyclically reduced word is cyclically reduced."""
    letters = cyclic_reduce(_non_identity(word), _fold_stabilizers(ag))
    inverse = inverse_letters(letters, ag)
    return least_rotation(tuple(map(_letter_key, letters)), tuple(map(_letter_key, inverse)))


def _non_identity(word: Iterable[Letter]) -> Iterable[Letter]:
    return (x for x in word if isinstance(x, EdgeLetter) or x.element)


def _letter_key(letter: Letter) -> tuple:
    """Edge letters sort before stabilizer letters."""
    return (isinstance(letter, StabLetter), *letter)


def edge_word(e: OrientedEdge) -> Word:
    """The one-letter word g_e, the relator of a tree edge (whose s is the
    identity)."""
    return (EdgeLetter(e, 1),)


def evaluate_word_in_G(word: Word, ag: ActionedGraph, sc: Scaffolding) -> int:
    """Image of a word under the map sending g_e to s_e and fixing stabilizers."""
    group = ag.group
    acc = 0
    for letter in word:
        if isinstance(letter, EdgeLetter):
            if letter.edge not in sc.s:
                raise ValueError(f"word references unknown edge {letter.edge}")
            elem = sc.s[letter.edge]
            if letter.sign < 0:
                elem = group.inverse(elem)
        else:
            if not 0 <= letter.element < group.order:
                raise ValueError(f"word references unknown element {letter.element}")
            elem = letter.element
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
    w = sc.base_of[e.target]
    if ag.apply(k, w) != w:
        raise ValueError("k(e,t) does not fix the base vertex; scaffolding data broken")
    # (g_d^-1 t g_e)^-1 * k
    return (EdgeLetter(e, -1), StabLetter(v, group.inverse(t)), EdgeLetter(d, 1), StabLetter(w, k))


def trace_path(path: Sequence[int], ag: ActionedGraph, sc: Scaffolding) -> list[OrientedEdge]:
    """The unique edge sequence in E shadowing a path that starts in V.

    Returns edges e_1..e_n with s_1...s_{i-1}(e_i) equal to the i-th step of
    the path; the defining property s_1...s_i(base_of[target(e_i)]) = path[i] is
    checked at every step.
    """
    if not path:
        raise ValueError("empty path")
    if sc.base_of.get(path[0]) != path[0]:
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
        if ag.apply(prefix, sc.base_of[e.target]) != b:
            raise ValueError(f"trace lost the path at {a},{b}; bad scaffolding")
    return edges


def loop_relation(loop: Sequence[int], ag: ActionedGraph, sc: Scaffolding) -> Word:
    """Relator (g_1 ... g_n)^-1 (s_1 ... s_n) of a loop or pseudo-loop.

    The path must begin and end at base vertices; the product of the traced
    elements then lies in the stabilizer of the endpoint.  The out-and-back
    walk (v, w, v) along an inverted edge e = (v, w) traces e twice, giving
    the relator g_e^-1 g_e^-1 s_e^2.
    """
    if sc.base_of.get(loop[-1]) != loop[-1]:
        raise ValueError(f"path must end at a base vertex, got {loop[-1]}")
    edges = trace_path(loop, ag, sc)
    group = ag.group
    product = group.word_product(sc.s[e] for e in edges)
    end = loop[-1]
    if ag.apply(product, end) != end:
        raise ValueError("traced product does not stabilize the endpoint")
    return (*(EdgeLetter(e, -1) for e in reversed(edges)), StabLetter(end, product))


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
    out: list[Letter] = []
    for letter in word:
        if isinstance(letter, StabLetter):
            out.append(letter)
            continue
        e0, u = sc.rep_decomposition[letter.edge]
        core = EdgeLetter(e0, 1) if sc.is_pair_rep(e0) else EdgeLetter(sc.iota[e0], -1)
        if u == 0:
            expansion = [core]
        else:
            v = letter.edge.origin
            w = sc.base_of[e0.target]
            k = group.word_product((group.inverse(sc.s[letter.edge]), u, sc.s[e0]))
            expansion = [StabLetter(v, u), core, StabLetter(w, group.inverse(k))]
        out.extend(expansion if letter.sign > 0 else inverse_letters(expansion, ag))
    return tuple(out)
