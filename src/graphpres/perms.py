"""Permutations, finite permutation groups with products looked up by their
images on a base, and the breadth-first search that every traversal in
graphpres goes through.

Everything here is exact and immutable.  A group is always the
breadth-first closure of its generators, and its elements are referred to
by their index in the order that search finds them.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Hashable, Iterable, Mapping, Sequence

CLOSURE_LIMIT = 100_000
# image entries (elements times degree) a closure may store: about 80 MB
CLOSURE_ENTRY_LIMIT = 10_000_000


class ClosureLimitError(RuntimeError):
    """Raised when a breadth-first closure exceeds its element limit."""


def _limit_error(limit: int, cap: int, degree: int) -> ClosureLimitError:
    if limit <= cap:
        return ClosureLimitError(f"closure exceeded {limit} elements")
    return ClosureLimitError(f"closure exceeded {CLOSURE_ENTRY_LIMIT} stored image "
                             f"entries ({cap} elements of degree {degree})")


def require_listable(order_factors: Iterable[int], degree: int) -> None:
    """Raise the ClosureLimitError a closure of this degree would raise for a group
    whose order is the product of the factors, stopping the product past the limits."""
    cap = CLOSURE_ENTRY_LIMIT // max(degree, 1)
    order = 1
    for factor in order_factors:
        order *= factor
        if order > min(CLOSURE_LIMIT, cap):
            raise _limit_error(CLOSURE_LIMIT, cap, degree)


def bfs_tree(root: Hashable, neighbors: Callable[[Hashable], Iterable[tuple]],
             limit: int | None = None) -> dict:
    """Breadth-first spanning tree of everything reachable from `root`.

    `neighbors(node)` gives the (step, next node) pairs leaving a node, in a
    fixed order.  Returns {node: (parent, step)} in discovery order, with
    (None, None) for the root; a node's parent is fixed when it is first
    reached.  Raises ClosureLimitError when more than `limit` nodes are found.
    """
    tree = {root: (None, None)}
    queue = deque([root])
    while queue:
        node = queue.popleft()
        for step, nxt in neighbors(node):
            if nxt not in tree:
                if limit is not None and len(tree) >= limit:
                    raise ClosureLimitError(f"closure exceeded {limit} elements")
                tree[nxt] = (node, step)
                queue.append(nxt)
    return tree


def tree_fold(tree: dict, root_value, extend: Callable) -> dict:
    """Values carried down a `bfs_tree`: the root gets `root_value`, every
    other node extend(its parent's value, the step reaching it)."""
    items = iter(tree.items())
    root, _ = next(items)
    values = {root: root_value}
    for node, (parent, step) in items:
        values[node] = extend(values[parent], step)
    return values


def tree_words(tree: dict) -> dict:
    """The sequence of steps from the root to each node of a `bfs_tree`."""
    return tree_fold(tree, (), lambda word, step: word + (step,))


def _first_flaw(images: tuple[int, ...]) -> str:
    """Why the images are no bijection: the first repeated image, or else
    the least point missing from them."""
    seen: set[int] = set()
    for x in images:
        if x in seen:
            return f"image {x} repeated"
        seen.add(x)
    return f"image {min(set(range(len(images))) - seen)} missing"


class Perm:
    """A bijection of {0..n-1}, stored as the tuple of images."""

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a bijection of 0..{len(images) - 1}: {_first_flaw(images)}")
        _set_images(self, images)

    @staticmethod
    def identity(degree: int) -> Perm:
        return _perm(tuple(range(degree)))

    @staticmethod
    def transposition(degree: int, i: int, j: int) -> Perm:
        images = list(range(degree))
        images[i], images[j] = j, i
        return Perm(images)

    @staticmethod
    def from_cycle(degree: int, points: Sequence[int]) -> Perm:
        images = list(range(degree))
        pts = list(points)
        for a, b in zip(pts, pts[1:] + pts[:1]):
            images[a] = b
        return Perm(images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def inverse(self) -> Perm:
        images = [0] * len(self.images)
        for i, j in enumerate(self.images):
            images[j] = i
        return _perm(tuple(images))

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def order(self) -> int:
        n = 1
        p = self
        while not p.is_identity():
            p = perm_compose(p, self)
            n += 1
        return n

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __setattr__(self, name, value):
        raise AttributeError("Perm is immutable")

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each rotated to start at its least point."""
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            k = self.images[start]
            while k != start:
                cyc.append(k)
                seen[k] = True
                k = self.images[k]
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def __repr__(self) -> str:
        cyc = self.cycles()
        if not cyc:
            return "Perm(id/%d)" % self.degree
        return "Perm(%s)" % "".join("(%s)" % " ".join(map(str, c)) for c in cyc)


def perm_compose(p: Perm, q: Perm) -> Perm:
    """Left-action composition: (p*q)(i) = p(q(i))."""
    if p.degree != q.degree:
        raise ValueError(f"degree mismatch: {p.degree} != {q.degree}")
    pi = p.images
    return _perm(tuple([pi[j] for j in q.images]))


_set_images = Perm.images.__set__


def _perm(images: tuple[int, ...]) -> Perm:
    """The Perm of images known to be a bijection, unchecked: an identity,
    an inverse, or a product of permutations of equal degree."""
    p = object.__new__(Perm)
    _set_images(p, images)
    return p


class FiniteGroupTable:
    """The finite permutation group generated by `gens`, as an ordered
    element list whose element 0 is the identity.

    No product table is stored: a *base* (a short list of points whose
    images tell all elements apart) is chosen once, and `product(i, j)`
    looks up the element with the base images of p_i * p_j, so memory is
    O(|G| * degree).  Inverses are precomputed.

    The elements are found by one breadth-first search from 1 that steps
    from each element p found to p * g for every generator g.  The set S it
    finds contains 1, is closed under right multiplication by each
    generator, and consists of products of generators.  Such a finite S is
    the group generated: right multiplication by g is injective, so
    S * g = S, hence S * g^-1 = S and S is closed under right
    multiplication by the whole group, which contains 1, so the group lies
    in S.  So S is closed under products, and since two elements of S that
    agree on the base are equal, the base lookup returns the true product.

    The order of discovery is the element order: identity first, then BFS
    layers with the generators applied on the right in their given order;
    past `limit` elements, or past CLOSURE_ENTRY_LIMIT stored image entries,
    ClosureLimitError is raised.  Elements, the generators among them, are
    looked up by their base images alone: the table has one lookup over G.
    """

    def __init__(self, gens: Sequence[Perm], limit: int = CLOSURE_LIMIT):
        if not gens:
            raise ValueError("need at least one generator")
        degree = gens[0].degree
        gen_images = [g.images for g in gens]
        if any(len(g) != degree for g in gen_images):
            raise ValueError("generators must have equal degree")

        def successors(p: tuple[int, ...]) -> list[tuple[None, tuple[int, ...]]]:
            return [(None, tuple([p[k] for k in g])) for g in gen_images]

        cap = CLOSURE_ENTRY_LIMIT // max(degree, 1)
        try:
            found = bfs_tree(tuple(range(degree)), successors, min(limit, cap))
        except ClosureLimitError:
            raise _limit_error(limit, cap, degree) from None
        # the elements found are products of the generators: no bijection check
        self.elements = [_perm(p) for p in found]
        self._images = images = list(found)
        self.base = base = _separating_base(images)
        self._base_images = [tuple([p[b] for b in base]) for p in images]
        self._by_key = {key: i for i, key in enumerate(self._base_images)}
        self.gen_indices = tuple(self.index(g) for g in gens)
        self._inv = [self._by_key[tuple([p.index(b) for b in base])] for p in images]

    @property
    def order(self) -> int:
        return len(self.elements)

    def index(self, p: Perm) -> int:
        """The index of the element p, looked up by its base images."""
        return self._by_key[tuple([p.images[b] for b in self.base])]

    def product(self, i: int, j: int) -> int:
        p = self._images[i]
        return self._by_key[tuple([p[k] for k in self._base_images[j]])]

    def inverse(self, i: int) -> int:
        return self._inv[i]

    def word_product(self, indices: Iterable[int]) -> int:
        acc = 0
        for i in indices:
            acc = self.product(acc, i)
        return acc

    def evaluate(self, gens: Mapping | Sequence[int], word: Iterable[tuple]) -> int:
        """The element spelled by (label, +-1) letters, gens[label] the
        element of each label."""
        return self.word_product(gens[n] if s > 0 else self._inv[gens[n]] for n, s in word)

    def conjugate(self, g: int, x: int) -> int:
        """g * x * g^-1."""
        return self.product(self.product(g, x), self._inv[g])

    def element_order(self, i: int) -> int:
        n, k = 1, i
        while k != 0:
            k = self.product(k, i)
            n += 1
        return n

    def subgroup_closure(self, gens: Iterable[int]) -> tuple[int, ...]:
        """Indices of the subgroup generated, in increasing order."""
        gens = list(gens)
        return tuple(sorted(bfs_tree(0, lambda a: [(g, self.product(a, g)) for g in gens])))

    def words(self, gens: Mapping) -> dict[int, tuple]:
        """A geodesic word for each element of the subgroup generated by
        `gens` (label -> element index), over the letters (label, +-1).

        Letters are tried label by label, the generator before its inverse.
        """
        steps = [((label, sign), g if sign > 0 else self._inv[g])
                 for label, g in gens.items() for sign in (1, -1)]
        product = self.product
        return tree_words(bfs_tree(0, lambda a: [(letter, product(a, g)) for letter, g in steps]))


def _separating_base(images: Sequence[tuple[int, ...]]) -> tuple[int, ...]:
    """Points, in increasing order, whose images tell the given distinct
    permutations apart: a point is kept when it splits some class of
    permutations that agree on the points kept before it."""
    labels = [0] * len(images)
    classes = 1
    base = []
    for point in range(len(images[0])):
        if classes == len(images):
            break
        refined: dict[tuple[int, int], int] = {}
        split = [refined.setdefault((label, p[point]), len(refined))
                 for label, p in zip(labels, images)]
        if len(refined) > classes:
            base.append(point)
            labels, classes = split, len(refined)
    return tuple(base)


def generate_closure(gens: Sequence[Perm], limit: int = CLOSURE_LIMIT) -> FiniteGroupTable:
    """The group generated by a nonempty list of permutations, in BFS order."""
    return FiniteGroupTable(gens, limit=limit)
