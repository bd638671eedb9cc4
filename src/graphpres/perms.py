"""Permutations, finite permutation groups with products looked up by their
images on a base, and the breadth-first search that every traversal in
graphpres goes through.

Everything here is exact and immutable.  A group is always the
breadth-first closure of its generators, and its elements are referred to
by their index in the order that search finds them.  Permutations are read
through `operator.itemgetter`, so composing two of them, or reading one at
the points of a base, is one call into C.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from operator import itemgetter
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


Perm = tuple[int, ...]  # a bijection of {0..n-1}, as the tuple of its images


def perm(images: Iterable[int]) -> Perm:
    """The images as a permutation, checked to be a bijection of 0..n-1."""
    images = tuple(images)
    if sorted(images) != list(range(len(images))):
        raise ValueError(f"not a bijection of 0..{len(images) - 1}: {_first_flaw(images)}")
    return images


def identity(degree: int) -> Perm:
    return tuple(range(degree))


def transposition(degree: int, i: int, j: int) -> Perm:
    images = list(range(degree))
    images[i], images[j] = j, i
    return perm(images)


def perm_inverse(p: Perm) -> Perm:
    images = [0] * len(p)
    for i, j in enumerate(p):
        images[j] = i
    return tuple(images)


def _right_multiplier(q: Perm) -> Callable[[Perm], Perm]:
    """p -> p * q, an itemgetter reading p at the images of q.  Below degree
    2 the only permutation is the identity, where itemgetter would return a
    bare image (one point) or refuse (no points), so p * q is p."""
    return itemgetter(*q) if len(q) > 1 else tuple


def perm_compose(p: Perm, q: Perm) -> Perm:
    """Left-action composition: (p*q)(i) = p(q(i))."""
    if len(p) != len(q):
        raise ValueError(f"degree mismatch: {len(p)} != {len(q)}")
    return _right_multiplier(q)(p)


class FiniteGroupTable:
    """The finite permutation group generated by `gens`, as an ordered
    element list whose element 0 is the identity.

    No product table is stored: a *base* (a short list of points whose
    images tell all elements apart) is chosen once, and each element's base
    images are kept as the key that looks it up.  `product(i, j)` builds one
    itemgetter over the base images of p_j and reads p_i with it, which
    gives the base images of p_i * p_j; `index` reads a permutation with an
    itemgetter over the base.  No getter is stored per element, so memory is
    O(|G| * degree).  Inverses are precomputed.

    The elements are found by one breadth-first search from 1 that steps
    from each element p found to p * g for every generator g, one
    itemgetter per generator.  The set S it finds contains 1, is closed
    under right multiplication by each generator, and consists of products
    of generators.  Such a finite S is the group generated: right
    multiplication by g is injective, so S * g = S, hence S * g^-1 = S and S
    is closed under right multiplication by the whole group, which contains
    1, so the group lies in S.  So S is closed under products, and since two
    elements of S that agree on the base are equal, the base lookup returns
    the true product.  An element reached as p * g has the inverse
    g^-1 * p^-1, one product down the search tree.

    The order of discovery is the element order: identity first, then BFS
    layers with the generators applied on the right in their given order;
    past `limit` elements, or past CLOSURE_ENTRY_LIMIT stored image entries,
    ClosureLimitError is raised.  Elements, the generators among them, are
    looked up by their base images alone: the table has one lookup over G.
    """

    def __init__(self, gens: Sequence[Perm], limit: int = CLOSURE_LIMIT):
        if not gens:
            raise ValueError("need at least one generator")
        gens = [perm(g) for g in gens]
        degree = len(gens[0])
        if any(len(g) != degree for g in gens):
            raise ValueError("generators must have equal degree")
        multipliers = [_right_multiplier(g) for g in gens]

        def successors(p: Perm) -> Iterable[tuple[int, Perm]]:
            return enumerate([times(p) for times in multipliers])

        cap = CLOSURE_ENTRY_LIMIT // max(degree, 1)
        try:
            found = bfs_tree(identity(degree), successors, min(limit, cap))
        except ClosureLimitError:
            raise _limit_error(limit, cap, degree) from None
        self.elements = elements = list(found)
        self.base = base = separating_base(elements)
        # A key is what itemgetter returns: a tuple of images, or one bare
        # image on a one-point base.  The trivial group's empty base is read
        # through an empty slice, so its one key is ().
        points = base or (slice(0),)
        self._key = itemgetter(*points)
        keys = list(map(self._key, elements))
        self._by_key = dict(zip(keys, range(len(keys))))
        # product(i, j) reads p_i where p_j sends the base: at the tuple of
        # those images, a 1-tuple on a one-point base, and at the empty slice
        # on the empty base
        if len(base) > 1:
            self._base_images = keys
        elif base:
            self._base_images = list(zip(keys))
        else:
            self._base_images = [points]
        self.gen_indices = tuple(self.index(g) for g in gens)
        gen_inverses = [self.index(perm_inverse(g)) for g in gens]
        inv = self._inv = [0]
        for parent, k in islice(found.values(), 1, None):
            inv.append(self.product(gen_inverses[k], inv[self.index(parent)]))

    @property
    def order(self) -> int:
        return len(self.elements)

    def index(self, p: Perm) -> int:
        """The index of the element p, looked up by its base images."""
        return self._by_key[self._key(p)]

    def product(self, i: int, j: int) -> int:
        return self._by_key[itemgetter(*self._base_images[j])(self.elements[i])]

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


def separating_base(group: Sequence[Perm]) -> tuple[int, ...]:
    """Points, in increasing order, whose images tell the elements of a
    permutation group apart: a point is kept when it splits some class of
    elements that agree on the points kept before it.

    Two elements agree on the kept points exactly when they lie in one left
    coset of the subgroup fixing those points, so a point splits a class,
    and then every class, exactly when that subgroup moves it.  Only the
    shrinking subgroup is scanned, not every class of the group.
    """
    fixing = group
    base = []
    for point in range(len(fixing[0])):
        if len(fixing) == 1:
            break
        stabilizer = [p for p in fixing if p[point] == point]
        if len(stabilizer) < len(fixing):
            base.append(point)
            fixing = stabilizer
    return tuple(base)


def generate_closure(gens: Sequence[Perm], limit: int = CLOSURE_LIMIT) -> FiniteGroupTable:
    """The group generated by a nonempty list of permutations, in BFS order."""
    return FiniteGroupTable(gens, limit=limit)
