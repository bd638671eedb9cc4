"""Finite presentations: words of (generator, +-1) letters, their free and cyclic
reduction, Tietze elimination and checked JSON reading; no graph, no action."""

from __future__ import annotations

import json
from typing import Iterable, NamedTuple, NoReturn, Sequence


def cancel(a: Sequence, b: Sequence) -> tuple | None:
    """The free-group rule: (x, s) followed by (x, -s) cancels."""
    return () if a[0] == b[0] and a[1] == -b[1] else None


def free_reduce(letters: Iterable, merge=cancel) -> list:
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


def cyclic_reduce(letters: Iterable, merge=cancel) -> list:
    """Free reduction followed by merging the last letter with the first
    until they no longer interact."""
    letters = free_reduce(letters, merge)
    while len(letters) >= 2:
        merged = merge(letters[-1], letters[0])
        if merged is None:
            break
        letters = letters[1:-1] + list(merged)
    return letters


def inverse_word(word: Sequence[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """The inverse of a word of (generator, +-1) letters."""
    return tuple((g, -s) for g, s in reversed(word))


def least_rotation(*words: tuple) -> tuple:
    """The least rotation of any of the given words; () when all are empty."""
    return min((_least_rotation_of(w) for w in words if w), default=())


def _least_rotation_of(w: tuple) -> tuple:
    """The least rotation of a nonempty word, found in linear time.

    Two candidate starts i, j are compared letter by letter; when they first
    differ at offset k, the larger one and the k starts after it cannot
    start the least rotation, so it jumps past them.  The search ends when
    one start runs past the word (the other is least) or the rotations at
    i and j agree in full (both are least).
    """
    n = len(w)
    i, j, k = 0, 1, 0
    while i < n and j < n and k < n:
        a, b = w[(i + k) % n], w[(j + k) % n]
        if a == b:
            k += 1
            continue
        if a > b:
            i += k + 1
        else:
            j += k + 1
        if i == j:
            j += 1
        k = 0
    start = min(i, j)
    return w[start:] + w[:start]


_MISSING = object()  # a named key that is absent


def read_json(value, shape, path: str = "") -> None:
    """Check JSON data against a shape; a ValueError names the JSON path and
    what was expected.  A shape is `int` (not a float or a bool), `str`,
    `[s]` (an array of s), a tuple of shapes (an array of exactly those),
    `{str: s}` (names mapped to s) or a dict of named keys (a key ending in
    "?" may be absent, other keys are ignored).  Lists and tuples are arrays."""
    if shape is int or shape is str:
        if type(value) is not shape:
            _expected(path, "an integer" if shape is int else "a string", value)
    elif isinstance(shape, dict):
        if not isinstance(value, dict):
            _expected(path, "an object", value)
        for key, item_shape in shape.items():
            if key is str:
                for name, item in value.items():
                    read_json(name, str, f"{path} key")
                    read_json(item, item_shape, f"{path}[{name!r}]")
            elif (name := key.rstrip("?")) in value or name == key:
                read_json(value.get(name, _MISSING), item_shape, f"{path}.{name}" if path else name)
    else:
        if not isinstance(value, (list, tuple)):
            _expected(path, "an array", value)
        if isinstance(shape, tuple) and len(value) != len(shape):
            _expected(path, f"{len(shape)} entries", len(value))
        if shape.count(int) == len(shape) and set(map(type, value)) <= {int}:
            return  # integers only, the common case, in one pass
        shapes = shape if isinstance(shape, tuple) else shape * len(value)
        for k, (item, item_shape) in enumerate(zip(value, shapes)):
            read_json(item, item_shape, f"{path}[{k}]")


def _expected(path: str, expected: str, value) -> NoReturn:
    got = ("nothing" if value is _MISSING else "an object" if isinstance(value, dict)
           else "an array" if isinstance(value, (list, tuple))
           else json.dumps(value, default=repr)[:40])
    raise ValueError(f"{path or 'the file'}: expected {expected}, got {got}")


class CheckedRecord:
    """Fields named by `__slots__`, compared, hashed and shown by value as a
    NamedTuple's are.  Unlike a NamedTuple, every construction runs
    `__init__`, where a subclass checks its fields: `_replace` and `_make`
    would skip a check made in `__new__`."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Presentation(CheckedRecord):
    """Generator names and relators as signed sequences over them."""

    __slots__ = ("generators", "relators")

    def __init__(self, generators: tuple[str, ...],
                 relators: tuple[tuple[tuple[int, int], ...], ...]):
        first: dict[str, int] = {}
        for j, name in enumerate(generators):
            if first.setdefault(name, j) != j:
                raise ValueError(f"generators[{j}]: repeated generator name {name!r}")
        for k, rel in enumerate(relators):
            for j, (idx, sign) in enumerate(rel):
                if not 0 <= idx < len(generators) or sign not in (1, -1):
                    raise ValueError(f"relators[{k}][{j}]: expected a generator and 1 or -1")
        self.generators = generators
        self.relators = relators

    @staticmethod
    def from_strings(generators: Sequence[str], relators: Iterable[Sequence[tuple[str, int]]]) -> Presentation:
        index = {name: i for i, name in enumerate(generators)}
        rels = tuple(tuple((index.get(name, -1), sign) for name, sign in rel) for rel in relators)
        return Presentation(tuple(generators), rels)

    def restricted(self, letters: Sequence[int]) -> Presentation:
        """The generators `letters` (indices) and the relators over them."""
        renumber = {g: k for k, g in enumerate(letters)}
        relators = tuple(tuple((renumber[g], s) for g, s in rel) for rel in self.relators
                         if all(g in renumber for g, _ in rel))
        return Presentation(tuple(self.generators[g] for g in letters), relators)

    def rename(self, mapping: dict[str, str]) -> Presentation:
        return Presentation(tuple(mapping.get(g, g) for g in self.generators), self.relators)

    def pretty(self) -> str:
        lines = ["generators: " + " ".join(self.generators)]
        for rel in self.relators:
            parts = [self.generators[i] + ("" if s > 0 else "^-1") for i, s in rel]
            lines.append(" ".join(parts) if parts else "1")
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {"generators": list(self.generators),
                "relators": [[[self.generators[i], s] for i, s in rel] for rel in self.relators]}


class TietzeReduction(NamedTuple):
    """A presentation with the generators that short relators pin down removed.

    `pins[g]` says what original generator g became: (k, s) for generator k
    of the reduced `presentation` raised to s, or None for the identity.
    """

    presentation: Presentation
    pins: tuple[tuple[int, int] | None, ...]

    def word(self, word: Sequence[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
        """`word` over the reduced generators, freely (never cyclically)
        reduced, so that a subgroup word keeps its conjugating letters."""
        out = []
        for g, e in word:
            pin = self.pins[g]
            if pin is not None:
                out.append((pin[0], pin[1] * e))
        return tuple(free_reduce(out))


def tietze_reduce(p: Presentation) -> TietzeReduction:
    """Eliminate every generator that a relator pins down, to a fixpoint.

    A relator that cyclically reduces to one letter g^+-1 says g = 1, and
    one that reduces to two letters g^a h^b on distinct generators says
    g = h^(-ab).  Each is a Tietze move: the larger of g and h (every
    generator when pinned to 1) is substituted away, and the relator that
    pinned it becomes empty and is dropped.  Substituting one letter for
    another, or deleting it, never lengthens a relator.  Generators are
    kept in a union-find forest with the sign of each one against its
    parent.  Relators are rewritten shortest first, so most eliminations
    happen before a long relator is first read, and a relator is rewritten
    again only when a generator it names is eliminated later.  When nothing
    is eliminated the presentation is returned as it is; otherwise the
    reduced relators are cyclically reduced, and an empty one, or one that
    repeats another or its inverse, is dropped.
    """
    n = len(p.generators)
    one = n  # the root of the generators pinned to 1
    parent, sign = list(range(n + 1)), [1] * (n + 1)

    def find(g: int) -> tuple[int, int]:
        path = []
        while parent[g] != g:
            path.append(g)
            g = parent[g]
        s = 1
        for h in reversed(path):  # compress, carrying each sign to the root
            s *= sign[h]
            parent[h], sign[h] = g, s
        return g, s

    def substitute(rel: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
        """The relator over the roots, freely then cyclically reduced."""
        out: list[tuple[int, int]] = []
        for g, e in rel:
            if parent[g] != g:
                g, s = find(g)
                if g == one:
                    continue
                e *= s
            out.append((g, e))
        return cyclic_reduce(out)

    rels: list[Sequence[tuple[int, int]]] = list(p.relators)
    uses: list[list[int]] = [[] for _ in range(n)]  # per root: the relators naming it
    for k, rel in enumerate(rels):
        for g in {g for g, _ in rel}:
            uses[g].append(k)
    # a relator waits in the queue at most once
    queue = sorted(range(len(rels)), key=lambda k: len(rels[k]))
    pending, eliminated = [True] * len(rels), 0
    for k in queue:  # grows while it is read
        pending[k] = False
        rel = rels[k] = substitute(rels[k])
        if len(rel) == 1:
            gone = rel[0][0]
            parent[gone] = one
        elif len(rel) == 2 and rel[0][0] != rel[1][0]:
            (a, x), (b, y) = rel
            keep, gone = min(a, b), max(a, b)
            parent[gone], sign[gone] = keep, -x * y
            uses[keep].extend(uses[gone])
        else:
            continue
        eliminated += 1
        for j in uses[gone]:
            if not pending[j]:
                pending[j] = True
                queue.append(j)
    if not eliminated:
        return TietzeReduction(p, tuple((g, 1) for g in range(n)))
    survivors = [g for g in range(n) if parent[g] == g]
    index = {g: k for k, g in enumerate(survivors)}
    relators: dict[tuple, tuple] = {}  # the word or its inverse -> first spelling
    for rel in rels:
        if rel:
            word = tuple((index[g], s) for g, s in rel)
            relators.setdefault(min(word, inverse_word(word)), word)
    pins = []
    for g in range(n):
        r, s = find(g)
        pins.append(None if r == one else (index[r], s))
    return TietzeReduction(Presentation(tuple(p.generators[g] for g in survivors),
                                        tuple(relators.values())), tuple(pins))
