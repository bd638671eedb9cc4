"""Seeded random actions on orbital graphs, valid by construction.

A random permutation group of degree at most 9 and order at most 2000 is
drawn as symmetric, dihedral and cyclic factors on disjoint blocks of
points, with points left fixed, under random Nielsen moves (g_i -> g_j g_i,
which keep the group) and sometimes a dropped generator (a subgroup), on
randomly relabelled points.  Its graph is a random union of orbitals, the
G-orbits of pairs of points, added until the graph is connected, so
intransitive actions, several vertex orbits and edges across orbits occur.
Every action must derive and verify, its picked loops must be the full
candidate search's (`reference_picks`) and have no stem, and a relabelled
copy must give the same vertex-stabilizer relators.  `pytest --seed N`
draws other actions.
"""

import random

from graphpres.cli import _verification_report, action_from_json
from graphpres.coset import COSET_LIMIT
from graphpres.derive import derive_presentation, pick_loops
from graphpres.perms import ClosureLimitError, FiniteGroupTable, perm

from reference_picks import reference_pick_loops
from test_carriers import relabelled

CASES = 40
MAX_ORDER = 2000


def factor(kind: str, points: list[int], degree: int) -> list[list[int]]:
    """Generators of S_k, D_k or C_k on `points`, as image lists of `degree`."""
    def images(mapping):
        out = list(range(degree))
        for a, b in mapping.items():
            out[a] = b
        return out

    k = len(points)
    rotation = images({points[i]: points[(i + 1) % k] for i in range(k)})
    if kind == "C":
        return [rotation]
    if kind == "D":
        return [rotation, images({points[i]: points[-i % k] for i in range(k)})]
    return [rotation, images({points[0]: points[1], points[1]: points[0]})]


def random_group(rng: random.Random) -> list[list[int]]:
    """Image lists of generators of a random group of degree at most 9."""
    degree = rng.randint(4, 9)
    gens, start = [], 0
    while start <= degree - 2 and (not gens or rng.random() < 0.6):
        k = rng.randint(min(3, degree - start), min(6, degree - start))
        gens += factor(rng.choice("SSDDC"), list(range(start, start + k)), degree)
        start += k
    for _ in range(rng.randint(0, 4) if len(gens) > 1 else 0):
        i, j = rng.sample(range(len(gens)), 2)
        gens[i] = [gens[j][x] for x in gens[i]]  # g_j g_i
    if len(gens) > 1 and rng.random() < 0.3:
        gens.pop(rng.randrange(len(gens)))
    relabel = list(range(degree))
    rng.shuffle(relabel)
    out = []
    for g in gens:
        new = [0] * degree
        for x in range(degree):
            new[relabel[x]] = relabel[g[x]]
        out.append(new)
    return out


def orbital_action(rng: random.Random, gens: list[list[int]],
                   group: FiniteGroupTable) -> dict:
    """The action on the union of random orbitals, added until connected."""
    degree = len(gens[0])
    parent = list(range(degree))

    def root(x):
        while parent[x] != x:
            x = parent[x]
        return x

    edges: set[tuple[int, int]] = set()
    pairs = [(x, y) for x in range(degree) for y in range(x + 1, degree)]
    rng.shuffle(pairs)
    for x, y in pairs:
        if len({root(v) for v in range(degree)}) == 1:
            break
        if (x, y) in edges:
            continue
        for p in group.elements:
            a, b = p[x], p[y]
            edges.add((min(a, b), max(a, b)))
            parent[root(a)] = root(b)
    return {"vertices": degree, "edges": sorted(map(list, edges)),
            "generators": {f"x{k}": g for k, g in enumerate(gens)}}


def random_actions(rng: random.Random, count: int) -> list[dict]:
    actions = []
    while len(actions) < count:
        gens = random_group(rng)
        try:
            group = FiniteGroupTable([perm(g) for g in gens], limit=MAX_ORDER)
        except ClosureLimitError:
            continue
        actions.append(orbital_action(rng, gens, group))
    return actions


def stabilizer_relators(inp) -> list:
    return sorted(inp.stabilizers[v].presentation.relators for v in inp.sc.base_vertices)


def test_random_orbital_graph_actions_derive_and_verify(rng):
    orbits = []
    for k, data in enumerate(random_actions(rng, CASES)):
        inp = action_from_json(data, f"orbital-{k}")
        picked = pick_loops(inp.ag, inp.sc)
        assert picked == reference_pick_loops(inp.ag, inp.sc), data
        assert all(loop[1] != loop[-2] for loop in picked or ()), data
        derived = derive_presentation(inp)
        report, code = _verification_report(derived, inp.ag, COSET_LIMIT)
        assert code == 0, (data, report)
        assert report["order_check"]["enumerated"] == inp.ag.group.order
        assert report["reconstruction"]["ok"]
        orbits.append(len(inp.sc.base_vertices))
        if k < 5:
            copy = action_from_json(relabelled(data, rng))
            assert stabilizer_relators(copy) == stabilizer_relators(inp), data
    assert max(orbits) > 1
