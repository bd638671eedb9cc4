"""`derive.pick_loops` as it was before it built candidate masks from
tree-path masks, dropped repeated or dependent masks before building walks,
and listed only stemless candidates from growing balls: every fundamental
cycle at every base vertex is built, masked and sorted, and a kept loop's
stem is cut off before its translates are taken, and the collapse check
keys edges by their end vertices.  Tests compare the picker and
`CycleSpace.collapses` against them."""

from graphpres.derive import fundamental_loops


def reference_pick_loops(ag, sc):
    edges = sorted(ag.graph.edges)
    bit = {}
    for k, (u, w) in enumerate(edges):
        bit[u, w] = bit[w, u] = 1 << k
    rank = len(edges) - ag.graph.vertex_count + 1

    def mask(walk):
        m = 0
        for step in zip(walk, walk[1:]):
            m ^= bit[step]
        return m

    basis = {}

    def reduce(m):
        while m and m.bit_length() - 1 in basis:
            m ^= basis[m.bit_length() - 1]
        return m

    candidates = []
    for order, v in enumerate(sc.base_vertices):
        for loop in fundamental_loops(ag, v):
            m = mask(loop)
            candidates.append((m.bit_count(), len(loop), order, loop, m))
    candidates.sort()
    picked, cells = [], []
    for *_, loop, m in candidates:
        if len(basis) == rank:
            break
        if not reduce(m):
            continue
        picked.append(loop)
        cycle = list(loop)
        while cycle[1] == cycle[-2]:
            cycle = cycle[1:-1]
        for p in ag.action:
            translate = [p[x] for x in cycle]
            m = reduce(mask(translate))
            if m:
                basis[m.bit_length() - 1] = m
                cells.append(translate)
                if len(basis) == rank:
                    break
    if len(cells) != rank or not reference_collapses(cells):
        return None
    return tuple(picked)


def reference_collapses(cells):
    """Can the 2-cells attached along these closed walks all be removed, one
    at a time, each through a free edge: an edge the cell walks exactly once
    and no other remaining cell walks at all?"""
    uses = []
    total = {}
    users = {}
    for k, cell in enumerate(cells):
        counts = {}
        for a, b in zip(cell, cell[1:]):
            e = (a, b) if a < b else (b, a)
            counts[e] = counts.get(e, 0) + 1
        uses.append(counts)
        for e, n in counts.items():
            total[e] = total.get(e, 0) + n
            users.setdefault(e, []).append(k)
    live = set(range(len(cells)))
    free = [e for e, n in total.items() if n == 1]
    while free:
        e = free.pop()
        if total[e] != 1:
            continue
        # one remaining cell walks e, and walks it once
        (k,) = (k for k in users[e] if k in live)
        live.remove(k)
        for f, n in uses[k].items():
            total[f] -= n
            if total[f] == 1:
                free.append(f)
    return not live
