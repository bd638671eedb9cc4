"""Seeded inputs and hand-written expectations for the three workloads.

Every action is one thing a user would do: a `graphpres` CLI call or, for
the face-product proof, one library call.  The expected group orders and
graph sizes below are written from the mathematics (n!, 2n, 48, n*k, ...),
never read back from the program, so an action that disagrees with them
counts as failed.

The seed does two things and nothing else: it relabels the vertices of every
generated action file (conjugating its generators to match) and it sets the
order in which a workload runs its actions; each pass of a run draws its own
labelling and order from it.  Sizes are fixed, so the work per run is about
the same for any seed.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("builtin-sweep", "table-stabilizers", "multi-orbit")


@dataclass(frozen=True)
class Action:
    """One timed step of a workload.

    `kind` is "builtin" (derive --verify --builtin), "file" (derive --verify
    --action on a generated JSON file), "coxeter-check" (the CLI subcommand)
    or "face-boundary" (the library's face_boundary_check()).  `expect`
    holds the hand-written values the outputs must match.
    """

    label: str
    kind: str
    expect: dict = field(default_factory=dict)
    data: dict | None = None  # the action file, for kind "file"


def _graph_expect(order: int, vertices: int, edges: int) -> dict:
    return {"order": order, "vertices": vertices, "edges": edges}


# -- action files ------------------------------------------------------------

def _complete_graph(n: int) -> tuple[int, list, dict]:
    """S_n on K_n, generated by the swap (0 1) and the n-cycle."""
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    swap = list(range(n))
    swap[0], swap[1] = 1, 0
    cycle = [(i + 1) % n for i in range(n)]
    return n, edges, {"a": swap, "b": cycle}


def _alternating_k6() -> tuple[int, list, dict]:
    """A6 on K6, generated by the 3-cycle (0 1 2) and the 5-cycle (1 2 3 4 5)."""
    n, edges, _ = _complete_graph(6)
    return n, edges, {"a": [1, 2, 0, 3, 4, 5], "b": [0, 2, 3, 4, 5, 1]}


def _square() -> tuple[int, list, dict]:
    """The dihedral group of order 8 on the 4-cycle."""
    return 4, [(0, 1), (1, 2), (2, 3), (0, 3)], {"r": [1, 2, 3, 0], "m": [0, 3, 2, 1]}


def _petersen() -> tuple[int, list, dict]:
    """S5 on the Petersen graph: 2-subsets of {0..4}, adjacent when disjoint."""
    pairs = list(itertools.combinations(range(5), 2))
    index = {p: i for i, p in enumerate(pairs)}
    edges = [(index[p], index[q]) for p, q in itertools.combinations(pairs, 2)
             if not set(p) & set(q)]

    def induced(point_map: list[int]) -> list[int]:
        return [index[tuple(sorted((point_map[a], point_map[b])))] for a, b in pairs]

    return 10, edges, {"a": induced([1, 0, 2, 3, 4]), "b": induced([1, 2, 3, 4, 0])}


def _cube() -> tuple[int, list, dict]:
    """The full symmetry group (order 48) of the 3-cube's vertex graph.

    Vertices are 3-bit vectors; the generators flip bit 0, cycle the three
    bit positions, and swap bits 0 and 1.
    """
    edges = [(v, v ^ (1 << b)) for v in range(8) for b in range(3) if v < v ^ (1 << b)]

    def bits(v: int, order: tuple[int, int, int]) -> int:
        return sum(((v >> src) & 1) << dst for dst, src in enumerate(order))

    return 8, edges, {"f": [v ^ 1 for v in range(8)],
                      "r": [bits(v, (2, 0, 1)) for v in range(8)],
                      "t": [bits(v, (1, 0, 2)) for v in range(8)]}


def _prism(n: int, k: int, flip: bool) -> tuple[int, list, dict]:
    """C_n x P_k: k stacked n-cycles joined by rungs; vertex (i, j) is j*n + i.

    Rotation alone acts freely with k vertex orbits; the flip i -> -i adds
    order-2 vertex stabilizers.
    """
    def vid(i: int, j: int) -> int:
        return j * n + i % n

    edges = [(vid(i, j), vid(i + 1, j)) for j in range(k) for i in range(n)]
    edges += [(vid(i, j), vid(i, j + 1)) for j in range(k - 1) for i in range(n)]
    gens = {"r": [vid(i + 1, j) for j in range(k) for i in range(n)]}
    if flip:
        gens["m"] = [vid(-i, j) for j in range(k) for i in range(n)]
    return n * k, edges, gens


def _relabel(n: int, edges: list, gens: dict, rng: random.Random) -> dict:
    """The same action with vertex v renamed perm[v]; generators conjugated."""
    perm = list(range(n))
    rng.shuffle(perm)
    new_gens = {}
    for name, images in gens.items():
        new = [0] * n
        for v in range(n):
            new[perm[v]] = perm[images[v]]
        new_gens[name] = new
    new_edges = sorted(sorted((perm[u], perm[v])) for u, v in edges)
    return {"vertices": n, "edges": new_edges, "generators": new_gens}


# -- workloads ---------------------------------------------------------------

def _builtin_sweep(rng: random.Random) -> list[Action]:
    return [
        Action("simplex:5", "builtin", _graph_expect(math.factorial(5), 5, 10)),
        Action("simplex:6", "builtin", _graph_expect(math.factorial(6), 6, 15)),
        Action("dodecahedron", "builtin", _graph_expect(60, 20, 30)),
        Action("binary-icosahedral", "builtin", _graph_expect(120, 20, 30)),
        Action("dihedral:50", "builtin", _graph_expect(2 * 50, 50, 50)),
        Action("dihedral:200", "builtin", _graph_expect(2 * 200, 200, 200)),
        *_proofs(),
        # probe: one small file-supplied action, so derive.auto_input is measured
        Action("square", "file", _graph_expect(8, 4, 4), _relabel(*_square(), rng)),
    ]


def _proofs() -> list[Action]:
    return [
        Action("coxeter-check", "coxeter-check",
               {"ok": True, "group_order": 120, "quotient_order": 60, "z_order": 2}),
        Action("face-boundary", "face-boundary",
               {"ok": True, "vertex_count": 60, "edge_count": 90, "face_count": 32,
                "euler": 2}),
    ]


def _probes() -> list[Action]:
    """One small builtin and both proofs, so every layer is measured."""
    return [Action("dihedral:5", "builtin", _graph_expect(2 * 5, 5, 5)), *_proofs()]


def _table_stabilizers(rng: random.Random) -> list[Action]:
    cases = [
        ("k5", _complete_graph(5), _graph_expect(math.factorial(5), 5, 10)),
        ("k6-alternating", _alternating_k6(), _graph_expect(math.factorial(6) // 2, 6, 15)),
        ("petersen", _petersen(), _graph_expect(math.factorial(5), 10, 15)),
        ("cube", _cube(), _graph_expect(48, 8, 12)),
    ]
    return [Action(label, "file", expect, _relabel(*spec, rng))
            for label, spec, expect in cases] + _probes()


def _multi_orbit(rng: random.Random) -> list[Action]:
    cases = [(60, 4, False), (40, 5, False), (75, 3, False), (30, 4, True)]
    actions = []
    for n, k, flip in cases:
        label = f"prism-{n}x{k}" + ("-dihedral" if flip else "")
        expect = _graph_expect(2 * n if flip else n, n * k, n * k + n * (k - 1))
        actions.append(Action(label, "file", expect, _relabel(*_prism(n, k, flip), rng)))
    return actions + _probes()


_BUILDERS = {"builtin-sweep": _builtin_sweep,
             "table-stabilizers": _table_stabilizers,
             "multi-orbit": _multi_orbit}


def make_actions(workload: str, seed: int, pass_index: int) -> list[Action]:
    """The workload's actions for one pass of a run, in their run order.

    Each pass of a run gets its own relabelling and order, drawn from the
    seed, so a run's median pass averages over several labellings.
    """
    rng = random.Random(f"{workload}:{seed}:{pass_index}")
    actions = _BUILDERS[workload](rng)
    rng.shuffle(actions)
    return actions


def write_action_files(actions: list[Action], directory: Path) -> dict[str, Path]:
    """Write each file-supplied action as `<label>.json`; returns label -> path."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for action in actions:
        if action.data is not None:
            path = directory / f"{action.label}.json"
            path.write_text(json.dumps(action.data))
            paths[action.label] = path
    return paths
