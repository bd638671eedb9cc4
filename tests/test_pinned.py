"""Pinned sha256 digests of the `derive` JSON, as `derive` writes it.

A change that alters any byte of a derived presentation (generator order,
relator spelling, evaluation map, family counts) fails here.  The digests
were taken before the breadth-first searches were routed through
`perms.bfs_tree`; those of simplex:6 and simplex:7 were taken while group
products still came from a dense |G|^2 table.  The `coxeter-check` report
and the edge labels `tau` of the double cover were pinned while the
universal group's products were still traced along coset words.  The
prisms and the hexagon, the first pinned actions with reversal-paired edge
orbits, were pinned before the scaffolding was built in one pass over the
edge orbits.
"""

import hashlib
import itertools
import json

import pytest

from graphpres.builtins import load_builtin
from graphpres.cli import action_from_json, main
from graphpres.coxeter import build_coxeter_context
from graphpres.derive import derive_presentation, derived_to_json


def petersen() -> dict:
    """S5 on the 2-subsets of {0..4}, adjacent when disjoint."""
    pairs = list(itertools.combinations(range(5), 2))
    index = {p: i for i, p in enumerate(pairs)}

    def induced(point_map):
        return [index[tuple(sorted((point_map[a], point_map[b])))] for a, b in pairs]

    edges = [[index[p], index[q]] for p, q in itertools.combinations(pairs, 2)
             if not set(p) & set(q)]
    return {"vertices": 10, "edges": edges,
            "generators": {"a": induced([1, 0, 2, 3, 4]), "b": induced([1, 2, 3, 4, 0])}}


def cube() -> dict:
    """The full symmetry group (order 48) of the 3-cube on 3-bit vectors."""
    def bits(v, order):
        return sum(((v >> src) & 1) << dst for dst, src in enumerate(order))

    edges = [[v, v ^ (1 << b)] for v in range(8) for b in range(3) if v < v ^ (1 << b)]
    return {"vertices": 8, "edges": edges,
            "generators": {"f": [v ^ 1 for v in range(8)],
                           "r": [bits(v, (2, 0, 1)) for v in range(8)],
                           "t": [bits(v, (1, 0, 2)) for v in range(8)]}}


def prism(n: int, k: int, flip: bool) -> dict:
    """C_n x P_k under rotation (k vertex orbits, free), with the flip i -> -i
    when `flip`; vertex (i, j) is j*n + i."""
    def vid(i, j):
        return j * n + i % n

    edges = [[vid(i, j), vid(i + 1, j)] for j in range(k) for i in range(n)]
    edges += [[vid(i, j), vid(i, j + 1)] for j in range(k - 1) for i in range(n)]
    gens = {"r": [vid(i + 1, j) for j in range(k) for i in range(n)]}
    if flip:
        gens["m"] = [vid(-i, j) for j in range(k) for i in range(n)]
    return {"vertices": n * k, "edges": edges, "generators": gens}


ACTIONS = {
    "square": {"vertices": 4, "edges": [[0, 1], [1, 2], [2, 3], [3, 0]],
               "generators": {"r": [1, 2, 3, 0], "m": [0, 3, 2, 1]}},
    "cube": cube(),
    "petersen": petersen(),
    # reversal-paired (non-invertible, non-tree) edge orbits; the prisms also
    # have several vertex orbits joined by a spanning tree
    "prism-5x2": prism(5, 2, False),
    "prism-4x3-dihedral": prism(4, 3, True),
    "hexagon-rotation": prism(6, 1, False),
}

PINNED = {
    "simplex:4": "3190439765d19a39cbb636dd6d3a447927d2ac3ec0b19327e572ef7caa753a19",
    "simplex:5": "e55cf70c81fd633a227363891268f2a924db74aeb6e40ab36b1ebbe77b846cc5",
    "simplex:6": "1328472d51007275911b819c8d64263db89067082b0939c3673d09795a2459af",
    "simplex:7": "488045b5c7547f72e1be66f5843f5e474d6779c9af354b2d80c637c8b64bc663",
    "dodecahedron": "376722a890ac245cb754d0325b096624b566cd5ae8174a6fc4e7611c80cde65e",
    "binary-icosahedral": "b6ead8e54c96a5c2b3924a41fa13b88ccf515adbe1f87392f669222ddcd27277",
    "dihedral:5": "cb53997829659aa99242fa523e0f3d54a87fe3430b11d0d22ab70fe6c491911d",
    "dihedral:50": "2f2fa904479ef07abba3b5cfe4159ad00acc6c27c88976d453675d3bbffe5335",
    "square": "b63a0146044f038cf240bae4fa958695b89fce7611277f35d9ac943469267d54",
    "cube": "aeb3b80c54f5099d377e50e90ebf9224375bd9778a49d9edc67aa2576077e897",
    "petersen": "a416c5bd2e7e6671e13956a3bb67d1b7207c5070365aa01c8380e56650296098",
    "prism-5x2": "f64aa1eb62766c7d76f2f8685d68d6c5dce899d861690c6a0a8b802beb9c9afa",
    "prism-4x3-dihedral": "5280913c8af19a43c92237f8a680b56b66b6d35ae0b54c4aad0f61e651ba7155",
    "hexagon-rotation": "86ad475e75602f13ee9ce32445fa1e18aea448f2f62268c10e2afc0fe944f40f",
}


def derived_json_text(name: str) -> str:
    inp = action_from_json(ACTIONS[name], name) if name in ACTIONS else load_builtin(name)
    return json.dumps(derived_to_json(derive_presentation(inp)), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("name", list(PINNED))
def test_derived_json_digest(name):
    assert hashlib.sha256(derived_json_text(name).encode()).hexdigest() == PINNED[name]


def test_coxeter_check_report_digest(capsys):
    assert main(["coxeter-check"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "5d69be57e1ced43d793b9230c33ce501245323064c1d2e6c20df5a0727f53b24"


def test_coxeter_tau_digest():
    ctx = build_coxeter_context()
    text = json.dumps(sorted(ctx.tau.items()))
    assert ctx.z == 2
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "675bf3dfd0281af200b688a322ef1297b15c9848c11829aa67480dc4278f9114"
