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
edge orbits.  The cube and the Petersen graph were re-pinned when file
actions got Schreier presentations of their vertex stabilizers, and greedy
edge-stabilizer generators, in place of multiplication tables; prism-5x2
was re-pinned when a relator whose cyclic reduction repeats an emitted one
up to rotation and inversion was first dropped: three of its six loop
relators are conjugates of another or of its inverse.  Both the old and the
new presentation files of each verify against the action.  The cube, the
Petersen graph, prism-5x2 and prism-4x3-dihedral were re-pinned when file
actions without loops got picked short loops (`derive.pick_loops`) in place
of the fundamental cycles of one spanning tree; the square and the hexagon
pick the loop they had.  Every pinned action verifies with either set of
loops (`test_fundamental_and_picked_loops_both_verify`).  The Petersen
graph was re-pinned again when Schreier presentations were taken on the
least conjugate stabilizer, so that their relators stop depending on the
vertex numbering: its stabilizer relators went from 15 to 10.  The square,
the cube, the Petersen graph and prism-4x3-dihedral were re-pinned when
the vertex stabilizers of file actions were presented by the derivation
itself, recursively (`derive.stabilizer_presentation`), in place of
Schreier presentations: the order-2 stabilizers of the square and the
prism keep their one relator, now the square of the inverse of a
generator named `t<v>_g[0]` in place of `t<v>_<element>`; the cube's
stabilizer relators went from 4 to 3 and the Petersen graph's from 10 to 3.
Both the old and the new presentation files of each verify against the
action with byte-identical reports.

The exact polyhedral models are pinned too: the dodecahedron's coordinates
(each coordinate as its rational parts `.a`, `.b`), labels and clockwise
faces, the 120 quaternions of the binary icosahedral group in breadth-first
order, the truncated dodecahedron's coordinates and faces, and the
`face_boundary_check()` report.  These digests were taken while Q(sqrt 5)
numbers were still stored as `Fraction` pairs, before the arithmetic moved
to integer numerators over a common denominator.  So are the records of the
scaffolding (`PINNED_SCAFFOLDINGS`), the choices the derivation reads.
"""

import hashlib
import itertools
import json

import pytest

from graphpres.builtins import load_builtin
from graphpres.cli import action_from_json, main
from graphpres.coxeter import build_coxeter_context, face_boundary_check
from graphpres.derive import derive_presentation, fundamental_loops
from graphpres.golden import from_numerators
from graphpres.polyhedra import build_dodecahedron, icosian_group, truncated_dodecahedron
from graphpres.verify import derived_to_json


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
    "square": "c8f0d7bb40396a714eac568f5b8b39f0fb2c8c9090e0e8c9938219513f552070",
    "cube": "a33f1c08bad5713d8207575fb5ca790a018af6666a8ddfb93378540b14e3ea3a",
    "petersen": "a593324d77b9bb7c21942061ca9fb5eee35cf4799bc7a6b5090940a7d8919edc",
    "prism-5x2": "f3e8c0a23040c5559600c440ac5e814b011e0b01d2c90670e1d1e515d32453a2",
    "prism-4x3-dihedral": "43028c09acf65eb7204b932166ae74735c29c3ae47d4ecdf1fb220d2660275da",
    "hexagon-rotation": "86ad475e75602f13ee9ce32445fa1e18aea448f2f62268c10e2afc0fe944f40f",
}


def derived_json_text(name: str) -> str:
    inp = action_from_json(ACTIONS[name], name) if name in ACTIONS else load_builtin(name)
    return json.dumps(derived_to_json(derive_presentation(inp)), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("name", list(PINNED))
def test_derived_json_digest(name):
    assert hashlib.sha256(derived_json_text(name).encode()).hexdigest() == PINNED[name]


# the seven scaffolding records, taken while the scaffolding still stored
# its representatives and transversals a second time, beside `iota` and
# `rep_decomposition`
PINNED_SCAFFOLDINGS = {
    "simplex:3": "cd8813fe8ee082575071e199ff99609ccad8a94b16e1e6e4bb23e910f9596a39",
    "simplex:4": "b651338138a8348196f31e68f4c68868598136c0b0d647d37c5bdb026d1c0446",
    "simplex:5": "78be6ccefea73e6f21b2cd44bc8975a937c7d8f454f48d0a165540580568c013",
    "simplex:6": "b9728ca93a28eecc98d6b9a3534b56821650e85b42014c07e3125e97e403003e",
    "dodecahedron": "39d3a8e34de52ce027b8d0c7d573e9d197e20a57718c96dc8443020890042b0c",
    "binary-icosahedral": "48de265226679a6d30d4ce74d3e2db7f03307d333d10622fdeaacba1559b7cac",
    "dihedral:5": "05e4830d6f65416b122c7f278fdb4f6e4e305706875825aaeea9b61679c7f0d5",
    "dihedral:12": "f98336a2eb4adf05e54027f6b7421d2cf874b29cb07ebee62cebc37447a9d2b3",
    "square": "1b2d1059c087b7286e1b516ced1ebaed6360973872833aa61e0c86d3ebb855c7",
    "cube": "4b4d1685229affb102fb6e6f6b029b2736236ee4115edb657c86860f8f54f1a2",
    "petersen": "71644e13d88853b57f6bec1767e5c58793d7d4f60da3dc0fc342934bb404e8b1",
    "prism-5x2": "2ecbdccc765a3b7f3546d8523099bc3bdc67924c81db87c3eeda8e9b67d7e856",
    "prism-4x3-dihedral": "01a5548d18c10008cd832b207693952009d009f6b13f4f6977cfe53ce9c464be",
    "hexagon-rotation": "3271fd3368f019e23bea5594b84e1ddc1f6c147652cfea4ddcae66b468c51874",
}


def scaffolding_text(name: str) -> str:
    """Every record of the scaffolding as canonical JSON, a map as its sorted
    items (an oriented edge is written as its [origin, target]), so that a
    record added or dropped changes the digest too."""
    inp = action_from_json(ACTIONS[name], name) if name in ACTIONS else load_builtin(name)
    records = inp.sc._asdict()
    return json.dumps({k: sorted(v.items()) if isinstance(v, dict) else v
                       for k, v in records.items()}, sort_keys=True)


@pytest.mark.parametrize("name", list(PINNED_SCAFFOLDINGS))
def test_scaffolding_digest(name):
    digest = hashlib.sha256(scaffolding_text(name).encode()).hexdigest()
    assert digest == PINNED_SCAFFOLDINGS[name]


def test_coxeter_check_report_digest(capsys):
    assert main(["coxeter-check"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "5d69be57e1ced43d793b9230c33ce501245323064c1d2e6c20df5a0727f53b24"


def test_coxeter_tau_digest():
    # pinned while element i was the element of coset i: read each label
    # through the coset map, the coset its carrier sends to coset 0
    ctx = build_coxeter_context()

    def coset_of(j):
        return ctx.group.elements[j].index(0)

    text = json.dumps(sorted((e, coset_of(j)) for e, j in ctx.tau.items()))
    assert coset_of(ctx.z) == 2
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "675bf3dfd0281af200b688a322ef1297b15c9848c11829aa67480dc4278f9114"


@pytest.mark.parametrize("name", list(ACTIONS))
def test_file_action_derives_and_verifies(tmp_path, capsys, name):
    action = tmp_path / f"{name}.json"
    action.write_text(json.dumps(ACTIONS[name]))
    assert main(["derive", "--action", str(action), "--verify", "--out", str(tmp_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["order_check"]["proof"] == "lagrange" and report["reconstruction"]["ok"]
    assert main(["verify", str(tmp_path / f"{name}.presentation.json"),
                 "--action", str(action)]) == 0


@pytest.mark.parametrize("name", list(ACTIONS))
def test_fundamental_and_picked_loops_both_verify(tmp_path, capsys, name):
    inp = action_from_json(ACTIONS[name], name)
    fundamental = fundamental_loops(inp.ag, inp.sc.base_vertices[0])
    for source, data in [("picked", ACTIONS[name]),
                         ("given", {**ACTIONS[name], "loops": fundamental})]:
        action = tmp_path / f"{source}.json"
        action.write_text(json.dumps(data))
        assert main(["derive", "--action", str(action), "--verify", "--out", str(tmp_path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["loops"] == source and report["reconstruction"]["ok"]
        assert report["order"] == inp.ag.group.order


def _golden(x) -> list[str]:
    return [str(x.a), str(x.b)]


def _points(points) -> list:
    return [[_golden(c) for c in p] for p in points]


def dodecahedron_text() -> str:
    m = build_dodecahedron()
    return json.dumps({"coords": _points(m.coords), "labels": m.labels, "faces": m.faces},
                      sort_keys=True)


def icosian_text() -> str:
    tree, _ = icosian_group(build_dodecahedron())
    return json.dumps(_points(from_numerators([q[:8]], q[8])[0] for q in tree))


def truncated_text() -> str:
    Y = truncated_dodecahedron()
    return json.dumps({"coords": _points(Y.coords), "faces": Y.faces}, sort_keys=True)


def face_boundary_text() -> str:
    return json.dumps(face_boundary_check()._asdict(), sort_keys=True)


PINNED_MODELS = {
    "dodecahedron": (dodecahedron_text,
                     "0f57b03b25855180b6df74dfcf4ee5b62c2c659f14ed76627508d423235dbf78"),
    "icosian": (icosian_text,
                "a5bd97853c1ea13da5022694cff9e78bffd70d3ee3314649a5938c32eee87dcb"),
    "truncated-dodecahedron": (truncated_text,
                               "9fb03c755e98a87781f629de3cb6d7e21cd48fe9a1627b1449b3cb29535a1576"),
    "face-boundary": (face_boundary_text,
                      "89acdc55e28a30999405ccd6cc93617486f3ca226baf108d1bfec13416908da4"),
}


@pytest.mark.parametrize("name", list(PINNED_MODELS))
def test_exact_model_digest(name):
    text, digest = PINNED_MODELS[name]
    assert hashlib.sha256(text().encode()).hexdigest() == digest
