"""Cross-checks of the Lagrange order proof against full enumeration.

The order check proves |Gamma| = |G| from the reconstruction's index
[Gamma : H_v] and the order of Q_v, and falls back to enumerating all of
Gamma when that bound does not decide.  Both routes must reach the same
verdict and the same order as a direct `todd_coxeter` of the presentation.
"""

import json

import pytest

from graphpres.builtins import load_builtin
from graphpres.cli import action_from_json, main
from graphpres.coset import EnumerationLimitError, todd_coxeter
from graphpres.derive import derive_presentation
from graphpres.verify import presentation_order_check
from graphpres.presentation import Presentation
from test_pinned import ACTIONS
from verify_steps import checked_file, kozsul_model

BUILTINS = ["simplex:3", "simplex:4", "simplex:5", "simplex:6", "simplex:7", "dodecahedron",
            "binary-icosahedral", "dihedral:3", "dihedral:5", "dihedral:50"]
NAMES = BUILTINS + list(ACTIONS)


def load(name: str):
    return action_from_json(ACTIONS[name], name) if name in ACTIONS else load_builtin(name)


def both_checks(inp, derived, limit=1_000_000):
    """The order check with the reconstruction's tables, and without them."""
    try:
        model = kozsul_model(derived, inp.ag, limit)
    except EnumerationLimitError:
        model = None
    checked = checked_file(derived, inp.ag)
    return (presentation_order_check(checked, lambda _: model, limit),
            presentation_order_check(checked, lambda _: None, limit))


def without_first_loop_relator(derived):
    fam = derived.families
    first = fam["stabilizer"] + fam["edge"] + fam["edge_loop"]
    rels = derived.presentation.relators
    kept = rels[:first] + rels[first + 1:]
    return derived._replace(presentation=Presentation(derived.presentation.generators, kept))


@pytest.mark.parametrize("name", NAMES)
def test_lagrange_proof_agrees_with_full_enumeration(name):
    inp = load(name)
    derived = derive_presentation(inp)
    lagrange, full = both_checks(inp, derived)
    order = inp.ag.group.order
    assert lagrange.ok and full.ok
    assert (lagrange.proof, full.proof) == ("lagrange", "enumeration")
    assert lagrange.enumerated == full.enumerated == todd_coxeter(derived.presentation).n == order
    v = lagrange.base_vertex
    assert v == min(inp.sc.base_vertices, key=lambda u: (len(inp.ag.stabilizer(u)), u))
    assert lagrange.stabilizer_order == len(inp.ag.stabilizer(v))
    assert lagrange.index * lagrange.stabilizer_order == order


@pytest.mark.parametrize("name", NAMES)
def test_dropped_loop_relator_gets_the_same_verdict(name):
    inp = load(name)
    derived = derive_presentation(inp)
    if derived.families["loop"] == 0:
        pytest.skip("no loop relator to drop")
    broken = without_first_loop_relator(derived)
    lagrange, full = both_checks(inp, broken, limit=5000)
    assert lagrange.ok == full.ok
    assert lagrange.enumerated == full.enumerated
    if derived.families["loop"] == 1:  # the only loop relator: the group grows
        assert not lagrange.ok


def test_undecided_bound_falls_back_to_enumeration(tmp_path, capsys):
    # conjugating h^3 by the edge generator leaves Q_v = <h | > infinite,
    # so the bound cannot decide; the presented group is unchanged
    assert main(["derive", "--builtin", "dodecahedron", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    path = tmp_path / "dodecahedron.presentation.json"
    data = json.loads(path.read_text())
    assert data["relators"][0] == [["h", 1]] * 3
    data["relators"][0] = [["g[0]", 1]] + [["h", 1]] * 3 + [["g[0]", -1]]
    path.write_text(json.dumps(data))
    code = main(["verify", str(path), "--builtin", "dodecahedron"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["order_check"]["proof"] == "enumeration"
    assert report["order_check"]["enumerated"] == 60
    assert report["reconstruction"]["ok"]
