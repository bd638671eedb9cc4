"""Cross-checks of the Lagrange order proofs against full enumeration.

The order check has two proofs of |Gamma| = |G|: Lagrange's theorem, with
the reconstruction's index [Gamma : H_v] times the product of the indices
down Q_v's chain of generator prefixes, and, when that product does not
prove |G|, the enumeration of all of Gamma.  Both must reach the same
verdict and the same order as a direct `todd_coxeter` of the presentation.
The same chain proves each stabilizer presentation's order in
`validate_input`; its bound must equal the full enumeration's count and
|G_v| there, at every level of the recursion.  On every presentation
`derive` writes, the order check's chain is the chain `validate_input`
proved, so the Lagrange proof decides.
"""

import json
import math

import pytest

import graphpres.coset
import graphpres.derive
import graphpres.verify
from graphpres.builtins import load_builtin
from graphpres.cli import action_from_json, main
from graphpres.coset import (STABILIZER_COSET_LIMIT, EnumerationLimitError, prefix_chain,
                             todd_coxeter)
from graphpres.derive import StabilizerData, derive_presentation
from graphpres.verify import presentation_order_check
from graphpres.presentation import Presentation
from test_coset import LOOSE_S3
from test_orbital import CASES, random_actions
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


def assert_chain_is_the_validated_chain(inp, check):
    """A Lagrange proof of a derived presentation uses the prefix chain of
    the stabilizer presentation `validate_input` proved, one index per
    generator."""
    assert check.proof == "lagrange", inp.name
    stabilizer = inp.stabilizers[check.base_vertex].presentation
    assert check.stabilizer_chain == prefix_chain(stabilizer, STABILIZER_COSET_LIMIT)
    assert len(check.stabilizer_chain) == len(stabilizer.generators)


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
    assert math.prod(lagrange.stabilizer_chain) == lagrange.stabilizer_order
    assert lagrange.index * lagrange.stabilizer_order == order
    assert_chain_is_the_validated_chain(inp, lagrange)


def test_lagrange_proof_uses_the_validated_chain_on_orbital_actions(rng):
    for k, data in enumerate(random_actions(rng, CASES)):
        inp = action_from_json(data, f"orbital-{k}")
        derived = derive_presentation(inp)
        checked = checked_file(derived, inp.ag)
        model = kozsul_model(derived, inp.ag)
        check = presentation_order_check(checked, lambda _: model)
        assert check.ok, data
        assert_chain_is_the_validated_chain(inp, check)


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
    assert "stabilizer_chain" not in report["order_check"]
    assert report["order_check"]["enumerated"] == 60
    assert report["reconstruction"]["ok"]


def test_bound_above_the_order_falls_back_to_enumeration(tmp_path, capsys):
    # h^3 = 1 only through the edge generator, and h^6 = 1 in Q_v: the
    # bound [Gamma : H_v] |Q_v| = 20 * 6 is twice |G|, which proves nothing
    assert main(["derive", "--builtin", "dodecahedron", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    path = tmp_path / "dodecahedron.presentation.json"
    data = json.loads(path.read_text())
    data["relators"][0] = [["g[0]", 1]] + [["h", 1]] * 3 + [["g[0]", -1]]
    data["relators"].append([["h", 1]] * 6)
    path.write_text(json.dumps(data))
    assert main(["verify", str(path), "--builtin", "dodecahedron"]) == 0
    check = json.loads(capsys.readouterr().out)["order_check"]
    assert (check["proof"], check["enumerated"]) == ("enumeration", 60)


def test_chain_bound_too_large_falls_back_to_the_full_enumeration():
    # the chain bounds the S3 at vertex 0 by 12, so 4 * 12 proves nothing
    # and Gamma itself is enumerated
    inp = load_builtin("simplex:4")
    inp.stabilizers[0] = StabilizerData(LOOSE_S3, inp.stabilizers[0].gen_elements)
    lagrange, full = both_checks(inp, derive_presentation(inp))
    assert lagrange.ok and full.ok
    assert (lagrange.proof, lagrange.enumerated) == ("enumeration", 24)
    assert lagrange.stabilizer_chain is None


def validated_stabilizers(monkeypatch, build) -> list[list]:
    """Per `validate_input` call while `build()` is made and derived, at
    every level of the recursion: (presentation, |G_v|) for each stabilizer
    presentation it accepts."""
    calls = []
    validate = graphpres.derive.validate_input

    def recording(inp):
        validate(inp)
        calls.append([(inp.stabilizers[v].presentation, len(inp.ag.stabilizer(v)))
                      for v in inp.sc.base_vertices])

    monkeypatch.setattr(graphpres.derive, "validate_input", recording)
    derive_presentation(build())
    return calls


def assert_chain_bound_is_exact(calls):
    for presentation, order in (stabilizer for call in calls for stabilizer in call):
        chain = prefix_chain(presentation, STABILIZER_COSET_LIMIT)
        assert chain is not None, presentation.pretty()
        enumerated = todd_coxeter(presentation, limit=STABILIZER_COSET_LIMIT).n
        assert math.prod(chain) == enumerated == order, presentation.pretty()


@pytest.mark.parametrize("name", NAMES)
def test_chain_bound_is_every_stabilizer_order(monkeypatch, name):
    assert_chain_bound_is_exact(validated_stabilizers(monkeypatch, lambda: load(name)))


def test_chain_bound_is_every_stabilizer_order_of_the_orbital_actions(monkeypatch, rng):
    calls = 0
    for k, data in enumerate(random_actions(rng, CASES)):
        levels = validated_stabilizers(monkeypatch,
                                       lambda: action_from_json(data, f"orbital-{k}"))
        assert_chain_bound_is_exact(levels)
        calls += len(levels)
    assert calls > CASES  # the recursion ran below the top level


def complete_graph(n: int) -> dict:
    """S_n on K_n, by a transposition and an n-cycle."""
    return {"vertices": n, "edges": [[a, b] for a in range(n) for b in range(a + 1, n)],
            "generators": {"s": [1, 0, *range(2, n)], "c": [*range(1, n), 0]}}


@pytest.mark.parametrize("source", ["simplex:7", "k7"])
def test_no_enumeration_reaches_the_stabilizer_order(tmp_path, capsys, monkeypatch, source):
    # |G_v| = 720 for S7 on 7 points: the chain's tables have index at most 7
    indices = []
    enumerate_ = graphpres.coset.todd_coxeter

    def recording(*args, **kwargs):
        table = enumerate_(*args, **kwargs)
        indices.append(table.n)
        return table

    for module in (graphpres.coset, graphpres.derive, graphpres.verify):
        monkeypatch.setattr(module, "todd_coxeter", recording)
    if source == "k7":
        path = tmp_path / "k7.json"
        path.write_text(json.dumps(complete_graph(7)))
        argv = ["--action", str(path)]
    else:
        argv = ["--builtin", source]
    assert main(["derive", *argv, "--verify", "--out", str(tmp_path)]) == 0
    check = json.loads(capsys.readouterr().out)["order_check"]
    assert (check["proof"], check["stabilizer_chain"]) == ("lagrange", [6, 5, 4, 3, 2])
    assert indices and max(indices) < 720
