import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import graphpres.builtins
import graphpres.cli
import graphpres.derive
from graphpres.cli import COMMANDS, InputError, action_from_json, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list_builtins(capsys):
    code, out, _ = run(capsys, "list-builtins")
    assert code == 0
    assert "dodecahedron" in out
    assert "simplex:<n>" in out


def test_derive_dodecahedron_with_verification(tmp_path, capsys):
    code, out, _ = run(capsys, "derive", "--builtin", "dodecahedron",
                       "--out", str(tmp_path), "--verify")
    assert code == 0
    report = json.loads(out)
    assert report["order"] == 60
    assert report["order_check"]["ok"]
    assert report["reconstruction"]["vertices"] == 20
    data = json.loads((tmp_path / "dodecahedron.presentation.json").read_text())
    assert sorted(data["generators"]) == ["g[0]", "h"]
    assert report["generator_count"] == 2 and "generators" not in report
    assert (tmp_path / "dodecahedron.relators.txt").exists()


def test_derive_simplex_four(tmp_path, capsys):
    code, out, _ = run(capsys, "derive", "--builtin", "simplex:4",
                       "--out", str(tmp_path), "--verify")
    assert code == 0
    assert json.loads(out)["order"] == 24


def test_derive_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices": 3, "edges": [[0, 1]')
    code, _, err = run(capsys, "derive", "--action", str(bad))
    assert code == 2
    assert "position" in err


def test_derive_custom_action_and_verify_file(tmp_path, capsys):
    action = {"vertices": 3, "edges": [[0, 1], [1, 2], [2, 0]],
              "generators": {"r": [1, 2, 0], "m": [0, 2, 1]}}
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps(action))
    code, out, _ = run(capsys, "derive", "--action", str(path),
                       "--out", str(tmp_path), "--verify")
    assert code == 0
    report = json.loads(out)
    assert report["order_check"]["enumerated"] == 6
    pres = tmp_path / "triangle.presentation.json"
    code, out, _ = run(capsys, "verify", str(pres), "--action", str(path))
    assert code == 0
    assert json.loads(out)["reconstruction"]["ok"]


def test_verify_rejects_broken_presentation(tmp_path, capsys):
    action = {"vertices": 3, "edges": [[0, 1], [1, 2], [2, 0]],
              "generators": {"r": [1, 2, 0], "m": [0, 2, 1]}}
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps(action))
    run(capsys, "derive", "--action", str(path), "--out", str(tmp_path))
    pres_path = tmp_path / "triangle.presentation.json"
    data = json.loads(pres_path.read_text())
    # drop the longest relator: the group becomes too large (or infinite)
    data["relators"] = sorted(data["relators"], key=len)[:-1]
    pres_path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "verify", str(pres_path), "--action", str(path),
                       "--limit", "5000")
    assert code == 3


def test_verify_names_the_edge_a_swapped_edge_generator_misses(tmp_path, capsys):
    # the C6 x P3 prism under rotation and mirror; swapping the edges of two
    # edge generators keeps the group, so only the rebuilt graph is wrong
    n, k = 6, 3

    def v(i, j):
        return j * n + i % n
    action = {"vertices": n * k,
              "edges": [[v(i, j), v(i + 1, j)] for j in range(k) for i in range(n)]
              + [[v(i, j), v(i, j + 1)] for j in range(k - 1) for i in range(n)],
              "generators": {"r": [v(i + 1, j) for j in range(k) for i in range(n)],
                             "m": [v(-i, j) for j in range(k) for i in range(n)]}}
    path = tmp_path / "prism.json"
    path.write_text(json.dumps(action))
    run(capsys, "derive", "--action", str(path), "--out", str(tmp_path))
    pres_path = tmp_path / "prism.presentation.json"
    data = json.loads(pres_path.read_text())
    edge_gens = data["edge_gens"]
    assert (edge_gens["g[3]"], edge_gens["g[4]"]) == ([6, 12], [12, 13])
    edge_gens["g[3]"], edge_gens["g[4]"] = edge_gens["g[4]"], edge_gens["g[3]"]
    pres_path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "verify", str(pres_path), "--action", str(path))
    assert code == 3
    report = json.loads(out)
    assert report["order_check"]["ok"] and report["order_check"]["proof"] == "lagrange"
    rec = report["reconstruction"]
    assert not rec["ok"]
    assert rec["defect"] == "edges do not map onto the graph's edges"
    assert rec["witness"] == [6, 12]


def test_coxeter_check(capsys):
    code, out, _ = run(capsys, "coxeter-check")
    assert code == 0
    report = json.loads(out)
    assert report["group_order"] == 120
    assert report["z_order"] == 2
    assert report["quotient_order"] == 60
    assert all(report["identities"].values())


def test_export_cayley_and_warning(tmp_path, capsys):
    out_file = tmp_path / "cayley.dot"
    code, _, err = run(capsys, "export-cayley", "--builtin", "dodecahedron",
                       "--gens", "s1,h,h^-1", "--out", str(out_file))
    assert code == 0 and err == ""
    text = out_file.read_text()
    assert text.startswith("digraph cayley")
    code, _, err = run(capsys, "export-cayley", "--builtin", "dodecahedron",
                       "--gens", "h")
    assert code == 0
    assert "does not generate" in err
    code, _, err = run(capsys, "export-cayley", "--builtin", "dodecahedron",
                       "--gens", "zz")
    assert code == 2


def test_export_graph(tmp_path, capsys):
    code, out, _ = run(capsys, "export-graph", "--builtin", "dodecahedron")
    assert code == 0 and out.count(" -- ") == 30
    code, out, _ = run(capsys, "export-graph", "--builtin", "truncated-dodecahedron")
    assert code == 0 and out.count(" -- ") == 90


@pytest.mark.parametrize("name, message", [
    ("icosahedron", "unknown builtin 'icosahedron'"),
    ("simplex:abc", "builtin 'simplex:abc': n must be an integer from 3 to 999999999"),
    ("dihedral:1e3", "builtin 'dihedral:1e3': n must be an integer from 3 to 999999999"),
    ("simplex:2", "builtin 'simplex:2': n must be an integer from 3 to 999999999"),
], ids=["icosahedron", "simplex-abc", "dihedral-1e3", "simplex-2"])
def test_unknown_builtin(tmp_path, capsys, name, message):
    code, _, err = run(capsys, "derive", "--builtin", name, "--out", str(tmp_path))
    assert code == 2
    assert err == f"error: {message}\n"


TRIANGLE_EDGES = [[0, 1], [1, 2], [2, 0]]
SQUARE_EDGES = [[0, 1], [1, 2], [2, 3], [3, 0]]


@pytest.mark.parametrize("data, message", [
    ({"vertices": 4, "edges": [[0, 1], [1, 2], [2, 3]], "generators": {"x": [3, 1, 2, 0]}},
     "maps the edge (0,1) to a non-edge"),
    ({"vertices": 4, "edges": [[0, 1], [2, 3]], "generators": {"x": [1, 0, 3, 2]}},
     "not connected"),
    ({"vertices": 0, "edges": [], "generators": {"x": []}}, "no vertices"),
    ({"vertices": 3, "edges": [[0, 0], [0, 1], [1, 2]], "generators": {"x": [0, 1, 2]}},
     "loop at vertex 0"),
    ({"vertices": 3, "edges": TRIANGLE_EDGES, "generators": {"x": [1, 2, 3, 0]}},
     "permutes 4 points"),
    ({"vertices": 4, "edges": [[0, 1], [1, 2], [2, 3], [3, 0]],
      "generators": {"r": [1, 2, 3, 0]}, "loops": [[0, 2, 0]]},
     "does not walk along edges"),
    ({"vertices": 4.5, "edges": SQUARE_EDGES, "generators": {"r": [1, 2, 3, 0]}},
     "vertices: expected an integer, got 4.5"),
    ({"vertices": True, "edges": [], "generators": {"x": [0]}}, "vertices: expected an integer, got true"),
    ({"vertices": 4, "edges": [[0.9, 1.2], [1, 2], [2, 3], [3, 0]],
      "generators": {"r": [1, 2, 3, 0]}}, "edges[0][0]: expected an integer, got 0.9"),
    ({"vertices": 4, "edges": SQUARE_EDGES, "generators": {"r": [1.0, 2, 3, 0]}},
     "generators['r'][0]: expected an integer, got 1.0"),
    ({"vertices": 4, "edges": SQUARE_EDGES, "generators": {"r": [1, 2, 3, 0]},
      "loops": [[0, 1, 2, 3, "0"]]}, 'loops[0][4]: expected an integer, got "0"'),
    ({"vertices": 4, "edges": SQUARE_EDGES, "generators": [[1, 2, 3, 0]]},
     "generators: expected an object, got an array"),
    ({"vertices": 4, "edges": [[0, 1, 2], [1, 2], [2, 3], [3, 0]],
      "generators": {"r": [1, 2, 3, 0]}}, "edges[0]: expected 2 entries, got 3"),
    (None, "the file: expected an object, got null"),
    ({"vertices": 4, "generators": {"r": [1, 2, 3, 0]}}, "edges: expected an array, got nothing"),
    ({"vertices": 4, "edges": SQUARE_EDGES, "generators": {"r": [1, 2, 3, 0]}, "loops": 5},
     "loops: expected an array, got 5"),
    ({"vertices": 4, "edges": SQUARE_EDGES, "generators": {"r": [1, 2, 3, 0]}, "loops": [5]},
     "loops[0]: expected an array, got 5"),
    ({"vertices": 4, "edges": SQUARE_EDGES, "generators": {"r": 5}},
     "generators['r']: expected an array, got 5"),
], ids=["non-edge", "disconnected", "no-vertices", "self-loop", "wrong-degree",
        "loop-off-edges", "fractional-vertices", "boolean-vertices", "fractional-edge",
        "fractional-image", "string-loop-vertex", "generators-list", "edge-triple",
        "null-file", "edges-missing", "loops-number", "loop-number", "generator-number"])
def test_bad_action_file_exits_2_with_one_line(tmp_path, capsys, data, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, "derive", "--action", str(path), "--out", str(tmp_path))
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("error: bad action data:")
    assert message in err


@pytest.mark.parametrize("images, flaw", [
    ([0, 0, *range(1, 4999)], "image 0 repeated"),
    ([*range(1, 5000), 5000], "image 0 missing"),
], ids=["repeated", "out-of-range"])
def test_bad_generator_of_a_large_action_names_one_image(tmp_path, capsys, images, flaw):
    path = tmp_path / "path5000.json"
    path.write_text(json.dumps({"vertices": 5000, "edges": [[i, i + 1] for i in range(4999)],
                                "generators": {"e": images}}))
    code, _, err = run(capsys, "derive", "--action", str(path), "--out", str(tmp_path))
    assert code == 2
    assert err.count("\n") == 1 and len(err) < 200
    assert f"generators['e']: not a bijection of 0..4999: {flaw}" in err


@pytest.mark.parametrize("edit, message", [
    ({"gen_elements": {"g[0]": 2, "h": 999}}, "h names element 999, the group has 60"),
    ({"gen_elements": {"g[0]": 2, "h": -1}}, "h names element -1"),
    ({"gen_elements": {"h": 1}}, "generator g[0] has no group element"),
    ({"edge_gens": {"g[0]": [1, 4]}}, "vertices 0 and 1 are named as base vertices of one orbit"),
    ({"edge_gens": {}}, "no edge generator names the orbit of the edge (0, 1)"),
    ({"stab_owners": {"h": 7}}, "vertices 0 and 7 are named as base vertices of one orbit"),
    ({"edge_gens": {"g[0]": [5, 6]}}, "edge generator g[0] names (5, 6), not an edge of the graph"),
    ({"stab_owners": {"h": 20}}, "stabilizer generator h belongs to 20, not a vertex of the graph"),
    ({"generators": ["h", "g[0]", "g[1]"], "edge_gens": {"g[0]": [0, 1], "g[1]": [0, 2]},
      "gen_elements": {"g[0]": 2, "g[1]": 2, "h": 1}},
     "edge generators g[0] and g[1] name one edge orbit"),
    ({"stab_owners": {"x": 0}}, "x is not a generator"),
    ({"stab_owners": {}}, "do not generate its stabilizer"),
    # element 9 has order 3, as |G_0| is, but moves 0
    ({"gen_elements": {"g[0]": 2, "h": 9}}, "the stabilizer generators at 0 do not generate"),
    ({"gen_elements": {"g[0]": 2, "h": 3.7}}, "gen_elements['h']: expected an integer, got 3.7"),
    ({"gen_elements": {"g[0]": True, "h": 1}}, "gen_elements['g[0]']: expected an integer, got true"),
    ({"edge_gens": {"g[0]": [0.9, 1.2]}}, "edge_gens['g[0]'][0]: expected an integer, got 0.9"),
    ({"stab_owners": {"h": 0.0}}, "stab_owners['h']: expected an integer, got 0.0"),
    ({"relators": [[["h", 1.0]] * 3]}, "relators[0][0][1]: expected an integer, got 1.0"),
    ({"stab_owners": []}, "stab_owners: expected an object, got an array"),
    ({"edge_gens": 5}, "edge_gens: expected an object, got 5"),
    ({"gen_elements": None}, "gen_elements: expected an object, got null"),
    ({"generators": None}, "generators: expected an array, got null"),
    ({"relators": None}, "relators: expected an array, got null"),
    ({"generators": "hg"}, 'generators: expected an array, got "hg"'),
    ({"edge_gens": {"g[0]": [0, 1, 2]}}, "edge_gens['g[0]']: expected 2 entries, got 3"),
    ({"relators": [[["h", 1]] * 3, [["h", 1, 2]]]},
     "relators[1][0]: expected 2 entries, got 3"),
    ({"relators": [[["h", 1]] * 3, [["x", 1]]]}, "relators[1][0]: expected a generator and 1 or -1"),
    ({"relators": [5]}, "relators[0]: expected an array, got 5"),
], ids=["element-too-large", "element-negative", "element-missing", "edge-not-rep",
        "rep-unnamed", "owner-not-base", "edge-off-graph", "owner-off-graph",
        "orbit-named-twice", "owner-not-generator", "stabilizer-ungenerated",
        "stabilizer-moves-its-vertex",
        "element-fractional", "element-boolean", "edge-fractional", "owner-fractional",
        "sign-fractional", "owners-list", "edges-number", "elements-null", "generators-null",
        "relators-null", "generators-string", "edge-triple",
        "letter-triple", "letter-unknown", "relator-number"])
def test_bad_presentation_file_exits_2_with_one_line(tmp_path, capsys, edit, message):
    code, _, _ = run(capsys, "derive", "--builtin", "dodecahedron", "--out", str(tmp_path))
    assert code == 0
    path = tmp_path / "dodecahedron.presentation.json"
    data = json.loads(path.read_text())
    assert data["gen_elements"] == {"g[0]": 2, "h": 1} and data["stab_owners"] == {"h": 0}
    data.update(edit)
    data = {key: value for key, value in data.items() if value is not ...}  # ... drops the key
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, "verify", str(path), "--builtin", "dodecahedron")
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("error: bad presentation file:")
    assert message in err


@pytest.mark.parametrize("keys", [("families",), ("renaming",), ("name",),
                                  ("families", "renaming", "name")],
                         ids=["families-missing", "renaming-missing", "name-missing",
                              "all-missing"])
def test_unread_keys_may_be_absent_for_verify(tmp_path, capsys, keys):
    # verify reads no relator families, renaming or name
    code, _, _ = run(capsys, "derive", "--builtin", "dodecahedron", "--out", str(tmp_path))
    assert code == 0
    path = tmp_path / "dodecahedron.presentation.json"
    data = json.loads(path.read_text())
    path.write_text(json.dumps({key: value for key, value in data.items() if key not in keys}))
    code, out, err = run(capsys, "verify", str(path), "--builtin", "dodecahedron")
    assert code == 0 and err == ""
    assert json.loads(out)["reconstruction"]["ok"]


def test_verify_reads_the_presentation_file_before_the_action(tmp_path, capsys, monkeypatch):
    # S8 costs some 0.7 s to build; a bad presentation file is refused first
    def no_action(*args):
        raise AssertionError("action built before the presentation file was read")

    monkeypatch.setattr(graphpres.cli, "_load_action", no_action)
    path = tmp_path / "bad.presentation.json"
    path.write_text(json.dumps({"generators": 5}))
    code, _, err = run(capsys, "verify", str(path), "--builtin", "simplex:8")
    assert code == 2
    assert err == "error: bad presentation file: generators: expected an array, got 5\n"


def test_repeated_generator_name_exits_2_with_one_line(tmp_path, capsys):
    # a name given twice left one generator free, and verify enumerated
    # towards the coset limit; the limit keeps that failure cheap here
    action = {"vertices": 4, "edges": SQUARE_EDGES, "generators": {"r": [1, 2, 3, 0]}}
    path = tmp_path / "square.json"
    path.write_text(json.dumps(action))
    code, _, _ = run(capsys, "derive", "--action", str(path), "--out", str(tmp_path))
    assert code == 0
    pres_path = tmp_path / "square.presentation.json"
    data = json.loads(pres_path.read_text())
    data["generators"].append(data["generators"][0])
    pres_path.write_text(json.dumps(data))
    code, _, err = run(capsys, "verify", str(pres_path), "--action", str(path),
                       "--limit", "5000")
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("error: bad presentation file:")
    assert "generators[1]: repeated generator name 'g[0]'" in err


def test_vertex_count_is_checked_before_the_graph_is_built(monkeypatch):
    def no_graph(*args):
        raise AssertionError("Graph built before the degree check")

    monkeypatch.setattr(graphpres.cli, "Graph", no_graph)
    data = {"vertices": 10 ** 12, "edges": [], "generators": {"a": [0]}}
    with pytest.raises(InputError, match="generator a permutes 1 points, "
                                         "the graph has 1000000000000 vertices"):
        action_from_json(data)


@pytest.mark.parametrize("name, message", [
    ("simplex:1000", "closure exceeded 10000000 stored image entries"),
    ("dihedral:100000", "closure exceeded 10000000 stored image entries"),
    ("simplex:9", "closure exceeded 100000 elements"),
])
def test_builtin_size_is_checked_before_the_graph_is_built(tmp_path, capsys, monkeypatch,
                                                           name, message):
    def no_graph(*args):
        raise AssertionError("Graph built before the size check")

    monkeypatch.setattr(graphpres.builtins, "Graph", no_graph)
    code, _, err = run(capsys, "derive", "--builtin", name, "--out", str(tmp_path))
    assert code == 4
    assert err.count("\n") == 1 and message in err


def test_verify_and_exports_build_only_the_action(tmp_path, capsys, monkeypatch):
    path = tmp_path / "square.json"
    path.write_text(json.dumps({"vertices": 4, "edges": SQUARE_EDGES,
                                "generators": {"r": [1, 2, 3, 0], "m": [0, 3, 2, 1]}}))
    assert run(capsys, "derive", "--action", str(path), "--out", str(tmp_path))[0] == 0

    def no_derivation_input(*args):
        raise AssertionError("derivation input built")

    monkeypatch.setattr(graphpres.derive, "stabilizer_presentation", no_derivation_input)
    monkeypatch.setattr(graphpres.derive, "pick_loops", no_derivation_input)
    code, out, _ = run(capsys, "verify", str(tmp_path / "square.presentation.json"),
                       "--action", str(path))
    assert code == 0 and json.loads(out)["reconstruction"]["ok"]
    code, out, _ = run(capsys, "export-cayley", "--action", str(path), "--gens", "r,m")
    assert code == 0 and out.count("->") == 8 + 4  # r directed, the involution m not
    code, out, _ = run(capsys, "export-graph", "--action", str(path))
    assert code == 0 and out.count("--") == 4


@pytest.mark.parametrize("loop", [[0, 1], [1, 2, 3, 0]], ids=["ends-off", "starts-off"])
def test_open_loop_exits_2_with_one_line(tmp_path, capsys, loop):
    # under the rotation alone, 0 is the only base vertex
    path = tmp_path / "square.json"
    path.write_text(json.dumps({"vertices": 4, "edges": SQUARE_EDGES,
                                "generators": {"r": [1, 2, 3, 0]}, "loops": [loop]}))
    code, _, err = run(capsys, "derive", "--action", str(path), "--out", str(tmp_path))
    assert code == 2
    assert err == f"error: path {tuple(loop)} does not begin and end at base vertices\n"


@pytest.mark.parametrize("argv, message", [
    (["verify", "{tmp}/missing.json", "--builtin", "dodecahedron"], "No such file"),
    (["verify", "{tmp}", "--builtin", "dodecahedron"], "Is a directory"),
    (["derive", "--action", "{tmp}/missing.json"], "No such file"),
    (["derive", "--action", "{tmp}"], "Is a directory"),
    (["derive", "--action", "{tmp}/binary.json"], "is not UTF-8 text"),
    (["derive", "--builtin", "dihedral:5", "--out", "{tmp}/file/out"], "Not a directory"),
    (["export-graph", "--builtin", "dodecahedron", "--out", "{tmp}/missing/x.dot"],
     "No such file"),
    (["export-cayley", "--builtin", "dodecahedron", "--gens", "s1,h",
      "--out", "{tmp}/missing/x.dot"], "No such file"),
], ids=["verify-missing", "verify-directory", "derive-missing", "derive-directory",
        "derive-not-text", "derive-out-uncreatable", "export-graph-out-missing",
        "export-cayley-out-missing"])
def test_unusable_path_exits_2_with_one_line(tmp_path, capsys, argv, message):
    (tmp_path / "file").write_text("")
    (tmp_path / "binary.json").write_bytes(b"\xff\xfe\x00")
    code, _, err = run(capsys, *[arg.format(tmp=tmp_path) for arg in argv])
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert message in err


def test_complete_graph_k6_derives_with_schreier_stabilizers(tmp_path, capsys):
    # S6 on K6: the vertex stabilizer S5 has 120 elements, so a multiplication
    # table would give it some 14000 relators
    path = tmp_path / "k6.json"
    path.write_text(json.dumps({
        "vertices": 6, "edges": [[a, b] for a in range(6) for b in range(a + 1, 6)],
        "generators": {"s": [1, 0, 2, 3, 4, 5], "c": [1, 2, 3, 4, 5, 0]}}))
    code, out, _ = run(capsys, "derive", "--action", str(path), "--verify", "--out", str(tmp_path))
    assert code == 0
    report = json.loads(out)
    assert report["order"] == 720 and report["order_check"]["proof"] == "lagrange"
    assert report["relator_count"] <= 60


def test_relabelled_stored_file_verifies(tmp_path, capsys):
    # K7 under S7 and its stored file relabelled together by x -> x + 3 mod 7:
    # the file names base vertex 3, not the least vertex derive would pick.
    # Conjugating the generators keeps the closure order, so the file's
    # group elements stay as they are
    n = 7
    action = {"vertices": n, "edges": [[a, b] for a in range(n) for b in range(a + 1, n)],
              "generators": {"s": [1, 0] + list(range(2, n)), "c": list(range(1, n)) + [0]}}
    path = tmp_path / "k7.json"
    path.write_text(json.dumps(action))
    assert run(capsys, "derive", "--action", str(path), "--out", str(tmp_path))[0] == 0
    pres_path = tmp_path / "k7.presentation.json"
    code, out, _ = run(capsys, "verify", str(pres_path), "--action", str(path))
    assert code == 0
    original = json.loads(out)

    def move(x):
        return (x + 3) % n
    moved = {"vertices": n, "edges": [[move(a), move(b)] for a, b in action["edges"]],
             "generators": {name: [move(p[(x - 3) % n]) for x in range(n)]
                            for name, p in action["generators"].items()}}
    data = json.loads(pres_path.read_text())
    data["edge_gens"] = {name: [move(a), move(b)] for name, (a, b) in data["edge_gens"].items()}
    data["stab_owners"] = {name: move(v) for name, v in data["stab_owners"].items()}
    path.write_text(json.dumps(moved))
    pres_path.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", str(pres_path), "--action", str(path))
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["order_check"]["base_vertex"] == 3
    for key in ("index", "stabilizer_order"):
        assert report["order_check"][key] == original["order_check"][key]
    for key in ("ok", "cosets", "cosets_defined"):
        assert report["reconstruction"][key] == original["reconstruction"][key]


def test_closed_stdout_exits_141_with_no_error_line(tmp_path, capsys, monkeypatch):
    # `graphpres list-builtins | head -1`: a reader that stopped early is no
    # input error.  The pipe is simulated, because a closed pipe need not
    # give EPIPE everywhere
    sink = open(tmp_path / "stdout", "w")

    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

        def fileno(self):
            return sink.fileno()

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    try:
        assert main(["list-builtins"]) == 141
    finally:
        sink.close()
    assert capsys.readouterr().err == ""

BAD_LIMITS = {
    "derive-zero": ["derive", "--builtin", "dihedral:5", "--limit", "0"],
    "derive-negative": ["derive", "--builtin", "dihedral:5", "--verify", "--limit", "-3"],
    "verify-zero": ["verify", "missing.json", "--builtin", "dihedral:5", "--limit", "0"],
}


@pytest.mark.parametrize("argv", BAD_LIMITS.values(), ids=BAD_LIMITS.keys())
def test_limit_must_be_a_positive_integer(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error: argument --limit:" in capsys.readouterr().err


USAGE_ERRORS = {
    "unknown-flag": (["derive", "--builtin", "dihedral:5", "--no-such-flag"], "graphpres",
                     "unrecognized arguments: --no-such-flag"),
    "missing-source": (["derive", "--out", "out"], "graphpres derive",
                       "one of the arguments --builtin --action is required"),
    "verify-limit-not-a-number": (["verify", "x.json", "--builtin", "dihedral:5", "--limit",
                                   "abc"], "graphpres verify",
                                  "argument --limit: invalid positive_int value: 'abc'"),
    "coxeter-check-has-no-limit": (["coxeter-check", "--limit", "5"], "graphpres",
                                   "unrecognized arguments: --limit 5"),
}


@pytest.mark.parametrize("argv, prog, message", USAGE_ERRORS.values(), ids=USAGE_ERRORS.keys())
def test_usage_error_exits_2_with_one_line(capsys, argv, prog, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err == f"{prog}: error: {message}\n"


PARSED = {
    "derive": ["derive", "--builtin", "dihedral:5"],
    "derive-all-options": ["derive", "--action", "a.json", "--out", "o", "--verify",
                           "--limit", "7"],
    "derive-abbreviated": ["derive", "--verif", "--act", "a.json"],
    "verify": ["verify", "p.json", "--builtin", "dihedral:5", "--limit", "9"],
    "coxeter-check": ["coxeter-check"],
    "export-cayley": ["export-cayley", "--builtin", "dodecahedron", "--gens", "s1,h",
                      "--out", "x.dot"],
    "export-graph": ["export-graph", "--action", "a.json"],
    "list-builtins": ["list-builtins"],
    "after-double-dash": ["derive", "--builtin", "dihedral:5", "--", "extra"],
    **{f"usage-{name}": argv for name, (argv, _, _) in USAGE_ERRORS.items()},
    **{f"limit-{name}": argv for name, argv in BAD_LIMITS.items()},
    "help": ["-h"],
    **{f"help-{name}": [name, "-h"] for name in COMMANDS},
    "no-arguments": [],
    "unknown-command": ["icosahedron", "--builtin", "dihedral:5"],
    "command-after-an-option": ["--no-such-flag", "derive"],
}


def parse_outcome(capsys, parse, argv):
    """(namespace without `command`, exit code, stdout, stderr) of one parse."""
    try:
        args, code = vars(parse(list(argv))), None
    except SystemExit as exc:
        args, code = None, exc.code
    out, err = capsys.readouterr()
    if args is not None:
        args.pop("command", None)
    return args, code, out, err


@pytest.mark.parametrize("argv", PARSED.values(), ids=PARSED.keys())
def test_one_command_parser_agrees_with_the_full_parser(capsys, monkeypatch, argv):
    full = parse_outcome(capsys, lambda a: graphpres.cli.build_parser().parse_args(a), argv)

    def no_full_parser():
        raise AssertionError("full parser built for a command")

    if argv and argv[0] in COMMANDS:
        monkeypatch.setattr(graphpres.cli, "build_parser", no_full_parser)
    one = parse_outcome(capsys, lambda a: graphpres.cli.parse_command(a)[1], argv)
    assert one == full
    assert full[1] in (None, 0, 2) and (full[0] is None) == (full[1] is not None)


def test_import_generates_no_dataclass_code():
    src = str(Path(graphpres.cli.__file__).parents[1])
    probe = ("import sys, graphpres.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True,
                            text=True, timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert (result.returncode, result.stdout, result.stderr) == (0, "[]\n", "")


@pytest.mark.parametrize("argv", [
    ["derive", "--action", "{deep}", "--out", "{tmp}"],
    ["verify", "{deep}", "--builtin", "dihedral:5"],
], ids=["action-file", "presentation-file"])
def test_deeply_nested_json_exits_2_with_one_line(tmp_path, capsys, argv):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, *[arg.format(deep=deep, tmp=tmp_path) for arg in argv])
    assert (code, out, err) == (2, "", f"error: {deep} is nested too deeply to read\n")


def test_stabilizer_presentation_past_its_limit_exits_4(tmp_path, capsys, monkeypatch):
    # K6 under S6: the first step of the chain bound on the S5 at vertex 0
    # defines 22 cosets, and the enumeration of the S5 at least 120; the
    # levels below need at most 6
    path = tmp_path / "k6.json"
    path.write_text(json.dumps({
        "vertices": 6, "edges": [[a, b] for a in range(6) for b in range(a + 1, 6)],
        "generators": {"s": [1, 0, 2, 3, 4, 5], "c": [1, 2, 3, 4, 5, 0]}}))
    monkeypatch.setattr(graphpres.derive, "STABILIZER_COSET_LIMIT", 20)
    code, out, err = run(capsys, "derive", "--action", str(path), "--out", str(tmp_path))
    assert (code, out) == (4, "")
    assert err.count("\n") == 1
    assert err.startswith("error: stabilizer presentation at 0: coset limit 20 exceeded (")


def test_exhausted_memory_exits_4_with_one_line(tmp_path, capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(graphpres.cli, "derive_presentation", exhausted)
    code, out, err = run(capsys, "derive", "--builtin", "dihedral:5", "--out", str(tmp_path))
    assert (code, out, err) == (4, "", "error: derive ran out of memory\n")


def test_system_error_exits_4_with_one_line(tmp_path, capsys, monkeypatch):
    # what an allocation that fails under an address-space limit can raise
    # in place of MemoryError
    def failed_allocation(*args):
        raise SystemError("error return without exception set")

    monkeypatch.setattr(graphpres.cli, "derive_presentation", failed_allocation)
    code, out, err = run(capsys, "derive", "--builtin", "dihedral:5", "--out", str(tmp_path))
    assert (code, out) == (4, "")
    assert err == ("error: derive stopped on SystemError: error return without exception set "
                   "(most likely a failed allocation under a memory limit)\n")


def test_out_of_memory_line_is_written_once_the_failed_run_is_released(tmp_path, monkeypatch):
    # the handler keeps only the line: while it is written, no traceback
    # holds the objects of the run that ran out of memory
    class Held:
        pass

    refs = []

    def exhausted(*args):
        held = Held()
        refs.append(weakref.ref(held))
        raise MemoryError

    written = []  # (text, whether the run's object was alive at the write)

    class Stderr:
        def write(self, text):
            written.append((text, refs[0]() is not None))

        def flush(self):
            pass

    monkeypatch.setattr(graphpres.cli, "derive_presentation", exhausted)
    monkeypatch.setattr(sys, "stderr", Stderr())
    code = main(["derive", "--builtin", "dihedral:5", "--out", str(tmp_path)])
    assert (code, "".join(text for text, _ in written)) == (4, "error: derive ran out of memory\n")
    assert not any(alive for _, alive in written)


def test_order_check_limit_exits_4(tmp_path, capsys):
    # the report goes to stdout and its detail, as one line, to stderr; the
    # index-6 reconstruction of simplex:6 stops at 5 cosets, which leaves the
    # full enumeration, and the square under D4 with no loops presents an
    # infinite group
    path = tmp_path / "square.json"
    path.write_text(json.dumps({"vertices": 4, "edges": SQUARE_EDGES, "loops": [],
                                "generators": {"r": [1, 2, 3, 0], "m": [0, 3, 2, 1]}}))
    for source, limit in ((["--builtin", "simplex:6"], 5), (["--action", str(path)], 2000)):
        code, out, err = run(capsys, "derive", *source, "--verify", "--limit", str(limit),
                             "--out", str(tmp_path))
        assert code == 4
        check = json.loads(out)["order_check"]
        assert check["enumerated"] is None
        assert err == f"error: {check['detail']}\n"
        assert check["detail"] == f"enumeration exceeded {limit} cosets"


def test_reconstruction_limit_keeps_the_report(tmp_path, capsys, monkeypatch):
    # a reconstruction stopped at the limit leaves the order check to the
    # full enumeration; the report still goes to stdout, without a
    # reconstruction, and the stop to stderr as one line
    from graphpres.coset import EnumerationLimitError

    def stopped(*args, **kwargs):
        raise EnumerationLimitError(7, 8, 8)

    code, _, _ = run(capsys, "derive", "--builtin", "dihedral:5", "--out", str(tmp_path))
    assert code == 0
    monkeypatch.setattr(graphpres.cli, "build_kozsul_model", stopped)
    stored = str(tmp_path / "dihedral_5.presentation.json")
    for argv in (["derive", "--builtin", "dihedral:5", "--verify", "--out", str(tmp_path)],
                 ["verify", stored, "--builtin", "dihedral:5"]):
        code, out, err = run(capsys, *argv)
        assert code == 4
        assert err == "error: coset limit 7 exceeded (8 defined, 8 live)\n"
        report = json.loads(out)
        check = report["order_check"]
        assert (check["ok"], check["proof"], check["enumerated"]) == (True, "enumeration", 10)
        assert "reconstruction" not in report and "order" not in report


def test_lagrange_proof_verifies_under_a_small_limit(tmp_path, capsys):
    # the proof needs the reconstruction's 5 cosets and Q_v's chain 4, 3, 2, not 120
    code, out, _ = run(capsys, "derive", "--builtin", "simplex:5", "--verify",
                       "--limit", "50", "--out", str(tmp_path))
    assert code == 0
    report = json.loads(out)
    assert report["order"] == 120
    assert report["order_check"]["proof"] == "lagrange"
    assert (report["order_check"]["index"], report["order_check"]["stabilizer_order"]) == (5, 24)


@pytest.mark.parametrize("element, detail", [
    (0, "generators carry 0 to 1 of the 20 vertices of its orbit"),
    (4, "relator 1 does not evaluate to 1"),
], ids=["identity-does-not-generate", "unsound-relator"])
def test_order_check_names_its_witness(tmp_path, capsys, element, detail):
    code, _, _ = run(capsys, "derive", "--builtin", "dodecahedron", "--out", str(tmp_path))
    assert code == 0
    path = tmp_path / "dodecahedron.presentation.json"
    data = json.loads(path.read_text())
    data["gen_elements"]["g[0]"] = element
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "verify", str(path), "--builtin", "dodecahedron")
    assert code == 3
    check = json.loads(out)["order_check"]
    assert not check["ok"] and check["detail"] == detail


def test_derive_verify_runs_the_file_check_of_verify(tmp_path, capsys, monkeypatch):
    # a derivation that names a non-edge is refused by derive --verify with
    # the line that verify prints for the file it wrote
    from graphpres.graphs import OrientedEdge
    derive = graphpres.cli.derive_presentation

    def corrupted(inp):
        derived = derive(inp)
        return derived._replace(edge_gens={**derived.edge_gens, "g[0]": OrientedEdge(0, 2)})

    monkeypatch.setattr(graphpres.cli, "derive_presentation", corrupted)
    code, out, err = run(capsys, "derive", "--builtin", "dihedral:5", "--verify",
                         "--out", str(tmp_path))
    assert (code, out) == (2, "")
    assert err == ("error: bad presentation file: edge generator g[0] names (0, 2), "
                   "not an edge of the graph\n")
    stored = str(tmp_path / "dihedral_5.presentation.json")
    assert run(capsys, "verify", stored, "--builtin", "dihedral:5") == (2, "", err)


def recording_enumerations(monkeypatch):
    """Record every coset enumeration of the verifier: (subgroup words, the
    limit error it raised or None)."""
    import graphpres.verify
    from graphpres.coset import EnumerationLimitError, todd_coxeter
    calls = []

    def spy(presentation, subgroup_words=(), limit=1_000_000):
        subgroup_words = [list(w) for w in subgroup_words]
        try:
            table = todd_coxeter(presentation, subgroup_words, limit=limit)
        except EnumerationLimitError as exc:
            calls.append((subgroup_words, exc))
            raise
        calls.append((subgroup_words, None))
        return table

    for module in (graphpres.verify, graphpres.derive):
        monkeypatch.setattr(module, "todd_coxeter", spy)
    return calls


def test_fewer_relators_than_generators_exits_3_on_the_abelianization(tmp_path, capsys,
                                                                       monkeypatch):
    # the triangle under C3 with the backtracking loop 0-1-0 presents <g[0] | >
    import time
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps({"vertices": 3, "edges": [[0, 1], [1, 2], [0, 2]],
                                "generators": {"r": [1, 2, 0]}, "loops": [[0, 1, 0]]}))
    calls = recording_enumerations(monkeypatch)
    start = time.perf_counter()
    code, out, _ = run(capsys, "derive", "--action", str(path), "--verify", "--out", str(tmp_path))
    assert time.perf_counter() - start < 1.0
    assert code == 3
    report = json.loads(out)
    assert report["relator_count"] == 0 and report["generator_count"] == 1
    check = report["order_check"]
    assert (check["ok"], check["proof"], check["enumerated"]) == (False, "abelianization", None)
    assert check["detail"] == "the abelianization Z is infinite"
    assert "reconstruction" not in report
    assert all(exc is None for _, exc in calls)


def test_abelianization_is_asked_before_the_full_enumeration(tmp_path, capsys, monkeypatch):
    # m^2, g^2 and m^2 again in place of (g^-1 m)^5: sound, generating, and
    # the free product Z/2 * Z/2, so a reconstruction would run to the limit;
    # the abelianization (order 4, not dividing 10) decides before any
    # enumeration, at the default limit
    code, _, _ = run(capsys, "derive", "--builtin", "dihedral:5", "--out", str(tmp_path))
    assert code == 0
    path = tmp_path / "dihedral_5.presentation.json"
    data = json.loads(path.read_text())
    assert data["relators"][0] == [["m", 1], ["m", 1]] and len(data["relators"]) == 3
    data["relators"][2] = data["relators"][0]
    path.write_text(json.dumps(data))
    calls = recording_enumerations(monkeypatch)
    code, out, _ = run(capsys, "verify", str(path), "--builtin", "dihedral:5")
    assert code == 3
    check = json.loads(out)["order_check"]
    assert check["proof"] == "abelianization"
    assert check["detail"] == ("the abelianization Z/2 x Z/2 has order 4, "
                               "which does not divide 10")
    assert calls == []


def test_unsound_relator_is_refused_before_the_reconstruction(tmp_path, capsys, monkeypatch):
    # (h g[0])^7 in place of the loop relator presents the infinite (2,3,7)
    # triangle group, so a reconstruction would run to the limit; the
    # relator is not 1 in A5, and that is found before any enumeration
    code, _, _ = run(capsys, "derive", "--builtin", "dodecahedron", "--out", str(tmp_path))
    assert code == 0
    path = tmp_path / "dodecahedron.presentation.json"
    data = json.loads(path.read_text())
    assert data["families"]["loop"] == 1 and len(data["relators"]) == 3
    data["relators"][2] = [["h", 1], ["g[0]", 1]] * 7
    path.write_text(json.dumps(data))
    calls = recording_enumerations(monkeypatch)
    code, out, _ = run(capsys, "verify", str(path), "--builtin", "dodecahedron")
    assert code == 3
    check = json.loads(out)["order_check"]
    assert (check["ok"], check["proof"]) == (False, None)
    assert check["detail"] == "relator 2 does not evaluate to 1"
    assert calls == []


# exponent rows of nine relators over the seven edge generators of the
# 8-vertex path; the abelianization they present is Z/3
PATH8_EXPONENTS = [[-1, 4, -1, -3, 3, 0, 1], [4, 3, 4, 0, 1, 4, 4], [-2, 1, 1, 1, 0, 3, -2],
                   [0, -1, 3, -1, 3, 4, 0], [3, -3, 4, -2, -3, 1, -2], [0, 3, -3, 0, 0, -3, 3],
                   [1, 2, 3, 0, -1, -3, 0], [0, -2, -3, -3, 1, 1, 2], [2, 4, 4, 4, 4, 4, 1]]


def stored_path_presentation(tmp_path, capsys, n):
    """The action file of the trivial group on an n-vertex path, and the
    data of the presentation `derive` stores for it."""
    action = tmp_path / f"path{n}.json"
    action.write_text(json.dumps({"vertices": n, "edges": [[i, i + 1] for i in range(n - 1)],
                                  "generators": {"e": list(range(n))}}))
    code, _, _ = run(capsys, "derive", "--action", str(action), "--out", str(tmp_path))
    assert code == 0
    return action, json.loads((tmp_path / f"path{n}.presentation.json").read_text())


def test_abelianization_with_large_intermediate_entries_exits_3(tmp_path, capsys):
    # the previous Smith normal form ran for minutes on these relators; the
    # reconstruction stops at the limit and the abelianization decides
    action, data = stored_path_presentation(tmp_path, capsys, 8)
    gens = data["generators"]
    data["relators"] = [[[gens[i], 1 if e > 0 else -1] for i, e in enumerate(row)
                         for _ in range(abs(e))] for row in PATH8_EXPONENTS]
    path = tmp_path / "path8.presentation.json"
    path.write_text(json.dumps(data))
    src = str(Path(graphpres.cli.__file__).parents[1])
    result = subprocess.run(
        [sys.executable, "-m", "graphpres.cli", "verify", str(path), "--action", str(action),
         "--limit", "1000"], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src})
    assert result.returncode == 3
    check = json.loads(result.stdout)["order_check"]
    assert check["proof"] == "abelianization"
    assert check["detail"] == "the abelianization Z/3 has order 3, which does not divide 1"


def test_abelianization_is_taken_of_the_reduced_presentation(tmp_path, capsys, monkeypatch):
    # with a tree relator dropped, the reduction substitutes away all but one
    # of the 299 edge generators, so the Smith normal form sees one
    # generator instead of a 298 x 299 matrix
    import graphpres.verify
    action, data = stored_path_presentation(tmp_path, capsys, 300)
    data["relators"].pop()
    path = tmp_path / "path300.presentation.json"
    path.write_text(json.dumps(data))
    seen = []
    abelianization_smith = graphpres.verify.abelianization_smith

    def spy(presentation):
        seen.append(presentation)
        return abelianization_smith(presentation)

    monkeypatch.setattr(graphpres.verify, "abelianization_smith", spy)
    code, out, _ = run(capsys, "verify", str(path), "--action", str(action))
    assert code == 3
    check = json.loads(out)["order_check"]
    assert (check["proof"], check["detail"]) == ("abelianization",
                                                 "the abelianization Z is infinite")
    assert [len(presentation.generators) for presentation in seen] == [1]
