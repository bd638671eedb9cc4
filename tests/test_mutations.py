"""Seeded mutations of action and presentation files, run through the CLI.

Every action of `test_pinned.ACTIONS`, written with the loops it derives
with, and the presentation file `derive` writes for it, is mutated
`MUTATIONS` times: a key is deleted, a value set to a string, a float, a
bool or null, a list truncated or extended, a number put out of range, a
name duplicated, or a value replaced by arrays nested `NESTING` deep.  Each
mutated file runs under `--limit 2000` (`derive --verify` for an action,
`verify` for a presentation) and must exit 0, 2, 3 or 4 without a
traceback, print exactly one stderr line for codes 2 and 4 and none
otherwise; a changed type must exit 2 with a message that names its JSON
path, and deep nesting must exit 2 with a message that says so.
`pytest --seed N` draws other mutations.
"""

import copy
import json
import random

import pytest

from graphpres.cli import action_from_json, main
from test_pinned import ACTIONS

MUTATIONS = 8  # per file and seed
LIMIT = "2000"
NESTING = 100_000  # past any recursion limit of the JSON parser
NESTED = "<nested>"  # stands for the nested arrays until the file is written


def action_file(name):
    """The action file of `ACTIONS[name]` with the loops it derives with:
    its edges sorted, its generators by name."""
    inp = action_from_json(ACTIONS[name], name)
    ag = inp.ag
    return {
        "vertices": ag.graph.vertex_count,
        "edges": [list(e) for e in sorted(ag.graph.edges)],
        "generators": {gen: list(ag.action[idx])
                       for gen, idx in sorted(ag.generator_labels.items())},
        "loops": [list(loop) for loop in inp.loops],
    }


def dump(data):
    """JSON text of `data`, with the nested arrays where `NESTED` stands."""
    return json.dumps(data).replace(json.dumps(NESTED), "[" * NESTING + "]" * NESTING)


def nodes(value, path=""):
    """(path, container, key) of every value below the top level, with the
    path written as the CLI writes it: `edges[3]`, `gen_elements['h']`."""
    for key, item in (value.items() if isinstance(value, dict) else enumerate(value)):
        if isinstance(value, list):
            where = f"{path}[{key}]"
        else:
            where = f"{path}[{key!r}]" if path else key
        yield where, value, key
        if isinstance(item, (dict, list)):
            yield from nodes(item, where)


def mutate(data, rng):
    """A mutated copy of `data`, the kind of mutation and the path it changed."""
    data = copy.deepcopy(data)
    found = list(nodes(data))
    candidates = {
        "delete": [n for n in found if isinstance(n[1], dict)],
        "type": found,
        "nest": found,
        "length": [n for n in found if isinstance(n[1][n[2]], list) and n[1][n[2]]],
        "range": [n for n in found if type(n[1][n[2]]) is int],
        # a name list, or a name map whose later key, written twice, wins
        "duplicate": [n for n in found if isinstance(n[1][n[2]], (list, dict))
                      and len(n[1][n[2]]) >= 2
                      and all(isinstance(name, str) for name in n[1][n[2]])],
    }
    kind = rng.choice(sorted(k for k, v in candidates.items() if v))
    where, container, key = rng.choice(candidates[kind])
    value = container[key]
    if kind == "delete":
        del container[key]
    elif kind == "nest":
        container[key] = NESTED
    elif kind == "type":
        container[key] = rng.choice([new for new in ("x", 0.5, True, None)
                                     if type(new) is not type(value)])
    elif kind == "length" and rng.random() < 0.5:
        del value[rng.randrange(len(value)):]
    elif kind == "length":
        value.append(copy.deepcopy(rng.choice(value)))
    elif kind == "range":
        container[key] = rng.choice((-1, -2, 10 ** 6))
    elif isinstance(value, list):
        first, second = rng.sample(range(len(value)), 2)
        value[second] = value[first]
    else:
        first, second = rng.sample(sorted(value), 2)
        value[first] = value.pop(second)
    return data, kind, where


def run_cli(capsys, label, *argv):
    try:
        code = main(list(argv))
    except Exception as exc:  # what a user would see as a traceback
        pytest.fail(f"{label}: {type(exc).__name__}: {exc}")
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("file_kind", ["action", "presentation"])
@pytest.mark.parametrize("name", list(ACTIONS))
def test_mutated_files_exit_with_one_line(tmp_path, capsys, request, name, file_kind):
    seed = request.config.getoption("--seed")
    rng = random.Random(f"{seed}:{name}:{file_kind}")
    action = tmp_path / f"{name}.json"
    action.write_text(json.dumps(action_file(name)))
    code, _, _ = run_cli(capsys, name, "derive", "--action", str(action), "--out", str(tmp_path))
    assert code == 0
    original = tmp_path / f"{name}.presentation.json"
    data = json.loads((action if file_kind == "action" else original).read_text())
    mutated = tmp_path / "mutated.json"
    for _ in range(MUTATIONS):
        changed, kind, where = mutate(data, rng)
        label = f"{name} {file_kind}, {kind} at {where} (seed {seed})"
        mutated.write_text(dump(changed))
        if file_kind == "action":
            argv = ["derive", "--action", str(mutated), "--verify", "--limit", LIMIT,
                    "--out", str(tmp_path / "out")]
        else:
            argv = ["verify", str(mutated), "--action", str(action), "--limit", LIMIT]
        code, _, err = run_cli(capsys, label, *argv)
        assert code in (0, 2, 3, 4), label
        assert err.count("\n") == (code in (2, 4)) and "Traceback" not in err, (label, err)
        if kind == "type":
            assert code == 2 and f": {where}: expected " in err, (label, err)
        if kind == "nest":
            assert code == 2 and err.endswith(" is nested too deeply to read\n"), (label, err)
