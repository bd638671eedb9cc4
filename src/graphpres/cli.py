"""Command-line front end.

Subcommands: derive, verify, coxeter-check, export-cayley, export-graph,
list-builtins.  Exit codes: 0 success, 2 input error, 3 verification
failure, 4 resource limit, 141 (128 + SIGPIPE) a closed stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import builtins as builtin_actions
from .coset import COSET_LIMIT, EnumerationLimitError
from .coxeter import coxeter_implication_check
from .derive import (DerivationInput, DerivationInputError, auto_derivation_input,
                     derive_presentation)
from .dot import export_cayley_dot, export_graph_dot
from .graphs import ActionedGraph, Graph, degree_problem, validate_action
from .perms import ClosureLimitError, perm
from .polyhedra import truncated_dodecahedron
from .presentation import read_json
from .verify import (build_kozsul_model, check_covering_isomorphism, check_presentation_file,
                     derived_from_json, derived_to_json, presentation_order_check)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_VERIFY = 3
EXIT_LIMIT = 4
EXIT_PIPE = 141


class InputError(ValueError):
    pass


ACTION_FILE = {"vertices": int, "edges": [(int, int)], "generators": {str: [int]},
               "loops?": [[int]]}


def _named(path: str, build, *args):
    """build(*args); its ValueError names the JSON path the arguments were read at."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def action_graph_from_json(data: dict) -> tuple[ActionedGraph, list | None]:
    """An action file's action and given loops (or None); every check on the
    file's data happens here, before any group is built."""
    try:
        read_json(data, ACTION_FILE)
        gens = {name: _named(f"generators[{name!r}]", perm, images)
                for name, images in sorted(data["generators"].items())}
        # the Graph allocates per vertex: the generators bound its size first
        problem = degree_problem(data["vertices"], gens)
        if problem is None:
            graph = _named("edges", Graph, data["vertices"], data["edges"])
            loops = [tuple(loop) for loop in data["loops"]] if "loops" in data else None
            problem = validate_action(graph, gens, loops or ())
        if problem is not None:
            raise ValueError(problem)
    except ValueError as exc:
        raise InputError(f"bad action data: {exc}") from None
    return ActionedGraph.from_generators(graph, gens), loops


def action_from_json(data: dict, name: str = "action") -> DerivationInput:
    """The derivation input for an action file."""
    return auto_derivation_input(*action_graph_from_json(data), name)


def _read_json_file(path: Path):
    """A file's JSON data; text that is not JSON, not UTF-8, or nested past
    the parser's recursion limit is an input error that names the file."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {path} at position {exc.pos}: {exc.msg}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text (byte {exc.start})") from None
    except RecursionError:
        raise InputError(f"{path} is nested too deeply to read") from None


def _load_input(args) -> DerivationInput:
    if args.builtin:
        try:
            return builtin_actions.load_builtin(args.builtin)
        except KeyError as exc:
            raise InputError(exc.args[0]) from None
    return action_from_json(_read_json_file(Path(args.action)), Path(args.action).stem)


def _load_action(args) -> ActionedGraph:
    """The action named by --builtin or --action."""
    if args.builtin:
        return _load_input(args).ag
    return action_graph_from_json(_read_json_file(Path(args.action)))[0]


def _verification_report(derived, ag, limit: int) -> tuple[dict, int]:
    """The verification report and its exit code, for `derive --verify` and
    `verify` alike: a presentation that does not fit the action is an input
    error.  The order check asks for the reconstruction (its Lagrange bound's
    index) only after its refutations; a reconstruction stopped at the limit is
    reported (exit 4), without it, once the full enumeration proved the order."""
    if isinstance(checked := check_presentation_file(derived, ag), str):
        raise InputError(f"bad presentation file: {checked}")
    model, stopped = None, None

    def reconstruct(reduction):
        nonlocal model, stopped
        try:
            model = build_kozsul_model(checked, reduction, limit)
        except EnumerationLimitError as exc:
            stopped = exc
        return model

    order = presentation_order_check(checked, reconstruct, limit)
    check = order._asdict()
    if order.proof != "lagrange":  # only a Lagrange proof names these
        for key in ("base_vertex", "index", "stabilizer_order", "stabilizer_chain"):
            del check[key]
    report = {"order_check": check}
    if not order.ok:
        # only the full enumeration stops without a verdict: the witnesses
        # and the abelianization decided before it ran
        if order.proof == "enumeration" and order.enumerated is None:
            print(f"error: {order.detail}", file=sys.stderr)
            return report, EXIT_LIMIT
        return report, EXIT_VERIFY
    if model is None:
        print(f"error: {stopped}", file=sys.stderr)
        return report, EXIT_LIMIT
    cover = check_covering_isomorphism(model, ag)
    tables = {id(table): table for table in model.tables.values()}.values()
    report["reconstruction"] = {
        "ok": cover.ok, "vertices": cover.model_vertices, "edges": cover.model_edges,
        "graph_vertices": cover.graph_vertices, "graph_edges": cover.graph_edges,
        "defect": cover.defect, "cosets": sum(table.n for table in tables),
        "cosets_defined": sum(table.stats.defined for table in tables),
    }
    if not cover.ok:
        report["reconstruction"]["witness"] = cover.witness
    return report, EXIT_OK if cover.ok else EXIT_VERIFY


def cmd_derive(args) -> int:
    inp = _load_input(args)
    derived = derive_presentation(inp)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = (inp.name or "action").replace(":", "_")
    (out_dir / f"{stem}.presentation.json").write_text(
        json.dumps(derived_to_json(derived), indent=2, sort_keys=True) + "\n")
    (out_dir / f"{stem}.relators.txt").write_text(derived.presentation.pretty() + "\n")
    report = {"name": inp.name, "generator_count": len(derived.presentation.generators),
              "relator_count": len(derived.presentation.relators),
              "families": derived.families, "loops": inp.loop_source,
              "files": [str(out_dir / f"{stem}.presentation.json"),
                        str(out_dir / f"{stem}.relators.txt")]}
    code = EXIT_OK
    if args.verify:
        vreport, code = _verification_report(derived, inp.ag, args.limit)
        report.update(vreport)
        if code == EXIT_OK:
            report["order"] = vreport["order_check"]["enumerated"]
    print(json.dumps(report, indent=2, sort_keys=True))
    return code


def cmd_verify(args) -> int:
    data = _read_json_file(Path(args.presentation))
    try:
        derived = derived_from_json(data)
    except ValueError as exc:
        raise InputError(f"bad presentation file: {exc}") from None
    report, code = _verification_report(derived, _load_action(args), args.limit)
    report["presentation"] = args.presentation
    print(json.dumps(report, indent=2, sort_keys=True))
    return code


def cmd_coxeter_check(args) -> int:
    rep = coxeter_implication_check()
    report = {**rep._asdict(), "identities": dict(rep.identities)}
    print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK if rep.ok else EXIT_VERIFY


def _resolve_generators(ag: ActionedGraph, names: str) -> dict[str, int]:
    gens: dict[str, int] = {}
    for raw in names.split(","):
        name = raw.strip()
        if not name:
            continue
        base, inverse = (name[:-3], True) if name.endswith("^-1") else (name, False)
        if base not in ag.generator_labels:
            raise InputError(f"unknown generator {base!r}; choices: "
                             + ", ".join(sorted(ag.generator_labels)))
        idx = ag.generator_labels[base]
        gens[name] = ag.group.inverse(idx) if inverse else idx
    if not gens:
        raise InputError("empty generating set")
    return gens


def cmd_export_cayley(args) -> int:
    ag = _load_action(args)
    gens = _resolve_generators(ag, args.gens)
    if len(ag.group.subgroup_closure(gens.values())) != ag.group.order:
        print("warning: the set does not generate; exporting the subgroup diagram",
              file=sys.stderr)
    _write_or_stdout(args.out, export_cayley_dot(ag.group, gens))
    return EXIT_OK


def cmd_export_graph(args) -> int:
    if args.builtin == "truncated-dodecahedron":
        graph = truncated_dodecahedron().graph
    else:
        graph = _load_action(args).graph
    _write_or_stdout(args.out, export_graph_dot(graph))
    return EXIT_OK


def cmd_list_builtins(_args) -> int:
    for name in builtin_actions.BUILTIN_NAMES:
        print(name)
    return EXIT_OK


def _write_or_stdout(out: str, text: str) -> None:
    if out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def positive_int(text: str) -> int:
    """An argparse type: a bad value exits 2 before any work is done."""
    value = int(text)  # argparse reports a ValueError as an invalid value
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


def _add_source(sub, required=True):
    group = sub.add_mutually_exclusive_group(required=required)
    group.add_argument("--builtin", help="builtin action name (see list-builtins)")
    group.add_argument("--action", help="path to an action JSON file")


def _derive_arguments(p) -> None:
    _add_source(p)
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--verify", action="store_true",
                   help="enumerate and reconstruct the graph afterwards")
    p.add_argument("--limit", type=positive_int, default=COSET_LIMIT,
                   help="coset limit of each enumeration --verify runs")


def _verify_arguments(p) -> None:
    p.add_argument("presentation", help="presentation JSON file")
    _add_source(p)
    p.add_argument("--limit", type=positive_int, default=COSET_LIMIT,
                   help="coset limit of each enumeration")


def _export_cayley_arguments(p) -> None:
    _add_source(p)
    p.add_argument("--gens", required=True,
                   help="comma-separated generator names, ^-1 marks inverses")
    p.add_argument("--out", default="-", help="output file, - for stdout")


def _export_graph_arguments(p) -> None:
    _add_source(p)
    p.add_argument("--out", default="-", help="output file, - for stdout")


def _no_arguments(p) -> None:
    pass


# command -> (help, argument builder, handler), in the order help lists them
COMMANDS = {
    "derive": ("derive a presentation from an action", _derive_arguments, cmd_derive),
    "verify": ("verify a stored presentation against an action", _verify_arguments,
               cmd_verify),
    "coxeter-check": ("run the double-cover implication checks", _no_arguments,
                      cmd_coxeter_check),
    "export-cayley": ("write a Cayley diagram as DOT", _export_cayley_arguments,
                      cmd_export_cayley),
    "export-graph": ("write the action's graph as DOT", _export_graph_arguments,
                     cmd_export_graph),
    "list-builtins": ("list builtin action names", _no_arguments, cmd_list_builtins),
}


def _usage_error(prog: str, message: str):
    """A usage error is one `<prog>: error: ...` line and exit 2, like every
    other input error."""
    sys.stderr.write(f"{prog}: error: {message}\n")
    sys.exit(EXIT_INPUT)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        _usage_error(self.prog, message)


def build_parser() -> argparse.ArgumentParser:
    """The full parser, with a subparser `graphpres <cmd>` for each command."""
    parser = _Parser(prog="graphpres", description="presentations from graph actions")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments, _) in COMMANDS.items():
        add_arguments(subs.add_parser(name, help=help_text))
    return parser


def parse_command(argv: list[str]) -> tuple[str, argparse.Namespace]:
    """The command that argv names and its arguments.

    When argv[0] is a command, only that command's parser is built: the
    full parser hands a subparser every argument after the command and
    reports what it leaves over as its own `graphpres: error:
    unrecognized arguments`, which is done here the same way.  Any other
    argv (none, -h, an unknown command) goes to the full parser.
    """
    if argv and argv[0] in COMMANDS:
        _, add_arguments, _ = COMMANDS[argv[0]]
        parser = _Parser(prog=f"graphpres {argv[0]}")
        add_arguments(parser)
        args, extras = parser.parse_known_args(argv[1:])
        if extras:
            _usage_error("graphpres", f"unrecognized arguments: {' '.join(extras)}")
        return argv[0], args
    args = build_parser().parse_args(argv)
    return args.command, args


def main(argv=None) -> int:
    command, args = parse_command(sys.argv[1:] if argv is None else list(argv))
    _, _, run = COMMANDS[command]
    # handlers keep the line; it is written once the traceback lets the failed run go
    try:
        code = run(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # no error: stdout goes to devnull, so the flush at exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except (InputError, DerivationInputError, OSError) as exc:
        code, line = EXIT_INPUT, str(exc)
    except (EnumerationLimitError, ClosureLimitError) as exc:
        code, line = EXIT_LIMIT, str(exc)
    except MemoryError:
        code, line = EXIT_LIMIT, f"{command} ran out of memory"
    except SystemError as exc:
        # under an address-space limit CPython has raised it for an allocation
        # that failed without setting MemoryError
        code, line = EXIT_LIMIT, (f"{command} stopped on SystemError: {exc} "
                                  "(most likely a failed allocation under a memory limit)")
    print(f"error: {line}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
