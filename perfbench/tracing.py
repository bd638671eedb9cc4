"""Spans around graphpres's public functions, taken from outside the program.

A span wraps a function at the name its caller looks it up by: callers bind
names with `from .x import f`, so `verify.todd_coxeter` and
`derive.todd_coxeter` are wrapped separately from `coset.todd_coxeter`.
Methods are wrapped on their class.  Spans are kept in memory as
(id, parent id, action, name, label, start, end, info) and written out when
the run ends; nothing is printed while the program runs.

A span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path

# (span name, module, attribute path) -- the module is the one whose global
# (or class attribute) the calling code resolves.
WRAPPED = (
    ("cli.main", "graphpres.cli", "main"),
    ("builtins.load", "graphpres.builtins", "load_builtin"),
    ("perms.closure", "graphpres.graphs", "generate_closure"),
    ("perms.table", "graphpres.perms", "FiniteGroupTable.__init__"),
    ("scaffold.build", "graphpres.builtins", "build_regular_scaffolding"),
    ("scaffold.build", "graphpres.derive", "build_regular_scaffolding"),
    ("graphs.orbit_scan", "graphpres.scaffold", "find_inversion"),
    ("graphs.orbit_scan", "graphpres.derive", "find_inversion"),
    ("graphs.orbit_scan", "graphpres.scaffold", "orbit_of_vertex"),
    ("graphs.orbit_scan", "graphpres.graphs", "ActionedGraph.edge_stabilizer"),
    ("derive.auto_input", "graphpres.cli", "auto_derivation_input"),
    ("derive.derive", "graphpres.cli", "derive_presentation"),
    ("derive.validate", "graphpres.derive", "validate_input"),
    ("coset.enumerate", "graphpres.derive", "todd_coxeter"),
    ("coset.enumerate", "graphpres.verify", "todd_coxeter"),
    ("coset.enumerate", "graphpres.coxeter", "todd_coxeter"),
    ("verify.order_check", "graphpres.cli", "presentation_order_check"),
    ("verify.kozsul", "graphpres.cli", "build_kozsul_model"),
    ("verify.covering", "graphpres.cli", "check_covering_isomorphism"),
    ("coxeter.implication", "graphpres.cli", "coxeter_implication_check"),
    ("coxeter.face_boundary", "graphpres.coxeter", "face_boundary_check"),
)

# A coset enumeration is labelled by the span that called it.
COSET_ROLE = {
    "derive.validate": "stabilizer_check",
    "verify.order_check": "order_check",
    "verify.kozsul": "reconstruct",
    "coxeter.implication": "proof",
    "coxeter.face_boundary": "proof",
}

# per-layer metric -> span name whose summed self time it is
SELF_TIMES = {
    "perms.table_s": "perms.table",
    "perms.closure_self_s": "perms.closure",
    "verify.soundness_s": "verify.order_check",
    "verify.kozsul_self_s": "verify.kozsul",
    "verify.covering_s": "verify.covering",
    "derive.auto_input_self_s": "derive.auto_input",
    "derive.validate_self_s": "derive.validate",
    "derive.derive_self_s": "derive.derive",
    "scaffold.build_self_s": "scaffold.build",
    "graphs.orbit_scan_s": "graphs.orbit_scan",
    "builtins.load_self_s": "builtins.load",
    "coxeter.implication_self_s": "coxeter.implication",
    "coxeter.face_boundary_s": "coxeter.face_boundary",
    "cli.self_s": "cli.main",
}
COSET_TIMES = {f"coset.{role}_s": role
               for role in ("order_check", "stabilizer_check", "reconstruct", "proof")}
FAMILIES = ("stabilizer", "edge", "edge_loop", "loop", "tree")

# name -> unit of every per-layer metric, in report order
LAYER_METRICS = {
    "perms.table_s": "s",
    "perms.closure_self_s": "s",
    "perms.elements": "count",
    "coset.order_check_s": "s",
    "coset.stabilizer_check_s": "s",
    "coset.reconstruct_s": "s",
    "coset.proof_s": "s",
    "coset.calls": "count",
    "coset.index_total": "count",
    "verify.soundness_s": "s",
    "verify.kozsul_self_s": "s",
    "verify.covering_s": "s",
    "derive.auto_input_self_s": "s",
    "derive.validate_self_s": "s",
    "derive.derive_self_s": "s",
    "derive.relators.stabilizer": "count",
    "derive.relators.edge": "count",
    "derive.relators.edge_loop": "count",
    "derive.relators.loop": "count",
    "derive.relators.tree": "count",
    "scaffold.build_self_s": "s",
    "graphs.orbit_scans": "count",
    "graphs.orbit_scan_s": "s",
    "builtins.load_self_s": "s",
    "coxeter.implication_self_s": "s",
    "coxeter.face_boundary_s": "s",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
}


def _info(name: str, args: tuple, result) -> dict | None:
    """The counts a span records about its call."""
    if name == "perms.table":
        return {"elements": len(args[0].elements)}
    if name == "coset.enumerate":
        return {"index": result.n}
    if name == "derive.derive":
        return {"families": dict(result.families)}
    return None


class Tracer:
    """Collects spans in memory; `install` wraps a freshly imported package."""

    def __init__(self):
        self.spans: list = []  # records; tuples once finished
        self._stack: list[list] = []
        self.action = ""

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            label = COSET_ROLE.get(parent[3], "other") if (
                name == "coset.enumerate" and parent) else ""
            rec = [len(spans), parent[0] if parent else None, self.action, name, label,
                   time.perf_counter(), None, None]
            spans.append(rec)
            stack.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[6] = time.perf_counter()
                stack.pop()
            rec[7] = _info(name, args, result)
            spans[rec[0]] = tuple(rec)  # the collector stops tracking finished spans
            return result

        return wrapper

    def install(self, modules: dict) -> None:
        for name, module_name, attr in WRAPPED:
            owner = modules[module_name]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            setattr(owner, leaf, self._wrap(name, getattr(owner, leaf)))

    def layer_metrics(self, first: int = 0) -> dict[str, float]:
        """Per-layer figures over the spans recorded since index `first`."""
        spans = self.spans[first:]
        child_time: dict[int, float] = {}
        for rec in spans:
            if rec[1] is not None:
                child_time[rec[1]] = child_time.get(rec[1], 0.0) + rec[6] - rec[5]
        self_time: dict[str, float] = {}
        coset_time = {role: 0.0 for role in COSET_TIMES.values()}
        counts = {"perms.elements": 0, "coset.calls": 0, "coset.index_total": 0,
                  "graphs.orbit_scans": 0,
                  **{f"derive.relators.{family}": 0 for family in FAMILIES}}
        for rec in spans:
            _, _, _, name, label, start, end, info = rec
            info = info or {}  # a call that raised recorded no counts
            own = end - start - child_time.get(rec[0], 0.0)
            self_time[name] = self_time.get(name, 0.0) + own
            if name == "coset.enumerate":
                coset_time[label] = coset_time.get(label, 0.0) + own
                counts["coset.calls"] += 1
                counts["coset.index_total"] += info.get("index", 0)
            elif name == "perms.table":
                counts["perms.elements"] += info.get("elements", 0)
            elif name == "graphs.orbit_scan":
                counts["graphs.orbit_scans"] += 1
            elif name == "derive.derive":
                for family in FAMILIES:
                    counts[f"derive.relators.{family}"] += info.get("families", {}).get(family, 0)
        out: dict[str, float] = {}
        for metric in LAYER_METRICS:
            if metric in SELF_TIMES:
                out[metric] = self_time.get(SELF_TIMES[metric], 0.0)
            elif metric in COSET_TIMES:
                out[metric] = coset_time[COSET_TIMES[metric]]
            elif metric in counts:
                out[metric] = counts[metric]
        return out

    def write(self, path: Path) -> None:
        keys = ("id", "parent", "action", "name", "label", "start", "end", "info")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([dict(zip(keys, rec)) for rec in self.spans]))
