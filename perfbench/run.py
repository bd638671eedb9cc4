"""Time to a verified presentation, through graphpres's public CLI.

    python3 perfbench/run.py --workload multi-orbit --seed 1 --seconds 40 --trace 0

Runs from the root of a source checkout: graphpres is imported from `src/`
next to this directory, in this one single-threaded process.  A run repeats
*passes* until `--seconds` is spent.  A pass writes its seeded action files,
then takes every action of the workload from its input to a verified
presentation, each against a freshly imported graphpres (as a separate CLI
process would, with cold caches), and checks every result against
hand-written expectations.  Times are reported in seconds at a reference
machine speed (see REFERENCE_SECONDS).

With `--trace 0` the last line reports the end-to-end metrics; with
`--trace 1` every pass runs twice on the same inputs, untraced and traced, and
the last line reports the per-layer metrics.  Spans are written to
`.perfbench_work/` when the run ends.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from tracing import LAYER_METRICS, Tracer
from workloads import WORKLOADS, Action, make_actions, write_action_files

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

MIN_PASSES = 3

END_TO_END = {"verified_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "relators": "count", "relator_letters": "count"}

# On a shared virtual machine the CPU's speed drifts by up to +-25 % over
# minutes, which swamps the run-to-run differences of the program.  A fixed
# integer loop is timed right before and right after every timed step, and the
# step is reported in seconds at the speed where that loop takes
# REFERENCE_SECONDS (its median on the 2-vCPU VM the benchmark was set up on).
REFERENCE_ITERATIONS = 150_000
REFERENCE_SECONDS = 0.0175


class ActionFailed(Exception):
    pass


def fresh_package(tracer: Tracer | None):
    """Import graphpres anew, as a new CLI process would; returns its modules."""
    for name in [m for m in sys.modules if m == "graphpres" or m.startswith("graphpres.")]:
        del sys.modules[name]
    gc.collect()
    importlib.import_module("graphpres.cli")
    if tracer is not None:
        tracer.install(sys.modules)
    return sys.modules


def reference_loop() -> float:
    """Wall seconds of a fixed integer loop: the machine's current speed."""
    start = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - start


def _expect(label: str, what: str, got, want) -> None:
    if got != want:
        raise ActionFailed(f"{label}: {what} is {got!r}, expected {want!r}")


def check_derive(action: Action, report: dict) -> tuple[int, int]:
    """Hand-written order and reconstruction checks; returns relator count and length."""
    want = action.expect
    _expect(action.label, "order check", report["order_check"]["ok"], True)
    _expect(action.label, "group order", report["order"], want["order"])
    recon = report["reconstruction"]
    _expect(action.label, "reconstruction", recon["ok"], True)
    _expect(action.label, "rebuilt vertices", recon["vertices"], want["vertices"])
    _expect(action.label, "rebuilt edges", recon["edges"], want["edges"])
    _expect(action.label, "graph vertices", recon["graph_vertices"], want["vertices"])
    _expect(action.label, "graph edges", recon["graph_edges"], want["edges"])
    relators = json.loads(Path(report["files"][0]).read_text())["relators"]
    _expect(action.label, "relators written", len(relators), report["relator_count"])
    _expect(action.label, "family total", sum(report["families"].values()), len(relators))
    return len(relators), sum(len(rel) for rel in relators)


def run_action(mods, action: Action, path: Path | None, out_dir: Path) -> tuple[float, int, int]:
    """Time one action, then check it; returns (seconds, relators, relator letters)."""
    if action.kind == "builtin":
        argv = ["derive", "--builtin", action.label, "--verify", "--out", str(out_dir)]
    elif action.kind == "file":
        argv = ["derive", "--action", str(path), "--verify", "--out", str(out_dir)]
    else:
        argv = ["coxeter-check"]
    stdout, stderr = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            if action.kind == "face-boundary":
                result = mods["graphpres.coxeter"].face_boundary_check()
            else:
                result = mods["graphpres.cli"].main(argv)
    except Exception as exc:  # a raise is a failed action; the caller reports it
        raise ActionFailed(f"{action.label}: raised {exc!r}") from exc
    elapsed = time.perf_counter() - start

    if action.kind == "face-boundary":
        for key, want in action.expect.items():
            _expect(action.label, key, getattr(result, key, None), want)
        return elapsed, 0, 0
    if result != 0:
        raise ActionFailed(f"{action.label}: exit code {result}: {stderr.getvalue().strip()}")
    try:
        report = json.loads(stdout.getvalue())
        if action.kind == "coxeter-check":
            for key, want in action.expect.items():
                _expect(action.label, key, report[key], want)
            return elapsed, 0, 0
        return (elapsed, *check_derive(action, report))
    except (ValueError, KeyError, TypeError, OSError) as exc:
        raise ActionFailed(f"{action.label}: unreadable output ({exc!r})") from exc


class Run:
    """Passes of one workload, with the count of actions attempted and failed."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.dir = WORK / f"{workload}-seed{seed}"
        self.attempted = 0
        self.failed = 0
        self.loops: list[float] = []  # every reference_loop() time

    def scaled(self, wall: float, loop_before: float) -> float:
        """Wall seconds of a step at the reference speed; times the loop again."""
        loop_after = reference_loop()
        self.loops += [loop_before, loop_after]
        return wall * 2 * REFERENCE_SECONDS / (loop_before + loop_after)

    def prepare(self, p: int) -> tuple[list[Action], dict, float]:
        """Set-up of pass p: its seeded action files and a first fresh import.

        Every action then imports graphpres again, untimed, so that no action
        sees caches another one warmed.  Returns the set-up's scaled seconds.
        """
        loop = reference_loop()
        start = time.perf_counter()
        actions = make_actions(self.workload, self.seed, p)
        paths = write_action_files(actions, self.dir / f"pass{p}")
        fresh_package(None)
        return actions, paths, self.scaled(time.perf_counter() - start, loop)

    def pass_(self, p: int, actions: list[Action], paths: dict,
              tracer: Tracer | None) -> tuple[float, float, int, int]:
        """Every action once; returns scaled and wall seconds, relators, letters."""
        total = wall = 0.0
        relators = letters = 0
        for action in actions:
            mods = fresh_package(tracer)
            if tracer is not None:
                tracer.action = f"pass{p}/{action.label}"
            self.attempted += 1
            loop = reference_loop()
            try:
                seconds, r, l = run_action(mods, action, paths.get(action.label),
                                           self.dir / "out")
            except ActionFailed as exc:
                self.failed += 1
                print(f"FAILED {self.workload} pass {p}: {exc}", file=sys.stderr)
                if exc.__cause__ is not None:
                    traceback.print_exception(exc.__cause__, file=sys.stderr)
                continue
            total += self.scaled(seconds, loop)
            wall += seconds
            relators += r
            letters += l
        return total, wall, relators, letters


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def measure(run: Run, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Repeat passes until the time is spent; returns metrics and their samples."""
    deadline = time.perf_counter() + seconds
    tracer = Tracer() if trace else None
    plain: list[float] = []
    plain_wall: list[float] = []
    traced: list[float] = []
    layers: list[dict] = []
    setups: list[float] = []
    relators: list[int] = []
    letters: list[int] = []
    p = 0
    while True:
        started = time.perf_counter()
        actions, paths, setup = run.prepare(p)
        setups.append(setup)
        variants = [None, tracer] if p % 2 == 0 else [tracer, None]
        for variant in (variants if trace else [None]):
            first = len(tracer.spans) if tracer else 0
            total, wall, r, l = run.pass_(p, actions, paths, variant)
            if variant is None:
                plain.append(total)
                plain_wall.append(wall)
                relators.append(r)
                letters.append(l)
            else:
                traced.append(total)
                factor = total / wall if wall else 1.0
                layers.append({name: value * factor if LAYER_METRICS[name] == "s" else value
                               for name, value in tracer.layer_metrics(first).items()})
        p += 1
        now = time.perf_counter()
        if p >= MIN_PASSES and now + (now - started) > deadline:
            break

    samples = {"verified_s": plain, "verified wall-clock s": plain_wall,
               "setup_s": setups, "reference loop": run.loops}
    if not trace:
        metrics = {
            "verified_s": statistics.median(plain),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "relators": statistics.median_low(relators),
            "relator_letters": statistics.median_low(letters),
        }
        return metrics, samples
    metrics = {}
    for name, unit in LAYER_METRICS.items():
        if name != "trace.overhead_frac":
            middle = statistics.median_low if unit == "count" else statistics.median
            metrics[name] = middle([layer[name] for layer in layers])
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1
    samples["traced verified_s"] = traced
    tracer.write(WORK / f"trace-{run.workload}-seed{run.seed}.json")
    return metrics, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "graphpres" / "cli.py").is_file():
        print(f"error: no graphpres sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    run = Run(args.workload, args.seed)
    shutil.rmtree(run.dir, ignore_errors=True)
    try:
        metrics, samples = measure(run, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)

    units = LAYER_METRICS if args.trace else END_TO_END
    print(f"workload {args.workload}, seed {args.seed}: {len(samples['verified_s'])} passes, "
          f"{run.attempted} actions attempted, {run.failed} failed "
          f"(failed_frac {run.failed / max(run.attempted, 1):.4f})")
    for name, values in samples.items():
        q1, q3 = _quartiles(values)
        print(f"  {name}: median {statistics.median(values):.4f} s, quartiles "
              f"{q1:.4f}..{q3:.4f} s over {len(values)} samples")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
