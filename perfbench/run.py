"""End-to-end and per-layer benchmark for corecuts.

Usage (from the repository root):

    python3 perfbench/run.py --workload full_cycle_descent --seed 1 \\
        --seconds 35 --trace 0

The benchmark imports corecuts from ``src/`` in-process and drives its
public API as one closed-loop client: one call at a time, one thread,
default ``EngineOptions`` (jobs = 1).  The seed draws the workload's
inputs (see workloads.py); corecuts receives only instance documents
and candidate points.  Passes over the drawn set repeat for
``--seconds``; each input's time is its median over the passes, which
keeps short slow spells of a shared machine out of the figures.  The
end-to-end times are scaled to a fixed machine pace (pace.py), because
the machine's own speed drifts; the raw per-pass totals are printed
beside them.

Each answer is checked against the independent reference in
reference.py, outside the timed regions; a wrong answer is counted in
``failed`` and does not stop the run.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one
untraced pass, then traced passes that wrap corecuts' public functions
(spans.py), and prints per-layer call counts and self times, the
tracing overhead (traced minus untraced pass), and the share of timed
wall time the layers' self times add up to; these are raw seconds,
not scaled by the pace probe.  It writes the spans to
perfbench/_out/spans-<workload>-<seed>.jsonl.

Standard output: one JSON line describing the run (seed, Python
version, evaluation kernel, usable CPUs, commit, per-pass totals), one
line per mismatch, and last one JSON object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"

sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from pace import Pace  # noqa: E402
from reference import point_satisfies  # noqa: E402

#: set-ups per run; set-up time is their median
SETUP_REPEATS = 15

PACKAGE = "corecuts"


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _purge_package() -> None:
    for name in list(sys.modules):
        if name == PACKAGE or name.startswith(PACKAGE + "."):
            del sys.modules[name]


def setup(docs: list[dict], pace: Pace):
    """Import corecuts afresh and parse every document, SETUP_REPEATS
    times.  Returns the last package and the median scaled set-up
    time."""
    times = []
    for _ in range(SETUP_REPEATS):
        _purge_package()
        t0 = time.perf_counter()
        cc = importlib.import_module(PACKAGE)
        for d in docs:
            cc.instance_from_dict(d)
        times.append(pace.scaled(time.perf_counter() - t0))
    return cc, statistics.median(times)


class Checker:
    """Compares answers with the reference and counts attempts."""

    def __init__(self) -> None:
        self.attempted = 0
        self.wrong = 0
        self.unknown = 0
        self.errors: list[str] = []
        self.first_exports: dict[str, tuple] = {}

    def bad(self, what: str) -> None:
        self.wrong += 1
        if len(self.errors) < 20:
            self.errors.append(what)

    def report(self, label: str, case, rep) -> None:
        self.attempted += 1
        if rep.status == "Unknown":
            self.unknown += 1
            return
        if rep.status != case.status:
            self.bad(f"{label}: status {rep.status}, reference {case.status}")
            return
        if rep.status != "Feasible":
            return
        if rep.point is None or not point_satisfies(case.doc, rep.point):
            self.bad(f"{label}: reported point {rep.point} violates the instance")
        elif case.optimum is not None and rep.f_star != case.optimum:
            self.bad(f"{label}: optimum {rep.f_star}, reference {case.optimum}")

    def generated(self, cc, case, result, error) -> None:
        self.attempted += 1
        if case.outcome == workloads.CERTIFIED:
            if error is not None:
                self.bad(f"generate{case.c}: raised {type(error).__name__}, reference certified")
            elif result.certified is not True or result.witness is not None:
                self.bad(f"generate{case.c}: certified={result.certified}")
            elif cc.instance_to_dict(result.instance) != case.doc:
                self.bad(f"generate{case.c}: instance differs from the reference construction")
            return
        expected = cc.NotCore if case.outcome == workloads.NOT_CORE else cc.SingularCirculant
        if type(error) is not expected:
            got = "a result" if error is None else type(error).__name__
            self.bad(f"generate{case.c}: {got}, reference {case.outcome}")

    def exported(self, label: str, inst, parsed: dict) -> None:
        """Later exports of an instance must parse to the same problems
        as its first; the first is verified by verify_exports()."""
        self.attempted += 1
        if label not in self.first_exports:
            self.first_exports[label] = (inst, parsed)
        elif parsed != self.first_exports[label][1]:
            self.bad(f"{label}: export differs from the first pass")

    def verify_exports(self, cc) -> None:
        """Each first export against the flattened plan.  Run after the
        measuring window, because planning repeats Algorithm 1's LPs."""
        for label, (inst, parsed) in self.first_exports.items():
            schedule = cc.plan(inst).subproblems
            if sorted(parsed) != sorted(sp.id for sp in schedule):
                self.bad(f"{label}: exported {len(parsed)} of {len(schedule)} subproblems")
                continue
            for sp in schedule:
                flat = cc.flatten_subproblem(sp)
                got = parsed[sp.id]
                if got.variables != flat.variables or got.constraints != flat.constraints:
                    self.bad(f"{label}: subproblem {sp.id} does not round-trip")
                    break


class Pass:
    """Per-call durations of one pass over the drawn set: raw, and
    scaled by the pace probe."""

    def __init__(self, pace: Pace) -> None:
        self.pace = pace
        self.calls: dict[str, list[float]] = defaultdict(list)
        self.raw: dict[str, list[float]] = defaultdict(list)
        self.subproblems = 0

    def record(self, stage: str, seconds: float) -> None:
        self.raw[stage].append(seconds)
        self.calls[stage].append(self.pace.scaled(seconds))

    def total(self, stage: str) -> float:
        return sum(self.raw[stage])

    def wall(self) -> float:
        return sum(sum(v) for v in self.raw.values())


def run_pass(cc, inputs, checker: Checker, scratch: Path, pace: Pace, tracer=None) -> Pass:
    """One pass: parse every document, generate every candidate, then
    solve, solve plainly and export every instance.  Only the corecuts
    calls are timed; the checks and pace probes run between them, and
    the checks' spans are dropped from a trace."""
    p = Pass(pace)
    clock = time.perf_counter

    t0 = clock()
    instances = [cc.instance_from_dict(case.doc) for case in inputs.docs]
    p.record("parse", clock() - t0)

    def check(fn, *args):
        mark = len(tracer.spans) if tracer else 0
        fn(*args)
        if tracer:
            tracer.rewind(mark)
            tracer.instance += 1

    for case in inputs.candidates:
        result = error = None
        t0 = clock()
        try:
            result = cc.generate(case.c)
        except (cc.NotCore, cc.SingularCirculant) as exc:
            error = exc
        p.record("gen", clock() - t0)
        check(checker.generated, cc, case, result, error)

    export_opts = cc.EngineOptions(export_dir=str(scratch), dry_run=True)
    for i, (case, inst) in enumerate(zip(inputs.docs, instances)):
        t0 = clock()
        rep = cc.run_auto(inst)
        p.record("solve", clock() - t0)
        p.subproblems += len(rep.schedule)
        check(checker.report, f"run_auto[{i}]", case, rep)

        t0 = clock()
        rep = cc.run_plain(inst)
        p.record("plain", clock() - t0)
        check(checker.report, f"run_plain[{i}]", case, rep)

        shutil.rmtree(scratch, ignore_errors=True)
        t0 = clock()
        dry = cc.run_auto(inst, export_opts)
        parsed = {
            sid: cc.parse_problem(scratch / f"{sid}.json") for sid, _, _ in dry.schedule
        }
        p.record("export", clock() - t0)
        check(checker.exported, f"export[{i}]", inst, parsed)
    shutil.rmtree(scratch, ignore_errors=True)
    return p


def item_medians(passes: list[Pass], stage: str) -> list[float]:
    """Each input's time for a stage, as the median over passes."""
    return [statistics.median(times) for times in zip(*(p.calls[stage] for p in passes))]


def end_to_end(passes: list[Pass], setup_s: float) -> dict:
    """Stage totals sum each input's median scaled time over passes;
    the _p50 metrics are the median input."""
    solve, plain, export, gen = (
        item_medians(passes, stage) for stage in ("solve", "plain", "export", "gen")
    )
    return {
        "setup_s": (setup_s, "s"),
        "solve_s": (sum(solve), "s"),
        "solve_p50_s": (statistics.median(solve), "s"),
        "plain_s": (sum(plain), "s"),
        "export_s": (sum(export), "s"),
        "gen_s": (sum(gen), "s"),
        "gen_p50_s": (statistics.median(gen), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


#: per-layer metric -> the span names it sums (a string prefix sums a
#: whole module).  Each comment names the end-to-end metric the layer
#: should move, and where it should not move.
LAYER_GROUPS = {
    # solve_s, plain_s on full_cycle_descent and multi_cycle_mixed;
    # not gen_s on generate_certify
    "solve.solve_subproblem": ("solve.solve_subproblem",),
    # solve_s, export_s on multi_cycle_mixed
    "solve.flatten_subproblem": ("solve.flatten_subproblem",),
    # solve_s, export_s on full_cycle_descent (Algorithm 1 plans by LP)
    "solve.lp_relax": ("solve.lp_relax",),
    # solve_s on full_cycle_descent, gen_s on generate_certify;
    # not solve_s on multi_cycle_mixed
    "simplex.solve_lp": ("simplex.solve_lp",),
    "simplex.lp_feasible": ("simplex.lp_feasible",),
    # solve_s on multi_cycle_mixed (max/min instances evaluate every leaf)
    "evalcore.Program.run": ("evalcore.Program.run",),
    "evalcore.compile_expr": ("evalcore.compile_expr",),
    # solve_s, export_s on multi_cycle_mixed
    "synth": "synth.",
    # solve_s and gen_s
    "spectral": "spectral.",
    # gen_s, gen_p50_s on generate_certify
    "corepoints.is_lattice_free": ("corepoints.is_lattice_free",),
    # solve_s, export_s on every solver workload
    "corepoints.projected_essential_set": ("corepoints.projected_essential_set",),
    # gen_s, gen_p50_s on generate_certify
    "gen.certify_infeasible": ("gen.certify_infeasible",),
    # solve_s, export_s on multi_cycle_mixed
    "engine.plan": (
        "engine.plan",
        "engine.plan_algorithm1",
        "engine.plan_algorithm2",
        "engine.plan_algorithm3",
    ),
    # solve_s, plain_s (dispatch and aggregation)
    "engine.run": (
        "engine.run_auto",
        "engine.run_plain",
        "engine.run_algorithm1",
        "engine.run_algorithm2",
        "engine.run_algorithm3",
    ),
    # export_s
    "minlp.dumps_problem": ("minlp.dumps_problem",),
    "minlp.parse_problem": ("minlp.parse_problem",),
    # setup_s
    "instancefile.instance_from_dict": ("instancefile.instance_from_dict",),
}


def per_layer(tracer, traced: list[Pass], untraced: Pass, checker: Checker) -> dict:
    """Calls and self time per traced pass for each layer group, plus
    the tracing overhead and the coverage check."""
    stats = tracer.self_times()
    npass = len(traced)
    out = {}
    for metric, names in LAYER_GROUPS.items():
        if isinstance(names, str):
            picked = [k for k in stats if k.startswith(names)]
        else:
            picked = [k for k in names if k in stats]
        out[f"{metric}.calls"] = (sum(stats[k][0] for k in picked) / npass, "count")
        out[f"{metric}.self_s"] = (sum(stats[k][1] for k in picked) / npass, "s")
    core_checks = stats.get("corepoints.is_lattice_free", (0, 0.0))[0]
    out["simplex.solve_lp.per_core_check"] = (
        tracer.descendants("simplex.solve_lp", "corepoints.is_lattice_free") / core_checks
        if core_checks
        else 0.0,
        "ratio",
    )
    out["engine.subproblems"] = (traced[0].subproblems, "count")
    # pace-scaled, like the end-to-end times, so that drift does not
    # pass for overhead
    for stage in ("solve", "gen"):
        traced_s = statistics.median(sum(p.calls[stage]) for p in traced)
        out[f"trace.overhead_{stage}_s"] = (traced_s - sum(untraced.calls[stage]), "s")
    wall = sum(p.wall() for p in traced)
    out["trace.self_sum_share"] = (sum(v[1] for v in stats.values()) / wall, "share")
    out["check.wrong_share"] = (checker.wrong / checker.attempted, "share")
    out["check.unknown_share"] = (checker.unknown / checker.attempted, "share")
    return out


def _commit() -> str:
    """HEAD of the checkout, or "unknown" outside a git work tree (git
    is kept from searching above the checkout)."""
    try:
        res = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / PACKAGE / "__init__.py").is_file():
        fail(f"no corecuts sources under {SRC}")
    sys.path.insert(0, str(SRC))

    inputs = workloads.build(args.workload, args.seed)
    docs = [case.doc for case in inputs.docs]
    pace = Pace()
    cc, setup_s = setup(docs, pace)
    if Path(cc.__file__).resolve().parent != (SRC / PACKAGE).resolve():
        fail(f"imported corecuts from {cc.__file__}, not from {SRC}")

    scratch = OUT / f"export-{os.getpid()}"
    checker = Checker()
    deadline = time.perf_counter() + args.seconds
    durations: list[float] = []

    def timed_pass(tracer=None) -> Pass:
        t0 = time.perf_counter()
        p = run_pass(cc, inputs, checker, scratch, pace, tracer)
        durations.append(time.perf_counter() - t0)
        return p

    tracer = None
    if args.trace:
        from spans import Tracer

        untraced = timed_pass()
        tracer = Tracer(PACKAGE)
        tracer.install()
    # passes fill the measuring window; one that would overrun it is not started
    passes = [timed_pass(tracer)]
    while time.perf_counter() + statistics.mean(durations) <= deadline:
        passes.append(timed_pass(tracer))

    if tracer is None:
        checker.verify_exports(cc)
        metrics = end_to_end(passes, setup_s)
    else:
        tracer.uninstall()
        checker.verify_exports(cc)
        metrics = per_layer(tracer, passes, untraced, checker)
        share = metrics["trace.self_sum_share"][0]
        if not 0.95 <= share <= 1.0:
            print(f"warning: layer self times add up to {share:.3f} of the timed wall time")
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-{args.seed}.jsonl")

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(passes),
        "items": {"candidates": len(inputs.candidates), "instances": len(inputs.docs)},
        "python": platform.python_version(),
        "kernel": cc.backend_name(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "wrong": checker.wrong,
        "unknown": checker.unknown,
        "raw_pass_totals_s": {
            stage: [round(p.total(stage), 4) for p in passes]
            for stage in ("parse", "gen", "solve", "plain", "export")
        },
    }
    print(json.dumps(info))
    for line in checker.errors:
        print(f"mismatch: {line}")
    print(
        json.dumps(
            {
                "correct": checker.wrong == 0,
                "attempted": checker.attempted,
                "failed": checker.wrong,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )


if __name__ == "__main__":
    main()
