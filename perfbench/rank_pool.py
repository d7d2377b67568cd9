"""Rebuild perfbench/pool_costs.json: how long corecuts takes on each
pool input.

The benchmark keeps a seed's draw from pool.json only when the draw's
total costs are close to a typical draw's, so every seed gets the same
amount of work (workloads.balanced).  No metric is computed from these
costs, and a stale file (say, after a speed-up) still gives a valid, if
less even, draw.

Points: seconds of generate() for dimensions 4 to 6, and for the core
points with a regular circulant that a workload solves (dimensions 4 to
6, and full_cycle_descent's C7 points), seconds of run_auto, run_plain
and export on their hard instance.  Instances: the same, for those
multi_cycle_mixed draws from; the others get no costs.  "export" is the
benchmark's export step: plan, write every subproblem, parse it back.
Costs are scaled to a fixed machine pace like the benchmark's times
(pace.py), and each is the median of REPEATS passes; the whole run
takes about 20 minutes.

Run from the repository root:  python3 perfbench/rank_pool.py
"""

from __future__ import annotations

import json
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SCRATCH = HERE / "_out" / "rank-export"
#: passes over the pool; each cost is the median of its passes
REPEATS = 3
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import corecuts as cc  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from pace import Pace  # noqa: E402

PACE = Pace()


def _seconds(fn, *args) -> float:
    t0 = time.perf_counter()
    try:
        fn(*args)
    except (cc.NotCore, cc.SingularCirculant):
        pass
    return round(PACE.scaled(time.perf_counter() - t0), 4)


def _export(inst) -> None:
    shutil.rmtree(SCRATCH, ignore_errors=True)
    rep = cc.run_auto(inst, cc.EngineOptions(export_dir=str(SCRATCH), dry_run=True))
    for sid, _, _ in rep.schedule:
        cc.parse_problem(SCRATCH / f"{sid}.json")


def _solve_costs(doc: dict) -> dict:
    inst = cc.instance_from_dict(doc)
    return {
        "solve": _seconds(cc.run_auto, inst),
        "plain": _seconds(cc.run_plain, inst),
        "export": _seconds(_export, inst),
    }


def _measure(pool) -> tuple[dict, list]:
    solved = {
        workloads.point_key(p["c"])
        for n in range(4, 8)
        for p in workloads.descent_points(pool["points"], n)
    }
    multi = {id(inst) for inst in workloads.multi_cycle_instances(pool)}
    points = {}
    for p in pool["points"]:
        c = tuple(p["c"])
        entry = {}
        if len(c) <= 6:
            entry["gen"] = _seconds(cc.generate, c)
        if workloads.point_key(c) in solved:
            entry.update(_solve_costs(reference.hard_instance_doc(c)))
        points[workloads.point_key(c)] = entry
    instances = [
        _solve_costs(inst["doc"]) if id(inst) in multi else {} for inst in pool["instances"]
    ]
    return points, instances


def _median_entry(entries: list[dict]) -> dict:
    if not entries[0]:
        return {}
    return {k: statistics.median(e[k] for e in entries) for k in entries[0]}


def main() -> None:
    pool = workloads.load_pool()
    # whole passes over the pool, so that a slow spell of the machine
    # hits one measurement of an input, not all of them
    runs = [_measure(pool) for _ in range(REPEATS)]
    shutil.rmtree(SCRATCH, ignore_errors=True)
    points = {k: _median_entry([r[0][k] for r in runs]) for k in runs[0][0]}
    instances = [_median_entry([r[1][i] for r in runs]) for i in range(len(runs[0][1]))]
    with open(workloads.COSTS_PATH, "w", encoding="ascii") as fh:
        json.dump({"points": points, "instances": instances}, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote costs of {len(points)} points and {len(instances)} instances")


if __name__ == "__main__":
    main()
