"""Check corecuts' answers on every multi-cycle instance of pool.json.

run_auto and run_plain solve each instance; the verdict and optimum are
compared with the exhaustive box scan of reference.py.  Every mismatch
is printed with its pool index and stratum, then a count per stratum.
The exit code is 1 when any answer is wrong.

The timed multi_cycle_mixed workload draws only from MULTI_SHAPES
(workloads.py); this script covers every shape, so the wrong answers on
the others stay visible.  It takes about a minute.

Run from the repository root:  python3 perfbench/check_pool.py
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import corecuts as cc  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    pool = workloads.load_pool()
    attempted, wrong = Counter(), Counter()
    for i, entry in enumerate(pool["instances"]):
        stratum = entry["stratum"]
        feasible, optimum = reference.box_optimum(entry["doc"])
        status = workloads.FEASIBLE if feasible else workloads.INFEASIBLE
        inst = cc.instance_from_dict(entry["doc"])
        for name, run in (("run_auto", cc.run_auto), ("run_plain", cc.run_plain)):
            rep = run(inst)
            attempted[stratum] += 1
            if rep.status != status or (
                status == workloads.FEASIBLE
                and (
                    rep.point is None
                    or not reference.point_satisfies(entry["doc"], rep.point)
                    or (optimum is not None and rep.f_star != optimum)
                )
            ):
                wrong[stratum] += 1
                print(
                    f"instance {i} ({stratum}): {name} says {rep.status} {rep.f_star}, "
                    f"reference {status} {optimum}"
                )
    for stratum in attempted:
        print(f"{stratum}: {wrong[stratum]} wrong of {attempted[stratum]}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
