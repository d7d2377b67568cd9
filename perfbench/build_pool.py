"""Rebuild perfbench/pool.json, the inputs the benchmark draws from.

``points``: every candidate point of the cyclic groups C4..C7 with
entries in {0, 1, 2}, one per rotation class, excluding constant
vectors, classified by the independent reference: whether its circulant
is singular and whether its orbit polytope is lattice-free.  Classifying
them takes about two minutes, which would otherwise swamp set-up time.

``instances``: random instances with two disjoint cycles, or one 3-cycle
inside n = 5, drawn from a fixed seed: PER_SHAPE feasibility instances
per shape and PER_SHAPE max/min instances per optimization shape.  No
draw is kept or dropped by its outcome.

Run from the repository root:  python3 perfbench/build_pool.py
"""

from __future__ import annotations

import json
import random
import sys
from itertools import product
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402

DIMENSIONS = (4, 5, 6, 7)
ENTRIES = (0, 1, 2)

#: (cycle lengths, n, box upper bound); (3,) is one 3-cycle inside n = 5
#: with two fixed coordinates.  Optimization shapes keep n <= 6, because
#: a max/min instance evaluates every leaf of every subproblem.
FEAS_SHAPES = (
    ((2, 2), 4, 2),
    ((2, 3), 5, 2),
    ((3,), 5, 2),
    ((3, 3), 6, 1),
    ((2, 4), 6, 1),
    ((3, 4), 7, 1),
)
OPT_SHAPES = FEAS_SHAPES[:5]
PER_SHAPE = 16
INSTANCE_SEED = 20201007


def classify_points() -> list[dict]:
    points = []
    for n in DIMENSIONS:
        seen = set()
        for v in product(ENTRIES, repeat=n):
            c = reference.canonical(v)
            if c in seen or len(set(c)) == 1:
                continue
            seen.add(c)
            verdict, witness = reference.core_verdict(c)
            points.append(
                {
                    "c": list(c),
                    "singular": reference.is_singular(c),
                    "verdict": verdict,
                    "witness": None if witness is None else list(witness),
                }
            )
    return points


def _cycle_word(start: int, k: int) -> str:
    return "(" + ",".join(str(i) for i in range(start, start + k)) + ")"


def _blocks(lengths, n):
    """Coordinate lists (0-based) of each cycle block, then the fixed
    coordinates as singleton blocks."""
    blocks, start = [], 0
    for k in lengths:
        blocks.append(list(range(start, start + k)))
        start += k
    blocks.extend([i] for i in range(start, n))
    return blocks


def _symmetric_rows(rng: random.Random, blocks, n, box_hi, anchor):
    """One row constant on every block, or the orbit of a random row
    under one block's cycle.  Either way every cycle permutes the row
    set onto itself.  The right-hand side keeps `anchor` feasible when
    it is given."""
    if rng.random() < 0.5:
        coeffs = [0] * n
        for b in blocks:
            a = rng.randint(-2, 3)
            for i in b:
                coeffs[i] = a
        family = [coeffs]
    else:
        cyc = rng.choice([b for b in blocks if len(b) > 1])
        base = [0] * n
        for i in cyc:
            base[i] = rng.randint(-1, 2)
        for b in blocks:
            if b is not cyc and rng.random() < 0.5:
                a = rng.randint(-1, 2)
                for i in b:
                    base[i] = a
        family = []
        for s in range(len(cyc)):
            row = list(base)
            for j, i in enumerate(cyc):
                row[cyc[(j + s) % len(cyc)]] = base[i]
            family.append(row)
    if anchor is None:
        sense = rng.choice(("<=", ">="))
        top = sum(abs(a) for a in family[0]) * box_hi
        return [(r, sense, rng.randint(-top // 2, top)) for r in family]
    sense = rng.choice(("<=", ">=", "=="))
    acts = [sum(a * v for a, v in zip(r, anchor)) for r in family]
    if sense == "==" and len(set(acts)) > 1:
        sense = "<="
    if sense == "<=":
        rhs = max(acts) + rng.randint(0, 2)
    elif sense == ">=":
        rhs = min(acts) - rng.randint(0, 2)
    else:
        rhs = acts[0]
    return [(r, sense, rhs) for r in family]


def multi_cycle_doc(rng: random.Random, shape, sense: str) -> dict:
    """A random instance invariant under each of its cycles."""
    lengths, n, box_hi = shape
    blocks = _blocks(lengths, n)
    # optimization draws are anchored at a box point, so they have an
    # optimum; half the feasibility draws are not, and may be infeasible
    anchor = None
    if sense != "feasibility" or rng.random() < 0.5:
        anchor = [rng.randint(0, box_hi) for _ in range(n)]
    rows = []
    for _ in range(rng.randint(2, 3)):
        rows.extend(_symmetric_rows(rng, blocks, n, box_hi, anchor))
    objective = [0] * n
    if sense != "feasibility":
        for b in blocks:
            a = rng.randint(-2, 3)
            for i in b:
                objective[i] = a
    words, start = [], 1
    for k in lengths:
        words.append(_cycle_word(start, k))
        start += k
    return {
        "format": 1,
        "n": n,
        "objective": {"sense": sense, "coeffs": [str(a) for a in objective]},
        "rows": [
            {"coeffs": [str(a) for a in r], "sense": s, "rhs": str(rhs)}
            for r, s, rhs in rows
        ],
        "bounds": [{"lo": "0", "hi": str(box_hi), "integer": True}] * n,
        "group": {"generators": words},
    }


def draw_instances() -> list[dict]:
    """Instances with a stratum label: cycle lengths and feasibility
    or optimization.  Optimization instances alternate max and min."""
    rng = random.Random(INSTANCE_SEED)
    out = []
    for shape in FEAS_SHAPES:
        for _ in range(PER_SHAPE):
            doc = multi_cycle_doc(rng, shape, "feasibility")
            out.append({"stratum": f"{shape[0]} feasibility", "doc": doc})
    for shape in OPT_SHAPES:
        for i in range(PER_SHAPE):
            doc = multi_cycle_doc(rng, shape, ("max", "min")[i % 2])
            out.append({"stratum": f"{shape[0]} optimization", "doc": doc})
    return out


def main() -> None:
    pool = {"points": classify_points(), "instances": draw_instances()}
    out = HERE / "pool.json"
    with open(out, "w", encoding="ascii") as fh:
        json.dump(pool, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {len(pool['points'])} points and {len(pool['instances'])} instances to {out}")


if __name__ == "__main__":
    main()
