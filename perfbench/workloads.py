"""Seeded inputs for the benchmark's workloads.

Inputs come from pool.json (build_pool.py): classified candidate points
of C4..C7 and random multi-cycle instance documents.  Each input
carries the answer the independent reference expects.  corecuts sees
only the documents and the points.

Per-input cost varies a lot (a C7 layer descent takes 0.1 to 3.4 s), so
a small uniform draw would make every total swing from seed to seed.
Each workload therefore draws a fixed number of inputs from each
stratum (cycle length, outcome class, instance shape) and keeps the
first draw whose measured costs (pool_costs.json, rank_pool.py) are
within BALANCE_TOL of a typical draw's, stage by stage.  Every seed
gets different inputs but the same amount of work.  Apart from the
multi-cycle shapes left out of multi_cycle_mixed (MULTI_SHAPES), no
input is chosen by what corecuts answers.
"""

from __future__ import annotations

import json
import random
import statistics
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

import reference

HERE = Path(__file__).resolve().parent
POOL_PATH = HERE / "pool.json"
COSTS_PATH = HERE / "pool_costs.json"

FEASIBLE, INFEASIBLE = "Feasible", "Infeasible"
CERTIFIED, NOT_CORE, SINGULAR = "certified", "NotCore", "SingularCirculant"

#: full_cycle_descent: core points drawn per cycle length
DESCENT_PER_N = {5: 3, 6: 2, 7: 1}
#: full_cycle_descent draws its C7 points from the first this many C7
#: core points of the pool, in pool order; ranking the costs of all 238
#: would take rank_pool.py about ten minutes a pass
DESCENT_C7_POOL = 48
#: generate_certify: candidates drawn per dimension
CANDIDATES_PER_N = {4: 6, 5: 6, 6: 2}
#: multi_cycle_mixed: instances drawn per shape and sense
MULTI_PER_STRATUM = 2
#: multi_cycle_mixed: the cycle shapes it draws from.  run_auto answers
#: some pool instances of the other shapes, (2, 2), (3, 3) and (2, 4),
#: whose cycle lengths share a factor, wrongly: a known defect, which
#: check_pool.py reports.  The benchmark times only operations that
#: succeed.
MULTI_SHAPES = ("(2, 3)", "(3, 4)", "(3,)")
#: C4 candidates the solver workloads also regenerate, so that every
#: workload reports every end-to-end metric
COMPANION_CANDIDATES = 4

#: stages with a measured cost per instance (rank_pool.py), and those
#: whose per-item median is also a metric
SOLVE_STAGES = ("solve", "plain", "export")
MEDIAN_STAGES = ("solve", "gen")
#: a draw is kept when each cost statistic is within this share of the
#: typical draw's
BALANCE_TOL = 0.03
_REFERENCE_DRAWS = 201
_TRIES = 20000


@dataclass(frozen=True)
class DocCase:
    """An instance document and its reference answer."""

    doc: dict
    status: str  # Feasible | Infeasible
    optimum: Optional[Fraction]  # None for feasibility instances


@dataclass(frozen=True)
class GenCase:
    """A candidate point and the outcome generate() must have."""

    c: tuple[int, ...]
    outcome: str  # certified | NotCore | SingularCirculant
    doc: Optional[dict]  # the certified instance, built independently


@dataclass(frozen=True)
class Inputs:
    docs: tuple[DocCase, ...]
    candidates: tuple[GenCase, ...]


def point_key(c) -> str:
    return ",".join(str(v) for v in c)


def load_pool() -> dict:
    """pool.json with each point and instance's measured costs under
    "cost" (empty when pool_costs.json is absent)."""
    with open(POOL_PATH, encoding="ascii") as fh:
        pool = json.load(fh)
    costs = {"points": {}, "instances": []}
    if COSTS_PATH.is_file():
        with open(COSTS_PATH, encoding="ascii") as fh:
            costs = json.load(fh)
    for p in pool["points"]:
        p["cost"] = costs["points"].get(point_key(p["c"]), {})
    for i, inst in enumerate(pool["instances"]):
        inst["cost"] = costs["instances"][i] if i < len(costs["instances"]) else {}
    return pool


def _summary(items, stages) -> dict[str, float]:
    """Total measured cost of the items per stage, and the median per
    item for the stages whose median is a metric."""
    out = {}
    for stage in stages:
        costs = [it["cost"].get(stage, 0.0) for it in items] or [0.0]
        out[stage] = sum(costs)
        if stage in MEDIAN_STAGES:
            out[f"{stage}_p50"] = statistics.median(costs)
    return out


def balanced(rng: random.Random, draw, summary):
    """draw(rng) repeated until summary() of the draw is within
    BALANCE_TOL of the typical draw's on every entry.  The typical
    values are medians over draws from a fixed seed; the tolerance
    widens until some draw fits."""
    ref_rng = random.Random(0)
    ref = [summary(draw(ref_rng)) for _ in range(_REFERENCE_DRAWS)]
    target = {k: statistics.median(r[k] for r in ref) for k in ref[0]}
    tol = BALANCE_TOL
    while True:
        for _ in range(_TRIES):
            picked = draw(rng)
            got = summary(picked)
            if all(abs(got[k] - t) <= tol * t for k, t in target.items()):
                return picked
        tol *= 1.5


def _doc_case(doc: dict) -> DocCase:
    feasible, optimum = reference.box_optimum(doc)
    return DocCase(doc, FEASIBLE if feasible else INFEASIBLE, optimum)


def _gen_case(point: dict) -> GenCase:
    c = tuple(point["c"])
    if point["verdict"] != reference.CORE:
        return GenCase(c, NOT_CORE, None)
    if point["singular"]:
        return GenCase(c, SINGULAR, None)
    return GenCase(c, CERTIFIED, reference.hard_instance_doc(c))


def _core_points(points, n):
    return [
        p
        for p in points
        if len(p["c"]) == n and p["verdict"] == reference.CORE and not p["singular"]
    ]


def descent_points(points, n):
    """The core points full_cycle_descent draws for cycle length n."""
    return _core_points(points, n)[: DESCENT_C7_POOL if n == 7 else None]


def multi_cycle_instances(pool: dict) -> list[dict]:
    """The pool instances multi_cycle_mixed draws from."""
    return [i for i in pool["instances"] if i["stratum"].rsplit(" ", 1)[0] in MULTI_SHAPES]


def _candidate_strata(points, per_n: dict[int, int]) -> list[tuple[list, int]]:
    """(points, count) strata for per_n[n] candidates of each dimension
    n, split across the outcome classes in proportion to the pool."""
    out = []
    for n, m in per_n.items():
        dim = [p for p in points if len(p["c"]) == n]
        classes = (
            [p for p in dim if p["verdict"] == reference.CORE and not p["singular"]],
            [p for p in dim if p["verdict"] != reference.CORE],
            [p for p in dim if p["verdict"] == reference.CORE and p["singular"]],
        )
        out.extend((items, round(m * len(items) / len(dim))) for items in classes)
    return out


def _sample(rng: random.Random, strata) -> list:
    return [p for items, k in strata for p in rng.sample(items, k)]


def full_cycle_descent(rng: random.Random, pool: dict) -> Inputs:
    """Hard instances of certified core points of C5, C6 and C7."""
    points = pool["points"]
    strata = [(descent_points(points, n), m) for n, m in DESCENT_PER_N.items()]
    companions = _candidate_strata(points, {4: COMPANION_CANDIDATES})

    def draw(r):
        return _sample(r, strata), _sample(r, companions)

    def summary(picked):
        docs, cands = picked
        return _summary(docs, SOLVE_STAGES) | _summary(cands, ("gen",))

    docs, cands = balanced(rng, draw, summary)
    rng.shuffle(docs)
    return Inputs(
        tuple(_doc_case(reference.hard_instance_doc(p["c"])) for p in docs),
        tuple(_gen_case(p) for p in cands),
    )


def generate_certify(rng: random.Random, pool: dict) -> Inputs:
    """Candidate points of C4, C5 and C6 with every outcome class; the
    certified C4 and C5 instances are then solved, as a user would."""
    points = pool["points"]

    def solved(cands):
        return [
            p
            for p in cands
            if len(p["c"]) <= 5 and p["verdict"] == reference.CORE and not p["singular"]
        ]

    def summary(cands):
        return _summary(cands, ("gen",)) | _summary(solved(cands), SOLVE_STAGES)

    strata = _candidate_strata(points, CANDIDATES_PER_N)
    cands = balanced(rng, lambda r: _sample(r, strata), summary)
    rng.shuffle(cands)
    return Inputs(
        tuple(_doc_case(reference.hard_instance_doc(p["c"])) for p in solved(cands)),
        tuple(_gen_case(p) for p in cands),
    )


def multi_cycle_mixed(rng: random.Random, pool: dict) -> Inputs:
    """Multi-cycle instances of MULTI_SHAPES, MULTI_PER_STRATUM from
    each shape and sense (feasibility, or max/min)."""
    by_stratum: dict[str, list] = {}
    for inst in multi_cycle_instances(pool):
        by_stratum.setdefault(inst["stratum"], []).append(inst)
    strata = [(items, MULTI_PER_STRATUM) for items in by_stratum.values()]
    companions = _candidate_strata(pool["points"], {4: COMPANION_CANDIDATES})

    def draw(r):
        return _sample(r, strata), _sample(r, companions)

    def summary(picked):
        docs, cands = picked
        return _summary(docs, SOLVE_STAGES) | _summary(cands, ("gen",))

    docs, cands = balanced(rng, draw, summary)
    rng.shuffle(docs)
    return Inputs(
        tuple(_doc_case(i["doc"]) for i in docs),
        tuple(_gen_case(p) for p in cands),
    )


WORKLOADS = {
    "full_cycle_descent": full_cycle_descent,
    "multi_cycle_mixed": multi_cycle_mixed,
    "generate_certify": generate_certify,
}


def build(workload: str, seed: int) -> Inputs:
    return WORKLOADS[workload](random.Random(seed), load_pool())
