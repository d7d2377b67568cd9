"""Orchestration of the three layer-search algorithms.

The engine owns no mathematics: it composes the synthesizer's
constraint sets into subproblem schedules, dispatches them to the
internal enumerator, and folds the outcomes.

Schedules are built completely before anything is solved, so subproblem
counts are a property of the plan, not of solver luck.  The shapes are:

* Algorithm 1 (one full n-cycle): a global singularity subproblem, then
  layers walked from the LP optimum layer toward worse objective values
  (down, or up when the objective rewards lower layers); a layer outside
  the LP layer range (the values of sum(x) over the LP relaxation) is
  pruned, and one LP, min or max of sum(x), gives the range's end the
  walk heads toward.  Both planning LPs run on one ``simplex.Tableau``
  of the instance's rows and bounds: phase 1 runs once, and the range
  LP is a phase-2 reoptimisation from the relaxation's optimal basis.
  A feasibility instance walks down from the top of the layer range;
  when sum(x) has no LP maximum it walks up from the bottom instead,
  and when it has no LP bound at all the walk is empty and stops at
  layer 0.  Each surviving layer gets anchor probes for its projected
  essential set and one cut subproblem; the walk stops at the first
  layer divisible by n, where the only candidate worth checking is the
  fixed-space point (layer/n) * 1 and it is evaluated directly against
  the instance rows.
* Algorithms 2 (one k-cycle, k < n) and 3 (d >= 2 disjoint cycles)
  share one residue planner.  Its one stage holds, in order, one
  singularity subproblem (S2) per cycle, the anchor probes (S3) of every
  cycle for each sub-layer residue t in 1..k-1, and one cut subproblem
  (S1) per residue tuple in [1..k_1-1] x ... x [1..k_d-1]: every
  cycle's sub-layer row, smoothness guards and cuts.

  Why it is sound (a core-point argument: Herr, Rehn and Schürmann,
  "Exploiting symmetry in integer convex optimization using core
  points", Oper. Res. Lett. 2013).  Take an optimal or feasible core
  point x; its block under cycle i is then core under that cycle.
  - If some block i has a sum divisible by k_i, average that block
    over its cycle.  The result is integer, feasible, has the same
    objective, and its block i is constant, hence singular: S2_i
    holds it.
  - Otherwise, if some block is singular, S2_i holds x.
  - Otherwise every block is regular with residue t_i below k_i.  For
    each essential point z of (k_i, t_i), either a rotation of the
    block is a translate of z, which a probe holds (blocks rotate
    independently), or z lies outside the block's hull, which the
    tuple's cut states.
  Each step needs every selected cycle to be a symmetry of the
  instance by itself, not only as a factor of a product generator.

Without usable symmetry the schedule is one plain enumeration of the
instance.

One runner exports and solves every schedule's subproblems in order and
stops early by one rule: a feasibility instance stops at its first
Feasible result, and Algorithm 1 on a max/min instance stops after the
first layer (probes, then cut) with a Feasible result.  A walk that
reaches its stop layer ends with the direct fixed-space probe.
Aggregation follows the strictness rule: on a max/min instance any
Unknown outcome (budget or box truncation) makes the verdict Unknown;
Infeasible is only reported when every scheduled subproblem ran and
certified exhaustion.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable, Optional, Sequence

from .corepoints import projected_essential_set
from .errors import InputError
from .exprs import Constraint, ConstraintSet, DEFAULT_EPS, Dot, Const, Add, EQ, SUBLAYER
from .perms import Cycle
from .simplex import Tableau
from .solve import (
    DEFAULT_BOX,
    DEFAULT_NODE_BUDGET,
    FEASIBILITY,
    FEASIBLE,
    INFEASIBLE,
    Instance,
    MAX,
    MIN,
    Outcome,
    UNBOUNDED,
    UNKNOWN,
    export_subproblem,
    lp_relax,
    solve_subproblem,
    symmetry_warnings,
)
from .synth import (
    s1_for_point,
    s2_singular,
    s3_anchor,
    smoothness,
    sublayer,
)

S1, S2, S3, FIX = "S1", "S2", "S3", "FIX"


@dataclass(frozen=True)
class EngineOptions:
    budget: int = DEFAULT_NODE_BUDGET
    eps: float = DEFAULT_EPS
    box: int = DEFAULT_BOX
    #: essential points kept per residue when building probes and cuts
    essential_budget: int = 1
    export_dir: Optional[str] = None
    #: plan, export if asked, and report counts without solving anything
    dry_run: bool = False

    def __post_init__(self) -> None:
        if self.budget < 1:
            raise InputError("budget must be >= 1")
        if self.essential_budget < 1:
            raise InputError("essential budget must be >= 1")
        if self.box < 0:
            raise InputError("box must be >= 0")
        if not (self.eps > 0 and math.isfinite(self.eps)):
            raise InputError("eps must be finite and > 0")


@dataclass(frozen=True)
class Subproblem:
    id: str
    base: Instance
    added: tuple[ConstraintSet, ...]
    tag: str  # S1 | S2 | S3 | FIX
    provenance: tuple

    def __post_init__(self) -> None:
        tags = {cs.tag for cs in self.added}
        primary = {S1, S2, S3} & tags
        if self.tag in (S1, S2, S3) and self.tag not in primary:
            raise InputError(f"subproblem {self.id} tagged {self.tag} without a {self.tag} set")


@dataclass(frozen=True)
class Schedule:
    algorithm: int  # 0 = no usable symmetry
    #: subproblems in dispatch order, grouped for the stop rule:
    #: Algorithm 1 has the global S2, then per layer its S3 probes and its
    #: S1 cut; every other schedule is one stage
    stages: tuple[tuple[Subproblem, ...], ...]
    #: Algorithm 1 only: the gating LP outcome
    lp: Optional[Outcome] = None
    #: Algorithm 1 only: the layer divisible by n where the walk stops
    stop_layer: Optional[int] = None
    notes: tuple[str, ...] = ()

    @property
    def subproblems(self) -> tuple[Subproblem, ...]:
        return tuple(sp for stage in self.stages for sp in stage)

    def counts(self) -> dict[str, int]:
        out = {S1: 0, S2: 0, S3: 0, FIX: 0}
        for sp in self.subproblems:
            if sp.tag in out:
                out[sp.tag] += 1
        return out


@dataclass(frozen=True)
class SubResult:
    id: str
    tag: str
    provenance: tuple
    outcome: Outcome
    seconds: float


@dataclass(frozen=True)
class Report:
    algorithm: int
    status: str
    counts: dict[str, int]
    #: the full planned schedule (id, tag, provenance) for audit
    schedule: tuple[tuple[str, str, tuple], ...]
    results: tuple[SubResult, ...]
    f_star_e: Optional[Fraction]
    f_star_l: Optional[Fraction]
    f_star: Optional[Fraction]
    point: Optional[tuple[Fraction, ...]]
    lp: Optional[Outcome]
    wall_time: float
    warnings: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# schedule construction helpers


def _layer_row(inst: Instance, layer: int) -> ConstraintSet:
    names = inst.var_names
    expr = Add(
        (
            Dot(tuple(Fraction(1) for _ in names), names),
            Const(Fraction(-layer)),
        )
    )
    return ConstraintSet(tag=SUBLAYER, constraints=(Constraint(expr, EQ),))


def _cut_sets(
    row: ConstraintSet, cycle: Cycle, points: Sequence[tuple[int, ...]], eps: float
) -> tuple[ConstraintSet, ...]:
    """Layer or sub-layer row, smoothness guards, and one cut per
    essential point."""
    sets = [row, smoothness(cycle, eps)]
    for z in points:
        sets.append(s1_for_point(z, cycle, eps))
    return tuple(sets)


def plan_algorithm1(inst: Instance, opts: EngineOptions) -> Schedule:
    cycle = _single_full_cycle(inst)
    n = inst.n
    notes: list[str] = []
    # one tableau serves the relaxation and the layer-range LP
    tableau = Tableau(n, inst.rows, inst.bounds)
    lp = lp_relax(inst, tableau)
    if lp.status in (INFEASIBLE, UNBOUNDED):
        return Schedule(1, (), lp=lp, notes=(f"LP relaxation {lp.status}",))
    ones = (1,) * n
    # sum(x) maps the LP relaxation onto an interval that holds the start
    # layer, and the walk moves away from that layer, so a walked layer
    # is LP-empty iff it lies beyond the end the walk heads toward; one
    # LP finds that end (None: no such end)
    end = None
    if lp.point is not None:
        layer_value = sum(lp.point, Fraction(0))
        # the objective is c * layer on a symmetric instance: walk from the
        # LP optimum layer toward worse values, so the first feasible
        # layer is best
        weight = sum(inst.objective, Fraction(0))
        up = (inst.sense == MIN and weight > 0) or (inst.sense == MAX and weight < 0)
        layer = math.ceil(layer_value) if up else math.floor(layer_value)
        walk = "ascent" if up else "descent"
        notes.append(f"LP optimum layer {layer_value}, {walk} starts at {layer}")
        if layer % n:
            res = tableau.optimize(ones, maximize=up)
            end = res.objective if res.status == "optimal" else None
    else:
        # a feasibility instance whose sum(x) has no LP maximum ascends
        # from the LP minimum; with no minimum either, every layer holds
        # LP points, so their orbit averages put (0, ..., 0) in the
        # relaxation and the walk is empty: the probe runs at layer 0
        up, walk = True, "ascent"
        low = tableau.optimize(ones, maximize=False)
        if low.status == "optimal":
            layer = math.ceil(low.objective)
            notes.append(
                f"LP layer range has no top; LP bottom layer {low.objective}, "
                f"ascent starts at {layer}"
            )
        else:
            layer = 0
            notes.append("LP layer range has no top or bottom; ascent starts at 0")
    step = 1 if up else -1

    stages: list[tuple[Subproblem, ...]] = [
        (Subproblem("S2", inst, (s2_singular(cycle, opts.box),), S2, ("global",)),)
    ]
    while layer % n:
        if end is not None and (layer > end if up else layer < end):
            notes.append(f"layer {layer} pruned (empty LP relaxation)")
            layer += step
            continue
        residue = layer % n
        ess = projected_essential_set(n, residue, opts.essential_budget)
        row = _layer_row(inst, layer)
        stages.append(
            tuple(
                Subproblem(
                    f"L{layer}.S3.{j}",
                    inst,
                    (row, s3_anchor(z, cycle)),
                    S3,
                    ("layer", layer, "S3", j),
                )
                for j, z in enumerate(ess.points)
            )
        )
        sets = _cut_sets(row, cycle, ess.points, opts.eps)
        stages.append((Subproblem(f"L{layer}.S1", inst, sets, S1, ("layer", layer, "S1")),))
        layer += step
    notes.append(f"{walk} stops at layer {layer} (divisible by {n})")
    return Schedule(1, tuple(stages), lp=lp, stop_layer=layer, notes=tuple(notes))


def _plan_cycles(
    inst: Instance, cycles: tuple[Cycle, ...], opts: EngineOptions, algorithm: int
) -> Schedule:
    """The residue schedule of Algorithms 2 and 3: one S2 per cycle, the
    anchor probes of every cycle and residue, then one cut subproblem per
    residue tuple in [1..k_1-1] x ... x [1..k_d-1]."""
    _check_disjoint(inst, cycles)
    subs = [
        Subproblem(
            f"A{c.support[0]}.S2",
            inst,
            (s2_singular(c, opts.box),),
            S2,
            ("singular", c.support[0]),
        )
        for c in cycles
    ]
    ess = {
        (c.k, t): projected_essential_set(c.k, t, opts.essential_budget).points
        for c in cycles
        for t in range(1, c.k)
    }
    for c in cycles:
        s = c.support[0]
        for t in range(1, c.k):
            for j, z in enumerate(ess[c.k, t]):
                subs.append(
                    Subproblem(
                        f"A{s}.R{t}.S3.{j}",
                        inst,
                        (sublayer(c, t), s3_anchor(z, c)),
                        S3,
                        ("anchor", s, t, j),
                    )
                )
    for combo in product(*[range(1, c.k) for c in cycles]):
        sets = tuple(
            cs
            for c, t in zip(cycles, combo)
            for cs in _cut_sets(sublayer(c, t), c, ess[c.k, t], opts.eps)
        )
        label = "T" + "_".join(str(t) for t in combo)
        subs.append(Subproblem(f"{label}.S1", inst, sets, S1, ("tuple",) + combo))
    return Schedule(algorithm, (tuple(subs),))


def plan_algorithm2(inst: Instance, cycle: Cycle, opts: EngineOptions) -> Schedule:
    return _plan_cycles(inst, (cycle,), opts, 2)


def plan_algorithm3(
    inst: Instance, cycles: Sequence[Cycle], opts: EngineOptions
) -> Schedule:
    cycles = tuple(cycles)
    if len(cycles) < 2:
        raise InputError("need at least two disjoint cycles")
    return _plan_cycles(inst, cycles, opts, 3)


def plan(inst: Instance, opts: Optional[EngineOptions] = None) -> Schedule:
    """Choose the algorithm from the instance's analyzed group and build
    its full schedule; an instance without usable cycles gets the
    no-symmetry schedule (one plain bounded enumeration)."""
    opts = opts or EngineOptions()
    group = inst.group
    if group is None or not group.selected_cycles:
        return _plain_schedule(inst, opts)
    cycles = group.selected_cycles
    if len(cycles) == 1:
        if cycles[0].k == inst.n:
            return plan_algorithm1(inst, opts)
        return plan_algorithm2(inst, cycles[0], opts)
    return plan_algorithm3(inst, cycles, opts)


def _plain_schedule(inst: Instance, opts: EngineOptions) -> Schedule:
    """The no-symmetry schedule; takes opts only to share the planners'
    signature."""
    sp = Subproblem("plain", inst, (), "PLAIN", ("plain",))
    return Schedule(0, ((sp,),), notes=("no usable symmetry; plain enumeration",))


# ---------------------------------------------------------------------------
# dispatch and aggregation


def _objective_of(inst: Instance, point: Sequence[Fraction]) -> Fraction:
    return sum((c * x for c, x in zip(inst.objective, point)), Fraction(0))


def _direct_fixed_probe(inst: Instance, layer: int) -> Outcome:
    """Evaluate the fixed-space candidate (layer/n) * 1 directly against
    the instance rows and bounds — exact, no enumeration."""
    if layer % inst.n:
        raise InputError("direct probe needs a layer divisible by n")
    value = Fraction(layer, inst.n)
    point = (value,) * inst.n
    for (lo, hi) in inst.bounds:
        if (lo is not None and value < lo) or (hi is not None and value > hi):
            return Outcome(INFEASIBLE)
    for row in inst.rows:
        act = sum((Fraction(c) * value for c in row.coeffs), Fraction(0))
        if row.sense == "<=" and act > row.rhs:
            return Outcome(INFEASIBLE)
        if row.sense == ">=" and act < row.rhs:
            return Outcome(INFEASIBLE)
        if row.sense == "==" and act != row.rhs:
            return Outcome(INFEASIBLE)
    objective = None if inst.sense == FEASIBILITY else _objective_of(inst, point)
    return Outcome(FEASIBLE, point=point, objective=objective)


def _aggregate(
    inst: Instance, schedule: Schedule, results: Sequence[SubResult], wall_time: float
) -> Report:
    """Fold outcomes into a report.  The results are those dispatched
    before the stop rule ended the run, plus Algorithm 1's direct
    stop-layer probe, which is not a scheduled subproblem."""
    feasible = [r for r in results if r.outcome.status == FEASIBLE]
    unknown = [r for r in results if r.outcome.status == UNKNOWN]

    def best(rs: Sequence[SubResult]) -> Optional[Fraction]:
        vals = [r.outcome.objective for r in rs if r.outcome.objective is not None]
        if not vals:
            return None
        return min(vals) if inst.sense == MIN else max(vals)

    f_e = best([r for r in feasible if r.tag in (S3, FIX)])
    f_l = best([r for r in feasible if r.tag == S1])
    f_all = best(feasible)

    point = None
    if feasible:
        if inst.sense == FEASIBILITY or f_all is None:
            point = feasible[0].outcome.point
        else:
            for r in feasible:
                if r.outcome.objective == f_all:
                    point = r.outcome.point
                    break

    if schedule.lp is not None and schedule.lp.status == UNBOUNDED:
        status = UNBOUNDED
    elif inst.sense == FEASIBILITY:
        if feasible:
            status = FEASIBLE
        elif unknown:
            status = UNKNOWN
        else:
            status = INFEASIBLE
    else:
        if unknown:
            status = UNKNOWN
        elif feasible:
            status = FEASIBLE
        else:
            status = INFEASIBLE

    return Report(
        algorithm=schedule.algorithm,
        status=status,
        counts=schedule.counts(),
        schedule=tuple((sp.id, sp.tag, sp.provenance) for sp in schedule.subproblems),
        results=tuple(results),
        f_star_e=f_e,
        f_star_l=f_l,
        f_star=f_all,
        point=point,
        lp=schedule.lp,
        wall_time=wall_time,
        warnings=tuple(symmetry_warnings(inst)),
        notes=schedule.notes,
    )


def _run(
    inst: Instance,
    opts: Optional[EngineOptions],
    planner: Callable[..., Schedule],
    *args,
) -> Report:
    """Plan with ``planner(inst, *args, opts)``, then export and solve the
    subproblems stage by stage in schedule order.  The run stops at the
    first Feasible result of a feasibility instance, and after the first
    layer stage with a Feasible result of Algorithm 1 on a max/min
    instance (layers come best first).  A layer walk that reaches its
    stop layer ends with the direct fixed-space probe.  A dry run solves
    nothing and reports every subproblem Unknown."""
    opts = opts or EngineOptions()
    t0 = time.perf_counter()
    schedule = planner(inst, *args, opts)
    if opts.export_dir:
        os.makedirs(opts.export_dir, exist_ok=True)
    results: list[SubResult] = []
    stopped = False
    for index, stage in enumerate(schedule.stages):
        found = False
        for sp in stage:
            if opts.export_dir:
                export_subproblem(sp, os.path.join(opts.export_dir, f"{sp.id}.json"))
            t1 = time.perf_counter()
            if opts.dry_run:
                out = Outcome(UNKNOWN)
            else:
                out = solve_subproblem(sp, box=opts.box, budget=opts.budget)
            results.append(SubResult(sp.id, sp.tag, sp.provenance, out, time.perf_counter() - t1))
            found = found or out.status == FEASIBLE
            if found and inst.sense == FEASIBILITY:
                break
        # stage 0 of a layer walk is the global S2, which bounds no layer
        layered = schedule.stop_layer is not None and index > 0
        if found and (inst.sense == FEASIBILITY or layered):
            stopped = True
            break

    if not stopped and schedule.stop_layer is not None and not opts.dry_run:
        t1 = time.perf_counter()
        out = _direct_fixed_probe(inst, schedule.stop_layer)
        results.append(
            SubResult(
                f"L{schedule.stop_layer}.fix",
                FIX,
                ("layer", schedule.stop_layer, "direct"),
                out,
                time.perf_counter() - t1,
            )
        )
    return _aggregate(inst, schedule, results, time.perf_counter() - t0)


def run_algorithm1(inst: Instance, opts: Optional[EngineOptions] = None) -> Report:
    """Full-cycle layer walk: global singularity subproblem, then per
    surviving layer anchor probes and one cut subproblem, stopping at
    the first feasible layer or at the first layer divisible by n, where
    the fixed-space point is evaluated directly."""
    return _run(inst, opts, plan_algorithm1)


def run_algorithm2(
    inst: Instance, cycle: Cycle, opts: Optional[EngineOptions] = None
) -> Report:
    """Sub-layer search along one selected cycle: its singularity
    subproblem, every residue's probes, then every residue's cut."""
    return _run(inst, opts, plan_algorithm2, cycle)


def run_algorithm3(
    inst: Instance, cycles: Sequence[Cycle], opts: Optional[EngineOptions] = None
) -> Report:
    """Residue-tuple search across several disjoint cycles: one
    singularity subproblem per cycle, every cycle's anchor probes, then
    every residue tuple's cut."""
    return _run(inst, opts, plan_algorithm3, cycles)


def run_plain(inst: Instance, opts: Optional[EngineOptions] = None) -> Report:
    """No-symmetry fallback: one bounded enumeration of the instance."""
    return _run(inst, opts, _plain_schedule)


def run_auto(inst: Instance, opts: Optional[EngineOptions] = None) -> Report:
    """plan() then run the chosen algorithm."""
    return _run(inst, opts, plan)


# ---------------------------------------------------------------------------
# report serialization


def _frac_json(v: Optional[Fraction]):
    return None if v is None else str(v)


def _outcome_dict(out: Outcome) -> dict:
    return {
        "status": out.status,
        "point": None if out.point is None else [str(x) for x in out.point],
        "objective": _frac_json(out.objective),
    }


def report_to_dict(report: Report) -> dict:
    """Stable JSON form of a report (rationals as "p/q" strings)."""
    return {
        "format": 1,
        "algorithm": report.algorithm,
        "status": report.status,
        "counts": {k: v for k, v in report.counts.items()},
        "objective": _frac_json(report.f_star),
        "objective_essential": _frac_json(report.f_star_e),
        "objective_layers": _frac_json(report.f_star_l),
        "point": None if report.point is None else [str(x) for x in report.point],
        "lp": None if report.lp is None else _outcome_dict(report.lp),
        "schedule": [
            {"id": sid, "tag": tag, "provenance": list(prov)}
            for sid, tag, prov in report.schedule
        ],
        "results": [
            {
                "id": r.id,
                "tag": r.tag,
                "provenance": list(r.provenance),
                "seconds": r.seconds,
                **_outcome_dict(r.outcome),
            }
            for r in report.results
        ],
        "wall_time": report.wall_time,
        "warnings": list(report.warnings),
        "notes": list(report.notes),
    }


# ---------------------------------------------------------------------------
# validation helpers


def _single_full_cycle(inst: Instance) -> Cycle:
    group = inst.group
    if group is None or len(group.selected_cycles) != 1:
        raise InputError("Algorithm 1 needs exactly one selected cycle")
    cycle = group.selected_cycles[0]
    if cycle.k != inst.n:
        raise InputError(
            f"Algorithm 1 needs a full-support cycle (k={cycle.k}, n={inst.n})"
        )
    return cycle


def _check_disjoint(inst: Instance, cycles: Sequence[Cycle]) -> None:
    seen: set[int] = set()
    for c in cycles:
        if max(c.support) > inst.n:
            raise InputError("cycle support escapes the variable range")
        overlap = seen & set(c.support)
        if overlap:
            raise InputError(f"cycles overlap on coordinates {sorted(overlap)}")
        seen |= set(c.support)
