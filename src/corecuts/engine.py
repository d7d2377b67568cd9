"""Orchestration of the three layer-search algorithms.

The engine owns no mathematics: it composes the synthesizer's
constraint sets into subproblem schedules, dispatches them to the
internal enumerator, and folds the outcomes.

Schedules are built completely before anything is solved, so subproblem
counts are a property of the plan, not of solver luck.  The shapes are:

* Algorithm 1 (one full n-cycle): a global singularity subproblem, then
  layers descending from the LP optimum layer; each surviving layer gets
  anchor probes for its projected essential set and one cut subproblem;
  the descent stops at the first layer divisible by n, where the only
  candidate worth checking is the fixed-space point (layer/n) * 1 and it
  is evaluated directly against the instance rows.
* Algorithm 2 (one k-cycle, k < n allowed): a global singularity
  subproblem for the cycle block plus, for every sub-layer residue
  1..k-1, anchor probes and one cut subproblem.  The residue-k class
  needs no cut subproblem: any integer point there averages (over the
  cycle subgroup) to a feasible fixed-space point, which the singularity
  subproblem already covers.
* Algorithm 3 (d >= 2 disjoint cycles): anchor probes per cycle length
  and residue, then one subproblem per residue tuple in
  [1..k_1] x ... x [1..k_d] — pure tuples (no residue at its cycle
  length) become cut subproblems, tuples with some-but-not-all residues
  at their cycle length become mixed singularity subproblems, and the
  all-k tuple collapses to a single fixed-space probe.

Aggregation follows the strictness rule: any Unknown outcome (budget or
box truncation) makes the overall verdict Unknown; Infeasible is only
reported when every scheduled subproblem certified exhaustion.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import product
from typing import Optional, Sequence

from .corepoints import EssentialSet, projected_essential_set
from .errors import InputError
from .exprs import Constraint, ConstraintSet, DEFAULT_EPS, Dot, Const, Add, EQ, SUBLAYER
from .perms import Cycle, GroupSpec
from .simplex import make_row
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
    cycle_var_names,
    fixed_space_anchor,
    s1_for_point,
    s2_singular,
    s3_anchor,
    smoothness,
    sublayer,
)

S1, S2, S3, FIX = "S1", "S2", "S3", "FIX"

SUM_MODE, PRODUCT_MODE = "sum", "product"


@dataclass(frozen=True)
class EngineOptions:
    budget: int = DEFAULT_NODE_BUDGET
    eps: float = DEFAULT_EPS
    box: int = DEFAULT_BOX
    #: essential points kept per residue when building probes and cuts
    essential_budget: int = 1
    anchor_mode: str = SUM_MODE
    export_dir: Optional[str] = None
    #: plan and report counts without dispatching any subproblem
    dry_run: bool = False

    def __post_init__(self) -> None:
        if self.anchor_mode not in (SUM_MODE, PRODUCT_MODE):
            raise InputError(f"unknown anchor mode {self.anchor_mode!r}")
        if self.essential_budget < 1:
            raise InputError("essential budget must be >= 1")
        if self.box < 0:
            raise InputError("box must be >= 0")


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
    subproblems: tuple[Subproblem, ...]
    #: Algorithm 1 only: the gating LP outcome
    lp: Optional[Outcome] = None
    #: Algorithm 1 only: the layer divisible by n where descent stops
    stop_layer: Optional[int] = None
    notes: tuple[str, ...] = ()

    def counts(self) -> dict[str, int]:
        out = {S1: 0, S2: 0, S3: 0, FIX: 0}
        for sp in self.subproblems:
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


def _essential(k: int, residue: int, budget: int) -> EssentialSet:
    return projected_essential_set(k, residue, budget)


def _probe(
    inst: Instance,
    sid: str,
    provenance: tuple,
    sets: Sequence[ConstraintSet],
) -> Subproblem:
    return Subproblem(sid, inst, tuple(sets), S3, provenance)


def _cut_sets(
    cycle: Cycle, residue: int, budget: int, eps: float
) -> list[ConstraintSet]:
    """Sub-layer row, smoothness guards, and one cut per essential point."""
    sets = [sublayer(cycle, residue), smoothness(cycle, eps)]
    for z in _essential(cycle.k, residue, budget).points:
        sets.append(s1_for_point(z, cycle, eps))
    return sets


def plan_algorithm1(inst: Instance, opts: EngineOptions) -> Schedule:
    cycle = _single_full_cycle(inst)
    n = inst.n
    notes: list[str] = []
    lp = lp_relax(inst)
    if lp.status in (INFEASIBLE, UNBOUNDED):
        return Schedule(1, (), lp=lp, notes=(f"LP relaxation {lp.status}",))
    assert lp.point is not None
    layer_value = sum(lp.point, Fraction(0))
    k_start = _floor(layer_value)
    notes.append(f"LP optimum layer {layer_value}, descent starts at {k_start}")

    subs: list[Subproblem] = [
        Subproblem("S2", inst, (s2_singular(cycle, opts.box, opts.eps),), S2, ("global",))
    ]
    stop_layer = None
    layer = k_start
    while True:
        if layer % n == 0:
            stop_layer = layer
            notes.append(f"descent stops at layer {layer} (divisible by {n})")
            break
        if not _layer_lp_feasible(inst, layer):
            notes.append(f"layer {layer} pruned (empty LP relaxation)")
            layer -= 1
            continue
        residue = layer % n
        ess = _essential(n, residue, opts.essential_budget)
        row = _layer_row(inst, layer)
        for j, z in enumerate(ess.points):
            subs.append(
                _probe(
                    inst,
                    f"L{layer}.S3.{j}",
                    ("layer", layer, "S3", j),
                    (row, s3_anchor(z, cycle)),
                )
            )
        sets = [row, smoothness(cycle, opts.eps)]
        for z in ess.points:
            sets.append(s1_for_point(z, cycle, opts.eps))
        subs.append(Subproblem(f"L{layer}.S1", inst, tuple(sets), S1, ("layer", layer, "S1")))
        layer -= 1
    return Schedule(1, tuple(subs), lp=lp, stop_layer=stop_layer, notes=tuple(notes))


def plan_algorithm2(inst: Instance, cycle: Cycle, opts: EngineOptions) -> Schedule:
    _check_cycle(inst, cycle)
    k = cycle.k
    subs: list[Subproblem] = [
        Subproblem("S2", inst, (s2_singular(cycle, opts.box, opts.eps),), S2, ("global",))
    ]
    for i in range(1, k):
        ess = _essential(k, i, opts.essential_budget)
        for j, z in enumerate(ess.points):
            subs.append(
                _probe(
                    inst,
                    f"R{i}.S3.{j}",
                    ("residue", i, "S3", j),
                    (sublayer(cycle, i), s3_anchor(z, cycle)),
                )
            )
        subs.append(
            Subproblem(
                f"R{i}.S1",
                inst,
                tuple(_cut_sets(cycle, i, opts.essential_budget, opts.eps)),
                S1,
                ("residue", i, "S1"),
            )
        )
    return Schedule(2, tuple(subs))


def plan_algorithm3(
    inst: Instance, cycles: Sequence[Cycle], opts: EngineOptions
) -> Schedule:
    cycles = tuple(cycles)
    if len(cycles) < 2:
        raise InputError("need at least two disjoint cycles")
    _check_disjoint(inst, cycles)
    subs: list[Subproblem] = []

    # anchor probes; in sum mode one cycle of each distinct length carries
    # the probes for that length (anchoring the same residue/point pair on
    # a second cycle of equal length adds no new feasibility information)
    if opts.anchor_mode == SUM_MODE:
        seen_lengths: set[int] = set()
        for c in cycles:
            if c.k in seen_lengths:
                continue
            seen_lengths.add(c.k)
            for t in range(1, c.k):
                ess = _essential(c.k, t, opts.essential_budget)
                for j, z in enumerate(ess.points):
                    subs.append(
                        _probe(
                            inst,
                            f"A{c.support[0]}.R{t}.S3.{j}",
                            ("anchor", c.support[0], t, j),
                            (sublayer(c, t), s3_anchor(z, c)),
                        )
                    )
    else:
        per_cycle: list[list[tuple[int, int, tuple[int, ...]]]] = []
        for c in cycles:
            rows = []
            for t in range(1, c.k):
                for j, z in enumerate(_essential(c.k, t, opts.essential_budget).points):
                    rows.append((t, j, z))
            per_cycle.append(rows)
        for combo in product(*per_cycle):
            sets: list[ConstraintSet] = []
            tag_bits = []
            for c, (t, j, z) in zip(cycles, combo):
                sets.append(sublayer(c, t))
                sets.append(s3_anchor(z, c))
                tag_bits.append(f"{c.support[0]}r{t}p{j}")
            sid = "A." + "_".join(tag_bits)
            subs.append(
                _probe(inst, sid, ("anchor",) + tuple(tag_bits), sets)
            )

    # residue tuples
    for combo in product(*[range(1, c.k + 1) for c in cycles]):
        label = "T" + "_".join(str(t) for t in combo)
        at_k = [t == c.k for t, c in zip(combo, cycles)]
        if all(at_k):
            sets = tuple(fixed_space_anchor(c) for c in cycles)
            subs.append(Subproblem(f"{label}.FIX", inst, sets, FIX, ("tuple",) + combo))
            continue
        sets = []
        for c, t, full in zip(cycles, combo, at_k):
            if full:
                sets.append(s2_singular(c, opts.box, opts.eps))
            else:
                sets.extend(_cut_sets(c, t, opts.essential_budget, opts.eps))
        tag = S2 if any(at_k) else S1
        subs.append(Subproblem(f"{label}.{tag}", inst, tuple(sets), tag, ("tuple",) + combo))
    return Schedule(3, tuple(subs))


def plan(inst: Instance, opts: Optional[EngineOptions] = None) -> Schedule:
    """Choose the algorithm from the instance's analyzed group and build
    its full schedule; an instance without usable cycles gets the empty
    no-symmetry schedule (plain bounded enumeration)."""
    opts = opts or EngineOptions()
    group = inst.group
    if group is None or not group.selected_cycles:
        return Schedule(0, (), notes=("no usable symmetry; plain enumeration",))
    cycles = group.selected_cycles
    if len(cycles) == 1:
        if cycles[0].k == inst.n:
            return plan_algorithm1(inst, opts)
        return plan_algorithm2(inst, cycles[0], opts)
    return plan_algorithm3(inst, cycles, opts)


# ---------------------------------------------------------------------------
# dispatch and aggregation


def _dispatch(
    subs: Sequence[Subproblem], opts: EngineOptions
) -> list[SubResult]:
    """Solve a group of subproblems one after another and return the
    results in schedule order."""
    if opts.export_dir:
        os.makedirs(opts.export_dir, exist_ok=True)
        for sp in subs:
            export_subproblem(
                sp, os.path.join(opts.export_dir, f"{sp.id}.json"), eps=opts.eps
            )
    if opts.dry_run:
        return [SubResult(sp.id, sp.tag, sp.provenance, Outcome(UNKNOWN), 0.0) for sp in subs]

    results = []
    for sp in subs:
        t0 = time.perf_counter()
        out = solve_subproblem(sp, box=opts.box, budget=opts.budget, eps=opts.eps)
        results.append(SubResult(sp.id, sp.tag, sp.provenance, out, time.perf_counter() - t0))
    return results


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
    inst: Instance,
    schedule: Schedule,
    results: Sequence[SubResult],
    extra: Sequence[SubResult] = (),
    dispatched_all: bool = True,
) -> Report:
    """Fold outcomes into a report.  `extra` carries direct evaluations
    (Algorithm 1's stop-layer probe) that are not scheduled subproblems;
    `dispatched_all` is False when an early stop left part of the
    schedule unsolved (the undispatched part is then irrelevant to the
    verdict by the stopping rule)."""
    all_results = list(results) + list(extra)
    feasible = [r for r in all_results if r.outcome.status == FEASIBLE]
    unknown = [r for r in all_results if r.outcome.status == UNKNOWN]

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

    if inst.sense == FEASIBILITY:
        if feasible:
            status = FEASIBLE
        elif unknown or not dispatched_all:
            status = UNKNOWN
        else:
            status = INFEASIBLE
    else:
        if unknown:
            status = UNKNOWN
        elif feasible:
            status = FEASIBLE
        elif not dispatched_all:
            status = UNKNOWN
        else:
            status = INFEASIBLE

    return Report(
        algorithm=schedule.algorithm,
        status=status,
        counts=schedule.counts(),
        schedule=tuple((sp.id, sp.tag, sp.provenance) for sp in schedule.subproblems),
        results=tuple(results) + tuple(extra),
        f_star_e=f_e,
        f_star_l=f_l,
        f_star=f_all,
        point=point,
        lp=schedule.lp,
        wall_time=0.0,  # patched by callers
        warnings=tuple(symmetry_warnings(inst)),
        notes=schedule.notes,
    )


def _finish(report: Report, t0: float) -> Report:
    return replace(report, wall_time=time.perf_counter() - t0)


def run_algorithm1(inst: Instance, opts: Optional[EngineOptions] = None) -> Report:
    """Full-cycle layer descent: global singularity subproblem, then per
    surviving layer anchor probes and one cut subproblem, stopping at
    the first feasible layer or at the first layer divisible by n, where
    the fixed-space point is evaluated directly."""
    opts = opts or EngineOptions()
    t0 = time.perf_counter()
    schedule = plan_algorithm1(inst, opts)
    if schedule.lp is not None and schedule.lp.status == INFEASIBLE:
        return _finish(_aggregate(inst, schedule, []), t0)
    if schedule.lp is not None and schedule.lp.status == UNBOUNDED:
        rep = _aggregate(inst, schedule, [])
        return _finish(replace(rep, status=UNBOUNDED), t0)

    by_layer: dict[tuple, list[Subproblem]] = {}
    order: list[tuple] = []
    for sp in schedule.subproblems:
        key = ("global",) if sp.provenance == ("global",) else sp.provenance[:2]
        if key not in by_layer:
            by_layer[key] = []
            order.append(key)
        by_layer[key].append(sp)

    results: list[SubResult] = []
    stopped_early = False
    for key in order:
        group = by_layer[key]
        if key == ("global",):
            results.extend(_dispatch(group, opts))
            if inst.sense == FEASIBILITY and any(
                r.outcome.status == FEASIBLE for r in results
            ):
                stopped_early = True
                break
            continue
        probes = [sp for sp in group if sp.tag == S3]
        cuts = [sp for sp in group if sp.tag == S1]
        probe_results = _dispatch(probes, opts)
        results.extend(probe_results)
        if any(r.outcome.status == FEASIBLE for r in probe_results):
            stopped_early = True
            break
        cut_results = _dispatch(cuts, opts)
        results.extend(cut_results)
        if any(r.outcome.status == FEASIBLE for r in cut_results):
            stopped_early = True
            break

    extra: list[SubResult] = []
    if not stopped_early and schedule.stop_layer is not None and not opts.dry_run:
        t1 = time.perf_counter()
        out = _direct_fixed_probe(inst, schedule.stop_layer)
        extra.append(
            SubResult(
                f"L{schedule.stop_layer}.fix",
                FIX,
                ("layer", schedule.stop_layer, "direct"),
                out,
                time.perf_counter() - t1,
            )
        )
    dispatched_all = stopped_early or len(results) == len(schedule.subproblems)
    # an early stop is a deliberate verdict per the descent rule
    rep = _aggregate(
        inst, schedule, results, extra, dispatched_all=dispatched_all or stopped_early
    )
    return _finish(rep, t0)


def run_algorithm2(
    inst: Instance, cycle: Cycle, opts: Optional[EngineOptions] = None
) -> Report:
    """Sub-layer search along one selected cycle: full dispatch of the
    singularity subproblem and every residue's probes and cuts, folded
    at the end."""
    opts = opts or EngineOptions()
    t0 = time.perf_counter()
    schedule = plan_algorithm2(inst, cycle, opts)
    results = _dispatch(schedule.subproblems, opts)
    return _finish(_aggregate(inst, schedule, results), t0)


def run_algorithm3(
    inst: Instance, cycles: Sequence[Cycle], opts: Optional[EngineOptions] = None
) -> Report:
    """Residue-tuple search across several disjoint cycles: full
    dispatch of anchor probes and every tuple subproblem."""
    opts = opts or EngineOptions()
    t0 = time.perf_counter()
    schedule = plan_algorithm3(inst, cycles, opts)
    results = _dispatch(schedule.subproblems, opts)
    return _finish(_aggregate(inst, schedule, results), t0)


def run_plain(inst: Instance, opts: Optional[EngineOptions] = None) -> Report:
    """No-symmetry fallback: one bounded enumeration of the instance."""
    opts = opts or EngineOptions()
    t0 = time.perf_counter()
    schedule = Schedule(0, (), notes=("no usable symmetry; plain enumeration",))
    sp = Subproblem("plain", inst, (), "PLAIN", ("plain",))
    results = (
        [SubResult("plain", "PLAIN", ("plain",), Outcome(UNKNOWN), 0.0)]
        if opts.dry_run
        else _dispatch([sp], opts)
    )
    return _finish(_aggregate(inst, schedule, results), t0)


def run_auto(inst: Instance, opts: Optional[EngineOptions] = None) -> Report:
    """plan() then run the chosen algorithm."""
    opts = opts or EngineOptions()
    group = inst.group
    if group is None or not group.selected_cycles:
        return run_plain(inst, opts)
    cycles = group.selected_cycles
    if len(cycles) == 1:
        if cycles[0].k == inst.n:
            return run_algorithm1(inst, opts)
        return run_algorithm2(inst, cycles[0], opts)
    return run_algorithm3(inst, cycles, opts)


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


def _check_cycle(inst: Instance, cycle: Cycle) -> None:
    if max(cycle.support) > inst.n:
        raise InputError("cycle support escapes the variable range")


def _check_disjoint(inst: Instance, cycles: Sequence[Cycle]) -> None:
    seen: set[int] = set()
    for c in cycles:
        _check_cycle(inst, c)
        overlap = seen & set(c.support)
        if overlap:
            raise InputError(f"cycles overlap on coordinates {sorted(overlap)}")
        seen |= set(c.support)


def _layer_lp_feasible(inst: Instance, layer: int) -> bool:
    from .simplex import lp_feasible

    rows = list(inst.rows)
    rows.append(make_row([Fraction(1)] * inst.n, "==", Fraction(layer)))
    return lp_feasible(inst.n, rows, list(inst.bounds))


def _floor(v: Fraction) -> int:
    return v.numerator // v.denominator
