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
  pruned.  No LP is solved: the cycle fixes the objective and the
  bounds and permutes the rows, so the orbit average of an LP point is
  an LP point on the fixed line x = t * 1 with the same sum and
  objective.  The relaxation optimum and the layer range are thus read
  exactly off one interval of t (``_fixed_line``), which intersects the
  bounds with each of the instance's merged rows (``Instance._merged``).
  A feasibility instance, or one whose objective sums to 0, walks down
  from the top of the layer range; when sum(x) has no LP maximum it
  walks up from the bottom instead, and when it has no LP bound at all
  the walk is empty and stops at layer 0.  Each surviving layer gets
  anchor probes for its projected essential set and one cut
  subproblem; the walk stops at the first layer divisible by n, where
  the only candidate worth checking is the fixed-space point
  (layer/n) * 1, which is feasible iff layer/n lies in the same
  interval.
* Algorithms 2 (one k-cycle, k < n) and 3 (d >= 2 disjoint cycles)
  share one residue planner.  Its one stage holds, in order, one
  singularity subproblem (S2) per cycle, the anchor probes (S3) of every
  cycle for each sub-layer residue t in 1..k-1, and one cut subproblem
  (S1) per residue tuple in [1..k_1-1] x ... x [1..k_d-1]: every
  cycle's sub-layer row, smoothness guards and cuts.  Each set is built
  once per process and shared: this module keeps the only set caches
  (``_s2_set``, ``_residue_pieces`` and ``_layer_row``), so a
  cycle-residue's probes and every tuple's cut hold the same set
  objects, and so do the later runs, on any instance, that plan the
  same cycle.

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
  So ``plan()`` plans only the selected cycles whose permutation alone
  fixes the instance, by the check ``symmetry_warnings`` makes of a
  generator.

  One point per orbit (Liberti, "Reformulations in mathematical
  programming: automatic symmetry detection and exploitation", Math.
  Program. 2012).  Every S2 and S1 subproblem carries the cycles whose
  rotations it allows (``Subproblem.cycles``): Algorithm 1's global S2
  and each layer cut its one cycle, and Algorithms 2 and 3's every
  per-cycle S2 and every tuple cut all planned cycles.  The enumerator
  then searches only max-first points, those with ``x_c1 >= x_cj`` on
  every block, and passes a block when some rotation of it meets the
  block's S1 cuts.  This is sound because every orbit has a max-first
  member, and every row but the S1 cuts is invariant under rotating a
  block: the instance rows (each cycle fixes the instance by itself,
  which ``Subproblem`` checks), layer and sub-layer rows (sums over the
  block), smoothness guards (DFT moduli), and the S2 singularity of a
  block.  The enumerator decides the guards, the cuts and the
  singularity exactly on the block, in place of the exported
  expressions and disjunction (``spectral.cut_rotation``,
  ``spectral.is_singular``).  Each S1 cut reads only its own block
  (synthesis records it, ``ConstraintSet.cycle``, with the cut's point),
  so the blocks rotate independently.  So a subproblem holds a point if
  and only if it holds a max-first point whose blocks some rotation
  makes pass their cuts.  S3 probes pin a rotation and carry no
  cycles, and plain enumeration (``run_plain``, and the plain fallback
  of ``plan()``) searches every point.  The reported point may differ
  from a full search's by a rotation of its blocks; statuses and optima
  do not.  The exported documents hold no orbital rows.

Without usable symmetry the schedule is one plain enumeration of the
instance.  ``plan()`` also plans an instance plain when its declared group
does not fix it (``symmetry_warnings``), or when no selected cycle fixes
it by itself, and the public planners, and so the forced algorithms,
refuse such an instance.

One runner exports and solves every schedule's subproblems in order and
stops early by one rule: a feasibility instance stops at its first
Feasible result, Algorithm 1 on a max/min instance stops at the first
layer that cannot beat its incumbent (below), Algorithms 2 and 3 on a
max/min instance stop at a result that reaches the LP bound (below),
and every run stops at a result that proves the instance empty.  A walk
that reaches its stop layer ends with the direct fixed-space probe,
unless such a proof, or the incumbent, ended it.  The proof
(``solve_subproblem``) comes from a search that adds no row of its own,
as a planned S2 does, prunes no node by a block check, starts from no
incumbent and ends Infeasible: it searched every integer point of the
instance up to a rotation of each block, so no later subproblem, nor
the probe, holds a point.  On the hard instances, whose S2 the linear
rows alone refute, the run so ends after its first subproblem.

Every max/min run keeps one incumbent, the best value found so far.  In
Algorithms 2 and 3 each later search starts its cutoff row from it (the
incumbent bound of branch and bound: Land and Doig, Econometrica 1960),
so it reports only strictly better points.  At the first incumbent the
runner reads the LP bound off the LP over the fixed space of the
planned cycles, one column per orbit (``solve._orbit_bound``).  No
integer point scores above it (below, for min), so an incumbent that
equals it is optimal, and the run stops there.  Algorithm 1 and plain
runs search without a cutoff.  Algorithm 1's cycle makes every weight
equal to some w, so every point of layer L scores w * L, and the walk
visits its layers best first: a layer stage, and the direct probe, runs
only while its w * L beats the incumbent (``_beats``).  So after the
global S2's optimum, or a layer's, no layer runs that cannot beat it.

The instance and each added set keep their own readings (see
``solve``), so the runner hands nothing around but one dict of encoded
JSON texts per exporting run.  Aggregation follows the strictness rule:
on a max/min instance any Unknown outcome (budget or box truncation)
makes the verdict Unknown; Infeasible is only reported when every
scheduled subproblem ran and certified exhaustion, or when a result
proved the instance empty.  A note names the result that proved the
instance empty, or that reached the LP bound.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Callable, Optional, Sequence

from .corepoints import projected_essential_set
from .errors import InputError, _integer
from .exprs import Add, Const, Constraint, ConstraintSet, DEFAULT_EPS, Dot, EQ
from .exprs import S1, S2, S3, SUBLAYER
from .perms import Cycle
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
    _check_disjoint,
    _check_orbits,
    _cycle_misses,
    _orbit_bound,
    export_subproblem,
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

FIX = "FIX"


@dataclass(frozen=True)
class EngineOptions:
    budget: int = DEFAULT_NODE_BUDGET
    eps: float = DEFAULT_EPS
    #: the enumerator's half-width for a missing bound
    #: (``solve.search_box``); no plan or export reads it
    box: int = DEFAULT_BOX
    #: essential points kept per residue when building probes and cuts
    essential_budget: int = 1
    export_dir: Optional[str] = None
    #: plan, export if asked, and report counts without solving anything
    dry_run: bool = False

    def __post_init__(self) -> None:
        for name in ("budget", "box", "essential_budget"):
            _integer(getattr(self, name), name.replace("_", " "))
        if isinstance(self.eps, bool) or not isinstance(self.eps, (int, float, Fraction)):
            raise InputError(f"eps must be a number, not {self.eps!r}")
        if self.budget < 1:
            raise InputError("budget must be >= 1")
        if self.essential_budget < 1:
            raise InputError("essential budget must be >= 1")
        if self.box < 0:
            raise InputError("box must be >= 0")
        if not (self.eps > 0 and math.isfinite(self.eps)):
            raise InputError("eps must be finite and > 0")
        if not isinstance(self.dry_run, bool):
            raise InputError(f"dry run must be a bool, not {self.dry_run!r}")
        if self.export_dir is not None:
            if not isinstance(self.export_dir, (str, os.PathLike)):
                raise InputError(f"export dir must be a path, not {self.export_dir!r}")
            if not os.fspath(self.export_dir):
                raise InputError("export dir must not be empty")


@dataclass(frozen=True)
class Subproblem:
    id: str
    base: Instance
    added: tuple[ConstraintSet, ...]
    tag: str  # S1 | S2 | S3 | FIX
    provenance: tuple
    #: the disjoint cycles whose rotations the subproblem allows: the
    #: enumerator searches one max-first point per orbit of them and
    #: retries each S1 cut over its block's rotations.  Each must fix
    #: the instance by itself, which is checked here
    #: (``solve._check_orbits``); whoever sets them vouches that every
    #: added row but the S1 cuts holds on a whole orbit, as the
    #: planners' sets do.
    cycles: tuple[Cycle, ...] = ()

    def __post_init__(self) -> None:
        if type(self.cycles) is not tuple:
            object.__setattr__(self, "cycles", tuple(self.cycles))
        tags = {cs.tag for cs in self.added}
        primary = {S1, S2, S3} & tags
        if self.tag in (S1, S2, S3) and self.tag not in primary:
            raise InputError(f"subproblem {self.id} tagged {self.tag} without a {self.tag} set")
        if not self.cycles:
            return
        if S3 in primary:
            raise InputError(f"subproblem {self.id}: an S3 anchor pins a rotation, so no cycles")
        _check_orbits(self.base, self.cycles)
        for cs in self.added:
            if cs.tag == S1 and cs.cycle not in self.cycles:
                raise InputError(f"subproblem {self.id}: an S1 cut reads no block of its cycles")


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
    #: plan() only: how the declared group fails to fix the instance
    warnings: tuple[str, ...] = ()

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
    #: the run's incumbent the search started from (``solve_subproblem``'s
    #: ``cutoff``), None for none
    cutoff: Optional[Fraction] = None


@dataclass(frozen=True)
class Report:
    """One run's verdict.  ``results`` lists the subproblems that ran, in
    schedule order (a prefix of ``schedule``), plus Algorithm 1's direct
    probe; ``schedule`` and ``counts`` describe the whole plan.

    On a max/min run of Algorithms 2 and 3 each result ran under the
    run's incumbent (``SubResult.cutoff``), so its Feasible beats every
    earlier one and its Infeasible means only that it holds no better
    point.  ``f_star_e`` and ``f_star_l`` (the best S3/FIX and S1
    values) can therefore lose a value that an earlier result
    dominates.  ``f_star``, the point and the status are those the run
    gives without the cutoff, whenever no search runs out of budget."""

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


#: entries each set cache of the planner keeps, least recently used
#: dropped first
_SETS_KEPT = 1024

@lru_cache(maxsize=_SETS_KEPT)
def _s2_set(cycle: Cycle) -> ConstraintSet:
    """A cycle's S2 disjunction, built once per process."""
    return s2_singular(cycle)


@lru_cache(maxsize=_SETS_KEPT)
def _layer_row(n: int, layer: int) -> ConstraintSet:
    """sum(x) = layer over x1..xn, built once per process."""
    names = tuple(f"x{i}" for i in range(1, n + 1))
    expr = Add(
        (
            Dot(tuple(Fraction(1) for _ in names), names),
            Const(Fraction(-layer)),
        )
    )
    return ConstraintSet(tag=SUBLAYER, constraints=(Constraint(expr, EQ),))


@lru_cache(maxsize=_SETS_KEPT)
def _residue_pieces(
    cycle: Cycle, residue: int, essential_budget: int, eps: float
) -> tuple[ConstraintSet, tuple[ConstraintSet, ...], ConstraintSet, tuple[ConstraintSet, ...]]:
    """One cycle-residue's sets, built once per process: its sub-layer
    row, the S3 anchor of each essential point, its smoothness guards
    and the S1 cut of each essential point.  The key is made of values
    ``Cycle`` and ``EngineOptions`` have checked; an int eps and the
    float it equals share an entry, and build equal sets."""
    points = projected_essential_set(cycle.k, residue, essential_budget).points
    return (
        sublayer(cycle, residue),
        tuple(s3_anchor(z, cycle) for z in points),
        smoothness(cycle, eps),
        tuple(s1_for_point(z, cycle, eps) for z in points),
    )


def _residue_sets(
    cycle: Cycle, residue: int, opts: EngineOptions, row: Optional[ConstraintSet] = None
) -> tuple[tuple[tuple[ConstraintSet, ...], ...], tuple[ConstraintSet, ...]]:
    """The sets of one residue: the probe sets (row, anchor) of each
    essential point, and the cut (row, smoothness guards, one S1 cut per
    essential point).  The row is the residue's sub-layer row, or the
    layer row Algorithm 1 gives."""
    sub, anchors, guards, cuts = _residue_pieces(cycle, residue, opts.essential_budget, opts.eps)
    row = sub if row is None else row
    return tuple((row, a) for a in anchors), (row, guards) + cuts


def plan_algorithm1(inst: Instance, opts: EngineOptions) -> Schedule:
    """Algorithm 1's layer walk; refuses an instance its declared group,
    or its cycle alone, does not fix."""
    cycles = inst.group.selected_cycles if inst.group else ()
    _check_symmetric(inst, cycles)
    return _plan_algorithm1(inst, opts)


def _fixed_line(inst: Instance) -> tuple[Optional[Fraction], Optional[Fraction], bool]:
    """The instance on its fixed line x = t * 1: the ends t_lo and t_hi
    of the values of t it admits (None: no such end), and whether there
    are none.  Each merged row (key, lo, hi) reads lo <= sum(a) * t <= hi
    there, and a row with sum(a) = 0 holds at every t or at none; the
    declared bounds intersect."""
    merged, nonempty = inst._merged
    lows = [Fraction(lo) for lo, _ in inst.bounds if lo is not None]
    highs = [Fraction(hi) for _, hi in inst.bounds if hi is not None]
    for key, (lo, hi) in merged.items():
        # a bound is a ratio (num, den) with den > 0
        s = sum(a for _, a in key)
        if s == 0:
            nonempty = nonempty and (lo is None or lo[0] <= 0) and (hi is None or hi[0] >= 0)
            continue
        low, high = (None if b is None else Fraction(b[0], b[1] * s) for b in (lo, hi))
        if s < 0:
            low, high = high, low
        if low is not None:
            lows.append(low)
        if high is not None:
            highs.append(high)
    t_lo, t_hi = max(lows, default=None), min(highs, default=None)
    empty = not nonempty or (t_lo is not None and t_hi is not None and t_lo > t_hi)
    return t_lo, t_hi, empty


def _plan_algorithm1(inst: Instance, opts: EngineOptions) -> Schedule:
    """The layer walk of an instance its group and cycle fix, planned on
    the fixed line (``_fixed_line``).  The cycle fixes the objective,
    w * 1, and the bounds, and permutes the rows, so the orbit average
    (sum(x)/n) * 1 of an LP point is an LP point with the same sum and
    objective: the relaxation optimum and the layer range {sum(x)} are
    those of the LP over x = t * 1 (Bödi, Herr and Joswig, "Algorithms
    for highly symmetric linear and integer programs", Math. Program.
    2013)."""
    cycle = _single_full_cycle(inst)
    n = inst.n
    t_lo, t_hi, empty = _fixed_line(inst)
    if empty:
        return Schedule(1, (), lp=Outcome(INFEASIBLE), notes=("LP relaxation Infeasible",))
    weight = sum(inst.objective, Fraction(0))
    if inst.sense != FEASIBILITY and weight:
        # the objective is weight * t: walk from the LP optimum layer
        # toward worse values (down, or up when it rewards lower layers),
        # so the first feasible layer is best
        up = (inst.sense == MIN) == (weight > 0)
        best = t_lo if up else t_hi
        if best is None:
            return Schedule(1, (), lp=Outcome(UNBOUNDED), notes=("LP relaxation Unbounded",))
        lp = Outcome(FEASIBLE, point=(best,) * n, objective=weight * best)
    else:
        # a feasibility or zero-objective instance walks down from the top
        # of the layer range, or up from its bottom when it has no top
        up, best = t_hi is None, t_hi
        if inst.sense != FEASIBILITY:
            # every point of the line is optimal: take the walk's start
            t = next((t for t in (t_hi, t_lo) if t is not None), Fraction(0))
            lp = Outcome(FEASIBLE, point=(t,) * n, objective=Fraction(0))
        elif up:
            lp = Outcome(FEASIBLE)
        else:
            lp = Outcome(FEASIBLE, point=(t_hi,) * n, objective=n * t_hi)
    walk = "ascent" if up else "descent"
    notes: list[str] = []
    if best is not None:
        layer = math.ceil(n * best) if up else math.floor(n * best)
        notes.append(f"LP optimum layer {n * best}, {walk} starts at {layer}")
    elif t_lo is not None:
        layer = math.ceil(n * t_lo)
        notes.append(
            f"LP layer range has no top; LP bottom layer {n * t_lo}, ascent starts at {layer}"
        )
    else:
        # every layer holds LP points, so their orbit averages put
        # (0, ..., 0) in the relaxation: the walk is empty and the probe
        # runs at layer 0
        layer = 0
        notes.append("LP layer range has no top or bottom; ascent starts at 0")
    # the walk moves away from its start, so a walked layer is LP-empty
    # iff it lies beyond the end of the layer range it heads toward
    far = t_hi if up else t_lo
    end = None if far is None else n * far
    step = 1 if up else -1

    s2 = _s2_set(cycle)
    stages: list[tuple[Subproblem, ...]] = [
        (Subproblem("S2", inst, (s2,), S2, ("global",), (cycle,)),)
    ]
    while layer % n:
        if end is not None and (layer > end if up else layer < end):
            notes.append(f"layer {layer} pruned (empty LP relaxation)")
            layer += step
            continue
        probes, cut = _residue_sets(cycle, layer % n, opts, _layer_row(n, layer))
        stages.append(
            tuple(
                Subproblem(f"L{layer}.S3.{j}", inst, sets, S3, ("layer", layer, "S3", j))
                for j, sets in enumerate(probes)
            )
        )
        cut_sp = Subproblem(f"L{layer}.S1", inst, cut, S1, ("layer", layer, "S1"), (cycle,))
        stages.append((cut_sp,))
        layer += step
    notes.append(f"{walk} stops at layer {layer} (divisible by {n})")
    return Schedule(1, tuple(stages), lp=lp, stop_layer=layer, notes=tuple(notes))


def _plan_cycles(
    inst: Instance, cycles: tuple[Cycle, ...], opts: EngineOptions, algorithm: int
) -> Schedule:
    """The residue schedule of Algorithms 2 and 3: one S2 per cycle, the
    anchor probes of every cycle and residue, then one cut subproblem per
    residue tuple in [1..k_1-1] x ... x [1..k_d-1]."""
    subs = [
        Subproblem(
            f"A{c.support[0]}.S2",
            inst,
            (_s2_set(c),),
            S2,
            ("singular", c.support[0]),
            cycles,
        )
        for c in cycles
    ]
    # every tuple shares the cut of each of its (cycle, residue)s
    cuts: dict[tuple[int, int], tuple[ConstraintSet, ...]] = {}
    for c in cycles:
        s = c.support[0]
        for t in range(1, c.k):
            probes, cuts[s, t] = _residue_sets(c, t, opts)
            subs.extend(
                Subproblem(f"A{s}.R{t}.S3.{j}", inst, sets, S3, ("anchor", s, t, j))
                for j, sets in enumerate(probes)
            )
    for combo in product(*[range(1, c.k) for c in cycles]):
        sets = tuple(cs for c, t in zip(cycles, combo) for cs in cuts[c.support[0], t])
        label = "T" + "_".join(str(t) for t in combo)
        subs.append(Subproblem(f"{label}.S1", inst, sets, S1, ("tuple",) + combo, cycles))
    return Schedule(algorithm, (tuple(subs),))


def plan_algorithm2(inst: Instance, cycle: Cycle, opts: EngineOptions) -> Schedule:
    """Algorithm 2's residue schedule along one cycle; refuses an
    instance its declared group, or the cycle alone, does not fix."""
    _check_symmetric(inst, (cycle,))
    return _plan_cycles(inst, (cycle,), opts, 2)


def plan_algorithm3(
    inst: Instance, cycles: Sequence[Cycle], opts: EngineOptions
) -> Schedule:
    """Algorithm 3's residue schedule across disjoint cycles; refuses an
    instance its declared group, or one of the cycles alone, does not
    fix."""
    cycles = tuple(cycles)
    if len(cycles) < 2:
        raise InputError("need at least two disjoint cycles")
    _check_symmetric(inst, cycles)
    return _plan_cycles(inst, cycles, opts, 3)


def plan(inst: Instance, opts: Optional[EngineOptions] = None) -> Schedule:
    """Choose the algorithm from the instance's analyzed group and build
    its full schedule; an instance without usable cycles, or whose
    declared group does not fix it, gets the no-symmetry schedule (one
    plain bounded enumeration).  Only the selected cycles that fix the
    instance by themselves are planned, each with a note when it does
    not: a cycle of a product generator may not.  With none left, the
    schedule is plain."""
    opts = opts or EngineOptions()
    group = inst.group
    if group is None:
        return _plain_schedule(inst, opts)
    _check_disjoint(inst, group.selected_cycles)
    warnings = tuple(symmetry_warnings(inst))
    if warnings:
        note = "declared group does not fix the instance; plain enumeration"
        return replace(_plain_schedule(inst, opts), notes=(note,), warnings=warnings)
    if not group.selected_cycles:
        return _plain_schedule(inst, opts)
    cycles, notes = [], []
    for c in group.selected_cycles:
        misses = _cycle_misses(inst, c)
        if misses:
            notes.append(f"cycle {c} alone {', '.join(misses)}; not planned")
        else:
            cycles.append(c)
    if not cycles:
        note = "no selected cycle fixes the instance by itself; plain enumeration"
        return replace(_plain_schedule(inst, opts), notes=(*notes, note))
    # the group and the cycles were checked above, so the planner bodies
    # run unchecked
    if len(cycles) == 1 and cycles[0].k == inst.n:
        schedule = _plan_algorithm1(inst, opts)
    else:
        schedule = _plan_cycles(inst, tuple(cycles), opts, 2 if len(cycles) == 1 else 3)
    return replace(schedule, notes=(*notes, *schedule.notes)) if notes else schedule


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
    """Evaluate the fixed-space candidate (layer/n) * 1 directly: it is
    feasible iff layer/n lies on the instance's fixed line
    (``_fixed_line``) — exact, no enumeration."""
    n = inst.n
    if layer % n:
        raise InputError("direct probe needs a layer divisible by n")
    value = Fraction(layer, n)
    t_lo, t_hi, empty = _fixed_line(inst)
    if empty or (t_lo is not None and value < t_lo) or (t_hi is not None and value > t_hi):
        return Outcome(INFEASIBLE)
    point = (value,) * n
    objective = None if inst.sense == FEASIBILITY else _objective_of(inst, point)
    return Outcome(FEASIBLE, point=point, objective=objective)


def _beats(inst: Instance, layer: int, incumbent: Optional[Fraction]) -> bool:
    """Whether a point of Algorithm 1's layer beats the incumbent (None:
    none yet).  The cycle makes every weight equal to some w, so every
    point of the layer scores w * layer."""
    if incumbent is None:
        return True
    value = inst.objective[0] * layer
    return value < incumbent if inst.sense == MIN else value > incumbent


def _aggregate(
    inst: Instance,
    schedule: Schedule,
    results: Sequence[SubResult],
    wall_time: float,
    proof: bool,
    bound: Optional[Fraction] = None,
) -> Report:
    """Fold outcomes into a report.  The results are those dispatched
    before the stop rule ended the run, plus Algorithm 1's direct
    stop-layer probe, which is not a scheduled subproblem.  ``proof``:
    the last result proved that the instance has no integer point
    (``solve_subproblem``), so the verdict is Infeasible whatever ran
    before it, and a note names that subproblem.  ``bound``: the last
    result reached this LP bound, which no integer point beats, and
    ended the run; a note names both, and the verdict is Feasible even
    when an earlier result ran out of budget."""
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

    notes = schedule.notes
    if bound is not None:
        notes += (f"{results[-1].id} reaches the LP bound {bound}; no later subproblem runs",)
    if schedule.lp is not None and schedule.lp.status == UNBOUNDED:
        status = UNBOUNDED
    elif proof:
        status = INFEASIBLE
        sid = results[-1].id
        notes += (f"{sid} proves the instance has no integer point; no later subproblem runs",)
    elif feasible and (inst.sense == FEASIBILITY or bound is not None or not unknown):
        # on a max/min instance an Unknown outcome makes the verdict Unknown,
        # unless the incumbent reached the LP bound, which proves it optimal
        status = FEASIBLE
    else:
        status = UNKNOWN if unknown else INFEASIBLE

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
        warnings=schedule.warnings,
        notes=notes,
    )


def _run(
    inst: Instance, opts: Optional[EngineOptions], planner: Callable[..., Schedule], *args
) -> Report:
    """Plan with ``planner(inst, *args, opts)``, then export and solve the
    subproblems stage by stage in schedule order.  The run stops at the
    first Feasible result of a feasibility instance, at the first layer
    stage of Algorithm 1 whose layer cannot beat the run's incumbent
    (``_beats``; layers come best first), and at the first result that
    proves the instance has no integer point (``Outcome._proof``, set by
    ``solve_subproblem``), which makes the verdict Infeasible.  A layer
    walk that reaches its stop layer with no such proof ends with the
    direct fixed-space probe, when that layer beats the incumbent.  A
    dry run solves nothing and reports every subproblem Unknown.

    A max/min run keeps one incumbent, the objective of its last
    Feasible result.  Algorithms 2 and 3 pass it to each later search
    as ``solve_subproblem``'s ``cutoff``; a search under a cutoff
    reports only strictly better points, and its Infeasible never
    proves the instance empty.  At the first incumbent, unless it came
    from the last subproblem, the run reads the LP bound over the fixed
    space of the planned cycles (``_orbit_bound``; the first S2 carries
    them all), and it stops at the result whose incumbent equals that
    bound, whatever subproblems remain.  An LP with no optimum sets no
    bound.

    An exporting run encodes each piece of its files once, into one dict
    of JSON texts (``export_subproblem``'s ``_texts``).  Its constraints
    are keyed by identity, which is safe only while the schedule holds
    them, so the dict lives as long as the run."""
    opts = opts or EngineOptions()
    t0 = time.perf_counter()
    schedule = planner(inst, *args, opts)
    texts: dict = {}
    if opts.export_dir is not None:
        os.makedirs(opts.export_dir, exist_ok=True)
    results: list[SubResult] = []
    proof = stopped = reached = False
    # a max/min run keeps one incumbent, its best Feasible value so far.
    # Algorithms 2 and 3 search under it and end when it reaches the LP
    # bound; Algorithm 1 walks a layer only while the layer beats it
    cutting = inst.sense != FEASIBILITY and schedule.algorithm in (2, 3)
    incumbent = bound = None
    for stage in schedule.stages:
        head = stage[0].provenance
        if head[0] == "layer" and not _beats(inst, head[1], incumbent):
            stopped = True
            break
        for j, sp in enumerate(stage):
            if opts.export_dir is not None:
                path = os.path.join(opts.export_dir, f"{sp.id}.json")
                export_subproblem(sp, path, _texts=texts)
            cutoff = incumbent if cutting else None
            t1 = time.perf_counter()
            if opts.dry_run:
                out = Outcome(UNKNOWN)
            else:
                out = solve_subproblem(sp, box=opts.box, budget=opts.budget, cutoff=cutoff)
            seconds = time.perf_counter() - t1
            results.append(SubResult(sp.id, sp.tag, sp.provenance, out, seconds, cutoff))
            proof = out._proof
            if out.status == FEASIBLE and inst.sense != FEASIBILITY:
                if cutting and incumbent is None and j + 1 < len(stage):
                    bound = _orbit_bound(inst, stage[0].cycles)
                # a Feasible is never worse than the incumbent: it beats it
                # under the cutoff, and every point of a layer scores alike
                incumbent = out.objective
                reached = incumbent == bound
            if proof or reached or (out.status == FEASIBLE and inst.sense == FEASIBILITY):
                stopped = True
                break
        if stopped:
            break

    layer = schedule.stop_layer
    if not stopped and layer is not None and not opts.dry_run and _beats(inst, layer, incumbent):
        t1 = time.perf_counter()
        out = _direct_fixed_probe(inst, layer)
        results.append(
            SubResult(f"L{layer}.fix", FIX, ("layer", layer, "direct"), out, time.perf_counter() - t1)
        )
    return _aggregate(
        inst, schedule, results, time.perf_counter() - t0, proof, bound if reached else None
    )


def run_algorithm1(inst: Instance, opts: Optional[EngineOptions] = None) -> Report:
    """Full-cycle layer walk: global singularity subproblem, then per
    surviving layer anchor probes and one cut subproblem, stopping at
    the first layer that cannot beat the best value found, or at the
    first layer divisible by n, where the fixed-space point is evaluated
    directly."""
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
                "cutoff": _frac_json(r.cutoff),
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


def _check_symmetric(inst: Instance, cycles: Sequence[Cycle]) -> None:
    """Refuse inst when its declared group, or one of the cycles to be
    planned on its own, does not fix it, and refuse cycles that overlap
    or leave 1..n (``_check_orbits``)."""
    warnings = symmetry_warnings(inst)
    if warnings:
        raise InputError("declared group does not fix the instance: " + "; ".join(warnings))
    _check_orbits(inst, tuple(cycles))
