"""Desk-scale internal solvers.

Two engines live here:

* ``lp_relax`` — exact rational simplex over the instance's linear rows
  (synthesized nonlinear sets are never part of the relaxation), for
  ``corecuts analyze``, and ``_orbit_bound``, the same LP over the
  fixed space of a run's planned cycles, whose optimum bounds every
  integer point of a max/min instance;
* ``solve_subproblem`` — bounded depth-first integer enumeration with
  event-driven exact interval propagation over the linear rows and one
  exact test per cycle block of the nonlinear sets: S2 singularity
  (``spectral.is_singular``), and smoothness guards and S1 cuts
  (``spectral.cut_rotation``), each decided at the node that fixes the
  block's last variable (forward checking).  It evaluates no float and
  refuses any other nonlinear constraint.  The search is one loop over
  an explicit stack of ``(depth, value to try, bounds)`` entries, so an
  instance's width is not bounded by Python's recursion limit.  The
  linear rows go through the LP's row normaliser (``simplex._merge_row``:
  scaled to integers, divided by the gcd of their coefficients, merged
  by coefficient vector into ranged rows with exact bounds), and each
  merged bound is then rounded inward once, so propagation and
  enumeration run on plain ``int``; points are returned as ``Fraction`` tuples.  A node propagates only
  from the rows that contain the variable it fixes, and a max/min search
  carries its incumbent as one more row, which cuts off every subtree
  that cannot beat it.  A subproblem with cycles (``engine.Subproblem``)
  searches one point per orbit of their rotations: the orbital rows
  ``x_c1 - x_cj >= 0`` of each cycle admit exactly the max-first
  points, the rotation-invariant constraints are checked once on them,
  a block passes its S1 cuts when some rotation of it does, and the
  leaf writes each block's first passing rotation into the point.

Both are deliberately small: they replace an external MINLP solver for
instances a few variables wide, and every verdict they return is
certified (a satisfying point, or full exhaustion of a domain that holds
every solution).  When the node budget runs out first, or the search
clipped a bound that the instance leaves open, the verdict is Unknown,
never a guess.

The data keeps its own reading, made on first use and kept as long as
the object lives; nothing writes into it:

* an ``Instance`` keeps its rows read by position
  (``simplex._row_interval``: coefficients and an interval) and merged
  once (``simplex._merge_rows``, ``Instance._merged``), which
  ``lp_relax``, the LP bound of a max/min run of Algorithms 2 and 3
  (``_orbit_bound``) and Algorithm 1's fixed-line reading
  (``engine._fixed_line``: its planner and its direct fixed-space
  probe) read and each subproblem copies before it merges
  its added sets (``_lower``); the same rows as export constraints
  (``_row_to_constraint``, ``Instance._export_rows``), which
  ``flatten_subproblem`` puts before the added constraints; the
  integer row keys of its symmetry check (``Instance._row_keys``); and
  its widest declared bound (``Instance._widest_bound``), which
  ``search_box`` reads for every subproblem and planner;
* a ``ConstraintSet`` keeps the interval rows of its constraints
  (``exprs._interval_of``, through ``exprs.linear_form``, which reads
  the flat sums that synthesis, the engine and ``_row_to_constraint``
  write) in primitive integer form over set-local positions, and the
  constraints with no such row (``ConstraintSet._rows``); an S1, S2 or
  smoothness set is not read, since the enumerator decides it on its
  block (``_block_of``);
* an ``Instance`` also keeps what each permutation checked against it
  does not fix (``_symmetry_misses``), and the cycle tuples that pass
  ``_check_orbits``.

So every run on one ``Instance`` merges its rows once, and a set is
read once per process: the planner keeps each set it asks synthesis
for, once per process, and hands the same object to every run
(``engine``).  Each subproblem
merges the orbital rows of its cycles, k - 1 primitive rows per cycle,
into its own copy of the instance's merged rows (``_lower``).  The one
per-run state is the export's dict of JSON texts
(``minlp.dumps_problem``'s ``_texts``), which ``engine._run`` makes for
a run that exports.

The enumerator and the export take their variable order (instance
variables, then auxiliaries in first-appearance order) from
``_variables``.  No construction ties their two row readers together;
``test_export_states_the_enumerated_problem`` in ``tests/test_solve.py``
does: it lowers the export documents of planned subproblems through
``exprs._interval_of``, leaves out the S2 sets' rows, adds the orbital
rows of each subproblem's cycles, and checks that they give the
enumerator's integer rows, and that the rest are the S1 and smoothness
sets whose blocks it decides.  The export holds no orbital rows, keeps
each S2 set's disjunction, whose projection onto the instance
variables the enumerator decides, and the float S1 and smoothness
expressions, whose exact values it decides (``tests/test_spectral.py``
checks the two agree): it decides the exported problem up to a
rotation of each block.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .errors import InputError
from .exprs import (
    Add,
    Const,
    Constraint,
    Dot,
    EQ,
    LE_ZERO,
    S1,
    S2,
    SMOOTH,
)
from .perms import Cycle, GroupSpec, Permutation, apply
from .simplex import (
    EQ as ROW_EQ,
    GE,
    LE,
    LPRow,
    Tableau,
    _merge_primitive,
    _merge_row,
    _merge_rows,
    _row_interval,
)
from .spectral import cut_rotation, is_singular

#: half-width of the fallback enumeration box for the missing bounds
#: (``search_box`` widens it to the widest declared bound)
DEFAULT_BOX = 50

#: assignment-node budget for one subproblem enumeration
DEFAULT_NODE_BUDGET = 500_000

#: one propagation call visits at most this many rows per row
_PROPAGATION_ROUNDS = 20

FEASIBLE = "Feasible"
INFEASIBLE = "Infeasible"
UNKNOWN = "Unknown"
UNBOUNDED = "Unbounded"

MAX, MIN, FEASIBILITY = "max", "min", "feasibility"


def _number(v, what: str):
    """v when it is an int, a finite float or a Fraction; InputError
    naming it as ``what`` otherwise."""
    if isinstance(v, bool) or not isinstance(v, (int, float, Fraction)):
        raise InputError(f"{what} {v!r} is not a number")
    if isinstance(v, float) and not math.isfinite(v):
        raise InputError(f"{what} {v!r} is not finite")
    return v


def _integer(v, what: str) -> int:
    """v when it is an int; InputError naming it as ``what`` otherwise."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise InputError(f"{what} must be an integer, not {v!r}")
    return v


def _exact(v) -> Fraction:
    """A row entry (an int, a finite float or a Fraction) as a Fraction."""
    return Fraction(_number(v, "row entry"))


@dataclass(frozen=True)
class Instance:
    """An ILP with a declared cyclic symmetry.

    Variables are implicitly named ``x1`` .. ``xn`` (1-based), matching
    the names the synthesizer emits for cycle blocks.  Every variable
    must be integer: the enumerator searches integer points only, so a
    continuous variable is rejected rather than answered wrongly.  A
    row's coefficients and right-hand side, and the objective weights,
    may be ints, finite floats or Fractions; each is converted exactly to
    a Fraction.  Bounds must be such numbers too (a bound may be None);
    they are checked and kept as given.
    """

    n: int
    sense: str  # max | min | feasibility
    objective: tuple[Fraction, ...]
    rows: tuple[LPRow, ...]
    bounds: tuple[tuple[Optional[Fraction], Optional[Fraction]], ...]
    integer: tuple[bool, ...]
    group: Optional[GroupSpec] = None

    def __post_init__(self) -> None:
        if self.sense not in (MAX, MIN, FEASIBILITY):
            raise InputError(f"bad objective sense {self.sense!r}")
        if len(self.objective) != self.n or len(self.bounds) != self.n:
            raise InputError("objective/bounds length mismatch")
        if len(self.integer) != self.n:
            raise InputError("integrality flags length mismatch")
        if not all(flag is True for flag in self.integer):
            raise InputError(
                "continuous variables are not supported: every integrality flag must be true"
            )
        if not all(type(v) is Fraction for v in self.objective):
            objective = tuple(Fraction(_number(v, "objective weight")) for v in self.objective)
            object.__setattr__(self, "objective", objective)
        for pair in self.bounds:
            if not isinstance(pair, (tuple, list)) or len(pair) != 2:
                raise InputError(f"bound {pair!r} is not a (lo, hi) pair")
            for v in pair:
                if v is not None:
                    _number(v, "bound")
        rows = []
        for row in self.rows:
            if len(row.coeffs) != self.n:
                raise InputError(f"row of width {len(row.coeffs)} in an instance of n = {self.n}")
            if row.sense not in (LE, GE, ROW_EQ):
                raise InputError(f"unknown row sense {row.sense!r}")
            if not all(type(v) is Fraction for v in (*row.coeffs, row.rhs)):
                row = LPRow(tuple(map(_exact, row.coeffs)), row.sense, _exact(row.rhs))
            rows.append(row)
        # the solvers read Fraction rows and weights; int and float
        # entries convert exactly
        object.__setattr__(self, "rows", tuple(rows))

    @property
    def var_names(self) -> tuple[str, ...]:
        return tuple(f"x{i}" for i in range(1, self.n + 1))

    @cached_property
    def _merged(self) -> tuple[dict, bool]:
        """The rows merged by ``simplex._merge_rows``: the ranged rows,
        and False when some row admits no point.  Its readers copy what
        they change."""
        return _merge_rows(self.n, self.rows)

    @cached_property
    def _widest_bound(self) -> int:
        """The ceiling of the largest declared bound in absolute value, 0
        when none is declared (``search_box``)."""
        return max([0, *(math.ceil(abs(b)) for pair in self.bounds for b in pair if b is not None)])

    @cached_property
    def _misses(self) -> dict:
        """``_symmetry_misses``'s answers by permutation."""
        return {}

    @cached_property
    def _orbits(self) -> set:
        """The cycle tuples ``_check_orbits`` has passed."""
        return set()

    @cached_property
    def _export_rows(self) -> tuple[Constraint, ...]:
        """The rows as export constraints."""
        names = self.var_names
        return tuple(_row_to_constraint(r, names) for r in self.rows)

    @cached_property
    def _row_keys(self) -> tuple[list, Counter]:
        """Each row as an exact integer key (the ``as_integer_ratio`` of
        each coefficient, the sense and the ratio of the rhs), and their
        multiset, which a symmetry permutes onto itself."""
        keys = [
            (tuple(a.as_integer_ratio() for a in r.coeffs), r.sense, r.rhs.as_integer_ratio())
            for r in self.rows
        ]
        return keys, Counter(keys)


def make_instance(
    n: int,
    sense: str = FEASIBILITY,
    objective: Optional[Sequence[Fraction]] = None,
    rows: Iterable[LPRow] = (),
    bounds: Optional[Sequence[tuple[Optional[Fraction], Optional[Fraction]]]] = None,
    integer: Optional[Sequence[bool]] = None,
    group: Optional[GroupSpec] = None,
) -> Instance:
    obj = tuple(objective) if objective else (Fraction(0),) * n
    bnd = tuple(bounds) if bounds is not None else ((None, None),) * n
    flags = tuple(integer) if integer is not None else (True,) * n
    return Instance(n, sense, obj, tuple(rows), bnd, flags, group)


@dataclass(frozen=True)
class Outcome:
    status: str  # Feasible | Infeasible | Unknown | Unbounded
    point: Optional[tuple[Fraction, ...]] = None
    objective: Optional[Fraction] = None
    #: set by ``solve_subproblem`` alone, for ``engine._run``: this
    #: Infeasible proves that the instance has no integer point.  Not an
    #: argument, and outside equality and repr
    _proof: bool = field(default=False, init=False, repr=False, compare=False)


def symmetry_warnings(inst: Instance) -> list[str]:
    """Check the declared generators really fix the instance: each one
    must permute the row multiset onto itself, fix the objective vector
    and permute the bound declarations onto themselves.
    Returns human-readable warnings; an empty list means the declaration
    is consistent.

    Rows are compared as written: a row that a generator maps onto a
    rescaled copy of another row (``2*x1 <= 2`` for ``x2 <= 1``) counts
    as not fixed.  ``engine.plan`` plans such an instance plain, which is
    sound but slower."""
    if inst.group is None:
        return []
    return [
        f"generator {g.images} {miss}"
        for g in inst.group.generators
        for miss in _symmetry_misses(inst, g)
    ]


def _symmetry_misses(inst: Instance, p: Permutation) -> tuple[str, ...]:
    """What p does not fix of inst, as phrases such as "does not fix the
    objective" (none: it fixes inst), checked once per instance and
    permutation (``Instance._misses``): ``symmetry_warnings`` checks each
    generator, and the planners and every ``engine.Subproblem``
    (``_check_orbits``) check the cycles, which are often those
    generators.  p permutes the integer row keys of
    ``Instance._row_keys``."""
    out = inst._misses.get(p)
    if out is None:
        keys, rows = inst._row_keys
        misses = []
        if apply(p, inst.objective) != inst.objective:
            misses.append("does not fix the objective")
        if Counter((apply(p, coeffs), sense, rhs) for coeffs, sense, rhs in keys) != rows:
            misses.append("does not permute the constraint rows")
        if apply(p, inst.bounds) != inst.bounds:
            misses.append("does not preserve bounds")
        out = inst._misses[p] = tuple(misses)
    return out


def _check_disjoint(inst: Instance, cycles: Sequence[Cycle]) -> None:
    """Refuse cycles that leave 1..n or overlap; ``_check_orbits`` and
    ``engine.plan`` check this before the symmetry check, which reads
    each cycle as a permutation of 1..n."""
    seen: set[int] = set()
    for c in cycles:
        if min(c.support) < 1 or max(c.support) > inst.n:
            raise InputError("cycle support escapes the variable range")
        overlap = seen & set(c.support)
        if overlap:
            raise InputError(f"cycles overlap on coordinates {sorted(overlap)}")
        seen |= set(c.support)


def _cycle_misses(inst: Instance, cycle: Cycle) -> tuple[str, ...]:
    """What the cycle's permutation alone does not fix of inst."""
    return _symmetry_misses(inst, cycle.as_permutation(inst.n))


def _check_orbits(inst: Instance, cycles: tuple[Cycle, ...]) -> None:
    """Refuse cycles that overlap, leave 1..n, or do not each fix inst by
    itself: their orbital rows (``_lower``) could cut off a point that no
    rotation of the blocks restores.  Checked once per instance and
    cycle tuple (``Instance._orbits``): every subproblem of a schedule
    checks the same tuple."""
    if cycles in inst._orbits:
        return
    _check_disjoint(inst, cycles)
    for c in cycles:
        misses = _cycle_misses(inst, c)
        if misses:
            raise InputError(f"cycle {c} alone does not fix the instance: {', '.join(misses)}")
    inst._orbits.add(cycles)


def lp_relax(inst: Instance) -> Outcome:
    """Exact LP relaxation over the instance's linear rows and bounds
    (``corecuts analyze``).

    A max or min instance with a nonzero weight optimises its objective.
    A feasibility instance, and a max or min instance whose weights are
    all 0, maximises sum(x), so the point's sum is the top layer, where
    Algorithm 1 starts its walk.  Such an instance is never Unbounded:
    when sum(x) has no maximum over a nonempty relaxation, the outcome
    is Feasible with no point.  Its objective is sum(x) for a
    feasibility instance and 0 for a zero objective.  Algorithm 1 plans
    without it, on the instance's fixed line (``engine._fixed_line``)."""
    tableau = Tableau(inst.n, inst._merged, inst.bounds)
    if inst.sense != FEASIBILITY and any(inst.objective):
        res = tableau.optimize(inst.objective, maximize=inst.sense == MAX)
        objective = res.objective
    else:
        res = tableau.optimize((1,) * inst.n, maximize=True)
        objective = res.objective if inst.sense == FEASIBILITY else Fraction(0)
        if res.status == "unbounded":
            return Outcome(FEASIBLE, objective=objective)
    if res.status == "infeasible":
        return Outcome(INFEASIBLE)
    if res.status == "unbounded":
        return Outcome(UNBOUNDED)
    return Outcome(FEASIBLE, point=res.x, objective=objective)


def _orbit_lp(inst: Instance, cycles: tuple[Cycle, ...]) -> tuple[Tableau, list[Fraction]]:
    """The LP relaxation of inst over the fixed space of disjoint cycles
    that each fix inst by themselves (``_check_orbits``), and its
    objective: one column per orbit, a cycle's or an unmoved variable's.
    The cycles generate a group that fixes the objective and the bounds
    and permutes the rows, so the average of an LP point over the group
    is an LP point with the same objective, constant on each orbit: the
    two LPs have the same optimum (Bödi, Herr and Joswig, "Algorithms for
    highly symmetric linear and integer programs", Math. Program. 2013).
    A column's weight and its row coefficients are the sums over its
    orbit, and its bounds are those its orbit shares.  The rows are the
    instance's merged rows (``Instance._merged``) summed onto the
    columns and merged again (``simplex._merge_row``), so no instance
    row is read again."""
    column = list(range(inst.n))
    for c in cycles:
        for i in c.support:
            column[i - 1] = c.support[0] - 1
    firsts = sorted(set(column))
    index = {j: k for k, j in enumerate(firsts)}
    column = [index[j] for j in column]
    objective = [Fraction(0)] * len(firsts)
    for j, w in zip(column, inst.objective):
        objective[j] += w
    merged, nonempty = inst._merged
    rows: dict = {}
    for key, (lo, hi) in merged.items():
        coeffs: Counter = Counter()
        for j, a in key:
            coeffs[column[j]] += a
        lo, hi = (None if b is None else Fraction(*b) for b in (lo, hi))
        nonempty = nonempty and _merge_row(rows, coeffs.items(), lo, hi)
    bounds = [inst.bounds[j] for j in firsts]
    return Tableau(len(firsts), (rows, nonempty), bounds), objective


def _orbit_bound(inst: Instance, cycles: tuple[Cycle, ...]) -> Optional[Fraction]:
    """The best objective an integer point of a max or min instance can
    reach, by the LP over the fixed space of the cycles (``_orbit_lp``):
    ``floor(D * LP) / D`` for max and ``ceil(D * LP) / D`` for min, where
    D is the lcm of the weights' denominators, so D times the objective
    of an integer point is an integer.  None when that LP has no
    optimum."""
    tableau, objective = _orbit_lp(inst, cycles)
    res = tableau.optimize(objective, maximize=inst.sense == MAX)
    if res.status != "optimal":
        return None
    scale = math.lcm(*(w.denominator for w in inst.objective))
    value = res.objective * scale
    return Fraction(math.floor(value) if inst.sense == MAX else math.ceil(value), scale)


# ---------------------------------------------------------------------------
# subproblem flattening


@dataclass(frozen=True)
class FlatVar:
    name: str
    lo: Optional[Fraction]
    hi: Optional[Fraction]
    kind: str  # integer | binary


@dataclass(frozen=True)
class FlatProblem:
    """A subproblem as one MINLP export document."""

    variables: tuple[FlatVar, ...]
    sense: str
    objective: dict[str, Fraction]
    #: every constraint in expression form (base rows first)
    constraints: tuple[Constraint, ...]


def _row_to_constraint(row: LPRow, names: Sequence[str]) -> Constraint:
    """An ``Instance`` row, whose entries are Fractions, as an export
    constraint that shares them."""
    coeffs, lo, hi = _row_interval(row)
    expr = Add((Dot(coeffs, tuple(names)), Const(-hi)))
    return Constraint(expr, LE_ZERO if lo is None else EQ)


def _block_of(cs) -> Optional[Cycle]:
    """The block on which the enumerator decides the set cs, as one exact
    predicate (``_block_holds``) in place of its constraints and
    auxiliaries; None when it reads them as rows.  Synthesis records the
    block (``ConstraintSet.cycle``) of S2 and smoothness sets, and of an
    S1 cut with its canonical point (``ConstraintSet.point``).  For S2
    the predicate is the projection of the disjunction onto the instance
    variables wherever its big-M holds, which covers the search box."""
    if cs.tag in (S2, SMOOTH) or (cs.tag == S1 and cs.point is not None):
        return cs.cycle
    return None


def _variables(sub, search: bool = False) -> tuple[FlatVar, ...]:
    """The variables of sub: instance variables, then auxiliaries in
    first-appearance order.  Export and enumeration both take their
    variable order from here; the enumerator (``search``) leaves out the
    auxiliaries of the sets it decides on their blocks (``_block_of``)."""
    base: Instance = sub.base
    variables = [
        FlatVar(name, lo, hi, "integer") for name, (lo, hi) in zip(base.var_names, base.bounds)
    ]
    seen = set(base.var_names)
    for cs in sub.added:
        skip = search and _block_of(cs) is not None
        for av in cs.aux_vars:
            if av.name in seen:
                raise InputError(f"duplicate auxiliary variable {av.name}")
            seen.add(av.name)
            if skip:
                continue
            if av.kind == "binary":
                variables.append(FlatVar(av.name, Fraction(0), Fraction(1), "binary"))
            else:
                variables.append(FlatVar(av.name, None, None, "integer"))
    return tuple(variables)


def flatten_subproblem(sub) -> FlatProblem:
    """The export document of sub = sub.base (an Instance) plus sub.added
    (ConstraintSets): the variables of ``_variables``, the base rows as
    expression trees (``Instance._export_rows``), then the added
    constraints as they are."""
    base: Instance = sub.base
    constraints = list(base._export_rows)
    for cs in sub.added:
        constraints.extend(cs.constraints)
    names = base.var_names
    return FlatProblem(
        variables=_variables(sub),
        sense=base.sense,
        objective={names[i]: c for i, c in enumerate(base.objective) if c != 0},
        constraints=tuple(constraints),
    )


# ---------------------------------------------------------------------------
# bounded integer enumeration


def _propagate(
    bounds: list[tuple[int, int]],
    rows: Sequence[tuple[list[tuple[int, int]], Optional[int], Optional[int]]],
    watch: Optional[Sequence[Sequence[int]]] = None,
    start: Optional[Iterable[int]] = None,
) -> Optional[list[tuple[int, int]]]:
    """Event-driven interval propagation over integer rows (see
    ``_lower``) and integer bounds; floor and ceil of a quotient come
    from ``//``, so every step is exact.

    ``start`` lists the distinct indices of the rows to visit first (all
    rows when None); ``watch[j]`` lists the rows that contain variable j
    (built from ``rows`` when None).  A visit tightens each variable of
    the row against the row's activity range, updating that range as it
    goes; every tightened variable queues the rows that watch it, and a
    ranged row that tightened anything queues itself, so an empty queue
    is a fixpoint.  The queue is first in, first out and stops after
    ``_PROPAGATION_ROUNDS * len(rows)`` visits, so every row in
    ``start`` is visited even when that cap cuts the fixpoint short; the
    bounds left then are still sound.

    Tightens ``bounds`` in place and returns it, or returns None when
    some row or variable becomes unsatisfiable."""
    if watch is None:
        watch = _watch_lists(rows, len(bounds))
    queue = deque(range(len(rows)) if start is None else start)
    queued = set(queue)
    visits = _PROPAGATION_ROUNDS * len(rows)
    while queue and visits:
        visits -= 1
        r = queue.popleft()
        queued.discard(r)
        coeffs, lo_rhs, hi_rhs = rows[r]
        if lo_rhs is None and hi_rhs is None:
            continue
        # row activity range
        act_lo = 0
        act_hi = 0
        for j, a in coeffs:
            blo, bhi = bounds[j]
            if a > 0:
                act_lo += a * blo
                act_hi += a * bhi
            else:
                act_lo += a * bhi
                act_hi += a * blo
        # how far the activity may still move toward each side
        slack_hi = None if hi_rhs is None else hi_rhs - act_lo
        slack_lo = None if lo_rhs is None else act_hi - lo_rhs
        if (slack_hi is not None and slack_hi < 0) or (slack_lo is not None and slack_lo < 0):
            return None
        tightened = False
        for j, a in coeffs:
            blo, bhi = bounds[j]
            width = bhi - blo
            # x may rise at most `up` above blo and fall at most `down`
            # below bhi; floor division keeps both exact
            if a > 0:
                up = width if slack_hi is None else slack_hi // a
                down = width if slack_lo is None else slack_lo // a
            else:
                up = width if slack_lo is None else slack_lo // -a
                down = width if slack_hi is None else slack_hi // -a
            if up >= width and down >= width:
                continue
            new_hi = blo + up if up < width else bhi
            new_lo = bhi - down if down < width else blo
            if new_lo > new_hi:
                return None
            bounds[j] = (new_lo, new_hi)
            if a > 0:
                if slack_hi is not None:
                    slack_hi -= a * (new_lo - blo)
                if slack_lo is not None:
                    slack_lo -= a * (bhi - new_hi)
            else:
                if slack_hi is not None:
                    slack_hi += a * (bhi - new_hi)
                if slack_lo is not None:
                    slack_lo += a * (new_lo - blo)
            tightened = True
            for w in watch[j]:
                if w not in queued and w != r:
                    queued.add(w)
                    queue.append(w)
        if tightened and lo_rhs is not None and hi_rhs is not None:
            # one side's tightening moves the other side's activity, so
            # the variables visited before it may tighten further
            queued.add(r)
            queue.append(r)
    return bounds


def _watch_lists(
    rows: Sequence[tuple[list[tuple[int, int]], Optional[int], Optional[int]]], nvars: int
) -> list[list[int]]:
    """watch[j]: the indices of the rows that contain variable j."""
    watch: list[list[int]] = [[] for _ in range(nvars)]
    for r, (coeffs, _, _) in enumerate(rows):
        for j, _ in coeffs:
            watch[j].append(r)
    return watch


def search_box(inst: Instance, box: int) -> int:
    """The half-width that clips a missing bound of inst: ``box``, or the
    widest declared bound when that is wider, so that it holds them all."""
    return max(box, inst._widest_bound)


def _initial_bounds(variables: Sequence[FlatVar], box: int) -> list[tuple[int, int]]:
    """Each variable's integer range: its declared bounds, with a
    missing side at -box or box."""
    return [
        (-box if v.lo is None else math.ceil(v.lo), box if v.hi is None else math.floor(v.hi))
        for v in variables
    ]


#: a block the enumerator decides (``_block_of``): its places (x<i> at
#: i - 1, in cycle order), whether Cir(block) must be singular (S2) and
#: regular apart from its sum (smoothness), its S1 cuts' points, and how
#: many rotations may pass them (k when the subproblem rotates it, else 1)
Block = tuple[list[int], bool, bool, tuple[tuple[int, ...], ...], int]


def _lower(sub) -> tuple[
    Optional[list[tuple[list[tuple[int, int]], Optional[int], Optional[int]]]],
    list[Block],
]:
    """The enumerator's view of sub: its linear rows merged by primitive
    integer coefficients (``simplex._merge_primitive``, shared with the
    LP) and each merged bound rounded inward to an integer, or None when
    some row admits no integer point; and one entry per block that it
    decides (``Block``, ``_block_of``), whose sets give no rows.

    sub starts from a copy of its base's merged rows, merges the orbital
    rows ``x_c1 - x_cj >= 0`` (j = 2..k) of each cycle of
    ``sub.cycles`` (``_check_orbits``), then its other sets' rows
    (``ConstraintSet._rows``: primitive, over set-local positions) in
    order; a set's auxiliaries follow the instance variables and the
    earlier sets' (``_variables(sub, search=True)``), so only their
    positions shift.  A constraint that ``exprs.linear_form`` cannot
    read, or a set that reads an instance variable beyond n, is an
    ``InputError``."""
    base: Instance = sub.base
    _check_orbits(base, sub.cycles)
    merged, nonempty = base._merged
    # merging replaces entries, so a shallow copy keeps the base's intact
    merged = dict(merged)
    zero = (0, 1)
    for c in sub.cycles:
        first = c.support[0] - 1
        for i in c.support[1:]:
            # already primitive, signed by its lower index
            if first < i - 1:
                row = ((first, 1), (i - 1, -1)), zero, None
            else:
                row = ((i - 1, 1), (first, -1)), None, zero
            nonempty = nonempty and _merge_primitive(merged, *row)
    decided: dict[Cycle, tuple[list[bool], list[tuple[int, ...]]]] = {}
    offset = base.n
    for cs in sub.added:
        block = _block_of(cs)
        if block is not None:
            if max(block.support) > base.n:
                raise InputError(f"constraint references unknown variable 'x{max(block.support)}'")
            flags, cuts = decided.setdefault(block, ([False, False], []))
            if cs.tag == S1:
                cuts.append(cs.point)
            else:
                flags[cs.tag == SMOOTH] = True
            continue
        width, local, rest = cs._rows
        if width > base.n:
            raise InputError(f"constraint references unknown variable 'x{width}'")
        if rest:
            raise InputError(f"a {cs.tag} set holds a nonlinear constraint that no block decides")
        shift = offset - width
        for row in local:
            if type(row) is bool:
                nonempty = nonempty and row
                continue
            key, lo, hi = row
            if key[-1][0] >= width:
                key = tuple((j if j < width else j + shift, a) for j, a in key)
            nonempty = nonempty and _merge_primitive(merged, key, lo, hi)
        offset += len(cs.aux_vars)
    blocks = [
        ([i - 1 for i in c.support], *flags, tuple(cuts), c.k if cuts and c in sub.cycles else 1)
        for c, (flags, cuts) in decided.items()
    ]
    if not nonempty:
        return None, blocks
    rows = []
    for key, (lo, hi) in merged.items():
        # every point is integer, so ceil and floor lose none of them
        lo = None if lo is None else -(-lo[0] // lo[1])
        hi = None if hi is None else hi[0] // hi[1]
        if lo is not None and hi is not None and lo > hi:
            return None, blocks
        rows.append((list(key), lo, hi))
    return rows, blocks


def solve_subproblem(
    sub,
    box: int = DEFAULT_BOX,
    budget: int = DEFAULT_NODE_BUDGET,
    cutoff: Optional[Fraction] = None,
) -> Outcome:
    """Depth-first integer enumeration of sub = base instance + added
    constraint sets, over the declared bounds.  A missing side, and
    every side of an integer auxiliary, is clipped to the half-width
    ``search_box(sub.base, box)``, which holds every declared bound.
    ``box`` must be an integer >= 0 and ``budget`` an integer; a
    ``budget`` of 0 or less yields Unknown.  A clipped side of an
    instance variable may cut off every solution, or the best: where
    the search would then answer Infeasible (root propagation included)
    or report a max/min optimum, it answers Unknown.

    The rows (``_lower``) prune through exact interval propagation at
    every node: the root starts from all rows, a node from the rows that
    watch the variable it fixes, and each tightening queues the rows of
    the tightened variable, up to ``_PROPAGATION_ROUNDS`` visits per row
    (``_propagate``).  Every row is visited at the node that fixes its
    last variable, cap or not, so a leaf meets every linear row exactly.
    Each block (``Block``) is decided exactly at the node that fixes its
    last variable, once that node's propagation succeeds, and a node
    that fails it is dropped with its subtree (forward checking:
    Haralick and Elliott, Artificial Intelligence 1980; ``_block_holds``).

    The search is one loop over a stack of ``(depth, value, bounds)``
    entries; ``bounds`` has fixed the variables before ``depth``, and
    ``value`` is the next value to try for variable ``depth`` (None: its
    lower bound).  Popping an entry pushes its sibling (the next value,
    up to the variable's upper bound), charges one attempt, and pushes
    the child (the variable fixed to ``value``, then propagated) above
    the sibling when propagation leaves it nonempty, so values are tried
    in increasing order, depth first.  An entry at depth
    ``len(variables)`` is a leaf: its bounds are its point.

    The budget counts assignment attempts.  First satisfying point wins
    for feasibility-sense instances.  Max/min instances are searched to
    the end under an incumbent cutoff: the objective, scaled to integers
    by the lcm D of its denominators, is one more propagated row, whose
    lower bound becomes ``sign * D * f + 1`` when a point of value f is
    recorded.  Every variable is an integer, so the cutoff removes only
    points that are no better than the incumbent, and every leaf the
    search reaches beats the incumbent.  ``cutoff`` (a number, max/min
    instances only) is an incumbent from outside, such as the best value
    of the run's earlier subproblems (``engine._run``): the row then
    starts at ``floor(sign * D * cutoff) + 1``, so the search reports
    only points strictly better than it, and Infeasible means that sub
    holds none.

    With ``sub.cycles``, the orbital rows admit only max-first points.
    Every constraint but the S1 cuts on a block of those cycles holds on
    a whole orbit, so it is checked once, on the max-first prefix; a
    block passes its cuts when some rotation of it does, and the blocks
    rotate independently.  The leaf writes each such block's first
    passing rotation into the point.  So the answer is the first optimum
    (first feasible point) among the max-first points, in lexicographic
    order, with each block rotated; without cycles it is the
    lexicographically first optimum.  Budget exhaustion yields Unknown:
    a Feasible that was already found cannot be certified optimal, and
    an Infeasible cannot be certified at all.

    An Infeasible may also prove the whole instance empty.  When every
    added set is one that the enumerator decides on its block
    (``_block_of``: a planned S2 subproblem, or a plain one), sub adds
    no row of its own; when no block check drops a node either, the
    search was the plain linear search over the instance rows and the
    orbital rows of ``sub.cycles``.  Each cycle fixes the instance by
    itself (``_check_orbits``), so rotating each block of an integer
    point within the declared bounds to max-first gives a point of that
    search.  Its Infeasible, from ``_lower``, the root propagation or
    the main loop, so certifies that the instance has no integer point,
    and the outcome says so to ``engine._run`` (``Outcome._proof``).
    A clipped side or a spent budget answers Unknown, so it never
    certifies; nor does a search that a block check pruned, one with
    rows of its own (an S1 layer row, an S3 anchor), or one that found
    an incumbent.  Nor does a search under a ``cutoff``: its Infeasible
    says only that sub holds no point better than the cutoff."""
    outcome, rejected = _search(sub, box, budget, cutoff)
    if (
        outcome.status == INFEASIBLE
        and cutoff is None
        and not rejected
        and all(_block_of(cs) is not None for cs in sub.added)
    ):
        # a fresh outcome, frozen from here on
        object.__setattr__(outcome, "_proof", True)
    return outcome


def _search(sub, box: int, budget: int, cutoff: Optional[Fraction] = None) -> tuple[Outcome, int]:
    """``solve_subproblem``'s search: its outcome, and how many nodes a
    block check dropped (``_block_holds``)."""
    if _integer(box, "box") < 0:
        raise InputError("box must be >= 0")
    if cutoff is not None:
        _number(cutoff, "cutoff")
        if sub.base.sense not in (MAX, MIN):
            raise InputError("a cutoff needs a max or min instance")
    if _integer(budget, "budget") <= 0:
        return Outcome(UNKNOWN), 0
    variables = _variables(sub, search=True)
    nvars = len(variables)
    rows, blocks = _lower(sub)
    if rows is None:
        return Outcome(INFEASIBLE), 0
    # the blocks that the node fixing variable d decides, None for none
    checks = [[b for b in blocks if max(b[0]) == d] or None for d in range(nvars)]
    turning = [block for block in blocks if block[4] > 1]

    base: Instance = sub.base
    obj_items = [(j, c) for j, c in enumerate(base.objective) if c != 0]
    want_best = base.sense in (MAX, MIN)
    sign = -1 if base.sense == MIN else 1
    if want_best:
        # incumbent cutoff: sign * D * objective >= (its value at the
        # incumbent) + 1, unbounded until the first incumbent unless the
        # caller gives one
        scale = math.lcm(*(c.denominator for _, c in obj_items))
        cut_coeffs = [(j, int(sign * c * scale)) for j, c in obj_items]
        cut = len(rows)
        lowest = None if cutoff is None else math.floor(sign * scale * Fraction(cutoff)) + 1
        rows.append((cut_coeffs, lowest, None))
    watch = _watch_lists(rows, nvars)
    # the cutoff's bound changes at leaves, so every node queues it
    starts = [w if not want_best or cut in w else w + [cut] for w in watch]

    bounds0 = _initial_bounds(variables, search_box(base, box))
    # an empty integer range admits no point; propagation visits only rows,
    # so it would miss one on a variable that no row holds
    if any(lo > hi for lo, hi in bounds0):
        return Outcome(INFEASIBLE), 0
    # a side the instance does not declare is clipped to the box, so
    # the clipped domain may miss every solution, or the best one
    clipped = any(lo is None or hi is None for lo, hi in base.bounds)
    if clipped and want_best:
        return Outcome(UNKNOWN), 0
    exhausted = Outcome(UNKNOWN if clipped else INFEASIBLE)
    bounds0 = _propagate(bounds0, rows, watch)
    if bounds0 is None:
        return exhausted, 0

    best: Optional[Outcome] = None
    rejected = 0
    stack: list[tuple[int, Optional[int], list[tuple[int, int]]]] = [(0, None, bounds0)]
    while stack:
        depth, v, bounds = stack.pop()
        if depth == nvars:
            # a leaf: every variable is fixed, so its bounds are its point
            ints = [lo for lo, _ in bounds]
            for places, _, _, cuts, rotations in turning:
                # the block passed at its node, so it has a passing
                # rotation: write the first into the point
                block = [ints[j] for j in places]
                s = cut_rotation(block, cuts, rotations)
                for i, j in enumerate(places):
                    ints[j] = block[i - s]
            point = tuple(Fraction(v) for v in ints[: base.n])
            if not want_best:
                return Outcome(FEASIBLE, point=point), rejected
            # the leaf was pushed, with the cutoff row met, just before it
            # was popped; every variable is an integer, so a strictly
            # better point scores at least 1 more on the row
            key = sum(a * ints[j] for j, a in cut_coeffs)
            best = Outcome(FEASIBLE, point=point, objective=Fraction(sign * key, scale))
            rows[cut] = (cut_coeffs, key + 1, None)
            continue
        lo, hi = bounds[depth]
        if v is None:
            v = lo
        if v < hi:
            stack.append((depth, v + 1, bounds))
        budget -= 1
        if budget < 0:
            return Outcome(UNKNOWN), rejected
        child = list(bounds)
        child[depth] = (v, v)
        if _propagate(child, rows, watch, starts[depth]) is not None:
            check = checks[depth]
            if check is None or _block_holds(child, check):
                stack.append((depth + 1, None, child))
            else:
                rejected += 1
    return best or exhausted, rejected


def _block_holds(bounds: list[tuple[int, int]], blocks: Sequence[Block]) -> bool:
    """Whether each block, fixed by a node's bounds, meets what the
    enumerator decides on it: Cir(block) is singular when it must be,
    and, when it must be regular apart from its sum or has cuts, some
    allowed rotation of it passes every cut (``spectral.cut_rotation``;
    the rotations are tried on a copy, so the bounds stay max-first)."""
    for places, singular, regular, cuts, rotations in blocks:
        block = [bounds[j][0] for j in places]
        if singular and not is_singular(block):
            return False
        if (regular or cuts) and cut_rotation(block, cuts, rotations) is None:
            return False
    return True


def export_subproblem(sub, path, *, _texts: Optional[dict] = None) -> None:
    """Write sub as a MINLP-JSON file (see the serialization module for
    the schema and the bit-exactness contract).  ``_texts`` is one run's
    encoded pieces (``minlp.dumps_problem``), which every file of the
    run shares; by default each piece is encoded here, and the file is
    the same."""
    from . import minlp

    minlp.write_problem(flatten_subproblem(sub), path, _texts=_texts)
