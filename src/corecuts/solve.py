"""Desk-scale internal solvers.

Two engines live here:

* ``lp_relax`` — exact rational simplex over the instance's linear rows
  (synthesized nonlinear sets are never part of the relaxation);
* ``solve_subproblem`` — bounded depth-first integer enumeration with
  event-driven exact interval propagation over the linear rows and
  float evaluation of the nonlinear constraints (``exprs.eval_float``)
  at fully assigned leaves.  Each linear row is scaled once to integer
  coefficients and bounds and divided by the gcd of its coefficients,
  and rows with the same coefficients merge into one ranged row, so
  propagation and enumeration run on plain ``int``; points are returned
  as ``Fraction`` tuples.  A node propagates only from the rows that
  contain the variable it fixes, and a max/min search carries its
  incumbent as one more row, which cuts off every subtree that cannot
  beat it.

Both are deliberately small: they replace an external MINLP solver for
instances a few variables wide, and every verdict they return is
certified (a satisfying point, or full exhaustion of the box).  When the
node budget runs out first the verdict is Unknown, never a guess.

The enumerator and the MINLP export read a subproblem each its own way.
``solve_subproblem`` reads the instance rows by position
(``_row_interval``: coefficients and an interval), and lowers only the
added constraint sets from their expression trees (``_interval_of``),
keeping the non-affine ones for the leaves.  ``flatten_subproblem``
builds the export document: the instance rows become expression trees
(``_row_to_constraint``, from the same ``_row_interval``), followed by
the added constraints as they are.  Both take their variable order
(instance variables, then auxiliaries in first-appearance order) from
``_variables``.  No construction ties the two row readers together;
``test_export_states_the_enumerated_problem`` in ``tests/test_solve.py``
does: it lowers the export documents of planned subproblems through
``_interval_of`` and checks that they give the enumerator's integer
rows and nonlinear constraints.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import InputError
from .evalcore import Program, compile_expr
from .exprs import (
    Add,
    Const,
    Constraint,
    Dot,
    EQ,
    LE_ZERO,
    NON_NEG,
    STRICT_NEG,
    check_value,
    linear_form,
)
from .perms import GroupSpec, apply
from .simplex import LPRow, Tableau

#: half-width of the fallback enumeration box for variables whose
#: declared bounds are missing or wider
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


@dataclass(frozen=True)
class Instance:
    """An ILP with a declared cyclic symmetry.

    Variables are implicitly named ``x1`` .. ``xn`` (1-based), matching
    the names the synthesizer emits for cycle blocks.  Every variable
    must be integer: the enumerator searches integer points only, so a
    continuous variable is rejected rather than answered wrongly.
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
        for row in self.rows:
            if len(row.coeffs) != self.n:
                raise InputError(f"row of width {len(row.coeffs)} in an instance of n = {self.n}")
            _row_interval(row)  # raises on a sense other than <=, >=, ==

    @property
    def var_names(self) -> tuple[str, ...]:
        return tuple(f"x{i}" for i in range(1, self.n + 1))


def make_instance(
    n: int,
    sense: str = FEASIBILITY,
    objective: Optional[Sequence[Fraction]] = None,
    rows: Iterable[LPRow] = (),
    bounds: Optional[Sequence[tuple[Optional[Fraction], Optional[Fraction]]]] = None,
    integer: Optional[Sequence[bool]] = None,
    group: Optional[GroupSpec] = None,
) -> Instance:
    obj = tuple(Fraction(v) for v in objective) if objective else (Fraction(0),) * n
    bnd = tuple(bounds) if bounds is not None else ((None, None),) * n
    flags = tuple(integer) if integer is not None else (True,) * n
    return Instance(n, sense, obj, tuple(rows), bnd, flags, group)


@dataclass(frozen=True)
class Outcome:
    status: str  # Feasible | Infeasible | Unknown | Unbounded
    point: Optional[tuple[Fraction, ...]] = None
    objective: Optional[Fraction] = None


def symmetry_warnings(inst: Instance) -> list[str]:
    """Check the declared generators really fix the instance: each one
    must permute the row multiset onto itself, fix the objective vector
    and permute the bound declarations onto themselves.
    Returns human-readable warnings; an empty list means the declaration
    is consistent."""
    if inst.group is None:
        return []
    warnings: list[str] = []
    rows = Counter(inst.rows)
    for g in inst.group.generators:
        label = f"generator {g.images}"
        if apply(g, inst.objective) != inst.objective:
            warnings.append(f"{label} does not fix the objective")
        if Counter(replace(r, coeffs=apply(g, r.coeffs)) for r in inst.rows) != rows:
            warnings.append(f"{label} does not permute the constraint rows")
        if apply(g, inst.bounds) != inst.bounds:
            warnings.append(f"{label} does not preserve bounds")
    return warnings


def lp_relax(inst: Instance, tableau: Optional[Tableau] = None) -> Outcome:
    """Exact LP relaxation over the instance's linear rows and bounds.

    A max or min instance optimises its objective.  A feasibility
    instance maximises sum(x), so the returned objective doubles as the
    top layer index.  A feasibility instance is never Unbounded: when
    sum(x) has no maximum over a nonempty relaxation, the outcome is
    Feasible with no point (Algorithm 1 then ascends from the minimum of
    sum(x)).  ``tableau`` is a ``simplex.Tableau`` of the instance's rows
    and bounds that the caller keeps, to reoptimise it for further
    objectives without another phase 1; by default one is built."""
    if tableau is None:
        tableau = Tableau(inst.n, inst.rows, inst.bounds)
    if inst.sense == FEASIBILITY:
        res = tableau.optimize((1,) * inst.n, maximize=True)
        if res.status == "unbounded":
            return Outcome(FEASIBLE)
    else:
        res = tableau.optimize(inst.objective, maximize=inst.sense == MAX)
    if res.status == "infeasible":
        return Outcome(INFEASIBLE)
    if res.status == "unbounded":
        return Outcome(UNBOUNDED)
    return Outcome(FEASIBLE, point=res.x, objective=res.objective)


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


def _row_interval(
    row: LPRow,
) -> tuple[tuple[Fraction, ...], Optional[Fraction], Optional[Fraction]]:
    """An instance row as ``lo <= coeffs . x <= hi`` (None = unbounded),
    by position.  ``>=`` is negated into an upper bound, as its export
    tree states it.  Nothing else here reads ``LPRow.sense``."""
    if row.sense == "<=":
        return row.coeffs, None, row.rhs
    if row.sense == ">=":
        return tuple(-a for a in row.coeffs), None, -row.rhs
    if row.sense == "==":
        return row.coeffs, row.rhs, row.rhs
    raise InputError(f"unknown row sense {row.sense!r}")


def _row_to_constraint(row: LPRow, names: Sequence[str]) -> Constraint:
    coeffs, lo, hi = _row_interval(row)
    expr = Add((Dot(tuple(Fraction(a) for a in coeffs), tuple(names)), Const(-Fraction(hi))))
    return Constraint(expr, LE_ZERO if lo is None else EQ)


def _interval_of(con: Constraint) -> Optional[
    tuple[dict[str, Fraction], Optional[Fraction], Optional[Fraction]]
]:
    """Lower a constraint to an exact interval row when its expression
    is affine with rational coefficients; strict senses get their eps
    folded into the bound so propagation and leaf checking agree."""
    lf = linear_form(con.expr)
    if lf is None:
        return None
    coeffs, const = lf
    if con.sense == LE_ZERO:
        return coeffs, None, -const
    if con.sense == EQ:
        return coeffs, -const, -const
    if con.sense == STRICT_NEG:
        return coeffs, None, -const - Fraction(con.eps)
    if con.sense == NON_NEG:
        return coeffs, -const + Fraction(con.eps), None
    raise InputError(f"unknown constraint sense {con.sense!r}")


def _variables(sub) -> tuple[FlatVar, ...]:
    """The variables of sub: instance variables, then auxiliaries in
    first-appearance order.  Export and enumeration both take their
    variable order from here."""
    base: Instance = sub.base
    variables = [
        FlatVar(name, lo, hi, "integer") for name, (lo, hi) in zip(base.var_names, base.bounds)
    ]
    seen = set(base.var_names)
    for cs in sub.added:
        for av in cs.aux_vars:
            if av.name in seen:
                raise InputError(f"duplicate auxiliary variable {av.name}")
            seen.add(av.name)
            if av.kind == "binary":
                variables.append(FlatVar(av.name, Fraction(0), Fraction(1), "binary"))
            else:
                variables.append(FlatVar(av.name, None, None, "integer"))
    return tuple(variables)


def flatten_subproblem(sub) -> FlatProblem:
    """The export document of sub = sub.base (an Instance) plus sub.added
    (ConstraintSets): the variables of ``_variables``, the base rows as
    expression trees, then the added constraints as they are."""
    base: Instance = sub.base
    names = base.var_names
    constraints = [_row_to_constraint(r, names) for r in base.rows]
    for cs in sub.added:
        constraints.extend(cs.constraints)
    return FlatProblem(
        variables=_variables(sub),
        sense=base.sense,
        objective={names[i]: c for i, c in enumerate(base.objective) if c != 0},
        constraints=tuple(constraints),
    )


# ---------------------------------------------------------------------------
# bounded integer enumeration


class _BudgetExhausted(Exception):
    pass


def _propagate(
    bounds: list[tuple[int, int]],
    rows: Sequence[tuple[list[tuple[int, int]], Optional[int], Optional[int]]],
    watch: Optional[Sequence[Sequence[int]]] = None,
    start: Optional[Iterable[int]] = None,
) -> Optional[list[tuple[int, int]]]:
    """Event-driven interval propagation over integer-scaled rows (see
    ``_scale_row``) and integer bounds; floor and ceil of a quotient come
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


def _scale_row(
    coeffs: list[tuple[int, Fraction]], lo: Optional[Fraction], hi: Optional[Fraction]
) -> tuple[list[tuple[int, int]], Optional[int], Optional[int]]:
    """Multiply a row by the LCM of the denominators of its coefficients
    and bounds, so that it holds integers only; the set of points it
    admits is unchanged."""
    scale = math.lcm(
        *(a.denominator for _, a in coeffs),
        *(b.denominator for b in (lo, hi) if b is not None),
    )
    return (
        [(j, int(a * scale)) for j, a in coeffs],
        None if lo is None else int(lo * scale),
        None if hi is None else int(hi * scale),
    )


def _merge_rows(
    rows: Iterable[tuple[list[tuple[int, int]], Optional[int], Optional[int]]],
) -> Optional[list[tuple[list[tuple[int, int]], Optional[int], Optional[int]]]]:
    """Normalise integer-scaled rows and merge those with the same
    coefficients.  Each row is divided by the gcd of its coefficients
    (bounds rounded inward, which keeps every integer point) and signed
    so that its lowest-indexed coefficient is positive; rows with equal
    coefficient vectors become one ``[lo, hi]`` row.  Returns None when
    some row admits no value at all."""
    merged: dict[tuple[tuple[int, int], ...], list[Optional[int]]] = {}
    for coeffs, lo, hi in rows:
        coeffs = sorted(coeffs)
        g = math.gcd(*(a for _, a in coeffs))
        if coeffs[0][1] < 0:
            g = -g
            lo, hi = hi, lo
        key = tuple((j, a // g) for j, a in coeffs)
        # dividing by g < 0 flips the bounds, which the swap above did
        lo = None if lo is None else -(-lo // g)
        hi = None if hi is None else hi // g
        bnd = merged.setdefault(key, [None, None])
        if lo is not None and (bnd[0] is None or lo > bnd[0]):
            bnd[0] = lo
        if hi is not None and (bnd[1] is None or hi < bnd[1]):
            bnd[1] = hi
        if bnd[0] is not None and bnd[1] is not None and bnd[0] > bnd[1]:
            return None
    return [(list(key), lo, hi) for key, (lo, hi) in merged.items()]


def _initial_bounds(variables: Sequence[FlatVar], box: int) -> list[tuple[int, int]]:
    out = []
    for v in variables:
        lo = -box if v.lo is None else max(v.lo, -box)
        hi = box if v.hi is None else min(v.hi, box)
        out.append((math.ceil(lo), math.floor(hi)))
    return out


def _lower(
    sub, var_index: dict[str, int]
) -> tuple[
    Optional[list[tuple[list[tuple[int, int]], Optional[int], Optional[int]]]],
    list[Constraint],
]:
    """The enumerator's view of sub: its linear rows integer-scaled and
    merged (``_scale_row``, ``_merge_rows``), or None when some row admits
    no point, and the added constraints that stay nonlinear.  Instance
    rows are read by position (``_row_interval``); only the added sets
    are lowered from their expression trees (``_interval_of``)."""
    indexed = [
        ([(j, a) for j, a in enumerate(coeffs) if a != 0], lo, hi)
        for coeffs, lo, hi in map(_row_interval, sub.base.rows)
    ]
    nonlinear: list[Constraint] = []
    for cs in sub.added:
        for con in cs.constraints:
            row = _interval_of(con)
            if row is None:
                nonlinear.append(con)
                continue
            coeffs, lo, hi = row
            try:
                positional = [(var_index[name], a) for name, a in coeffs.items() if a != 0]
            except KeyError as exc:
                raise InputError(f"constraint references unknown variable {exc}") from exc
            indexed.append((positional, lo, hi))
    scaled = []
    for coeffs, lo, hi in indexed:
        if coeffs:
            scaled.append(_scale_row(coeffs, lo, hi))
        elif (hi is not None and 0 > hi) or (lo is not None and 0 < lo):
            # constant row: decide it now
            return None, nonlinear
    return _merge_rows(scaled), nonlinear


def solve_subproblem(
    sub,
    box: int = DEFAULT_BOX,
    budget: int = DEFAULT_NODE_BUDGET,
) -> Outcome:
    """Depth-first integer enumeration of sub = base instance + added
    constraint sets, over the declared bounds intersected with
    [-box, box].

    The instance rows are read by position and only the added sets are
    lowered from their trees (``_lower``); the export document is not
    built.  Linear rows are integer-scaled, divided by their gcd and
    merged by coefficient vector (``_merge_rows``), then prune through
    exact interval propagation at every node: the root starts from all
    rows, a node from the rows that watch the variable it fixes, and
    each tightening queues the rows of the tightened variable, up to
    ``_PROPAGATION_ROUNDS`` visits per row (``_propagate``).  Every row
    is visited at the node that fixes its last variable, cap or not, so
    a leaf meets every linear row exactly.  Nonlinear constraints are
    evaluated (``eval_float``) only at fully assigned leaves, where a
    division by zero simply rejects the leaf — smoothness guards make
    such leaves infeasible by definition.

    The budget counts assignment attempts.  First satisfying point wins
    for feasibility-sense instances.  Max/min instances are searched to
    the end under an incumbent cutoff: the objective, scaled to integers
    by the lcm D of its denominators, is one more propagated row, whose
    lower bound becomes ``sign * D * f + 1`` when a point of value f is
    recorded.  Every variable is an integer, so the cutoff removes only
    points that are no better than the incumbent, and the search records
    the same points, in the same order, as a search without it: the
    answer is the lexicographically first optimum.  Budget exhaustion
    yields Unknown: a Feasible that was already found cannot be
    certified optimal, and an Infeasible cannot be certified at all."""
    if budget <= 0:
        return Outcome(UNKNOWN)
    variables = _variables(sub)
    var_index = {v.name: i for i, v in enumerate(variables)}
    nvars = len(variables)
    rows, nonlinear = _lower(sub, var_index)
    if rows is None:
        return Outcome(INFEASIBLE)

    programs: list[tuple[Program, str, float]] = [
        (compile_expr(c.expr, var_index), c.sense, c.eps) for c in nonlinear
    ]

    base: Instance = sub.base
    obj_items = [(j, c) for j, c in enumerate(base.objective) if c != 0]
    want_best = base.sense in (MAX, MIN)
    sign = -1 if base.sense == MIN else 1
    if want_best:
        # incumbent cutoff: sign * D * objective >= (best key) * D + 1,
        # unbounded until the first incumbent
        scale = math.lcm(*(c.denominator for _, c in obj_items))
        cut_coeffs = [(j, int(sign * c * scale)) for j, c in obj_items]
        cut = len(rows)
        rows.append((cut_coeffs, None, None))
    watch = _watch_lists(rows, nvars)
    # the cutoff's bound changes at leaves, so every node queues it
    starts = [w if not want_best or cut in w else w + [cut] for w in watch]

    bounds0 = _propagate(_initial_bounds(variables, box), rows, watch)
    if bounds0 is None:
        return Outcome(INFEASIBLE)

    values = [0.0] * nvars
    exact = [0] * nvars
    state = {"budget": budget, "best": None, "best_obj": None}

    def leaf_ok() -> bool:
        for prog, sense, ceps in programs:
            ok, val = prog.run(values)
            if not ok:
                return False
            if not check_value(val, sense, ceps):
                return False
        return True

    def record() -> None:
        point = tuple(Fraction(v) for v in exact[: base.n])
        if not want_best:
            state["best"] = point
            return
        objv = sum((c * exact[j] for j, c in obj_items), Fraction(0))
        key = sign * objv
        if state["best_obj"] is None or key > state["best_obj"]:
            state["best_obj"] = key
            state["best"] = (point, objv)
            # every variable is an integer, so a strictly better point
            # scores at least 1 more on the scaled row
            rows[cut] = (cut_coeffs, int(key * scale) + 1, None)

    def dfs(idx: int, bounds: list[tuple[int, int]]) -> bool:
        """Returns True when the search can stop (feasibility hit)."""
        if idx == nvars:
            if leaf_ok():
                record()
                return not want_best
            return False
        lo, hi = bounds[idx]
        v = lo
        while v <= hi:
            state["budget"] -= 1
            if state["budget"] < 0:
                raise _BudgetExhausted
            sub_bounds = list(bounds)
            sub_bounds[idx] = (v, v)
            if _propagate(sub_bounds, rows, watch, starts[idx]) is not None:
                values[idx] = float(v)
                exact[idx] = v
                if dfs(idx + 1, sub_bounds):
                    return True
            v += 1
        return False

    try:
        stopped = dfs(0, bounds0)
    except _BudgetExhausted:
        return Outcome(UNKNOWN)
    finally:
        # dfs refers to itself through its closure cell; break that
        # cycle so the search state is freed on return, not by the collector
        del dfs

    if not want_best:
        if stopped and state["best"] is not None:
            return Outcome(FEASIBLE, point=state["best"])
        return Outcome(INFEASIBLE)
    if state["best"] is None:
        return Outcome(INFEASIBLE)
    point, objv = state["best"]
    return Outcome(FEASIBLE, point=point, objective=objv)


def export_subproblem(sub, path) -> None:
    """Write sub as a MINLP-JSON file (see the serialization module for
    the schema and the bit-exactness contract)."""
    from . import minlp

    minlp.write_problem(flatten_subproblem(sub), path)
