"""Desk-scale internal solvers.

Two engines live here:

* ``lp_relax`` — exact rational simplex over the instance's linear rows
  (synthesized nonlinear sets are never part of the relaxation);
* ``solve_subproblem`` — bounded depth-first integer enumeration with
  exact interval propagation on every linear row and float evaluation
  of the nonlinear constraints (``exprs.eval_float``) at fully assigned
  leaves.  Each linear row is scaled once to integer coefficients and
  bounds, so propagation and enumeration run on plain ``int``; points
  are returned as ``Fraction`` tuples.

Both are deliberately small: they replace an external MINLP solver for
instances a few variables wide, and every verdict they return is
certified (a satisfying point, or full exhaustion of the box).  When the
node budget runs out first the verdict is Unknown, never a guess.

``flatten_subproblem`` is the shared lowering step: it merges the base
instance with the synthesized constraint sets into one variable list
(instance variables first, then auxiliaries in first-appearance order),
one exact linear-row system, and one list of residual nonlinear
constraints.  The MINLP export uses the same flattening, so what the
enumerator solves and what an external solver would receive are the
same problem by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import InputError
from .evalcore import Program, compile_expr
from .exprs import (
    Add,
    Const,
    Constraint,
    ConstraintSet,
    Dot,
    EQ,
    EQ_TOL,
    LE_ZERO,
    NON_NEG,
    STRICT_NEG,
    check_value,
    linear_form,
)
from .perms import GroupSpec, apply
from .simplex import LPRow, LPResult, solve_lp

#: half-width of the fallback enumeration box for variables whose
#: declared bounds are missing or wider
DEFAULT_BOX = 50

#: assignment-node budget for one subproblem enumeration
DEFAULT_NODE_BUDGET = 500_000

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
    row_key = sorted((r.coeffs, r.sense, r.rhs) for r in inst.rows)
    for g in inst.group.generators:
        label = f"generator {g.images}"
        if apply(g, inst.objective) != inst.objective:
            warnings.append(f"{label} does not fix the objective")
        permuted = sorted(
            (tuple(apply(g, r.coeffs)), r.sense, r.rhs) for r in inst.rows
        )
        if permuted != row_key:
            warnings.append(f"{label} does not permute the constraint rows")
        if apply(g, inst.bounds) != inst.bounds:
            warnings.append(f"{label} does not preserve bounds")
    return warnings


def lp_relax(inst: Instance) -> Outcome:
    """Exact LP relaxation over the instance's linear rows.

    Feasibility-sense instances are relaxed with the all-ones objective
    (maximized), so the returned objective doubles as the top layer
    index; min-sense instances are solved by maximizing the negated
    objective."""
    if inst.sense == FEASIBILITY:
        objective: Sequence[Fraction] = (Fraction(1),) * inst.n
        maximize = True
    elif inst.sense == MAX:
        objective = inst.objective
        maximize = True
    else:
        objective = inst.objective
        maximize = False
    res: LPResult = solve_lp(inst.n, objective, list(inst.rows), list(inst.bounds), maximize)
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
    variables: tuple[FlatVar, ...]
    sense: str
    objective: dict[str, Fraction]
    #: exact interval rows: (coeffs by name, lower, upper), None = unbounded
    linear_rows: tuple[tuple[dict[str, Fraction], Optional[Fraction], Optional[Fraction]], ...]
    #: constraints that stay nonlinear after lowering
    nonlinear: tuple[Constraint, ...]
    #: every constraint in expression form, for export (base rows first)
    constraints: tuple[Constraint, ...]


def _row_to_constraint(row: LPRow, names: Sequence[str]) -> Constraint:
    coeffs = tuple(Fraction(c) for c in row.coeffs)
    if row.sense == "<=":
        expr = Add((Dot(coeffs, tuple(names)), Const(-Fraction(row.rhs))))
        return Constraint(expr, LE_ZERO)
    if row.sense == ">=":
        expr = Add(
            (Dot(tuple(-c for c in coeffs), tuple(names)), Const(Fraction(row.rhs)))
        )
        return Constraint(expr, LE_ZERO)
    if row.sense == "==":
        expr = Add((Dot(coeffs, tuple(names)), Const(-Fraction(row.rhs))))
        return Constraint(expr, EQ)
    raise InputError(f"unknown row sense {row.sense!r}")


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


def flatten_subproblem(sub) -> FlatProblem:
    """Merge sub.base (an Instance) with sub.added (ConstraintSets) into
    one flat problem.  Variable order: instance variables, then
    auxiliaries in first-appearance order."""
    base: Instance = sub.base
    added: Sequence[ConstraintSet] = tuple(sub.added)
    names = base.var_names

    variables: list[FlatVar] = []
    for i, name in enumerate(names):
        lo, hi = base.bounds[i]
        variables.append(FlatVar(name, lo, hi, "integer"))
    seen = set(names)
    for cs in added:
        for av in cs.aux_vars:
            if av.name in seen:
                raise InputError(f"duplicate auxiliary variable {av.name}")
            seen.add(av.name)
            if av.kind == "binary":
                variables.append(FlatVar(av.name, Fraction(0), Fraction(1), "binary"))
            else:
                variables.append(FlatVar(av.name, None, None, "integer"))

    constraints: list[Constraint] = [_row_to_constraint(r, names) for r in base.rows]
    for cs in added:
        constraints.extend(cs.constraints)

    linear_rows = []
    nonlinear = []
    for con in constraints:
        row = _interval_of(con)
        if row is None:
            nonlinear.append(con)
        else:
            linear_rows.append(row)

    objective = {
        names[i]: base.objective[i]
        for i in range(base.n)
        if base.objective[i] != 0
    }
    return FlatProblem(
        variables=tuple(variables),
        sense=base.sense,
        objective=objective,
        linear_rows=tuple(linear_rows),
        nonlinear=tuple(nonlinear),
        constraints=tuple(constraints),
    )


# ---------------------------------------------------------------------------
# bounded integer enumeration


class _BudgetExhausted(Exception):
    pass


def _propagate(
    bounds: list[tuple[int, int]],
    rows: Sequence[tuple[list[tuple[int, int]], Optional[int], Optional[int]]],
) -> Optional[list[tuple[int, int]]]:
    """Interval propagation to a fixpoint (bounded rounds) over
    integer-scaled rows (see ``_scale_row``) and integer bounds; floor
    and ceil of a quotient come from ``//``, so every step is exact.
    Returns tightened bounds, or None when some row or variable becomes
    unsatisfiable."""
    bounds = list(bounds)
    for _ in range(_PROPAGATION_ROUNDS):
        changed = False
        for coeffs, lo_rhs, hi_rhs in rows:
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
            if hi_rhs is not None and act_lo > hi_rhs:
                return None
            if lo_rhs is not None and act_hi < lo_rhs:
                return None
            for j, a in coeffs:
                blo, bhi = bounds[j]
                term_lo = a * blo if a > 0 else a * bhi
                term_hi = a * bhi if a > 0 else a * blo
                rest_lo = act_lo - term_lo
                rest_hi = act_hi - term_hi
                new_lo, new_hi = blo, bhi
                if hi_rhs is not None:
                    # a*x <= hi_rhs - rest_lo
                    cap = hi_rhs - rest_lo
                    if a > 0:
                        new_hi = min(new_hi, cap // a)
                    else:
                        new_lo = max(new_lo, -(-cap // a))
                if lo_rhs is not None:
                    # a*x >= lo_rhs - rest_hi
                    need = lo_rhs - rest_hi
                    if a > 0:
                        new_lo = max(new_lo, -(-need // a))
                    else:
                        new_hi = min(new_hi, need // a)
                if new_lo > new_hi:
                    return None
                if (new_lo, new_hi) != (blo, bhi):
                    bounds[j] = (new_lo, new_hi)
                    changed = True
        if not changed:
            break
    return bounds


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


def _initial_bounds(variables: Sequence[FlatVar], box: int) -> list[tuple[int, int]]:
    out = []
    for v in variables:
        lo = -box if v.lo is None else max(v.lo, -box)
        hi = box if v.hi is None else min(v.hi, box)
        out.append((math.ceil(lo), math.floor(hi)))
    return out


def solve_subproblem(
    sub,
    box: int = DEFAULT_BOX,
    budget: int = DEFAULT_NODE_BUDGET,
) -> Outcome:
    """Depth-first integer enumeration of sub = base instance + added
    constraint sets, over the declared bounds intersected with
    [-box, box].

    Linear rows prune through exact interval propagation at every node;
    nonlinear constraints are evaluated (``eval_float``) only at fully
    assigned leaves, where a division by zero simply rejects the leaf —
    smoothness guards make such leaves infeasible by definition.

    The budget counts assignment attempts.  First satisfying point wins
    for feasibility-sense instances; max/min instances are enumerated
    exhaustively.  Budget exhaustion yields Unknown: a Feasible that was
    already found cannot be certified optimal, and an Infeasible cannot
    be certified at all."""
    if budget <= 0:
        return Outcome(UNKNOWN)
    flat = flatten_subproblem(sub)
    var_index = {v.name: i for i, v in enumerate(flat.variables)}
    nvars = len(flat.variables)

    rows = []
    for coeffs, lo_rhs, hi_rhs in flat.linear_rows:
        try:
            indexed = [(var_index[name], a) for name, a in coeffs.items() if a != 0]
        except KeyError as exc:
            raise InputError(f"constraint references unknown variable {exc}") from exc
        if indexed:
            rows.append(_scale_row(indexed, lo_rhs, hi_rhs))
        else:
            # constant row: decide it now
            if (hi_rhs is not None and 0 > hi_rhs) or (lo_rhs is not None and 0 < lo_rhs):
                return Outcome(INFEASIBLE)

    programs: list[tuple[Program, str, float]] = [
        (compile_expr(c.expr, var_index), c.sense, c.eps) for c in flat.nonlinear
    ]

    bounds0 = _propagate(_initial_bounds(flat.variables, box), rows)
    if bounds0 is None:
        return Outcome(INFEASIBLE)

    obj_items = [(var_index[name], c) for name, c in flat.objective.items()]
    want_best = flat.sense in (MAX, MIN)
    sign = -1 if flat.sense == MIN else 1

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
        point = tuple(Fraction(v) for v in exact[: len(sub.base.var_names)])
        if not want_best:
            state["best"] = point
            return
        objv = sum((c * exact[j] for j, c in obj_items), Fraction(0))
        key = sign * objv
        if state["best_obj"] is None or key > state["best_obj"]:
            state["best_obj"] = key
            state["best"] = (point, objv)

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
            tightened = _propagate(sub_bounds, rows)
            if tightened is not None:
                values[idx] = float(v)
                exact[idx] = v
                if dfs(idx + 1, tightened):
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
