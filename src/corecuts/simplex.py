"""Exact rational LP solver: two-phase primal simplex with Bland's rule.

The tableau is fraction-free (Edmonds' integer-preserving pivot, the LP
form of Bareiss elimination): every row is scaled to integers when it is
built, and the entries are plain ``int`` over one common denominator,
which each pivot divides out exactly.  Optima, basic points and
infeasibility verdicts are exact ``Fraction`` values.  Bland's
anti-cycling rule keeps the method finite on every input.  Designed for
desk-scale problems (tens of variables).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import InputError

LE, GE, EQ = "<=", ">=", "=="

Bound = Optional[Fraction]


@dataclass(frozen=True)
class LPRow:
    coeffs: tuple[Fraction, ...]
    sense: str
    rhs: Fraction


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: Optional[tuple[Fraction, ...]] = None
    objective: Optional[Fraction] = None


def _frac(v) -> Fraction:
    return v if isinstance(v, Fraction) else Fraction(v)


def make_row(coeffs: Sequence, sense: str, rhs) -> LPRow:
    if sense not in (LE, GE, EQ):
        raise InputError(f"bad row sense {sense!r}")
    return LPRow(tuple(_frac(a) for a in coeffs), sense, _frac(rhs))


class _Tableau:
    """Simplex tableau in equality standard form A y = b, y >= 0, b >= 0.

    Entry (i, j) is ``rows[i][j] / den`` and right-hand side i is
    ``rhs[i] / den``, with integer numerators and ``den > 0``; a basic
    column holds ``den`` in its row and 0 elsewhere."""

    def __init__(self, rows: list[list[int]], rhs: list[int], basis: list[int], ncols: int):
        self.rows = rows
        self.rhs = rhs
        self.basis = basis
        self.ncols = ncols
        self.den = 1

    def pivot(self, r: int, col: int) -> None:
        den = self.den
        piv = self.rows[r][col]
        prow = self.rows[r]
        prhs = self.rhs[r]
        for i in range(len(self.rows)):
            if i == r:
                continue
            f = self.rows[i][col]
            if f:
                self.rows[i] = [(piv * a - f * p) // den for a, p in zip(self.rows[i], prow)]
            elif piv != den:
                self.rows[i] = [piv * a // den for a in self.rows[i]]
            self.rhs[i] = (piv * self.rhs[i] - f * prhs) // den
        if piv < 0:
            self.rows = [[-a for a in row] for row in self.rows]
            self.rhs = [-b for b in self.rhs]
            piv = -piv
        self.den = piv
        self.basis[r] = col

    def minimize(self, cost: list[int], frozen: set[int]) -> tuple[str, Fraction]:
        """Run simplex iterations minimizing cost^T y; Bland's rule throughout.

        ``cost`` is integer.  Columns in ``frozen`` are never allowed to
        enter the basis.  Returns (status, objective value)."""
        m = len(self.rows)
        while True:
            # reduced costs relative to the current basis, times den
            dual = [cost[self.basis[i]] for i in range(m)]
            den = self.den
            entering = -1
            basic = set(self.basis)
            for j in range(self.ncols):
                if j in frozen or j in basic:
                    continue
                red = cost[j] * den - sum(dual[i] * self.rows[i][j] for i in range(m))
                if red < 0:
                    entering = j  # Bland: smallest index wins
                    break
            if entering < 0:
                value = sum(dual[i] * self.rhs[i] for i in range(m))
                return "optimal", Fraction(value, den)
            # ratio test by cross-multiplying, Bland tie-break on the
            # smallest basis column
            leave_row = -1
            best_b = best_a = 0
            for i in range(m):
                a = self.rows[i][entering]
                if a > 0:
                    b = self.rhs[i]
                    if leave_row >= 0:
                        lhs, rhs = b * best_a, best_b * a
                        if lhs > rhs or (lhs == rhs and self.basis[i] > self.basis[leave_row]):
                            continue
                    best_b, best_a, leave_row = b, a, i
            if leave_row < 0:
                return "unbounded", Fraction(0)
            self.pivot(leave_row, entering)


def solve_lp(
    n: int,
    objective: Sequence,
    rows: Sequence[LPRow],
    bounds: Sequence[tuple[Bound, Bound]],
    maximize: bool = True,
) -> LPResult:
    """Solve max/min objective^T x subject to rows and variable bounds.

    ``bounds[i]`` is (lo, hi) with None meaning unbounded on that side.
    """
    obj = [_frac(a) for a in objective]
    if len(obj) != n or len(bounds) != n:
        raise InputError("objective/bounds length mismatch")

    # Substitute each original variable by nonnegative ones:
    #   lo finite:            x = lo + u
    #   lo = -inf, hi finite: x = hi - u
    #   free:                 x = u - w
    # subst[i] = list of (column, coefficient); shift[i] = constant term.
    subst: list[list[tuple[int, int]]] = []
    shift: list[Fraction] = []
    ncols = 0
    extra_rows: list[LPRow] = []
    for i, (lo, hi) in enumerate(bounds):
        lo = None if lo is None else _frac(lo)
        hi = None if hi is None else _frac(hi)
        if lo is not None and hi is not None and hi < lo:
            return LPResult(status="infeasible")
        if lo is not None:
            subst.append([(ncols, 1)])
            shift.append(lo)
            if hi is not None:
                coeffs = [Fraction(0)] * n
                coeffs[i] = Fraction(1)
                extra_rows.append(LPRow(tuple(coeffs), LE, hi))
            ncols += 1
        elif hi is not None:
            subst.append([(ncols, -1)])
            shift.append(hi)
            ncols += 1
        else:
            subst.append([(ncols, 1), (ncols + 1, -1)])
            shift.append(Fraction(0))
            ncols += 2
    nstruct = ncols

    # Each row is moved to u-space (every u column belongs to one
    # original variable, so only the right-hand side needs rational
    # arithmetic) and scaled by the LCM of its denominators.  Its slack
    # and artificial keep coefficient +-1, i.e. they are scaled by the
    # same factor, which the phase-1 costs undo.  Positive row and
    # column scalings leave every sign Bland's rule reads unchanged, so
    # the pivot sequence is that of the unscaled tableau.
    work: list[tuple[list[int], str, int, int]] = []
    for row in list(rows) + extra_rows:
        if len(row.coeffs) != n:
            raise InputError("row length mismatch")
        coeffs = [_frac(a) for a in row.coeffs]
        b = _frac(row.rhs) - sum(a * s for a, s in zip(coeffs, shift) if a and s)
        sense = row.sense
        flip = 1
        if b < 0:
            flip, b = -1, -b
            sense = {LE: GE, GE: LE, EQ: EQ}[sense]
        scale = math.lcm(b.denominator, *(a.denominator for a in coeffs))
        ints = [0] * nstruct
        for i, a in enumerate(coeffs):
            if a:
                k = flip * a.numerator * (scale // a.denominator)
                for col, sign in subst[i]:
                    ints[col] = sign * k
        work.append((ints, sense, b.numerator * (scale // b.denominator), scale))

    m = len(work)
    nslack = sum(1 for _, s, _, _ in work if s != EQ)
    total = nstruct + nslack + m  # artificials for every row keep phase 1 simple
    tab_rows: list[list[int]] = []
    tab_rhs: list[int] = []
    basis: list[int] = []
    slack_at = nstruct
    art_at = nstruct + nslack
    for r, (coeffs, sense, b, _) in enumerate(work):
        full = coeffs + [0] * (total - nstruct)
        if sense == LE:
            full[slack_at] = 1
            slack_at += 1
        elif sense == GE:
            full[slack_at] = -1
            slack_at += 1
        full[art_at + r] = 1
        tab_rows.append(full)
        tab_rhs.append(b)
        basis.append(art_at + r)

    tab = _Tableau(tab_rows, tab_rhs, basis, total)

    # Phase 1: drive out the artificial variables, minimizing their sum
    # in unscaled units (artificial r carries weight 1 / scale_r).
    phase1 = [0] * total
    art_lcm = math.lcm(*(scale for _, _, _, scale in work))
    for r, (_, _, _, scale) in enumerate(work):
        phase1[art_at + r] = art_lcm // scale
    status, value = tab.minimize(phase1, frozen=set())
    if value != 0:
        return LPResult(status="infeasible")
    artificial = set(range(art_at, total))
    for r in range(m):
        if tab.basis[r] in artificial:
            # pivot the (zero-valued) artificial out if any real column is usable
            for j in range(art_at):
                if tab.rows[r][j] != 0:
                    tab.pivot(r, j)
                    break

    # Phase 2 on the real objective (minimize -obj when maximizing),
    # scaled to integers.
    cost_scale = math.lcm(*(c.denominator for c in obj))
    cost = [0] * total
    for i in range(n):
        c = obj[i] * cost_scale
        c_int = -c.numerator if maximize else c.numerator
        for col, sign in subst[i]:
            cost[col] += c_int * sign
    status, value = tab.minimize(cost, frozen=artificial)
    if status == "unbounded":
        return LPResult(status="unbounded")

    u = [Fraction(0)] * total
    for r in range(m):
        u[tab.basis[r]] = Fraction(tab.rhs[r], tab.den)
    x = []
    for i in range(n):
        xi = shift[i]
        for col, sign in subst[i]:
            xi += sign * u[col]
        x.append(xi)
    objective_value = sum(o * xi for o, xi in zip(obj, x))
    return LPResult(status="optimal", x=tuple(x), objective=objective_value)


def lp_feasible(n: int, rows: Sequence[LPRow], bounds: Sequence[tuple[Bound, Bound]]) -> bool:
    """Exact feasibility check of a linear system (phase 1 only)."""
    res = solve_lp(n, [0] * n, rows, bounds, maximize=True)
    return res.status != "infeasible"
