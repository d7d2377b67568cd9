"""Exact rational LP solver: a bounded-variable primal simplex, built once
per constraint system and reoptimised from its last basis.

A ``Tableau`` is built from ``(n, rows, bounds)`` and runs phase 1 once.
Each ``optimize(objective, maximize)`` then runs phase 2 from the current
basis, so further objectives over the same rows and bounds cost no
second phase 1 (a warm start).  ``solve_lp`` and ``lp_feasible`` are
one-shot wrappers over the same code.

* Bounded variables (the upper-bounding technique of Chvátal, *Linear
  Programming*, 1983, ch. 8).  Each variable is shifted to a lower
  bound of 0: a variable with only an upper bound is negated, a free
  one is split in two, and a fixed one is a constant with no column.
  A finite upper bound never becomes a row.  The ratio test stops a
  basic variable at it, an entering variable that reaches its own
  bound first flips to it, and a variable at its upper bound is kept
  complemented (its column negated), so every nonbasic variable is 0.
* Ranged rows.  Each row is scaled to integers once, divided by the
  gcd of its coefficients and given a positive leading coefficient;
  rows with the same coefficient vector merge into one ranged row
  ``lo <= a.x <= hi``.  The bounds stay exact, nothing is rounded.  A
  ranged row has one logical variable in ``[0, hi - lo]``; an equality
  row has none.
* Artificials only where needed.  With every structural variable at 0,
  a logical that lies within its bounds starts basic; only the other
  rows, and the equality rows, get an artificial.
* Fraction-free pivots (Edmonds' integer-preserving pivot, the LP form
  of Bareiss elimination).  Entries are plain ``int`` over one common
  denominator, which each pivot divides out exactly.
* The reduced-cost row lives in the tableau.  ``optimize`` prices it
  once for its objective, and every pivot updates it like any other
  row.

Bland's smallest-index rule keeps both phases finite.  Optima, points
and infeasibility verdicts are exact ``Fraction`` values.  Designed for
desk-scale problems (tens of variables).
"""

from __future__ import annotations

import math
import operator
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


def _ranged_rows(n: int, rows: Sequence[LPRow]):
    """Merge the rows by primitive integer coefficient vector.

    Returns ``{coeffs: [lo, hi]}`` in first-appearance order.  A bound on
    ``coeffs . x`` is an exact ratio ``(num, den)`` with ``den > 0``, or
    None for no bound.  Returns None when an all-zero row is violated or
    a merged row's bounds cross."""
    merged: dict[tuple[int, ...], list] = {}
    empty = False
    for row in rows:
        if len(row.coeffs) != n:
            raise InputError("row length mismatch")
        if row.sense not in (LE, GE, EQ):
            raise InputError(f"bad row sense {row.sense!r}")
        rhs = row.rhs
        scale = math.lcm(rhs.denominator, *(a.denominator for a in row.coeffs))
        ints = [a.numerator * (scale // a.denominator) for a in row.coeffs]
        b = rhs.numerator * (scale // rhs.denominator)
        g = math.gcd(*ints)
        if g == 0:
            empty |= {LE: 0 > b, GE: 0 < b, EQ: 0 != b}[row.sense]
            continue
        sense = row.sense
        if next(v for v in ints if v) < 0:
            g, b = -g, -b
            sense = {LE: GE, GE: LE, EQ: EQ}[sense]
        bound = (b, abs(g))
        entry = merged.setdefault(tuple(v // g for v in ints), [None, None])
        if sense != LE and (entry[0] is None or b * entry[0][1] > entry[0][0] * bound[1]):
            entry[0] = bound
        if sense != GE and (entry[1] is None or b * entry[1][1] < entry[1][0] * bound[1]):
            entry[1] = bound
    for lo, hi in merged.values():
        empty |= lo is not None and hi is not None and lo[0] * hi[1] > hi[0] * lo[1]
    return None if empty else merged


class Tableau:
    """The LP ``{x : rows, bounds}`` in bounded standard form, with a
    feasible basis once phase 1 has run (when it is built).

    Each column holds a variable ``v`` in ``[0, upper[col]]`` (``None``:
    no upper bound), or its complement ``upper[col] - v`` when
    ``flipped[col]``; a nonbasic column's variable is 0.  Structural
    columns come first: variable j is ``shift[j] + sum(sign * v[col] /
    scale[col])`` over its columns ``subst[j]``.  Then one logical per
    ranged row, then, during phase 1 only, the artificials.  Entry
    (i, col) is ``rows[i][col] / den``, the basic value of row i is
    ``rhs[i] / den`` and the reduced cost of column col is
    ``cost[col] / den``, with integer numerators and ``den > 0``; a
    basic column holds ``den`` in its row and 0 in every other row and
    in the cost row."""

    def __init__(self, n: int, rows: Sequence[LPRow], bounds: Sequence[tuple[Bound, Bound]]):
        if len(bounds) != n:
            raise InputError("objective/bounds length mismatch")
        self.n = n
        self.shift: list[Fraction] = []
        self.subst: list[tuple[tuple[int, int], ...]] = []
        self.scale: list[int] = []
        self.upper: list[Optional[int]] = []
        self.rows: list[list[int]] = []
        self.rhs: list[int] = []
        self.cost: list[int] = []
        self.basis: list[int] = []
        self.flipped: list[bool] = []
        self.den = 1
        ranged = _ranged_rows(n, rows)
        self.feasible = ranged is not None and self._add_variables(bounds)
        if self.feasible:
            self.feasible = self._phase1(self._add_rows(ranged))

    def _add_variables(self, bounds) -> bool:
        """Shift every variable to lower bound 0; False when a variable's
        bounds cross."""
        for lo, hi in bounds:
            lo = None if lo is None else _frac(lo)
            hi = None if hi is None else _frac(hi)
            col = len(self.upper)
            if lo is not None and hi is not None:
                width = hi - lo
                if width < 0:
                    return False
                self.shift.append(lo)
                if width == 0:
                    self.subst.append(())
                    continue
                # v = width.denominator * (x - lo) keeps the bound integral
                self.subst.append(((col, 1),))
                self.scale.append(width.denominator)
                self.upper.append(width.numerator)
            elif lo is not None or hi is not None:
                self.shift.append(lo if lo is not None else hi)
                self.subst.append(((col, 1 if lo is not None else -1),))
                self.scale.append(1)
                self.upper.append(None)
            else:
                self.shift.append(Fraction(0))
                self.subst.append(((col, 1), (col + 1, -1)))
                self.scale += [1, 1]
                self.upper += [None, None]
        return True

    def _add_rows(self, ranged: dict) -> list[int]:
        """State the ranged rows over the shifted columns, each scaled to
        integers, with their logicals; returns the rows that need an
        artificial (their logical cannot start basic)."""
        nstruct = len(self.upper)
        shift_den = math.lcm(*(s.denominator for s in self.shift))
        shift_num = [s.numerator * (shift_den // s.denominator) for s in self.shift]
        col_scaled = any(d != 1 for d in self.scale)
        work = []
        for coeffs, (lo, hi) in ranged.items():
            # the bounds num / den become num / den - moved / shift_den
            moved = sum(map(operator.mul, coeffs, shift_num))
            dens = []
            if lo is not None:
                lo = (lo[0] * shift_den - moved * lo[1], lo[1] * shift_den)
                dens.append(lo[1] // math.gcd(*lo))
            if hi is not None:
                hi = (hi[0] * shift_den - moved * hi[1], hi[1] * shift_den)
                dens.append(hi[1] // math.gcd(*hi))
            if col_scaled:
                dens += [self.scale[col] for a, sub in zip(coeffs, self.subst) if a for col, _ in sub]
            scale = math.lcm(*dens)
            ints = [0] * nstruct
            for a, sub in zip(coeffs, self.subst):
                if a:
                    for col, sign in sub:
                        ints[col] = sign * a * (scale // self.scale[col])
            if hi is None:  # a.x >= lo, stated as -a.x + s = -lo
                work.append(([-a for a in ints], -lo[0] * scale // lo[1], None))
            else:
                hi = hi[0] * scale // hi[1]
                work.append((ints, hi, None if lo is None else hi - lo[0] * scale // lo[1]))

        # every row but an equality row gets a logical; it starts basic
        # when its value with all structurals at 0 lies within its bounds
        self.upper += [width for _, _, width in work if width != 0]
        nreal = len(self.upper)
        self.flipped = [False] * nreal
        logical = nstruct
        artificial = []
        for ints, b, width in work:
            row = ints + [0] * (nreal - nstruct)
            if width != 0:
                row[logical] = 1
                logical += 1
                if b >= 0 and (width is None or b <= width):
                    self.basis.append(logical - 1)
                    self.rows.append(row)
                    self.rhs.append(b)
                    continue
            if b < 0:
                row = [-a for a in row]
                b = -b
            artificial.append(len(self.rows))
            self.basis.append(nreal + len(artificial) - 1)
            self.rows.append(row)
            self.rhs.append(b)
        return artificial

    def _phase1(self, artificial: list[int]) -> bool:
        """Minimise the sum of the artificials of rows ``artificial`` and
        drop them; False when the LP is infeasible."""
        if not artificial:
            return True
        nreal = len(self.upper)
        nart = len(artificial)
        for row in self.rows:
            row += [0] * nart
        for k, r in enumerate(artificial):
            self.rows[r][nreal + k] = 1
        self.upper += [None] * nart
        self.flipped += [False] * nart
        # phase 1: minimise the sum of the artificials
        cost = [0] * nreal + [1] * nart
        for r in artificial:
            cost = [c - a for c, a in zip(cost, self.rows[r])]
        self.cost = cost
        self._minimize()
        keep = []
        for r, b in enumerate(self.basis):
            if b >= nreal:
                if self.rhs[r]:
                    return False
                col = next((j for j in range(nreal) if self.rows[r][j]), None)
                if col is None:
                    continue  # a redundant row: all zero outside the artificials
                self._pivot(r, col)
            keep.append(r)
        self.rows = [self.rows[r][:nreal] for r in keep]
        self.rhs = [self.rhs[r] for r in keep]
        self.basis = [self.basis[r] for r in keep]
        del self.upper[nreal:], self.flipped[nreal:]
        return True

    def _pivot(self, r: int, col: int) -> None:
        den = self.den
        prow = self.rows[r]
        prhs = self.rhs[r]
        piv = prow[col]
        rows, rhs = self.rows, self.rhs
        for i, row in enumerate(rows):
            if i == r:
                continue
            f = row[col]
            if f:
                rows[i] = [(piv * a - f * p) // den for a, p in zip(row, prow)]
                rhs[i] = (piv * rhs[i] - f * prhs) // den
            elif piv != den:
                rows[i] = [piv * a // den for a in row]
                rhs[i] = piv * rhs[i] // den
        f = self.cost[col]
        if f:
            self.cost = [(piv * a - f * p) // den for a, p in zip(self.cost, prow)]
        elif piv != den:
            self.cost = [piv * a // den for a in self.cost]
        if piv < 0:
            self.rows = [[-a for a in row] for row in rows]
            self.rhs = [-b for b in rhs]
            self.cost = [-a for a in self.cost]
            piv = -piv
        self.den = piv
        self.basis[r] = col

    def _flip(self, col: int) -> None:
        """Move nonbasic column col to its other bound: complement it."""
        u = self.upper[col]
        for i, row in enumerate(self.rows):
            a = row[col]
            if a:
                self.rhs[i] -= a * u
                row[col] = -a
        self.cost[col] = -self.cost[col]
        self.flipped[col] = not self.flipped[col]

    def _minimize(self) -> bool:
        """Simplex iterations on the current cost row with Bland's rule;
        False when the objective is unbounded below."""
        basis, upper = self.basis, self.upper
        while True:
            entering = next((j for j, d in enumerate(self.cost) if d < 0), -1)
            if entering < 0:
                return True
            # ratio test by cross-multiplying: row i stops the step at
            # num / dnm; ties go to the smallest basic column
            den = self.den
            leave, best_num, best_dnm = -1, 0, 1
            for i, row in enumerate(self.rows):
                a = row[entering]
                if a > 0:
                    num, dnm = self.rhs[i], a
                elif a < 0 and upper[basis[i]] is not None:
                    num, dnm = upper[basis[i]] * den - self.rhs[i], -a
                else:
                    continue
                if leave >= 0:
                    lhs, rhs = num * best_dnm, best_num * dnm
                    if lhs > rhs or (lhs == rhs and basis[i] > basis[leave]):
                        continue
                leave, best_num, best_dnm = i, num, dnm
            u = upper[entering]
            if u is not None and (leave < 0 or u * best_dnm < best_num):
                self._flip(entering)
                continue
            if leave < 0:
                return False
            if self.rows[leave][entering] < 0:
                # the basic variable leaves at its upper bound: complement it
                row = [-a for a in self.rows[leave]]
                row[basis[leave]] = den
                self.rows[leave] = row
                self.rhs[leave] = upper[basis[leave]] * den - self.rhs[leave]
                self.flipped[basis[leave]] = not self.flipped[basis[leave]]
            self._pivot(leave, entering)

    def optimize(self, objective: Sequence, maximize: bool = True) -> LPResult:
        """Max or min objective^T x by phase 2 from the current basis."""
        obj = [_frac(a) for a in objective]
        if len(obj) != self.n:
            raise InputError("objective/bounds length mismatch")
        if not self.feasible:
            return LPResult(status="infeasible")
        obj_den = math.lcm(*(c.denominator for c in obj))
        col_den = math.lcm(*self.scale)
        cost = [0] * len(self.flipped)
        for c, sub in zip(obj, self.subst):
            k = c.numerator * (obj_den // c.denominator) * (-1 if maximize else 1)
            for col, sign in sub:
                cost[col] = sign * k * (col_den // self.scale[col])
                if self.flipped[col]:
                    cost[col] = -cost[col]
        den = self.den
        priced = [den * c for c in cost]
        for row, b in zip(self.rows, self.basis):
            cb = cost[b]
            if cb:
                priced = [p - cb * a for p, a in zip(priced, row)]
        self.cost = priced
        if not self._minimize():
            return LPResult(status="unbounded")
        x = self._point()
        return LPResult(status="optimal", x=x, objective=sum(c * v for c, v in zip(obj, x)))

    def _point(self) -> tuple[Fraction, ...]:
        """The original variables at the current basic solution."""
        den = self.den
        value = [0] * len(self.flipped)  # times den
        for r, b in enumerate(self.basis):
            value[b] = self.rhs[r]
        for col, flipped in enumerate(self.flipped):
            if flipped:
                value[col] = self.upper[col] * den - value[col]
        # the columns of one variable share its scale (a split one has 1)
        return tuple(
            s + Fraction(sum(sign * value[col] for col, sign in sub), den * self.scale[sub[0][0]])
            if sub
            else s
            for s, sub in zip(self.shift, self.subst)
        )


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
    if len(objective) != n:
        raise InputError("objective/bounds length mismatch")
    return Tableau(n, rows, bounds).optimize(objective, maximize)


def lp_feasible(n: int, rows: Sequence[LPRow], bounds: Sequence[tuple[Bound, Bound]]) -> bool:
    """Exact feasibility check of a linear system (phase 1 only)."""
    return Tableau(n, rows, bounds).feasible
