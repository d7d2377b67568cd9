"""Exact rational LP solver: a two-phase primal simplex in standard
form, built once per constraint system.

A ``Tableau`` is built from ``(n, merged, bounds)``, where ``merged`` is
the rows as ``_merge_rows`` merges them, and runs phase 1 once.  Each
``optimize(objective, maximize)`` then runs phase 2 from the current
basis, so a min and a max over the same rows and bounds share one
phase 1.  ``solve_lp`` and ``lp_feasible`` are one-shot wrappers over
the same code.

* Standard form ``A v = b``, ``v >= 0``.  Each variable is shifted to a
  lower bound of 0: a variable with only an upper bound is negated and
  a free one is split in two.  A variable with both bounds keeps its
  width as one row ``v <= hi - lo``, scaled to integers (a fixed
  variable's row is ``v <= 0``).
* Ranged rows.  Each row is scaled to integers once, divided by the
  gcd of its coefficients and given a positive leading coefficient;
  rows with the same coefficient vector merge into one ranged row
  ``lo <= a.x <= hi`` (``_primitive_row``, ``_merge_row``).  The bounds
  stay exact, nothing is rounded.  The tableau states a ranged row as
  one equality row when ``lo == hi``, and otherwise as ``a.x <= hi``
  and ``-a.x <= -lo`` for each finite side, each with a slack.
  ``_merge_rows`` is the one place that merges a system's rows, for
  the LP and for the integer enumerator: an instance merges its rows
  once (``solve.Instance._merged``), and ``lp_relax``, every subproblem
  and Algorithm 1's fixed-line reading (``engine._fixed_line``) start
  from that.
  The enumerator (``solve._lower``) merges its added sets' rows, each
  put in primitive form once per set (``exprs.ConstraintSet._rows``),
  into a copy with the same ``_merge_primitive`` and rounds each bound
  inward.
* Artificials only where needed.  With every structural variable at 0,
  the slack of an inequality row with a nonnegative right-hand side
  starts basic; only the other rows, and the equality rows, get an
  artificial.
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


def _row_interval(
    row: LPRow,
) -> tuple[tuple[Fraction, ...], Optional[Fraction], Optional[Fraction]]:
    """An instance row as ``lo <= coeffs . x <= hi`` (None = unbounded),
    by position.  ``>=`` is negated into an upper bound, as its export
    tree states it.  The solvers read ``LPRow.sense`` only through here;
    ``solve.Instance`` checks it on its own (without building the
    negated row), and so do the instance file writer and the
    generator's independent referee (``gen.certify_infeasible``)."""
    if row.sense == "<=":
        return row.coeffs, None, row.rhs
    if row.sense == ">=":
        return tuple(-a for a in row.coeffs), None, -row.rhs
    if row.sense == "==":
        return row.coeffs, row.rhs, row.rhs
    raise InputError(f"unknown row sense {row.sense!r}")


def _primitive_row(coeffs, lo: Bound, hi: Bound):
    """The row ``lo <= sum(a * x[j] for j, a in coeffs) <= hi`` in
    primitive integer form ``(key, lo, hi)``.

    The row is scaled to integers by the lcm of its denominators,
    divided by the gcd of its coefficients and signed so that its
    lowest-indexed coefficient is positive.  The key is the sparse
    ``((j, a), ...)`` in increasing j; a bound is an exact ratio
    ``(num, den)`` with ``den > 0``, or None for no bound.  An all-zero
    row has no key: it gives a bool, whether it admits 0."""
    coeffs = sorted(coeffs)
    scale = math.lcm(
        *(a.denominator for _, a in coeffs), *(b.denominator for b in (lo, hi) if b is not None)
    )
    ints = [(j, v) for j, a in coeffs if (v := a.numerator * (scale // a.denominator))]
    lo = None if lo is None else lo.numerator * (scale // lo.denominator)
    hi = None if hi is None else hi.numerator * (scale // hi.denominator)
    if not ints:
        return (lo is None or lo <= 0) and (hi is None or hi >= 0)
    g = math.gcd(*(v for _, v in ints))
    if ints[0][1] < 0:
        g, lo, hi = -g, (None if hi is None else -hi), (None if lo is None else -lo)
    # divided by g, the scaled row bounds its key by lo / |g| and hi / |g|
    return (
        tuple((j, v // g) for j, v in ints),
        None if lo is None else (lo, abs(g)),
        None if hi is None else (hi, abs(g)),
    )


def _merge_primitive(merged: dict, key: tuple, lo, hi) -> bool:
    """Merge a primitive row (``_primitive_row``) into ``merged``, which
    maps each key to its ``(lo, hi)`` in first-appearance order.  An
    entry is replaced, never changed in place, so a shallow copy of a
    merged dict can take further rows.  Returns False when the merged
    range is empty."""
    entry = merged.get(key)
    if entry is not None:
        old_lo, old_hi = entry
        if lo is None or (old_lo is not None and lo[0] * old_lo[1] <= old_lo[0] * lo[1]):
            lo = old_lo
        if hi is None or (old_hi is not None and hi[0] * old_hi[1] >= old_hi[0] * hi[1]):
            hi = old_hi
    merged[key] = (lo, hi)
    return lo is None or hi is None or lo[0] * hi[1] <= hi[0] * lo[1]


def _merge_row(merged: dict, coeffs, lo: Bound, hi: Bound) -> bool:
    """Merge the row ``lo <= sum(a * x[j] for j, a in coeffs) <= hi``
    into ``merged``, keyed by its primitive integer coefficients
    (``_primitive_row``, ``_merge_primitive``).  Returns False when the
    row is all zero and excludes 0, or when the merged range is
    empty."""
    row = _primitive_row(coeffs, lo, hi)
    if type(row) is bool:
        return row
    return _merge_primitive(merged, *row)


def _merge_rows(n: int, rows: Sequence[LPRow]) -> tuple[dict, bool]:
    """The rows of an LP over n variables merged into ranged rows by
    ``_merge_row``, and False when some row admits no point.  The LP and
    the integer enumerator merge their rows only here; every row is read
    (``_row_interval``) once."""
    merged: dict = {}
    nonempty = True
    for row in rows:
        if len(row.coeffs) != n:
            raise InputError("row length mismatch")
        coeffs, lo, hi = _row_interval(row)
        nonempty = nonempty and _merge_row(merged, enumerate(coeffs), lo, hi)
    return merged, nonempty


class Tableau:
    """The LP ``{x : rows, bounds}`` in standard form, ``A v = b`` with
    ``v >= 0``, with a feasible basis once phase 1 has run (when it is
    built).

    Structural columns come first: variable j is ``shift[j] + sum(sign
    * v[col])`` over its columns ``subst[j]``.  Then one slack per
    inequality row, then, during phase 1 only, the artificials.  Entry
    (i, col) is ``rows[i][col] / den``, the basic value of row i is
    ``rhs[i] / den`` and the reduced cost of column col is ``cost[col]
    / den``, with integer numerators and ``den > 0``; a basic column
    holds ``den`` in its row and 0 in every other row and in the cost
    row."""

    def __init__(
        self, n: int, merged: tuple[dict, bool], bounds: Sequence[tuple[Bound, Bound]]
    ):
        """``merged`` is the rows merged by ``_merge_rows``: the ranged
        rows, and False when some row admits no point."""
        if len(bounds) != n:
            raise InputError("objective/bounds length mismatch")
        self.n = n
        self.ncols = 0
        self.shift: list[Fraction] = []
        self.subst: list[tuple[tuple[int, int], ...]] = []
        self.rows: list[list[int]] = []
        self.rhs: list[int] = []
        self.cost: list[int] = []
        self.basis: list[int] = []
        self.den = 1
        ranged, nonempty = merged
        widths = self._add_variables(bounds) if nonempty else None
        self.feasible = widths is not None and self._phase1(self._add_rows(ranged, widths))

    def _add_variables(self, bounds) -> Optional[list[tuple[int, Fraction]]]:
        """Shift every variable to lower bound 0; returns the column and
        width ``hi - lo`` of each variable with both bounds, or None when
        a variable's bounds cross."""
        widths = []
        for lo, hi in bounds:
            lo = None if lo is None else _frac(lo)
            hi = None if hi is None else _frac(hi)
            col = self.ncols
            if lo is not None and hi is not None:
                if hi < lo:
                    return None
                widths.append((col, hi - lo))
            if lo is not None or hi is not None:
                self.shift.append(lo if lo is not None else hi)
                self.subst.append(((col, 1 if lo is not None else -1),))
                self.ncols += 1
            else:
                self.shift.append(Fraction(0))
                self.subst.append(((col, 1), (col + 1, -1)))
                self.ncols += 2
        return widths

    def _add_rows(self, ranged: dict, widths: list[tuple[int, Fraction]]) -> list[int]:
        """State the ranged rows, then the widths, over the shifted
        columns as rows ``a.v = b`` or ``a.v <= b``, each scaled to
        integers, and give each inequality a slack; returns the rows that
        need an artificial (their slack cannot start basic)."""
        nstruct = self.ncols
        shift_den = math.lcm(*(s.denominator for s in self.shift))
        shift_num = [s.numerator * (shift_den // s.denominator) for s in self.shift]
        work = []  # (coefficients, right-hand side, has a slack)
        for coeffs, (lo, hi) in ranged.items():
            ints = [0] * nstruct
            for j, a in coeffs:
                for col, sign in self.subst[j]:
                    ints[col] = sign * a
            # the bound num / den becomes num / den - moved / shift_den
            moved = sum(a * shift_num[j] for j, a in coeffs)
            eq = lo is not None and hi is not None and lo[0] * hi[1] == hi[0] * lo[1]
            # a.x <= hi, and a.x >= lo stated as -a.x <= -lo
            for side, bound in ((1, hi), (-1, None if eq else lo)):
                if bound is not None:
                    num, den = bound[0] * shift_den - moved * bound[1], bound[1] * shift_den
                    g = math.gcd(num, den)
                    work.append(([side * (den // g) * a for a in ints], side * num // g, not eq))
        for col, width in widths:
            ints = [0] * nstruct
            ints[col] = width.denominator
            work.append((ints, width.numerator, True))

        # a slack starts basic when its row holds with all structurals at 0
        self.ncols += sum(slack for _, _, slack in work)
        nreal = self.ncols
        slack = nstruct
        artificial = []
        for ints, b, has_slack in work:
            row = ints + [0] * (nreal - nstruct)
            if has_slack:
                row[slack] = 1
                slack += 1
                if b >= 0:
                    self.basis.append(slack - 1)
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
        nreal = self.ncols
        nart = len(artificial)
        for row in self.rows:
            row += [0] * nart
        for k, r in enumerate(artificial):
            self.rows[r][nreal + k] = 1
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

    def _minimize(self) -> bool:
        """Simplex iterations on the current cost row with Bland's rule;
        False when the objective is unbounded below."""
        basis = self.basis
        while True:
            entering = next((j for j, d in enumerate(self.cost) if d < 0), -1)
            if entering < 0:
                return True
            # ratio test by cross-multiplying: row i stops the step at
            # rhs[i] / a; ties go to the smallest basic column
            leave, best_num, best_dnm = -1, 0, 1
            for i, row in enumerate(self.rows):
                a = row[entering]
                if a <= 0:
                    continue
                if leave >= 0:
                    lhs, rhs = self.rhs[i] * best_dnm, best_num * a
                    if lhs > rhs or (lhs == rhs and basis[i] > basis[leave]):
                        continue
                leave, best_num, best_dnm = i, self.rhs[i], a
            if leave < 0:
                return False
            self._pivot(leave, entering)

    def optimize(self, objective: Sequence, maximize: bool = True) -> LPResult:
        """Max or min objective^T x by phase 2 from the current basis."""
        obj = [_frac(a) for a in objective]
        if len(obj) != self.n:
            raise InputError("objective/bounds length mismatch")
        if not self.feasible:
            return LPResult(status="infeasible")
        obj_den = math.lcm(*(c.denominator for c in obj))
        cost = [0] * self.ncols
        for c, sub in zip(obj, self.subst):
            k = c.numerator * (obj_den // c.denominator) * (-1 if maximize else 1)
            for col, sign in sub:
                cost[col] = sign * k
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
        value = [0] * self.ncols  # times den
        for r, b in enumerate(self.basis):
            value[b] = self.rhs[r]
        return tuple(
            s + Fraction(sum(sign * value[col] for col, sign in sub), self.den)
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
    return Tableau(n, _merge_rows(n, rows), bounds).optimize(objective, maximize)


def lp_feasible(n: int, rows: Sequence[LPRow], bounds: Sequence[tuple[Bound, Bound]]) -> bool:
    """Exact feasibility check of a linear system (phase 1 only)."""
    return Tableau(n, _merge_rows(n, rows), bounds).feasible
