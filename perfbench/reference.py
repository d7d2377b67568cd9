"""Independent reference for the benchmark's correctness checks.

Everything here is written from first principles on the standard
library and imports nothing from corecuts: Gaussian elimination over
Fractions, exhaustive enumeration of integer boxes, and the barycentric
route for orbit polytopes of a cyclic group.  It is slow and simple on
purpose and never runs inside a timed region.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import lcm
from typing import Optional, Sequence

CORE, NOT_CORE = "Core", "NotCore"


def rotations(v: Sequence[int]) -> list[tuple[int, ...]]:
    n = len(v)
    return [tuple(v[(j - s) % n] for j in range(n)) for s in range(n)]


def canonical(v: Sequence[int]) -> tuple[int, ...]:
    """Smallest rotation: one representative per rotation class."""
    return min(rotations(v))


def circulant_rows(c: Sequence[int]) -> list[list[Fraction]]:
    """Row i holds c[(i - j) mod n] at column j."""
    n = len(c)
    return [[Fraction(c[(i - j) % n]) for j in range(n)] for i in range(n)]


def _eliminate(aug: list[list[Fraction]], ncols: int) -> tuple[list[int], bool]:
    """Reduced row echelon form in place on the first ncols columns of
    an augmented matrix.  Returns the pivot columns and whether the
    system is consistent."""
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(aug)) if aug[i][col] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = 1 / aug[r][col]
        aug[r] = [v * inv for v in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [v - f * w for v, w in zip(aug[i], aug[r])]
        pivots.append(col)
        r += 1
    consistent = all(row[ncols] == 0 for row in aug[r:])
    return pivots, consistent


def solve_unique(
    rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> Optional[list[Fraction]]:
    """The unique solution of rows * x = rhs, or None when the system
    is inconsistent or underdetermined."""
    ncols = len(rows[0])
    aug = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    pivots, consistent = _eliminate(aug, ncols)
    if not consistent or len(pivots) < ncols:
        return None
    return [aug[i][ncols] for i in range(ncols)]


def is_singular(c: Sequence[int]) -> bool:
    rows = circulant_rows(c)
    return solve_unique(rows, [Fraction(0)] * len(c)) is None


def t_hat(c: Sequence[int]) -> list[Fraction]:
    """First column of Cir(c)^{-1}; c must have a regular circulant."""
    n = len(c)
    col = solve_unique(circulant_rows(c), [Fraction(1)] + [Fraction(0)] * (n - 1))
    if col is None:
        raise ValueError(f"singular circulant {tuple(c)}")
    return col


def _in_hull(z: Sequence[int], verts: Sequence[tuple[int, ...]]) -> bool:
    """z in conv(verts), by Caratheodory: some affinely independent
    subset carries z with nonnegative weights, and for such a subset
    the weights are the unique solution of [V; 1] lam = [z; 1]."""
    n = len(z)
    target = [Fraction(v) for v in z] + [Fraction(1)]
    for size in range(1, min(len(verts), n + 1) + 1):
        for subset in combinations(verts, size):
            rows = [[Fraction(v[j]) for v in subset] for j in range(n)]
            rows.append([Fraction(1)] * size)
            lam = solve_unique(rows, target)
            if lam is not None and all(x >= 0 for x in lam):
                return True
    return False


def core_verdict(c: Sequence[int]) -> tuple[str, Optional[tuple[int, ...]]]:
    """Is the orbit polytope of c under the full cycle lattice-free?
    Scans the integer points of the orbit's layer and bounding box.  A
    regular circulant uses the barycentric route (one exact solve per
    point); a singular one falls back to Caratheodory subsets."""
    verts = sorted(set(rotations(c)))
    vert_set = set(verts)
    layer = sum(c)
    regular = not is_singular(c)
    cir = circulant_rows(c)
    for z in product(range(min(c), max(c) + 1), repeat=len(c)):
        if sum(z) != layer or z in vert_set:
            continue
        if regular:
            lam = solve_unique(cir, [Fraction(v) for v in z])
            inside = lam is not None and all(x >= 0 for x in lam)
        else:
            inside = _in_hull(z, verts)
        if inside:
            return NOT_CORE, z
    return CORE, None


# ---------------------------------------------------------------------------
# instance documents and exhaustive box enumeration


def frac_str(v) -> str:
    return str(Fraction(v))


def hard_instance_doc(c: Sequence[int]) -> dict:
    """The generator's integer-infeasible feasibility instance for core
    point c, built here from its definition: every barycentric
    coordinate of x (a rotation of Cir(c)^{-1}'s first column) lies in
    [0, 1/2], x sits on c's layer, and the box is c's range widened by
    one."""
    n = len(c)
    th = t_hat(c)
    rows = []
    for i in range(n):
        coeffs = [frac_str(th[(i - j) % n]) for j in range(n)]
        rows.append({"coeffs": coeffs, "sense": ">=", "rhs": "0"})
        rows.append({"coeffs": coeffs, "sense": "<=", "rhs": "1/2"})
    rows.append({"coeffs": ["1"] * n, "sense": "==", "rhs": str(sum(c))})
    lo, hi = min(c) - 1, max(c) + 1
    return {
        "format": 1,
        "n": n,
        "objective": {"sense": "feasibility", "coeffs": ["0"] * n},
        "rows": rows,
        "bounds": [{"lo": str(lo), "hi": str(hi), "integer": True}] * n,
        "group": {"generators": ["(" + ",".join(map(str, range(1, n + 1))) + ")"]},
    }


def _integer_rows(doc: dict) -> list[tuple[list[int], str, int]]:
    """Rows scaled by the LCM of their denominators, so the scan runs on
    plain ints with the same truth value."""
    out = []
    for r in doc["rows"]:
        coeffs = [Fraction(a) for a in r["coeffs"]]
        rhs = Fraction(r["rhs"])
        m = lcm(*(q.denominator for q in coeffs + [rhs]))
        out.append(([int(a * m) for a in coeffs], r["sense"], int(rhs * m)))
    return out


def _satisfies(rows, point) -> bool:
    for coeffs, sense, rhs in rows:
        act = sum(a * v for a, v in zip(coeffs, point))
        if sense == "<=":
            if act > rhs:
                return False
        elif sense == ">=":
            if act < rhs:
                return False
        elif act != rhs:
            return False
    return True


def point_satisfies(doc: dict, point: Sequence[Fraction]) -> bool:
    """Exact check of a reported point: integral, inside the bounds and
    on the right side of every row."""
    if len(point) != doc["n"] or any(Fraction(v).denominator != 1 for v in point):
        return False
    ints = [int(v) for v in point]
    for v, b in zip(ints, doc["bounds"]):
        if (b["lo"] is not None and v < Fraction(b["lo"])) or (
            b["hi"] is not None and v > Fraction(b["hi"])
        ):
            return False
    return _satisfies(_integer_rows(doc), ints)


def _box_points(doc: dict, rows):
    """Every integer point of the declared box.  When some row fixes the
    plain coordinate sum (all coefficients equal), the last coordinate
    follows from the others, which skips points that row rejects."""
    ranges = [range(int(b["lo"]), int(b["hi"]) + 1) for b in doc["bounds"]]
    layer = next(
        (
            Fraction(rhs, coeffs[0])
            for coeffs, sense, rhs in rows
            if sense == "==" and coeffs[0] != 0 and len(set(coeffs)) == 1
        ),
        None,
    )
    if layer is None:
        yield from product(*ranges)
        return
    if layer.denominator != 1:
        return
    last = ranges[-1]
    for head in product(*ranges[:-1]):
        x = int(layer) - sum(head)
        if last.start <= x < last.stop:
            yield head + (x,)


def box_optimum(doc: dict) -> tuple[bool, Optional[Fraction]]:
    """Exhaustive scan of the declared integer box.  Returns (feasible,
    optimum); the optimum is None for feasibility instances, which stop
    at the first feasible point."""
    rows = _integer_rows(doc)
    sense = doc["objective"]["sense"]
    obj = [Fraction(a) for a in doc["objective"]["coeffs"]]
    best: Optional[Fraction] = None
    for point in _box_points(doc, rows):
        if not _satisfies(rows, point):
            continue
        if sense == "feasibility":
            return True, None
        val = sum((a * v for a, v in zip(obj, point)), Fraction(0))
        if best is None or (val > best if sense == "max" else val < best):
            best = val
    return best is not None, best
