"""Independent reference implementations used to pin expected values.

Everything here is deliberately written from first principles with the
Python standard library only — plain Gaussian elimination on Fractions,
row-by-row matrix construction, exhaustive enumeration — and imports
nothing from the package under test.  Slow and boring on purpose.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from typing import Optional, Sequence


def circulant_rows(c: Sequence[int]) -> list[list[Fraction]]:
    """Row i holds c[(i - j) mod n] at column j."""
    n = len(c)
    return [[Fraction(c[(i - j) % n]) for j in range(n)] for i in range(n)]


def solve_fractions(
    rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> Optional[list[Fraction]]:
    """Solve A x = b by Gaussian elimination over the rationals.
    Returns None when A is singular."""
    n = len(rows)
    a = [[Fraction(v) for v in row] + [Fraction(rhs[i])] for i, row in enumerate(rows)]
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if a[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        inv = Fraction(1) / a[col][col]
        a[col] = [v * inv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [v - factor * w for v, w in zip(a[r], a[col])]
    return [a[i][n] for i in range(n)]


def det_fractions(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact determinant by Gaussian elimination with row swaps."""
    n = len(rows)
    a = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if a[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        inv = Fraction(1) / a[col][col]
        for r in range(col + 1, n):
            if a[r][col] != 0:
                factor = a[r][col] * inv
                a[r] = [v - factor * w for v, w in zip(a[r], a[col])]
    return det


def t_hat_oracle(c: Sequence[int]) -> Optional[list[Fraction]]:
    """First column of Cir(c)^{-1}: solve Cir(c) x = e_1."""
    n = len(c)
    rhs = [Fraction(1)] + [Fraction(0)] * (n - 1)
    return solve_fractions(circulant_rows(c), rhs)


def rotations(v: Sequence) -> list[tuple]:
    n = len(v)
    return [tuple(v[(j - s) % n] for j in range(n)) for s in range(n)]


def barycentric_oracle(
    z: Sequence[int], c: Sequence[int]
) -> Optional[list[Fraction]]:
    """Coordinates lam with sum(lam_i * rotation_i(c)) = z, via the
    circulant system; None when Cir(c) is singular."""
    return solve_fractions(circulant_rows(c), [Fraction(v) for v in z])


def _satisfies(
    point: Sequence[Fraction],
    rows: Sequence[tuple[Sequence[Fraction], str, Fraction]],
) -> bool:
    for coeffs, sense, rhs in rows:
        act = sum((Fraction(a) * v for a, v in zip(coeffs, point)), Fraction(0))
        if (
            (sense == "<=" and act > rhs)
            or (sense == ">=" and act < rhs)
            or (sense == "==" and act != rhs)
        ):
            return False
    return True


def feasible_points(
    rows: Sequence[tuple[Sequence[Fraction], str, Fraction]],
    bounds: Sequence[tuple[int, int]],
) -> list[tuple[int, ...]]:
    """All integer points of the box satisfying every exact linear row.
    Rows are (coeffs, sense, rhs) with sense in {"<=", ">=", "=="}."""
    return [
        point
        for point in product(*[range(lo, hi + 1) for lo, hi in bounds])
        if _satisfies(point, rows)
    ]


def lp_vertex_oracle(
    objective: Sequence[Fraction],
    rows: Sequence[tuple[Sequence[Fraction], str, Fraction]],
    bounds: Sequence[tuple[Fraction, Fraction]],
    maximize: bool = True,
) -> tuple[str, Optional[Fraction]]:
    """Optimum of a boxed LP by vertex enumeration.

    Every choice of n hyperplanes among the rows and the 2n bounds is
    solved as an equation system; the solutions that satisfy every row
    and bound are the vertices, and a nonempty box polytope attains its
    optimum at one of them.  Returns ("optimal", value) or
    ("infeasible", None).  Bounds must be finite."""
    n = len(bounds)
    planes = [(list(coeffs), Fraction(rhs)) for coeffs, _, rhs in rows]
    for i, (lo, hi) in enumerate(bounds):
        unit = [Fraction(int(i == j)) for j in range(n)]
        planes.append((unit, Fraction(lo)))
        planes.append((unit, Fraction(hi)))
    best: Optional[Fraction] = None
    for chosen in combinations(planes, n):
        x = solve_fractions([p for p, _ in chosen], [rhs for _, rhs in chosen])
        if x is None or not _satisfies(x, rows):
            continue
        if not all(lo <= v <= hi for v, (lo, hi) in zip(x, bounds)):
            continue
        value = sum((Fraction(c) * v for c, v in zip(objective, x)), Fraction(0))
        if best is None or (value > best if maximize else value < best):
            best = value
    return ("infeasible", None) if best is None else ("optimal", best)


def hull_verdict_oracle(c: Sequence[int]) -> tuple[str, Optional[tuple[int, ...]]]:
    """Lattice-free check for the cyclic orbit of c, through the
    barycentric route only: an integer point of the orbit's layer and
    bounding box lies in the orbit polytope iff its coordinates solve
    the circulant system with all entries >= 0.  Returns
    ("Core", None) or ("NotCore", witness).  Requires Cir(c) regular."""
    n = len(c)
    verts = set(rotations(c))
    layer = sum(c)
    lo = min(c)
    hi = max(c)
    for point in product(range(lo, hi + 1), repeat=n):
        if sum(point) != layer or point in verts:
            continue
        lam = barycentric_oracle(point, c)
        if lam is None:
            raise ValueError("singular circulant in oracle")
        if all(v >= 0 for v in lam):
            return "NotCore", point
    return "Core", None
