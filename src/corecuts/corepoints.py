"""Orbit polytopes and core points.

A point z is a *core point* for a group G when its orbit polytope
conv(G·z) is lattice-free: the only integer points inside are the orbit
itself (which, being permutations of one vector, are all vertices).
Universal core points are the ones isomorphic to a {0,1}-vector; atoms
sit at squared distance 2 from a universal point in the same layer.

Membership in the orbit polytope of a cycle is decided through
barycentric coordinates lambda = Cir(c)^{-1} z (exact rational solve):
on matching nonzero layers the coordinates automatically sum to 1, so
checking lambda >= 0 is enough.

The core check (``is_lattice_free``) searches the orbit's bounding box
for a non-vertex integer point of the hull.  Every orbit point is a
permutation of z, so only box points on the layer sum(x) = sum(z) are
tested, and when a generator is one full n-cycle, which maps that set
onto itself, only one point per rotation class (``_necklace_points``).
When the orbit is n points spanning a simplex, a point is
inside iff the integer rows of D * V^{-1} (V: the orbit points as
columns, D > 0) all give it a non-negative value: no LP and no
Fraction.  Any other orbit (singular V, a periodic z, a larger group,
layer 0) is tested point by point with an exact LP.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import simplex
from .errors import InputError, LayerMismatch, NonActiveMismatch, SingularCirculant, _integer
from .perms import Cycle, GroupSpec, cycle_decomposition, orbit
from .spectral import scaled_inverse, solve_circulant_exact


#: bound on the worst-case scan of ``projected_essential_set``, k * k * C(k, t)
#: for a cycle of length k and residue t (a budget that reaches every class
#: tests each of the C(k, t) {0,1}-vectors against its rotations of length
#: k): (16, 8) at 3,294,720 and (2000, 0) are allowed, (18, 9) and (200, 1)
#: are refused
MAX_ESSENTIAL_WORK = 4_000_000


# ---------------------------------------------------------------------------
# rotation classes and canonical forms

def all_rotations(v: Sequence) -> list[tuple]:
    n = len(v)
    return [tuple(v[(j - s) % n] for j in range(n)) for s in range(n)]


def rotation_class_key(v: Sequence) -> tuple:
    """Lexicographically minimal rotation — the dedup key for cyclic classes."""
    return min(all_rotations(v))


def _trailing_zeros(v: tuple) -> int:
    n = len(v)
    count = 0
    for j in range(n - 1, -1, -1):
        if v[j] == 0:
            count += 1
        else:
            break
    return count


def display_form(candidates: Sequence[tuple]) -> tuple:
    """Canonical printable member of a class: longest trailing-zero run,
    ties broken by lexicographic minimum."""
    best_tz = max(_trailing_zeros(v) for v in candidates)
    return min(v for v in candidates if _trailing_zeros(v) == best_tz)


# ---------------------------------------------------------------------------
# membership via barycentric coordinates

@dataclass(frozen=True)
class BaryCoords:
    lam: tuple[Fraction, ...]


@dataclass(frozen=True)
class Outside:
    violating_index: int
    lam: tuple[Fraction, ...]


def membership(
    z: Sequence[int], c: Sequence[int], cycle: Optional[Cycle] = None
) -> BaryCoords | Outside:
    """Barycentric coordinates of z in the orbit polytope of c on a cycle.

    ``cycle`` defaults to the full cycle over all coordinates.  For a
    partial cycle, the non-active coordinates of z must equal those of
    c; the active blocks must share the same nonzero layer.  Returns
    BaryCoords when all coordinates are >= 0, else Outside with the
    first violating index.
    """
    n = len(c)
    if len(z) != n:
        raise InputError("dimension mismatch between z and c")
    if cycle is None:
        cycle = Cycle(tuple(range(1, n + 1)))
    active = list(cycle.support)
    active_set = set(active)
    for i in range(1, n + 1):
        if i not in active_set and z[i - 1] != c[i - 1]:
            raise NonActiveMismatch(
                f"coordinate {i} is non-active but z_{i}={z[i-1]} != c_{i}={c[i-1]}"
            )
    z_act = [int(z[i - 1]) for i in active]
    c_act = [int(c[i - 1]) for i in active]
    if sum(z_act) != sum(c_act) or sum(c_act) == 0:
        raise LayerMismatch(
            f"active layers must match and be nonzero: {sum(z_act)} vs {sum(c_act)}"
        )
    lam = tuple(solve_circulant_exact(c_act, z_act))
    for idx, value in enumerate(lam):
        if value < 0:
            return Outside(violating_index=idx, lam=lam)
    return BaryCoords(lam=lam)


# ---------------------------------------------------------------------------
# lattice-free certification by enumeration

@dataclass(frozen=True)
class CoreCertificate:
    point: tuple[int, ...]
    verdict: str  # "Core" | "NotCore"
    witness: Optional[tuple[int, ...]] = None


def _in_hull_exact(point: Sequence[int], vertices: list[tuple]) -> bool:
    """Exact rational feasibility of point = convex combination of vertices."""
    k = len(vertices)
    n = len(point)
    rows = []
    for j in range(n):
        rows.append(simplex.make_row([v[j] for v in vertices], simplex.EQ, point[j]))
    rows.append(simplex.make_row([1] * k, simplex.EQ, 1))
    bounds = [(Fraction(0), None)] * k
    return simplex.lp_feasible(k, rows, bounds)


def _layer_points(lo: list[int], hi: list[int], layer: int):
    """Integer points of the box [lo, hi] with coordinate sum ``layer``,
    in lexicographic order: the last coordinate is fixed by the others."""
    last_lo, last_hi = lo[-1], hi[-1]
    for prefix in itertools.product(*(range(a, b + 1) for a, b in zip(lo[:-1], hi[:-1]))):
        last = layer - sum(prefix)
        if last_lo <= last <= last_hi:
            yield prefix + (last,)


def _prenecklaces(a: list, t: int, p: int, s: int, hi: int, layer: Optional[int]):
    """Extend the prenecklace a[1..t-1] of period p and sum s to the
    necklaces a[1..n] (n = len(a) - 1), in lexicographic order, each
    yielded as the list a itself, which the next step overwrites.  A
    module function, not a closure: a closure that calls itself keeps
    its cell alive until the cyclic collector runs."""
    n = len(a) - 1
    rest = n - t
    for j in range(a[t - p], hi + 1):
        if layer is not None:
            if s + j + rest * (j if t == 1 else a[1]) > layer:
                break
            if s + j + rest * hi < layer:
                continue
        q = p if j == a[t - p] else t
        a[t] = j
        if t < n:
            yield from _prenecklaces(a, t + 1, q, s + j, hi, layer)
        elif n % q == 0:
            yield a


def _necklace_points(order: Sequence[int], lo: int, hi: int, layer: Optional[int]):
    """Integer points of the box [lo, hi]^n, one per rotation class of
    the cycle ``order`` (with coordinate sum ``layer`` unless it is None).

    The FKM recursion (Cattell, Ruskey, Sawada, Serra and Miers, J.
    Algorithms 2000) extends a prenecklace a[1..t] of period p by each
    j >= a[t-p], and a prenecklace of length n whose period divides n is
    a necklace: the least of its rotations.  Necklaces come in
    lexicographic order, so the first one in a rotation-closed set is
    that set's lexicographically first point.  Every later entry lies in
    [a[1], hi], which bounds the sum of a prefix's completions.  Necklace
    entry j + 1 is written to coordinate ``order[j]``."""
    n = len(order)
    # the box's length, taken eagerly: a bound no index fits (10**400)
    # raises OverflowError here instead of looping without end
    len(range(lo, hi + 1))
    at = [0] * n
    for j, coord in enumerate(order):
        at[coord - 1] = j + 1
    for a in _prenecklaces([lo] * (n + 1), 1, 1, 0, hi, layer):
        yield tuple([a[j] for j in at])


def _full_cycle(gs: GroupSpec) -> Optional[Cycle]:
    """A generator of gs that is one cycle through all n coordinates."""
    for g in gs.generators:
        cycles = cycle_decomposition(g)
        if len(cycles) == 1 and cycles[0].k == gs.n:
            return cycles[0]
    return None


def _simplex_test(verts: list[tuple]):
    """Exact hull test for n orbit points spanning a simplex, or None.

    With V the n x n matrix whose columns are the orbit points, a point
    x on their common layer has barycentric coordinates V^{-1} x, which
    sum to 1 because 1^T V = layer * 1^T; x is in the hull iff every
    coordinate is >= 0.  The signs are read from the integer rows of
    D * V^{-1} (D > 0).  A singular V, which includes every layer-0
    orbit, gives None."""
    n = len(verts[0])
    if len(verts) != n:
        return None
    try:
        _, inv = scaled_inverse([[v[i] for v in verts] for i in range(n)])
    except SingularCirculant:
        return None
    rows = [tuple(row) for row in inv]
    return lambda x: all(sum(map(operator.mul, row, x)) >= 0 for row in rows)


def is_lattice_free(gs: GroupSpec, z: Sequence[int]) -> CoreCertificate:
    """Exact core certificate: search the orbit's bounding box, which
    holds the whole hull, for a non-vertex integer point of it.  Every
    entry of z must be an int (``InputError`` otherwise).

    Only the box points on the orbit's layer sum(x) = sum(z) are tested.
    When a generator of gs is one cycle through all n coordinates, the
    points that are not vertices but lie in the hull form a set closed
    under it, and one point per rotation class is tested, read along
    that cycle from coordinate 1 (``_necklace_points``): the witness is
    the first one in that reading order, which under (1,...,n) is the
    lexicographically first.  Otherwise every box point on the layer is
    tested, in lexicographic order.  When the orbit has n points that
    span a simplex (every regular Cir(z) under a full n-cycle, in any
    cycle order), a point is tested by the signs of its barycentric
    coordinates through one exact inverse; otherwise by an exact LP
    (``_in_hull_exact``)."""
    zt = tuple(_integer(x, "point entry") for x in z)
    verts = orbit(gs, zt)
    vert_set = set(verts)
    lo = [min(v[j] for v in verts) for j in range(gs.n)]
    hi = [max(v[j] for v in verts) for j in range(gs.n)]
    inside = _simplex_test(verts) or (lambda x: _in_hull_exact(x, verts))
    cycle = _full_cycle(gs)
    if cycle is None:
        candidates = _layer_points(lo, hi, sum(zt))
    else:
        # the orbit is closed under the cycle, so its box is a cube
        candidates = _necklace_points(cycle.support, lo[0], hi[0], sum(zt))
    for candidate in candidates:
        if candidate in vert_set:
            continue
        if inside(candidate):
            return CoreCertificate(point=tuple(z), verdict="NotCore", witness=candidate)
    return CoreCertificate(point=tuple(z), verdict="Core")


# ---------------------------------------------------------------------------
# essential sets

UNIVERSAL = "Universal"
ATOM = "Atom"


@dataclass(frozen=True)
class EssentialSet:
    residue: int
    points: tuple[tuple[int, ...], ...]
    kinds: tuple[str, ...]


def projected_essential_set(k_len: int, residue: int, budget: int = 4) -> EssentialSet:
    """Representative integer points of one sub-layer, projected through
    the fixed space into entries {-2..2}.

    Universal classes come first (deduplicated up to rotation *and*
    reflection, canonical display form, largest-first), then atoms of
    the first universal point in (i, j) order; binary atoms are skipped
    because they fall back into a universal class.  At most ``budget``
    points total; ``k_len``, ``residue`` and ``budget`` are ints, and
    ``budget`` is >= 1.  The {0,1}-vectors of the residue's popcount
    are scanned in decreasing order, and a vector is kept when it is its
    class's display form; the scan stops at ``budget`` classes.  A
    sub-layer whose worst-case scan k * k * C(k, t) exceeds
    ``MAX_ESSENTIAL_WORK`` is refused with ``InputError``, whatever the
    budget.  Each call builds the set anew; the planner keeps the sets
    it asks for (``engine``).
    """
    if _integer(k_len, "cycle length") < 1:
        raise InputError("cycle length must be >= 1")
    _integer(residue, "residue")
    if _integer(budget, "budget") < 1:
        raise InputError("budget must be >= 1")
    popcount = residue % k_len
    # k * k alone bounds k before C(k, t) is computed
    if k_len * k_len > MAX_ESSENTIAL_WORK or (
        k_len * k_len * math.comb(k_len, popcount) > MAX_ESSENTIAL_WORK
    ):
        raise InputError(
            f"sub-layer too large: k * k * C(k, t) for k = {k_len}, t = {popcount} "
            f"exceeds {MAX_ESSENTIAL_WORK}"
        )
    if popcount == 0:
        points = [(1,) * k_len]
    else:
        # combinations() walks the {0,1}-vectors in decreasing order, and
        # each class has one display form, so its forms come out sorted
        points = []
        for ones in itertools.combinations(range(k_len), popcount):
            v = tuple(1 if j in ones else 0 for j in range(k_len))
            if v == display_form(all_rotations(v) + all_rotations(v[::-1])):
                points.append(v)
                if len(points) == budget:
                    break
    kinds = [UNIVERSAL] * len(points)
    if len(points) < budget:
        u = points[0]
        seen_atoms: set[tuple] = set()
        for i in range(k_len):
            for j in range(k_len):
                if i == j or len(points) >= budget:
                    continue
                w = list(u)
                w[i] += 1
                w[j] -= 1
                wt = tuple(w)
                if all(x in (0, 1) for x in wt):
                    continue  # a rotation of some universal class
                key = rotation_class_key(wt)
                if key in seen_atoms:
                    continue
                seen_atoms.add(key)
                points.append(wt)
                kinds.append(ATOM)
    if any(not -2 <= x <= 2 for p in points for x in p):
        raise InputError("essential points escaped the {-2..2} projected range")
    return EssentialSet(residue=residue, points=tuple(points), kinds=tuple(kinds))
