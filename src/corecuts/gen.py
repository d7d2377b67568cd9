"""Hard-instance generator.

Given a core point c of the cyclic group C_n, build a feasibility ILP
whose LP relaxation is comfortably feasible while no integer point
exists:

* the barycentric coordinates of x with respect to the rotations of c
  are the rows of Cir(c)^{-1}, i.e. rotations of the exact inverse
  column; requiring every coordinate >= 0 together with the layer
  equality <1, x> = <1, c> pins x inside the orbit polytope of c;
* cutting every vertex off with coordinate <= 1/2 then leaves no
  integer point at all — c is a core point, so its orbit polytope
  contains no integer points besides the vertices, and each vertex has
  one barycentric coordinate equal to 1.

The barycenter itself (coordinates all 1/n) stays LP-feasible, so the
instance is integer-infeasible but not trivially so.  Because the
verdict matters, generation ends with an independent certification
step: the integer box points on the layer are enumerated against the
rows.  The instance's full cycle maps its integer points onto each
other, so one point per rotation class, read along that cycle, is
enough (``corepoints._necklace_points``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Optional, Sequence

from .corepoints import _layer_points, _necklace_points, is_lattice_free
from .errors import InputError, NotCore, _integer
from .instancefile import analyze_group
from .perms import Cycle
from .simplex import LPRow, make_row
from .solve import FEASIBILITY, Instance, _cycle_misses, make_instance
from .spectral import t_hat_exact


@dataclass(frozen=True)
class GenResult:
    instance: Instance
    layer: int
    #: None when certification was skipped
    certified: Optional[bool]
    #: an integer point satisfying all rows, if one was found (never,
    #: unless the construction is broken)
    witness: Optional[tuple[int, ...]]


def _cycle_string(n: int) -> str:
    return "(" + ",".join(str(i) for i in range(1, n + 1)) + ")"


def hard_instance(
    c: Sequence[int], require_core: bool = True, cycle: Optional[str] = None
) -> Instance:
    """Build the integer-infeasible feasibility instance for core point c.

    ``cycle`` is a full n-cycle in cycle notation, e.g. "(1,5,2,4,3)";
    the default is the standard rotation (1,2,...,n).  The construction
    runs on c read along the cycle, and its columns are mapped back to
    the original coordinates, so the instance is invariant under the
    given cycle.  Every entry of c must be an int (``InputError``
    otherwise)."""
    c = tuple(_integer(v, "point entry") for v in c)
    n = len(c)
    if n < 3:
        raise InputError("need a point of dimension >= 3")
    rotation = analyze_group([_cycle_string(n)], n)
    group = rotation if cycle is None else analyze_group([cycle], n)
    if len(group.selected_cycles) != 1 or group.selected_cycles[0].k != n:
        raise InputError(
            "generation needs a single full cycle acting on all coordinates; "
            f"got {[str(cyc) for cyc in group.selected_cycles]} for n={n}"
        )
    order = group.selected_cycles[0].support
    local = tuple(c[i - 1] for i in order)
    if require_core:
        cert = is_lattice_free(rotation, local)
        if cert.verdict != "Core":
            raise NotCore(
                f"{tuple(c)} is not a core point of the {n}-cycle "
                f"(witness {cert.witness})"
            )

    that = t_hat_exact(local)
    layer = sum(local)
    rows: list[LPRow] = []
    for i in range(n):
        coeffs = [Fraction(0)] * n
        for j in range(n):
            coeffs[order[j] - 1] = that[(i - j) % n]
        rows.append(make_row(coeffs, ">=", Fraction(0)))
        rows.append(make_row(coeffs, "<=", Fraction(1, 2)))
    rows.append(make_row([Fraction(1)] * n, "==", Fraction(layer)))

    lo = min(local) - 1
    hi = max(local) + 1
    bounds = [(Fraction(lo), Fraction(hi))] * n
    return make_instance(
        n,
        sense=FEASIBILITY,
        rows=rows,
        bounds=bounds,
        integer=[True] * n,
        group=group,
    )


def _rotation_cycle(inst: Instance) -> Optional[Cycle]:
    """A declared cycle through all n coordinates that fixes inst (its
    rows, bounds and objective), or None."""
    if inst.group is None:
        return None
    for cycle in inst.group.selected_cycles:
        if set(cycle.support) == set(range(1, inst.n + 1)) and not _cycle_misses(inst, cycle):
            return cycle
    return None


def certify_infeasible(inst: Instance) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Enumerate the integer box against the rows.  Returns (True, None)
    when no integer point satisfies every row, otherwise (False,
    witness).  When a row fixes the layer (``sum(x) == L`` with integer
    L) only the box points on that layer are enumerated.  When a
    declared cycle through all n coordinates fixes the instance
    (``solve._cycle_misses`` finds nothing), it maps the satisfying
    points onto each other, and one point per rotation class is
    enumerated, read along that cycle from coordinate 1: the witness is
    the first in that reading order, which under (1,...,n) is the
    lexicographically first.  Otherwise every box point is enumerated,
    and the witness is the lexicographically first.  Exact arithmetic
    throughout: each row is scaled by the LCM of its denominators and
    checked on integers.  This is the generator's own referee,
    independent of the search engine."""
    if any(lo is None or hi is None for lo, hi in inst.bounds):
        raise InputError("certification needs finite bounds")
    lo = [math.ceil(a) for a, _ in inst.bounds]
    hi = [math.floor(b) for _, b in inst.bounds]
    layer_rhs = (
        Fraction(r.rhs) for r in inst.rows if r.sense == "==" and all(a == 1 for a in r.coeffs)
    )
    layer = next((int(b) for b in layer_rhs if b.denominator == 1), None)
    cycle = _rotation_cycle(inst)
    if cycle is not None:
        # the cycle preserves the bounds, so the box is a cube
        points = _necklace_points(cycle.support, lo[0], hi[0], layer)
    elif layer is None:
        points = product(*(range(a, b + 1) for a, b in zip(lo, hi)))
    else:
        points = _layer_points(lo, hi, layer)
    rows = []
    for r in inst.rows:
        # an Instance holds its row entries as Fractions
        scale = math.lcm(r.rhs.denominator, *(a.denominator for a in r.coeffs))
        coeffs = tuple(a.numerator * (scale // a.denominator) for a in r.coeffs)
        rows.append((coeffs, r.sense, r.rhs.numerator * (scale // r.rhs.denominator)))
    for point in points:
        ok = True
        for coeffs, sense, rhs in rows:
            act = sum(a * v for a, v in zip(coeffs, point))
            if (
                (sense == "<=" and act > rhs)
                or (sense == ">=" and act < rhs)
                or (sense == "==" and act != rhs)
            ):
                ok = False
                break
        if ok:
            return False, point
    return True, None


def generate(
    c: Sequence[int], certify: bool = True, cycle: Optional[str] = None
) -> GenResult:
    """Build the hard instance for c (see hard_instance for ``cycle``)
    and, unless told not to, certify it integer-infeasible."""
    inst = hard_instance(c, cycle=cycle)
    layer = sum(c)
    if not certify:
        return GenResult(inst, layer, None, None)
    ok, witness = certify_infeasible(inst)
    return GenResult(inst, layer, ok, witness)
