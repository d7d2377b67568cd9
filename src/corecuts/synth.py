"""Constraint synthesis over symbolic cycle variables.

Given a cycle acting on decision variables x_{i} (i in the cycle's
support), the synthesizer produces:

* S1 cuts: for a projected integer point z, the hyperplane value
  H(z) = 1 + sum_j z_j T_{(-j) mod k}(x) must be negative for z to lie
  strictly outside the orbit polytope of the (unknown) point x.  The
  T-symbols are expanded into rational functions of x through the
  Fourier form of the inverse circulant, so the cut is a nonlinear
  constraint in x.
* smoothness guards licensing the divisions in S1 (every spectral
  denominator stays bounded away from zero; at an integer block, no
  cyclotomic Phi_d with d > 1 divides x(t));
* S2 singularity disjunctions: binaries force at least one spectral
  factor of det Cir(x|cycle) to vanish (the export's form; the
  enumerator decides the same singularity exactly, by its block);
* S3 anchors: linear equalities pinning x|cycle to the fixed-space
  translate family of a concrete point z;
* sub-layer rows sum(x|cycle) = q*k + residue with a fresh integer q.

Everything returns immutable ConstraintSets; synthesis never looks at
the instance, so sets compose freely.  S1, smoothness and S2 sets record
their block, and an S1 cut its canonical point: the enumerator decides
them exactly on the block, and the expressions written here, with their
eps, are the export's.  Every builder checks its arguments and builds a
new set; the planner keeps the sets it asks for, once per process
(``engine``).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .corepoints import display_form, all_rotations
from .errors import InputError
from .exprs import (
    Add,
    AuxVar,
    Const,
    Constraint,
    ConstraintSet,
    DEFAULT_EPS,
    Div,
    Dot,
    EQ,
    Expr,
    LE_ZERO,
    Mul,
    NON_NEG,
    S1,
    S2,
    S3,
    SMOOTH,
    STRICT_NEG,
    SUBLAYER,
    Square,
    Var,
)
from .perms import Cycle
from .solve import DEFAULT_BOX, _integer
from .spectral import _mode_pairs, fourier_pair


def cycle_var_names(cycle: Cycle) -> tuple[str, ...]:
    """Decision-variable names of the cycle's support, in support order."""
    return tuple(f"x{i}" for i in cycle.support)


def _most_frequent(z: Sequence[int]) -> int:
    """The most frequent entry value of z; ties resolve to the smaller."""
    return max(set(z), key=lambda v: (sum(1 for x in z if x == v), -v))


def reduce_projected(z: Sequence[int]) -> tuple[int, ...]:
    """Translate z along the all-ones direction so its most frequent
    entry value becomes 0 (ties resolve to the smaller value).  The
    shift leaves S1 cuts unchanged because the T-coefficients sum to 0.
    """
    best = _most_frequent(z)
    return tuple(x - best for x in z)


def canonical_projected(z: Sequence[int]) -> tuple[int, ...]:
    """Reduced z rotated to its display-canonical form."""
    return display_form(all_rotations(reduce_projected(z)))


def _check_point(z: Sequence[int], cycle: Cycle) -> None:
    """Refuse a point z that is not k ints, as ``Cycle`` refuses its
    indices: a float or bool entry would reach the cut's exact decision
    (``spectral.cut_rotation``) as a float."""
    if len(z) != cycle.k:
        raise InputError(f"point length {len(z)} != cycle length {cycle.k}")
    for v in z:
        _integer(v, "point entry")


def _proj_len_sq_expr(k: int, m: int, names: Sequence[str]) -> Expr:
    V, U = fourier_pair(k, m)
    return Add(
        (
            Square(Dot(tuple(V), tuple(names))),
            Square(Dot(tuple(U), tuple(names))),
        )
    )


def _alternating_coeffs(k: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(-1 if j % 2 else 1) for j in range(k))


def s1_for_point(
    z: Sequence[int], cycle: Cycle, eps: float = DEFAULT_EPS
) -> ConstraintSet:
    """One strict cut excluding the fixed-space translates of z from the
    orbit polytope of the unknown cycle block.

    z is given cycle-locally (length k, entries in {-2..2} after
    projection); it is canonicalized before synthesis, so rotations of
    the same point yield identical sets.
    """
    _check_point(z, cycle)
    if any(not -2 <= v <= 2 for v in z):
        raise InputError(f"projected entries escape {{-2..2}}: {tuple(z)}")
    k = cycle.k
    zc = canonical_projected(z)
    names = cycle_var_names(cycle)
    pairs, has_alternating = _mode_pairs(k)

    terms: list[Expr] = [Const(Fraction(1))]
    for m in range(1, pairs + 1):
        V, _ = fourier_pair(k, m)
        # numerator weights: w[i] = 2 * sum_j z_j V_m[(i-j) mod k]
        w = tuple(
            2.0 * sum(zc[j] * V[(i - j) % k] for j in range(k)) for i in range(k)
        )
        terms.append(Div(Dot(w, names), _proj_len_sq_expr(k, m, names)))
    if has_alternating:
        # the (-1)^t tail of every T_t collapses to a single rational term
        numerator = sum(zc[j] * (-1 if j % 2 else 1) for j in range(k))
        if numerator:
            terms.append(
                Div(Const(Fraction(numerator)), Dot(_alternating_coeffs(k), names))
            )
    expr: Expr = Add(tuple(terms)) if len(terms) > 1 else terms[0]
    return ConstraintSet(
        tag=S1, constraints=(Constraint(expr, STRICT_NEG, eps),), cycle=cycle, point=zc
    )


def smoothness(cycle: Cycle, eps: float = DEFAULT_EPS) -> ConstraintSet:
    """Spectral non-degeneracy guards: every denominator appearing in an
    S1 cut for this cycle stays at least eps away from zero."""
    k = cycle.k
    names = cycle_var_names(cycle)
    pairs, has_alternating = _mode_pairs(k)
    cons = []
    for m in range(1, pairs + 1):
        cons.append(Constraint(_proj_len_sq_expr(k, m, names), NON_NEG, eps))
    if has_alternating:
        cons.append(
            Constraint(Square(Dot(_alternating_coeffs(k), names)), NON_NEG, eps)
        )
    return ConstraintSet(tag=SMOOTH, constraints=tuple(cons), cycle=cycle)


def s2_singular(cycle: Cycle, box_hint: int = DEFAULT_BOX) -> ConstraintSet:
    """Singularity disjunction: det Cir(x|cycle) factors into the layer
    sum, the mode-pair projection lengths, and (even k) the alternating
    sum; binaries r_m with sum r <= M-1 force at least one factor to
    vanish.

    Quadratic factors use the literal form -2 r P <= P <= 2 r P (they
    are nonnegative, so r = 1 relaxes and r = 0 pins P to zero).  The
    two possibly-negative linear factors get symmetric box bounds
    -2 B r <= P <= 2 B r instead, with B = k * box_hint, preserving the
    "r = 0 pins P to zero" semantics for factors of arbitrary sign.
    Precondition: box_hint bounds every block variable in absolute
    value over the domain searched, so that 2 * B bounds |sum| and
    |alternating sum| of the block; outside it the disjunction cuts off
    singular blocks.  The planners pass the enumerator's half-width
    (``solve.search_box``), which holds every declared bound and the
    clip of every missing side
    (``test_planned_s2_big_m_holds_every_block_the_search_reaches``).
    box_hint defaults to the solver's fallback half-width; it must be an
    int >= 0.

    The set records its block (``ConstraintSet.cycle``).  The
    enumerator reads it as the exact predicate "Cir(x|cycle) is
    singular" (``spectral.is_singular``), the projection of this
    disjunction onto x inside the box, and holds neither the binaries
    nor the rows; so the big-M serves only the export, which keeps the
    disjunction as written here.
    """
    if _integer(box_hint, "box hint") < 0:
        raise InputError("box hint must be >= 0")
    k = cycle.k
    names = cycle_var_names(cycle)
    pairs, has_alternating = _mode_pairs(k)
    prefix = f"r{cycle.support[0]}"
    bound = Fraction(2 * k * box_hint)

    factors: list[tuple[Expr, bool]] = []  # (expr, is_linear)
    factors.append((Dot(tuple(Fraction(1) for _ in names), names), True))
    for m in range(1, pairs + 1):
        factors.append((_proj_len_sq_expr(k, m, names), False))
    if has_alternating:
        factors.append((Dot(_alternating_coeffs(k), names), True))

    cons: list[Constraint] = []
    aux: list[AuxVar] = []
    for idx, (P, is_linear) in enumerate(factors):
        r = Var(f"{prefix}_{idx}")
        aux.append(AuxVar(r.name, "binary"))
        if is_linear:
            # P - B*r <= 0 and -P - B*r <= 0 (linear, propagatable)
            cons.append(
                Constraint(Add((P, Mul((Const(-bound), r)))), LE_ZERO)
            )
            cons.append(
                Constraint(
                    Add((Mul((Const(Fraction(-1)), P)), Mul((Const(-bound), r)))),
                    LE_ZERO,
                )
            )
        else:
            # literal disjunction rows: P - 2rP <= 0 and -2rP - P <= 0
            cons.append(
                Constraint(Add((P, Mul((Const(Fraction(-2)), r, P)))), LE_ZERO)
            )
            cons.append(
                Constraint(
                    Add((Mul((Const(Fraction(-2)), r, P)), Mul((Const(Fraction(-1)), P)))),
                    LE_ZERO,
                )
            )
    count = len(factors)
    cons.append(
        Constraint(
            Add(
                (
                    Dot(
                        tuple(Fraction(1) for _ in range(count)),
                        tuple(f"{prefix}_{i}" for i in range(count)),
                    ),
                    Const(Fraction(-(count - 1))),
                )
            ),
            LE_ZERO,
        )
    )
    return ConstraintSet(tag=S2, constraints=tuple(cons), aux_vars=tuple(aux), cycle=cycle)


def default_base_index(z: Sequence[int]) -> int:
    """1-based cycle-local position of the first entry holding the most
    frequent value of z (ties between values resolve to the smaller)."""
    return z.index(_most_frequent(z)) + 1


def s3_anchor(z: Sequence[int], cycle: Cycle) -> ConstraintSet:
    """Linear equalities anchoring the cycle block to the translate
    family {z + t*1}: x_j - x_base = z_j - z_base for every support
    position j.  Every base gives the same family; the base is
    ``default_base_index(z)``, so the rows a point gets never change."""
    _check_point(z, cycle)
    k = cycle.k
    names = cycle_var_names(cycle)
    base = default_base_index(z) - 1
    cons = []
    for j in range(k):
        if j == base:
            continue
        delta = z[j] - z[base]
        cons.append(
            Constraint(
                Add(
                    (
                        Dot((Fraction(1), Fraction(-1)), (names[j], names[base])),
                        Const(Fraction(-delta)),
                    )
                ),
                EQ,
            )
        )
    return ConstraintSet(tag=S3, constraints=tuple(cons))


def sublayer(cycle: Cycle, residue: int) -> ConstraintSet:
    """sum(x|cycle) = q*k + residue with a fresh integer variable q;
    residue must be an int in 1..k."""
    k = cycle.k
    if not 1 <= _integer(residue, "residue") <= k:
        raise InputError(f"need 1 <= residue <= {k}, got {residue}")
    names = cycle_var_names(cycle)
    q = f"q{cycle.support[0]}_{residue}"
    expr = Add(
        (
            Dot(tuple(Fraction(1) for _ in names), names),
            Mul((Const(Fraction(-k)), Var(q))),
            Const(Fraction(-residue)),
        )
    )
    return ConstraintSet(
        tag=SUBLAYER,
        constraints=(Constraint(expr, EQ),),
        aux_vars=(AuxVar(q, "integer"),),
    )


def fixed_space_anchor(cycle: Cycle) -> ConstraintSet:
    """Equalities forcing a constant value across the cycle block (the
    fixed-space restriction).  No planner uses it: it is kept for the
    export pool of criterion 8 in ``tests/test_acceptance.py``, its only
    caller outside its own unit test."""
    names = cycle_var_names(cycle)
    cons = tuple(
        Constraint(
            Add((Dot((Fraction(1), Fraction(-1)), (names[j], names[0])),)),
            EQ,
        )
        for j in range(1, cycle.k)
    )
    return ConstraintSet(tag=S3, constraints=cons)
