"""Expression trees for synthesized nonlinear constraints.

Nodes: Const (rational or trigonometric double), Var, n-ary Add/Mul,
Div, Square, and Dot (a coefficient vector against a variable vector).
Trees are immutable.  ``eval_float`` is the package's one float
evaluator (n-ary operations fold left, Dot accumulates in index order,
constants convert via float()); no solver path calls it, since the
enumerator decides the nonlinear sets exactly (``solve``).
Serialization must stay bit-exact across emit -> parse -> evaluate, so
nothing in this module may reorder operands.

``linear_form`` reads the flat sums that synthesis writes (terms that
are a Dot, a Var or a Const, each maybe scaled by Const factors) as
exact rational coefficients; the enumerator refuses any other tree
outside the sets it decides on their blocks.
``_interval_of`` turns a constraint into the interval row the
enumerator propagates.  A ``ConstraintSet`` keeps those rows of its
constraints in primitive integer form over set-local positions
(``_rows``), made on first use, so a set that several subproblems hold
is read and normalised once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Union

from .errors import InputError
from .perms import Cycle
from .simplex import _primitive_row

Number = Union[Fraction, float]


@dataclass(frozen=True)
class Const:
    value: Number


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Add:
    args: tuple["Expr", ...]


@dataclass(frozen=True)
class Mul:
    args: tuple["Expr", ...]


@dataclass(frozen=True)
class Div:
    num: "Expr"
    den: "Expr"


@dataclass(frozen=True)
class Square:
    arg: "Expr"


@dataclass(frozen=True)
class Dot:
    coeffs: tuple[Number, ...]
    names: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != len(self.names):
            raise InputError("Dot coefficient/variable length mismatch")


Expr = Union[Const, Var, Add, Mul, Div, Square, Dot]

# constraint senses
STRICT_NEG = "strict_neg"  # expr < 0, realized as expr <= -eps
NON_NEG = "non_neg"        # expr > 0, realized as expr >= eps
EQ = "eq"                  # expr == 0
LE_ZERO = "le_zero"        # expr <= 0

SENSES = (STRICT_NEG, NON_NEG, EQ, LE_ZERO)

#: default realization of strict inequalities (CLI-configurable)
DEFAULT_EPS = 1e-6
#: absolute tolerance for equalities and non-strict comparisons
EQ_TOL = 1e-9


def _float_eps(eps) -> float:
    """eps as the float a ``Constraint`` keeps: an int or Fraction
    converts, a bool or a non-number is an ``InputError``."""
    if type(eps) is not float:
        if isinstance(eps, bool) or not isinstance(eps, (int, float, Fraction)):
            raise InputError(f"eps must be a number, not {eps!r}")
        eps = float(eps)
    return eps


@dataclass(frozen=True)
class Constraint:
    """``expr sense 0``; an int or Fraction ``eps`` is kept as the float
    the export format states, so an exported constraint parses back
    equal to it."""

    expr: Expr
    sense: str
    eps: float = DEFAULT_EPS

    def __post_init__(self) -> None:
        if self.sense not in SENSES:
            raise InputError(f"bad sense {self.sense!r}")
        if type(self.eps) is not float:
            object.__setattr__(self, "eps", _float_eps(self.eps))
        if self.sense in (STRICT_NEG, NON_NEG) and not (
            self.eps > 0 and math.isfinite(self.eps)
        ):
            raise InputError("strict senses need a finite eps > 0")


@dataclass(frozen=True)
class AuxVar:
    name: str
    kind: str  # "integer" | "binary"

    def __post_init__(self) -> None:
        if self.kind not in ("integer", "binary"):
            raise InputError(f"bad aux kind {self.kind!r}")


# constraint-set tags
S1, S2, S3 = "S1", "S2", "S3"
SUBLAYER, SMOOTH = "Sublayer", "Smooth"


@dataclass(frozen=True)
class ConstraintSet:
    tag: str
    constraints: tuple[Constraint, ...]
    aux_vars: tuple[AuxVar, ...] = ()
    #: the cycle block that an S1 cut, a smoothness or an S2 set reads,
    #: set by synthesis: the enumerator decides such a set exactly on
    #: the block (``solve._block_of``) in place of its constraints
    cycle: Optional[Cycle] = None
    #: an S1 cut's canonical projected point, set by synthesis
    point: Optional[tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.tag not in (S1, S2, S3, SUBLAYER, SMOOTH):
            raise InputError(f"bad tag {self.tag!r}")

    @cached_property
    def _rows(self) -> tuple[int, list, list[Constraint]]:
        """The enumerator's reading of the set, ``(width, rows,
        nonlinear)``, made once: one set is shared by every subproblem
        that holds it.

        ``rows`` holds the exact interval row (``_interval_of``) of each
        constraint that has one, in primitive integer form
        (``simplex._primitive_row``: a ``(key, lo, hi)``, or a bool for
        an all-zero row) over set-local positions: the instance variable
        ``x<i>`` at i - 1 and the set's j-th auxiliary at ``width + j``,
        where ``width`` is one past the highest instance position that a
        row reads.  A subproblem puts the set's auxiliaries after the
        instance variables and the earlier sets' auxiliaries, so it
        shifts only their positions, and the key keeps its order and its
        sign (``solve._lower``).  A set reads only instance variables and
        its own auxiliaries: any other name is an ``InputError``.
        ``nonlinear`` lists the constraints with no interval row."""
        own = {av.name: j for j, av in enumerate(self.aux_vars)}
        nonlinear = []
        # each coefficient as (instance position, None, a) or (None, j, a)
        named = []
        width = 0
        for con in self.constraints:
            row = _interval_of(con)
            if row is None:
                nonlinear.append(con)
                continue
            coeffs, lo, hi = row
            terms = []
            for name, a in coeffs.items():
                if a == 0:
                    continue
                if name in own:
                    terms.append((None, own[name], a))
                    continue
                j = _instance_position(name)
                if j is None:
                    raise InputError(f"constraint references unknown variable {name!r}")
                if j >= width:
                    width = j + 1
                terms.append((j, None, a))
            named.append((terms, lo, hi))
        rows = [
            _primitive_row([(width + k if j is None else j, a) for j, k, a in terms], lo, hi)
            for terms, lo, hi in named
        ]
        return width, rows, nonlinear


def _instance_position(name: str) -> Optional[int]:
    """i - 1 for an instance variable name ``x<i>`` (i >= 1, written
    without leading zeros, as ``solve.Instance.var_names`` writes it);
    None for any other name."""
    digits = name[1:]
    if name[:1] == "x" and digits.isascii() and digits.isdigit() and digits[0] != "0":
        return int(digits) - 1
    return None


# ---------------------------------------------------------------------------
# evaluation

class EvalDivisionByZero(ArithmeticError):
    """Float evaluation hit a zero denominator."""


def eval_float(expr: Expr, env: dict[str, float]) -> float:
    """Float evaluation; a zero denominator raises EvalDivisionByZero."""
    if isinstance(expr, Const):
        return float(expr.value)
    if isinstance(expr, Var):
        return env[expr.name]
    if isinstance(expr, Add):
        acc = eval_float(expr.args[0], env)
        for a in expr.args[1:]:
            acc = acc + eval_float(a, env)
        return acc
    if isinstance(expr, Mul):
        acc = eval_float(expr.args[0], env)
        for a in expr.args[1:]:
            acc = acc * eval_float(a, env)
        return acc
    if isinstance(expr, Div):
        num = eval_float(expr.num, env)
        den = eval_float(expr.den, env)
        if den == 0.0:
            raise EvalDivisionByZero("zero denominator")
        return num / den
    if isinstance(expr, Square):
        v = eval_float(expr.arg, env)
        return v * v
    if isinstance(expr, Dot):
        acc = 0.0
        for coeff, name in zip(expr.coeffs, expr.names):
            acc = acc + float(coeff) * env[name]
        return acc
    raise InputError(f"unknown node {expr!r}")


def variables_of(expr: Expr) -> set[str]:
    if isinstance(expr, Const):
        return set()
    if isinstance(expr, Var):
        return {expr.name}
    if isinstance(expr, (Add, Mul)):
        out: set[str] = set()
        for a in expr.args:
            out |= variables_of(a)
        return out
    if isinstance(expr, Div):
        return variables_of(expr.num) | variables_of(expr.den)
    if isinstance(expr, Square):
        return variables_of(expr.arg)
    if isinstance(expr, Dot):
        return set(expr.names)
    raise InputError(f"unknown node {expr!r}")


def _rational(v) -> Optional[Union[int, Fraction]]:
    """A constant or coefficient exactly: an int when integral, else a
    Fraction; None for a float, which is not exact."""
    if type(v) is int:
        return v
    if isinstance(v, float):
        return None
    if type(v) is not Fraction:
        v = Fraction(v)
    return v.numerator if v.denominator == 1 else v


def linear_form(expr: Expr) -> Optional[tuple[dict[str, Fraction], Fraction]]:
    """Affine decomposition (coeffs, constant) with exact rational
    coefficients of the flat sums that synthesis writes, or None.  Lets
    the solver lower synthesized equalities and linear inequalities to
    exact rows for propagation.

    The tree is an ``Add`` of terms, or one term.  A term is a ``Dot``,
    a ``Var`` or a ``Const``, or a ``Mul`` whose factors are all
    ``Const`` but the last, which is one of those three.  Any other
    shape (a nested sum, a division, a square, a product with a variable
    factor before the last), or any float, gives None: the enumerator
    decides such a constraint only in an S1, S2 or smoothness set that
    synthesis wrote, and refuses it anywhere else, so a nested affine
    tree built through the API is an ``InputError`` there.
    Integral values are ints, a Fraction appears only where a
    denominator does, and a variable keeps its key when its
    coefficients sum to 0."""
    coeffs: dict = {}
    const = 0
    for term in expr.args if type(expr) is Add else (expr,):
        scale = 1
        if type(term) is Mul and term.args:
            *factors, term = term.args
            for f in factors:
                v = _rational(f.value) if type(f) is Const else None
                if v is None:
                    return None
                scale = scale * v
        t = type(term)
        if t is Dot:
            for c, name in zip(term.coeffs, term.names):
                v = _rational(c)
                if v is None:
                    return None
                coeffs[name] = coeffs.get(name, 0) + scale * v
        elif t is Var:
            coeffs[term.name] = coeffs.get(term.name, 0) + scale
        elif t is Const:
            v = _rational(term.value)
            if v is None:
                return None
            const += scale * v
        elif t in (Add, Mul, Div, Square):
            return None
        else:
            raise InputError(f"unknown node {term!r}")
    for name, v in coeffs.items():
        if type(v) is not int and v.denominator == 1:
            coeffs[name] = v.numerator
    if type(const) is not int and const.denominator == 1:
        const = const.numerator
    return coeffs, const


def _interval_of(con: Constraint) -> Optional[
    tuple[dict[str, Fraction], Optional[Fraction], Optional[Fraction]]
]:
    """Lower a constraint to an exact interval row ``(coeffs, lo, hi)``
    when ``linear_form`` reads its expression (ints where integral);
    strict senses get their eps folded into the bound so propagation and
    evaluation agree."""
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


def check_value(value: float, sense: str, eps: float) -> bool:
    """Whether a float evaluation satisfies a constraint sense."""
    if sense == STRICT_NEG:
        return value <= -eps
    if sense == NON_NEG:
        return value >= eps
    if sense == EQ:
        return abs(value) <= EQ_TOL
    if sense == LE_ZERO:
        return value <= EQ_TOL
    raise InputError(f"bad sense {sense!r}")
