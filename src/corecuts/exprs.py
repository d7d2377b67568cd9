"""Expression trees for synthesized nonlinear constraints.

Nodes: Const (rational or trigonometric double), Var, n-ary Add/Mul,
Div, Square, and Dot (a coefficient vector against a variable vector).
Trees are immutable.  ``eval_float`` is the package's one float
evaluator (n-ary operations fold left, Dot accumulates in index order,
constants convert via float()); evalcore only binds trees to value
vectors for it.  Serialization must stay bit-exact across emit -> parse
-> evaluate, so nothing in this module may reorder operands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .errors import InputError

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


@dataclass(frozen=True)
class Constraint:
    expr: Expr
    sense: str
    eps: float = DEFAULT_EPS

    def __post_init__(self) -> None:
        if self.sense not in SENSES:
            raise InputError(f"bad sense {self.sense!r}")
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

    def __post_init__(self) -> None:
        if self.tag not in (S1, S2, S3, SUBLAYER, SMOOTH):
            raise InputError(f"bad tag {self.tag!r}")


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


def linear_form(expr: Expr) -> Optional[tuple[dict[str, Fraction], Fraction]]:
    """Affine decomposition (coeffs, constant) with exact rational
    coefficients, or None when the tree is nonlinear or carries float
    constants.  Lets the solver lower synthesized equalities and linear
    inequalities to exact rows for propagation."""
    if isinstance(expr, Const):
        if isinstance(expr.value, float):
            return None
        return {}, Fraction(expr.value)
    if isinstance(expr, Var):
        return {expr.name: Fraction(1)}, Fraction(0)
    if isinstance(expr, Add):
        coeffs: dict[str, Fraction] = {}
        const = Fraction(0)
        for a in expr.args:
            sub = linear_form(a)
            if sub is None:
                return None
            for k, v in sub[0].items():
                coeffs[k] = coeffs.get(k, Fraction(0)) + v
            const += sub[1]
        return coeffs, const
    if isinstance(expr, Mul):
        parts = [linear_form(a) for a in expr.args]
        if any(p is None for p in parts):
            return None
        # at most one factor may carry variables; the rest fold into a scalar
        linear: Optional[tuple[dict[str, Fraction], Fraction]] = None
        scalar = Fraction(1)
        for p in parts:
            assert p is not None
            if p[0]:
                if linear is not None:
                    return None  # product of two linear parts: quadratic
                linear = p
            else:
                scalar *= p[1]
        if linear is None:
            return {}, scalar
        return {k: v * scalar for k, v in linear[0].items()}, scalar * linear[1]
    if isinstance(expr, Div):
        den = linear_form(expr.den)
        if den is None or den[0]:
            return None
        if den[1] == 0:
            return None
        num = linear_form(expr.num)
        if num is None:
            return None
        return {k: v / den[1] for k, v in num[0].items()}, num[1] / den[1]
    if isinstance(expr, Square):
        arg = linear_form(expr.arg)
        if arg is None or arg[0]:
            return None
        return {}, arg[1] * arg[1]
    if isinstance(expr, Dot):
        coeffs = {}
        const = Fraction(0)
        for coeff, name in zip(expr.coeffs, expr.names):
            if isinstance(coeff, float):
                return None
            coeffs[name] = coeffs.get(name, Fraction(0)) + Fraction(coeff)
        return coeffs, const
    raise InputError(f"unknown node {expr!r}")


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
