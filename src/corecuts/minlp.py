"""MINLP-JSON serialization of flattened subproblems.

Schema (``"format": 1``)::

    {
      "format": 1,
      "vars": [{"name": "x1", "lo": n, "hi": n, "kind": "integer"}, ...],
      "objective": {"sense": "max"|"min"|"feasibility", "expr": E},
      "constraints": [{"expr": E, "sense": s, "eps": f}, ...]
    }

where an expression E is one of::

    {"kind": "const",  "value": n}
    {"kind": "var",    "name": str}
    {"kind": "add",    "args": [E, ...]}
    {"kind": "mul",    "args": [E, ...]}
    {"kind": "div",    "num": E, "den": E}
    {"kind": "square", "arg": E}
    {"kind": "dot",    "coeffs": [n, ...], "names": [str, ...]}

and a number n is either a JSON double or an exact rational
``{"num": int, "den": int}``.  The writer builds the document as plain
dicts and lists and hands it to ``json.dumps``, which prints doubles
with ``repr``: the shortest text that reads back as the same double, so
every finite double survives the round trip bit for bit.  Non-finite
doubles are rejected.  Rationals stay exact by construction.

The parser is plain ``json.load`` plus a typed decode: JSON numbers
become Python floats, ``{"num","den"}`` objects become Fractions.
Because the writer preserves argument order and the evaluator folds
n-ary nodes strictly left to right, export → parse → evaluate is
bit-exact against evaluating the original tree.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import InputError
from .exprs import (
    Add,
    Const,
    Constraint,
    Div,
    Dot,
    Expr,
    Mul,
    SENSES,
    Square,
    Var,
)
from .solve import FlatProblem, FlatVar

FORMAT_VERSION = 1

Number = Union[Fraction, float, int]


# ---------------------------------------------------------------------------
# writer


def _number(v: Number):
    if isinstance(v, Fraction):
        return {"num": v.numerator, "den": v.denominator}
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise InputError(f"cannot serialize number of type {type(v).__name__}")
    return v


def _expr(e: Expr) -> dict:
    if isinstance(e, Const):
        return {"kind": "const", "value": _number(e.value)}
    if isinstance(e, Var):
        return {"kind": "var", "name": e.name}
    if isinstance(e, (Add, Mul)):
        return {"kind": "add" if isinstance(e, Add) else "mul", "args": [_expr(a) for a in e.args]}
    if isinstance(e, Div):
        return {"kind": "div", "num": _expr(e.num), "den": _expr(e.den)}
    if isinstance(e, Square):
        return {"kind": "square", "arg": _expr(e.arg)}
    if isinstance(e, Dot):
        return {"kind": "dot", "coeffs": [_number(c) for c in e.coeffs], "names": list(e.names)}
    raise InputError(f"cannot serialize expression node {type(e).__name__}")


def _objective_expr(flat: FlatProblem) -> Expr:
    coeffs = []
    names = []
    for v in flat.variables:
        c = flat.objective.get(v.name)
        if c:
            coeffs.append(c)
            names.append(v.name)
    if not coeffs:
        return Const(Fraction(0))
    return Dot(tuple(coeffs), tuple(names))


def dumps_problem(flat: FlatProblem) -> str:
    doc = {
        "format": FORMAT_VERSION,
        "vars": [
            {
                "name": v.name,
                "lo": None if v.lo is None else _number(v.lo),
                "hi": None if v.hi is None else _number(v.hi),
                "kind": v.kind,
            }
            for v in flat.variables
        ],
        "objective": {"sense": flat.sense, "expr": _expr(_objective_expr(flat))},
        "constraints": [
            {"expr": _expr(con.expr), "sense": con.sense, "eps": _number(con.eps)}
            for con in flat.constraints
        ],
    }
    try:
        # doc is a fresh tree, so the encoder's cycle check (a third of
        # its time here) can find nothing
        text = json.dumps(doc, separators=(",", ":"), allow_nan=False, check_circular=False)
    except ValueError as exc:
        raise InputError(f"cannot serialize non-finite double: {exc}") from None
    return text + "\n"


def write_problem(flat: FlatProblem, path) -> None:
    text = dumps_problem(flat)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# parser


@dataclass(frozen=True)
class ParsedProblem:
    variables: tuple[FlatVar, ...]
    sense: str
    objective: Expr
    constraints: tuple[Constraint, ...]


def _decode_number(v) -> Union[Fraction, float]:
    if isinstance(v, dict):
        if set(v) != {"num", "den"} or not all(isinstance(v[k], int) for k in v):
            raise InputError(f"malformed rational {v!r}")
        return Fraction(v["num"], v["den"])
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise InputError(f"malformed number {v!r}")
    return float(v)


def _decode_expr(d) -> Expr:
    if not isinstance(d, dict) or "kind" not in d:
        raise InputError(f"malformed expression {d!r}")
    kind = d["kind"]
    if kind == "const":
        return Const(_decode_number(d["value"]))
    if kind == "var":
        return Var(str(d["name"]))
    if kind in ("add", "mul"):
        args = tuple(_decode_expr(a) for a in d["args"])
        return Add(args) if kind == "add" else Mul(args)
    if kind == "div":
        return Div(_decode_expr(d["num"]), _decode_expr(d["den"]))
    if kind == "square":
        return Square(_decode_expr(d["arg"]))
    if kind == "dot":
        coeffs = tuple(_decode_number(c) for c in d["coeffs"])
        names = tuple(str(n) for n in d["names"])
        return Dot(coeffs, names)
    raise InputError(f"unknown expression kind {kind!r}")


def _decode_bound(v):
    if v is None:
        return None
    num = _decode_number(v)
    return num if isinstance(num, Fraction) else Fraction(num)


def parse_problem(path) -> ParsedProblem:
    """Read a problem file; a malformed document (bad JSON, a missing
    key, an entry of the wrong type, a zero denominator) raises
    InputError."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict) or doc.get("format") != FORMAT_VERSION:
            raise InputError("unsupported or missing format version")
        return _decode_problem(doc)
    except (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise InputError(f"malformed problem file: {exc!r}") from exc


def _decode_problem(doc: dict) -> ParsedProblem:
    variables = []
    for v in doc.get("vars", ()):
        kind = v.get("kind")
        if kind not in ("integer", "binary"):
            raise InputError(f"unknown variable kind {kind!r}")
        variables.append(
            FlatVar(str(v["name"]), _decode_bound(v["lo"]), _decode_bound(v["hi"]), kind)
        )
    obj = doc.get("objective", {})
    sense = obj.get("sense")
    if sense not in ("max", "min", "feasibility"):
        raise InputError(f"unknown objective sense {sense!r}")
    objective = _decode_expr(obj["expr"])
    constraints = []
    for c in doc.get("constraints", ()):
        if c.get("sense") not in SENSES:
            raise InputError(f"unknown constraint sense {c.get('sense')!r}")
        eps = _decode_number(c.get("eps", 0.0))
        constraints.append(
            Constraint(_decode_expr(c["expr"]), c["sense"], float(eps))
        )
    return ParsedProblem(
        variables=tuple(variables),
        sense=sense,
        objective=objective,
        constraints=tuple(constraints),
    )
