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
``{"num": int, "den": int}``.  The writer encodes each piece of a
document to JSON text on its own, with one encoder's settings: each
variable entry, the objective and each constraint's ``{"expr",
"sense", "eps"}`` object.  It then joins those texts as ``json.dumps``
joins a list's items, so the document is the same text that one
``json.dumps`` of the whole document gives.  Doubles are printed with
``repr``: the shortest text that reads back as the same double, so
every finite double survives the round trip bit for bit.  Non-finite
doubles are rejected.  Rationals stay exact by construction.  A run
that exports many subproblems of one instance hands the writer one
dict of texts (``_texts``, made by ``engine._run``), so each piece is
encoded once per run: constraints are keyed by identity (the run holds
every one of them until it ends), variables and the objective by
value.  A constraint's ``eps`` is a float (``exprs.Constraint`` keeps
it so), so it reads back equal.

The parser is plain ``json.load`` plus a typed decode: JSON numbers
become finite Python floats, ``{"num","den"}`` objects with exact
``int`` entries become Fractions, each distinct pair decoded once per
file and shared, as a Fraction is immutable.
Because the writer preserves argument order and the evaluator folds
n-ary nodes strictly left to right, export → parse → evaluate is
bit-exact against evaluating the original tree.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

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


# the settings every piece is encoded with; the document joins the pieces
# as json.dumps with these separators joins a list's items.  A fresh
# tree has no cycles, so the cycle check (a third of the encoder's time
# here) can find nothing
_encode = json.JSONEncoder(separators=(",", ":"), allow_nan=False, check_circular=False).encode


def _var_text(v: FlatVar) -> str:
    lo = None if v.lo is None else _number(v.lo)
    hi = None if v.hi is None else _number(v.hi)
    return _encode({"name": v.name, "lo": lo, "hi": hi, "kind": v.kind})


def _objective_text(key: tuple) -> str:
    sense, terms = key
    if terms:
        names, coeffs = zip(*terms)
        expr = Dot(coeffs, names)
    else:
        expr = Const(Fraction(0))
    return _encode({"sense": sense, "expr": _expr(expr)})


def _constraint_text(con: Constraint) -> str:
    return _encode({"expr": _expr(con.expr), "sense": con.sense, "eps": _number(con.eps)})


def dumps_problem(flat: FlatProblem, *, _texts: Optional[dict] = None) -> str:
    """The document of flat.  ``_texts`` is one run's encoded pieces
    (made by ``engine._run``): constraints keyed by identity, variables
    and the objective by value; by default every piece is encoded here.
    A value key does not tell ``0`` from ``Fraction(0)``, which encode
    differently, but one run exports one instance, whose bounds stay the
    same objects and whose weights are Fractions."""
    texts = {} if _texts is None else _texts

    def text(key, encode, piece) -> str:
        out = texts.get(key)
        if out is None:
            out = texts[key] = encode(piece)
        return out

    # the objective: the nonzero weights, in variable order
    terms = tuple((v.name, c) for v in flat.variables if (c := flat.objective.get(v.name)))
    key = (flat.sense, terms)
    try:
        variables = ",".join([text(v, _var_text, v) for v in flat.variables])
        objective = text(key, _objective_text, key)
        constraints = ",".join([text(id(c), _constraint_text, c) for c in flat.constraints])
    except ValueError as exc:
        raise InputError(f"cannot serialize non-finite double: {exc}") from None
    return (
        f'{{"format":{FORMAT_VERSION},"vars":[{variables}],'
        f'"objective":{objective},"constraints":[{constraints}]}}\n'
    )


def write_problem(flat: FlatProblem, path, *, _texts: Optional[dict] = None) -> None:
    text = dumps_problem(flat, _texts=_texts)
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


def _decode_number(v, rationals: dict) -> Union[Fraction, float]:
    """A JSON number as a finite float, or a ``{"num", "den"}`` object
    of two ints as a Fraction; ``rationals`` maps each (num, den) pair
    of the file decoded so far to its Fraction."""
    if type(v) is float or type(v) is int:
        # a huge integer raises OverflowError here, which the parser wraps
        v = float(v)
        if math.isfinite(v):
            return v
        raise InputError(f"non-finite number {v!r}")
    if type(v) is dict:
        num, den = v.get("num"), v.get("den")
        if len(v) == 2 and type(num) is int and type(den) is int:
            frac = rationals.get((num, den))
            if frac is None:
                frac = rationals[num, den] = Fraction(num, den)
            return frac
        raise InputError(f"malformed rational {v!r}")
    raise InputError(f"malformed number {v!r}")


def _decode_expr(d, rationals: dict, declared: dict) -> Expr:
    """An expression whose variables are all declared: ``declared`` maps
    each declared name to itself, so one lookup checks and gives it."""
    if type(d) is not dict or "kind" not in d:
        raise InputError(f"malformed expression {d!r}")
    kind = d["kind"]
    if kind == "const":
        return Const(_decode_number(d["value"], rationals))
    if kind == "var":
        name = declared.get(d["name"])
        if name is None:
            raise InputError(f"undeclared variable {d['name']!r}")
        return Var(name)
    if kind in ("add", "mul"):
        args = tuple([_decode_expr(a, rationals, declared) for a in d["args"]])
        return Add(args) if kind == "add" else Mul(args)
    if kind == "div":
        return Div(
            _decode_expr(d["num"], rationals, declared),
            _decode_expr(d["den"], rationals, declared),
        )
    if kind == "square":
        return Square(_decode_expr(d["arg"], rationals, declared))
    if kind == "dot":
        coeffs = tuple([_decode_number(c, rationals) for c in d["coeffs"]])
        try:
            names = tuple([declared[n] for n in d["names"]])
        except KeyError as exc:
            raise InputError(f"undeclared variable {exc}") from None
        return Dot(coeffs, names)
    raise InputError(f"unknown expression kind {kind!r}")


def _decode_bound(v, rationals: dict):
    if v is None:
        return None
    num = _decode_number(v, rationals)
    return num if type(num) is Fraction else Fraction(num)


def parse_problem(path) -> ParsedProblem:
    """Read a problem file; a malformed document (bad JSON, a format
    that is not the integer 1, a missing key, an entry of the wrong type,
    a variable name that is not a string or is declared twice, an
    undeclared variable, a zero denominator, a non-finite or
    out-of-range number, nesting too deep to decode) raises InputError."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            doc = json.load(fh)
        version = doc.get("format") if isinstance(doc, dict) else None
        if type(version) is not int or version != FORMAT_VERSION:
            raise InputError("unsupported or missing format version")
        return _decode_problem(doc)
    except (
        AttributeError,
        KeyError,
        OverflowError,
        RecursionError,
        TypeError,
        ValueError,
        ZeroDivisionError,
    ) as exc:
        raise InputError(f"malformed problem file: {exc!r}") from exc


def _decode_problem(doc: dict) -> ParsedProblem:
    # each distinct rational of the file is decoded once
    rationals: dict[tuple[int, int], Fraction] = {}
    variables = []
    declared: dict[str, str] = {}
    for v in doc["vars"]:
        kind = v.get("kind")
        if kind not in ("integer", "binary"):
            raise InputError(f"unknown variable kind {kind!r}")
        name = v["name"]
        if not isinstance(name, str):
            raise InputError(f"variable name must be a string, not {name!r}")
        if name in declared:
            raise InputError(f"variable {name!r} declared twice")
        declared[name] = name
        lo, hi = _decode_bound(v["lo"], rationals), _decode_bound(v["hi"], rationals)
        variables.append(FlatVar(name, lo, hi, kind))
    obj = doc.get("objective", {})
    sense = obj.get("sense")
    if sense not in ("max", "min", "feasibility"):
        raise InputError(f"unknown objective sense {sense!r}")
    objective = _decode_expr(obj["expr"], rationals, declared)
    constraints = []
    for c in doc["constraints"]:
        if c.get("sense") not in SENSES:
            raise InputError(f"unknown constraint sense {c.get('sense')!r}")
        eps = _decode_number(c.get("eps", 0.0), rationals)
        constraints.append(
            Constraint(_decode_expr(c["expr"], rationals, declared), c["sense"], eps)
        )
    return ParsedProblem(
        variables=tuple(variables),
        sense=sense,
        objective=objective,
        constraints=tuple(constraints),
    )
