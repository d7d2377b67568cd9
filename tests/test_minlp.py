"""The nonlinear-model interchange format: emit, parse, round-trip."""

import json
import random
from fractions import Fraction

import pytest

from corecuts import (
    Add,
    Const,
    Constraint,
    ConstraintSet,
    Div,
    Dot,
    InputError,
    Mul,
    Square,
    Subproblem,
    Var,
    dumps_problem,
    eval_float,
    flatten_subproblem,
    make_instance,
    parse_problem,
    write_problem,
)
from corecuts.simplex import LE, make_row


def _flat(sense="max", objective=(1,), nonlinear=()):
    base = make_instance(
        len(objective),
        sense=sense if sense != "feasibility" else "feasibility",
        objective=list(objective) if sense != "feasibility" else None,
        rows=(make_row([1] * len(objective), LE, 3),),
        bounds=((Fraction(0), Fraction(4)),) * len(objective),
    )
    added = (
        (ConstraintSet("S3", tuple(nonlinear), ()),) if nonlinear else ()
    )
    return flatten_subproblem(Subproblem("t", base, added, "PLAIN", ("t",)))


def test_document_shape():
    doc = json.loads(dumps_problem(_flat()))
    assert doc["format"] == 1
    assert [v["name"] for v in doc["vars"]] == ["x1"]
    assert doc["vars"][0]["kind"] == "integer"
    assert doc["objective"]["sense"] == "max"
    assert isinstance(doc["constraints"], list)


def test_rationals_emit_num_den_pairs():
    doc = json.loads(dumps_problem(_flat(objective=(Fraction(1, 3),))))
    expr = doc["objective"]["expr"]
    assert expr["kind"] == "dot"
    assert expr["coeffs"][0] == {"num": 1, "den": 3}


def test_floats_emit_shortest_17g():
    cs = Constraint(Add((Square(Var("x1")), Const(-2.5))), "le_zero")
    text = dumps_problem(_flat(nonlinear=(cs,)))
    assert '"value":-2.5' in text
    # eps is a true double: serialized with enough digits to round-trip
    doc = json.loads(text)
    assert doc["constraints"][-1]["eps"] == cs.eps


def test_parse_rebuilds_identical_trees():
    cons = (
        Constraint(
            Add(
                (
                    Dot((Fraction(2), Fraction(-1, 2)), ("x1", "x2")),
                    Mul((Var("x1"), Var("x2"))),
                    Div(Const(1), Add((Const(1), Square(Var("x2"))))),
                )
            ),
            "strict_neg",
        ),
    )
    flat = _flat(objective=(1, 2), nonlinear=cons)
    parsed = parse_problem_text(dumps_problem(flat))
    assert parsed.constraints[-1].expr == cons[0].expr
    assert parsed.constraints[-1].sense == "strict_neg"


def parse_problem_text(text):
    import io
    import tempfile
    import os

    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        return parse_problem(path)
    finally:
        os.unlink(path)


def test_write_then_parse(tmp_path):
    flat = _flat(objective=(1, 2))
    path = tmp_path / "m.json"
    write_problem(flat, path)
    parsed = parse_problem(path)
    assert [v.name for v in parsed.variables] == ["x1", "x2"]
    assert parsed.sense == "max"
    assert [v.kind for v in parsed.variables] == ["integer", "integer"]
    assert parsed.variables[0].lo == 0 and parsed.variables[0].hi == 4


def test_round_trip_evaluates_bit_exact(tmp_path):
    rng = random.Random(17)
    cs = Constraint(
        Add(
            (
                Dot((Fraction(1, 7), Fraction(3)), ("x1", "x2")),
                Div(Square(Var("x1")), Add((Const(1), Square(Var("x2"))))),
                Const(-0.1),
            )
        ),
        "le_zero",
    )
    flat = _flat(objective=(1, 1), nonlinear=(cs,))
    path = tmp_path / "rt.json"
    write_problem(flat, path)
    parsed = parse_problem(path)
    for orig, back in zip(flat.constraints, parsed.constraints):
        for _ in range(50):
            env = {"x1": rng.uniform(-9, 9), "x2": rng.uniform(-9, 9)}
            assert eval_float(orig.expr, env) == eval_float(back.expr, env)


def test_parse_rejects_wrong_format(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format":2,"vars":[],"objective":{"sense":"max","expr":{"kind":"const","value":0}},"constraints":[]}')
    with pytest.raises(InputError):
        parse_problem(path)


def test_parse_rejects_unknown_kind(tmp_path):
    path = tmp_path / "bad2.json"
    path.write_text(
        '{"format":1,"vars":[{"name":"x1","lo":null,"hi":null,"kind":"real"}],'
        '"objective":{"sense":"max","expr":{"kind":"const","value":0}},"constraints":[]}'
    )
    with pytest.raises(InputError):
        parse_problem(path)


def test_parse_rejects_bool_as_number(tmp_path):
    path = tmp_path / "bad3.json"
    path.write_text(
        '{"format":1,"vars":[],"objective":{"sense":"max","expr":{"kind":"const","value":true}},"constraints":[]}'
    )
    with pytest.raises(InputError):
        parse_problem(path)


_GOOD_VAR = '{"name":"x1","lo":null,"hi":null,"kind":"integer"}'
_ZERO = '{"kind":"const","value":0}'


@pytest.mark.parametrize(
    "vars_,expr",
    [
        ('[{"lo":null,"hi":null,"kind":"integer"}]', _ZERO),
        (f"[{_GOOD_VAR}]", '{"kind":"add"}'),
        ('["x1"]', _ZERO),
        (f"[{_GOOD_VAR}]", '{"kind":"const","value":{"num":1,"den":0}}'),
    ],
    ids=["var-without-name", "add-without-args", "var-not-an-object", "zero-denominator"],
)
def test_parse_wraps_malformed_documents(tmp_path, vars_, expr):
    path = tmp_path / "bad.json"
    path.write_text(
        f'{{"format":1,"vars":{vars_},"objective":{{"sense":"max","expr":{expr}}},'
        '"constraints":[]}'
    )
    with pytest.raises(InputError):
        parse_problem(path)


def test_parse_rejects_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format":1,')
    with pytest.raises(InputError):
        parse_problem(path)


def test_feasibility_objective_is_zero_const():
    flat = _flat(sense="feasibility")
    doc = json.loads(dumps_problem(flat))
    assert doc["objective"]["sense"] == "feasibility"
