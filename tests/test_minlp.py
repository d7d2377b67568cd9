"""The nonlinear-model interchange format: emit, parse, round-trip."""

import json
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from corecuts import minlp, solve
from corecuts import (
    Add,
    Const,
    Constraint,
    ConstraintSet,
    Div,
    Dot,
    EngineOptions,
    InputError,
    Mul,
    Square,
    Subproblem,
    Var,
    dumps_problem,
    eval_float,
    export_subproblem,
    flatten_subproblem,
    generate,
    make_instance,
    parse_problem,
    plan,
    run_auto,
    write_problem,
)
from corecuts.instancefile import analyze_group
from corecuts.simplex import LE, LPRow, make_row
from test_engine import _random_cycles_instance, _random_full_cycle_instance


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
        (f"[{_GOOD_VAR}]", '{"kind":"const","value":{"num":true,"den":1}}'),
        (f"[{_GOOD_VAR}]", '{"kind":"const","value":{"num":1,"den":true}}'),
        ('[{"name":"x1","lo":1' + "0" * 399 + ',"hi":null,"kind":"integer"}]', _ZERO),
        ('[{"name":"x1","lo":Infinity,"hi":null,"kind":"integer"}]', _ZERO),
        (f"[{_GOOD_VAR}]", '{"kind":"const","value":NaN}'),
        (f"[{_GOOD_VAR}]", '{"kind":"const","value":Infinity}'),
        (f"[{_GOOD_VAR}]", '{"kind":"const","value":1e400}'),
        ("[]", '{"kind":"var","name":"zz"}'),
        (f"[{_GOOD_VAR}]", '{"kind":"dot","coeffs":[1,1],"names":["x1","x2"]}'),
        ('[{"name":null,"lo":null,"hi":null,"kind":"integer"}]', _ZERO),
        ('[{"name":5,"lo":null,"hi":null,"kind":"integer"}]', _ZERO),
        (
            f'[{_GOOD_VAR},{{"name":"x1","lo":{{"num":5,"den":1}},'
            '"hi":{"num":9,"den":1},"kind":"binary"}]',
            _ZERO,
        ),
    ],
    ids=[
        "var-without-name",
        "add-without-args",
        "var-not-an-object",
        "zero-denominator",
        "bool-numerator",
        "bool-denominator",
        "400-digit-bound",
        "infinite-bound",
        "nan-const",
        "infinite-const",
        "overflowing-const",
        "undeclared-var",
        "undeclared-dot-name",
        "null-name",
        "number-name",
        "duplicate-name",
    ],
)
def test_parse_wraps_malformed_documents(tmp_path, vars_, expr):
    path = tmp_path / "bad.json"
    path.write_text(
        f'{{"format":1,"vars":{vars_},"objective":{{"sense":"max","expr":{expr}}},'
        '"constraints":[]}'
    )
    with pytest.raises(InputError):
        parse_problem(path)


@pytest.mark.parametrize(
    "doc",
    [
        '{"format":true,"vars":[],"objective":{"sense":"feasibility","expr":%s},"constraints":[]}',
        '{"format":1.0,"vars":[],"objective":{"sense":"feasibility","expr":%s},"constraints":[]}',
        '{"format":1,"objective":{"sense":"feasibility","expr":%s},"constraints":[]}',
        '{"format":1,"vars":[],"objective":{"sense":"feasibility","expr":%s}}',
        '{"format":1,"vars":[],"objective":{"sense":"feasibility","expr":%s},'
        '"constraints":[{"expr":{"kind":"var","name":"x1"},"sense":"eq","eps":0.0}]}',
    ],
    ids=["bool-format", "float-format", "no-vars", "no-constraints", "undeclared-in-constraint"],
)
def test_parse_refuses_a_bad_format_missing_keys_and_undeclared_names(tmp_path, doc):
    """The format must be the integer 1, "vars" and "constraints" must be
    present (empty lists are valid), and every variable must be
    declared."""
    path = tmp_path / "bad.json"
    path.write_text(doc % _ZERO)
    with pytest.raises(InputError):
        parse_problem(path)
    path.write_text(
        '{"format":1,"vars":[],"objective":{"sense":"feasibility","expr":%s},'
        '"constraints":[]}' % _ZERO
    )
    parsed = parse_problem(path)
    assert (parsed.variables, parsed.constraints) == ((), ())


def test_parse_rejects_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format":1,')
    with pytest.raises(InputError):
        parse_problem(path)


def test_parse_wraps_expressions_nested_too_deeply(tmp_path):
    """A 5,000-deep chain of squares is refused with InputError, not
    with the RecursionError of the decoder."""
    depth = 5000
    expr = '{"kind":"square","arg":' * depth + _ZERO + "}" * depth
    path = tmp_path / "deep.json"
    path.write_text(
        '{"format":1,"vars":[],"objective":{"sense":"feasibility","expr":%s},'
        '"constraints":[]}' % expr
    )
    with pytest.raises(InputError, match="RecursionError"):
        parse_problem(path)


def test_feasibility_objective_is_zero_const():
    flat = _flat(sense="feasibility")
    doc = json.loads(dumps_problem(flat))
    assert doc["objective"]["sense"] == "feasibility"


# ---------------------------------------------------------------------------
# a run's export: byte-identical documents, each piece encoded once


def _reference_dumps(flat):
    """The writer as one json.dumps of the whole document, the way it
    was written before pieces were encoded on their own: the bytes every
    export must match."""

    def number(v):
        return {"num": v.numerator, "den": v.denominator} if isinstance(v, Fraction) else v

    def expr(e):
        if isinstance(e, Const):
            return {"kind": "const", "value": number(e.value)}
        if isinstance(e, Var):
            return {"kind": "var", "name": e.name}
        if isinstance(e, (Add, Mul)):
            kind = "add" if isinstance(e, Add) else "mul"
            return {"kind": kind, "args": [expr(a) for a in e.args]}
        if isinstance(e, Div):
            return {"kind": "div", "num": expr(e.num), "den": expr(e.den)}
        if isinstance(e, Square):
            return {"kind": "square", "arg": expr(e.arg)}
        return {"kind": "dot", "coeffs": [number(c) for c in e.coeffs], "names": list(e.names)}

    names = tuple(v.name for v in flat.variables if flat.objective.get(v.name))
    coeffs = tuple(flat.objective[name] for name in names)
    objective = Dot(coeffs, names) if coeffs else Const(Fraction(0))
    doc = {
        "format": 1,
        "vars": [
            {
                "name": v.name,
                "lo": None if v.lo is None else number(v.lo),
                "hi": None if v.hi is None else number(v.hi),
                "kind": v.kind,
            }
            for v in flat.variables
        ],
        "objective": {"sense": flat.sense, "expr": expr(objective)},
        "constraints": [
            {"expr": expr(c.expr), "sense": c.sense, "eps": number(c.eps)}
            for c in flat.constraints
        ],
    }
    return json.dumps(doc, separators=(",", ":"), allow_nan=False) + "\n"


def _with_denominators(inst, d):
    """inst with every row and objective weight divided by d and each
    bound widened by 1/d: the same integer points and the same symmetry,
    written with non-unit denominators."""
    rows = tuple(LPRow(tuple(a / d for a in r.coeffs), r.sense, r.rhs / d) for r in inst.rows)
    step = Fraction(1, d)
    bounds = tuple((lo - step, hi + step) for lo, hi in inst.bounds)
    objective = tuple(c / d for c in inst.objective)
    return replace(inst, rows=rows, bounds=bounds, objective=objective)


def test_a_run_exports_the_reference_bytes(tmp_path):
    """On seeded random symmetric instances in all three senses, some
    written with non-unit denominators, and with float eps: every file a
    dry run writes equals the one-json.dumps reference and the file of a
    one-shot export_subproblem, and parses back to flatten_subproblem's
    variables and constraints.  So does a cut made with a Fraction eps,
    which its constraints keep as the float the format states."""
    rng = random.Random(41)
    seen = Counter()
    for i in range(24):
        sense = ("feasibility", "max", "min")[i % 3]
        if i % 2:
            inst = _random_full_cycle_instance(rng, rng.choice((3, 4)), sense)
        else:
            inst = _random_cycles_instance(rng, rng.choice(((2, 3), (3,), (2, 2))), sense)
        if i % 4 >= 2:
            inst = _with_denominators(inst, rng.choice((2, 3, 7)))
            seen["denominators"] += 1
        eps = rng.choice((1e-6, 0.1, 1 / 3))
        opts = EngineOptions(eps=eps, export_dir=str(tmp_path / str(i)), dry_run=True)
        report = run_auto(inst, opts)
        subs = plan(inst, opts).subproblems
        assert [sid for sid, _, _ in report.schedule] == [sp.id for sp in subs]
        for sp in subs:
            flat = flatten_subproblem(sp)
            path = tmp_path / str(i) / f"{sp.id}.json"
            alone = tmp_path / "alone.json"
            export_subproblem(sp, alone)
            assert path.read_bytes() == alone.read_bytes() == _reference_dumps(flat).encode()
            parsed = parse_problem(path)
            assert parsed.variables == flat.variables and parsed.constraints == flat.constraints
            seen.update(v.kind for v in flat.variables[inst.n :])
            seen[sp.tag] += 1
    assert seen["binary"] and seen["integer"] and seen["S1"] > 10 and seen["denominators"] == 12
    inst = generate((1, 1, 0)).instance
    folder = tmp_path / "fraction"
    opts = EngineOptions(eps=Fraction(1, 10**6), export_dir=str(folder), dry_run=True)
    run_auto(inst, opts)
    (cut,) = [sp for sp in plan(inst, opts).subproblems if sp.id == "L2.S1"]
    flat = flatten_subproblem(cut)
    parsed = parse_problem(folder / "L2.S1.json")
    assert parsed.variables == flat.variables and parsed.constraints == flat.constraints
    assert {con.eps for con in flat.constraints} == {1e-06}


def test_a_run_encodes_each_piece_once(monkeypatch, tmp_path):
    """A run with an export directory turns each instance row into an
    export constraint once and encodes each distinct constraint once, on
    Algorithm 1 and Algorithm 3 schedules; a run without one encodes
    nothing."""
    built, encoded = [], []
    row_to_constraint, constraint_text = solve._row_to_constraint, minlp._constraint_text
    monkeypatch.setattr(
        solve, "_row_to_constraint", lambda *args: built.append(args) or row_to_constraint(*args)
    )
    monkeypatch.setattr(
        minlp, "_constraint_text", lambda con: encoded.append(con) or constraint_text(con)
    )
    c5 = make_instance(
        5,
        rows=(make_row([1] * 5, "==", 7),),
        bounds=((Fraction(0), Fraction(3)),) * 5,
        group=analyze_group(["(1,2,3,4,5)"], 5),
    )
    parity = make_instance(
        6,
        rows=(make_row([1] * 6, "==", 7), make_row([1, 1, 1, -1, -1, -1], "==", 0)),
        bounds=((Fraction(0), Fraction(2)),) * 6,
        group=analyze_group(["(1,2,3)", "(4,5,6)"], 6),
    )
    for inst, algorithm in ((c5, 1), (parity, 3)):
        built.clear()
        encoded.clear()
        opts = EngineOptions(export_dir=str(tmp_path / str(algorithm)), dry_run=True)
        report = run_auto(inst, opts)
        assert report.algorithm == algorithm
        assert len(built) == len(inst.rows)
        subs = plan(inst, opts).subproblems
        added = {id(c) for sp in subs for cs in sp.added for c in cs.constraints}
        assert len({id(c) for c in encoded}) == len(encoded) == len(inst.rows) + len(added)
        # a one-shot export per subproblem would encode every constraint of each
        assert len(encoded) < sum(len(flatten_subproblem(sp).constraints) for sp in subs)
        built.clear()
        encoded.clear()
        run_auto(inst, EngineOptions(dry_run=True))
        assert built == [] and encoded == []
