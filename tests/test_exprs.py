"""Expression trees, evaluation, linear extraction, program parity."""

import random
from fractions import Fraction

import pytest

from corecuts import (
    EQ,
    LE_ZERO,
    NON_NEG,
    STRICT_NEG,
    Add,
    Const,
    Div,
    Dot,
    EvalDivisionByZero,
    InputError,
    Mul,
    Square,
    Var,
    check_value,
    eval_float,
    linear_form,
    variables_of,
)
from corecuts import evalcore
from corecuts.corepoints import projected_essential_set
from corecuts.engine import _layer_row
from corecuts.perms import Cycle
from corecuts.simplex import make_row
from corecuts.solve import make_instance
from corecuts.synth import (
    fixed_space_anchor,
    s1_for_point,
    s2_singular,
    s3_anchor,
    smoothness,
    sublayer,
)


def test_eval_float_basics():
    e = Add((Const(1), Mul((Var("x"), Var("y"))), Square(Var("x"))))
    assert eval_float(e, {"x": 2.0, "y": 3.0}) == 1 + 6 + 4


def test_eval_float_dot_and_div():
    e = Div(Dot((1, 2, 3), ("a", "b", "c")), Const(2))
    assert eval_float(e, {"a": 1.0, "b": 1.0, "c": 1.0}) == 3.0


def test_eval_float_division_by_zero_raises():
    e = Div(Const(1), Var("x"))
    with pytest.raises(EvalDivisionByZero):
        eval_float(e, {"x": 0.0})


def test_variables_of():
    e = Add((Dot((1, 1), ("a", "b")), Div(Var("c"), Const(2)), Square(Var("a"))))
    assert variables_of(e) == {"a", "b", "c"}


# ---------------------------------------------------------------------------
# linear extraction


def test_linear_form_affine():
    e = Add((Dot((2, -1), ("x", "y")), Const(5)))
    coeffs, const = linear_form(e)
    assert coeffs == {"x": Fraction(2), "y": Fraction(-1)}
    assert const == 5


def test_linear_form_rejects_products_of_variables():
    assert linear_form(Mul((Var("x"), Var("y")))) is None
    assert linear_form(Square(Var("x"))) is None
    assert linear_form(Div(Var("x"), Var("y"))) is None


def reference_linear_form(expr):
    """A recursive reader of every affine tree: one Fraction dict per
    subtree.  ``linear_form`` reads only flat sums, and on those it must
    give this reader's result."""
    if isinstance(expr, Const):
        if isinstance(expr.value, float):
            return None
        return {}, Fraction(expr.value)
    if isinstance(expr, Var):
        return {expr.name: Fraction(1)}, Fraction(0)
    if isinstance(expr, Add):
        coeffs, const = {}, Fraction(0)
        for a in expr.args:
            sub = reference_linear_form(a)
            if sub is None:
                return None
            for k, v in sub[0].items():
                coeffs[k] = coeffs.get(k, Fraction(0)) + v
            const += sub[1]
        return coeffs, const
    if isinstance(expr, Mul):
        parts = [reference_linear_form(a) for a in expr.args]
        if any(p is None for p in parts):
            return None
        linear, scalar = None, Fraction(1)
        for p in parts:
            if p[0]:
                if linear is not None:
                    return None
                linear = p
            else:
                scalar *= p[1]
        if linear is None:
            return {}, scalar
        return {k: v * scalar for k, v in linear[0].items()}, scalar * linear[1]
    if isinstance(expr, Div):
        den = reference_linear_form(expr.den)
        if den is None or den[0] or den[1] == 0:
            return None
        num = reference_linear_form(expr.num)
        if num is None:
            return None
        return {k: v / den[1] for k, v in num[0].items()}, num[1] / den[1]
    if isinstance(expr, Square):
        arg = reference_linear_form(expr.arg)
        if arg is None or arg[0]:
            return None
        return {}, arg[1] * arg[1]
    if isinstance(expr, Dot):
        coeffs = {}
        for coeff, name in zip(expr.coeffs, expr.names):
            if isinstance(coeff, float):
                return None
            coeffs[name] = coeffs.get(name, Fraction(0)) + Fraction(coeff)
        return coeffs, Fraction(0)
    raise AssertionError(expr)


def _number(rng):
    """An int, a Fraction (sometimes integral) or, rarely, a float."""
    roll = rng.random()
    if roll < 0.04:
        return rng.choice((0.5, 2.0, -1.25))
    if roll < 0.5:
        return rng.randint(-3, 3)
    return Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3, 4)))


def _constant_tree(rng, depth):
    """A tree without variables."""
    kind = rng.choice(("const", "const", "add", "mul", "div", "square", "dot"))
    if depth <= 0 or kind == "const":
        return Const(_number(rng))
    if kind == "dot":
        return Dot((), ())
    if kind in ("add", "mul"):
        args = tuple(_constant_tree(rng, depth - 1) for _ in range(rng.randint(0, 3)))
        return Add(args) if kind == "add" else Mul(args)
    if kind == "div":
        return Div(_constant_tree(rng, depth - 1), _constant_tree(rng, depth - 1))
    return Square(_constant_tree(rng, depth - 1))


def _random_tree(rng, depth):
    names = ("x", "y", "z")
    kinds = ("const", "var", "dot") + (
        ("add", "add", "mul", "mul", "div_const", "div_var", "square") if depth > 0 else ()
    )
    kind = rng.choice(kinds)
    if kind == "const":
        return Const(_number(rng))
    if kind == "var":
        return Var(rng.choice(names))
    if kind == "dot":
        picked = tuple(rng.choice(names) for _ in range(rng.randint(0, 3)))
        return Dot(tuple(_number(rng) for _ in picked), picked)
    if kind == "add":
        return Add(tuple(_random_tree(rng, depth - 1) for _ in range(rng.randint(0, 3))))
    if kind == "mul":
        # 0-2 factors that may hold variables, among constant-valued ones
        factors = [_random_tree(rng, depth - 1) for _ in range(rng.randint(0, 2))]
        factors += [_constant_tree(rng, depth - 1) for _ in range(rng.randint(0, 2))]
        rng.shuffle(factors)
        return Mul(tuple(factors))
    if kind == "div_const":
        return Div(_random_tree(rng, depth - 1), _constant_tree(rng, depth - 1))
    if kind == "div_var":
        return Div(_random_tree(rng, depth - 1), _random_tree(rng, depth - 1))
    return Square(_random_tree(rng, depth - 1))


def _check_ints(got, expr):
    """Every integral value of a reading is an int; whether it has a
    fractional one."""
    values = [*got[0].values(), got[1]]
    assert all(type(v) is int for v in values if Fraction(v).denominator == 1), expr
    return any(type(v) is Fraction for v in values)


def test_linear_form_matches_the_recursive_reader():
    """On seeded random trees the flat-sum reader gives None or the
    recursive reader's result (a variable whose coefficients cancel
    keeps its key); it never reads a tree the recursive reader refuses."""
    rng = random.Random(2024)
    seen = {"read": 0, "left for the leaves": 0, "not affine": 0}
    for _ in range(4000):
        expr = _random_tree(rng, rng.randint(0, 4))
        expected = reference_linear_form(expr)
        got = linear_form(expr)
        if got is None:
            seen["not affine" if expected is None else "left for the leaves"] += 1
            continue
        assert got == expected, expr
        _check_ints(got, expr)
        seen["read"] += 1
    assert min(seen.values()) > 300, seen


def _flat_term(rng):
    names = ("x", "y", "z")
    kind = rng.choice(("const", "var", "dot"))
    if kind == "const":
        term = Const(_number(rng))
    elif kind == "var":
        term = Var(rng.choice(names))
    else:
        picked = tuple(rng.choice(names) for _ in range(rng.randint(0, 3)))
        term = Dot(tuple(_number(rng) for _ in picked), picked)
    if rng.random() < 0.4:
        scales = tuple(Const(_number(rng)) for _ in range(rng.randint(0, 2)))
        term = Mul(scales + (term,))
    return term


def test_linear_form_reads_every_flat_sum():
    """On seeded random flat sums (terms that are a Dot, a Var or a
    Const, maybe scaled by Const factors) the reader always gives the
    recursive reader's result, None only where a float appears."""
    rng = random.Random(2025)
    seen = {"affine": 0, "float": 0, "fractional": 0}
    for _ in range(4000):
        terms = tuple(_flat_term(rng) for _ in range(rng.randint(0, 4)))
        expr = Add(terms) if len(terms) != 1 or rng.random() < 0.5 else terms[0]
        expected = reference_linear_form(expr)
        got = linear_form(expr)
        assert got == expected, expr
        if got is None:
            seen["float"] += 1
            continue
        seen["affine"] += 1
        seen["fractional"] += _check_ints(got, expr)
    assert min(seen.values()) > 300, seen


def test_linear_form_reads_every_synthesized_row():
    """Every constraint that synthesis and the engine write is read as
    the recursive reader reads it: the S2 rows for k = 2..7, the S3
    anchors of each essential point, the sub-layer and Algorithm 1 layer
    rows, the fixed-space anchor, the instance rows as exported, and
    (not affine, so None from both) the S1 cuts and smoothness guards."""
    sets, exported = [], []
    for k in range(2, 8):
        cycle = Cycle(tuple(range(1, k + 1)))
        sets += [s2_singular(cycle), smoothness(cycle), fixed_space_anchor(cycle)]
        for residue in range(1, k + 1):
            sets.append(sublayer(cycle, residue))
            for z in projected_essential_set(k, residue).points:
                sets += [s3_anchor(z, cycle), s1_for_point(z, cycle)]
        inst = make_instance(
            k,
            rows=[
                make_row([Fraction(j + 1, 2) for j in range(k)], "<=", 7),
                make_row([1] * k, ">=", Fraction(-3, 4)),
                make_row([(-1) ** j for j in range(k)], "==", 0),
            ],
            bounds=[(0, 3)] * k,
        )
        sets += [_layer_row(k, layer) for layer in (0, 1, k + 1)]
        exported += inst._export_rows
    read = 0
    for con in [con for cs in sets for con in cs.constraints] + exported:
        expected = reference_linear_form(con.expr)
        got = linear_form(con.expr)
        assert got == expected, con
        if got is not None:
            _check_ints(got, con.expr)
            read += 1
    assert read > 500, read


# ---------------------------------------------------------------------------
# constraint senses


def test_check_value_senses():
    eps = 1e-6
    assert check_value(-1e-6, STRICT_NEG, eps)
    assert not check_value(-1e-7, STRICT_NEG, eps)
    assert check_value(1e-6, NON_NEG, eps)
    assert not check_value(1e-7, NON_NEG, eps)
    assert check_value(0.0, EQ, eps) and check_value(1e-10, EQ, eps)
    assert not check_value(1e-8, EQ, eps)
    assert check_value(0.0, LE_ZERO, eps) and check_value(-5.0, LE_ZERO, eps)
    assert not check_value(1e-8, LE_ZERO, eps)


# ---------------------------------------------------------------------------
# programs: expressions bound to value vectors, evaluated by eval_float


def _random_expr(rng, names, depth=0):
    pick = rng.random()
    if depth > 3 or pick < 0.25:
        if rng.random() < 0.5:
            return Const(rng.randint(-4, 4))
        return Var(rng.choice(names))
    if pick < 0.45:
        return Add(tuple(_random_expr(rng, names, depth + 1) for _ in range(rng.randint(2, 3))))
    if pick < 0.6:
        return Mul(tuple(_random_expr(rng, names, depth + 1) for _ in range(2)))
    if pick < 0.75:
        return Square(_random_expr(rng, names, depth + 1))
    if pick < 0.9:
        k = rng.randint(2, len(names))
        return Dot(tuple(rng.randint(-3, 3) for _ in range(k)), tuple(names[:k]))
    # keep denominators away from zero: 1 + square
    return Div(
        _random_expr(rng, names, depth + 1),
        Add((Const(1), Square(_random_expr(rng, names, depth + 1)))),
    )


def test_backend_reports_name():
    assert evalcore.backend_name() == "python"


def test_compile_rejects_unbound_variable():
    with pytest.raises(InputError):
        evalcore.compile_expr(Add((Var("x1"), Var("y"))), {"x1": 0})
    with pytest.raises(InputError):
        evalcore.compile_expr(Dot((1, 2), ("x1", "y")), {"x1": 0})


def test_compiled_and_pure_kernels_agree():
    """A compiled program and the pure tree evaluator produce identical
    doubles on random expressions, and a program run twice at the same
    vector gives the same answer each time."""
    rng = random.Random(99)
    names = ("x1", "x2", "x3", "x4")
    index = {n: i for i, n in enumerate(names)}
    for _ in range(60):
        expr = _random_expr(rng, names)
        prog = evalcore.compile_expr(expr, index)
        for _ in range(20):
            vals = [rng.uniform(-3, 3) for _ in names]
            want = (True, eval_float(expr, dict(zip(names, vals))))
            assert prog.run(vals) == want
            assert prog.run(vals) == want


def test_program_matches_tree_evaluator():
    """Programs agree with eval_float bit for bit, and abort with
    ok=False exactly where eval_float hits a zero denominator."""
    rng = random.Random(7)
    names = ("x1", "x2", "x3", "x4")
    index = {n: i for i, n in enumerate(names)}
    zero_divs = 0
    for _ in range(100):
        expr = _random_expr(rng, names)
        if rng.random() < 0.3:
            expr = Div(expr, Var("x4"))
        prog = evalcore.compile_expr(expr, index)
        for _ in range(20):
            vals = [rng.uniform(-3, 3) for _ in names]
            if rng.random() < 0.3:
                vals[3] = 0.0
            env = dict(zip(names, vals))
            try:
                want = (True, eval_float(expr, env))
            except EvalDivisionByZero:
                zero_divs += 1
                assert prog.run(vals)[0] is False
                continue
            assert prog.run(vals) == want
    assert zero_divs > 0
