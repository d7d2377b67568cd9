"""The bounded enumeration engine for subproblems, and its flattening."""

import gc
import random
from fractions import Fraction

import pytest

import oracles

from corecuts import (
    Constraint,
    ConstraintSet,
    Dot,
    Const,
    Add,
    AuxVar,
    InputError,
    Instance,
    Outcome,
    Subproblem,
    flatten_subproblem,
    lp_relax,
    make_instance,
    plan,
    run_plain,
    solve_subproblem,
    symmetry_warnings,
)
from corecuts.exprs import EQ, LE_ZERO, NON_NEG, STRICT_NEG
from corecuts.instancefile import analyze_group
from corecuts.simplex import GE, LE, LPRow, make_row
from corecuts.solve import (
    DEFAULT_BOX,
    DEFAULT_NODE_BUDGET,
    FEASIBLE,
    INFEASIBLE,
    UNBOUNDED,
    UNKNOWN,
    _interval_of,
    _lower,
    _merge_rows,
    _propagate,
    _scale_row,
)
from test_engine import _random_cycles_instance, _random_full_cycle_instance


def _sub(base, added=(), tag="PLAIN", sid="t"):
    return Subproblem(sid, base, tuple(added), tag, ("test",))


def _box(n, lo, hi):
    return ((Fraction(lo), Fraction(hi)),) * n


def _anchor_set(*constraints, aux=()):
    return ConstraintSet("S3", tuple(constraints), tuple(aux))


# ---------------------------------------------------------------------------
# instance basics


def test_make_instance_defaults():
    inst = make_instance(3)
    assert inst.sense == "feasibility"
    assert inst.objective == (0, 0, 0)
    assert inst.var_names == ("x1", "x2", "x3")
    assert all(inst.integer)


def test_instance_rejects_bad_sense():
    with pytest.raises(InputError):
        make_instance(2, sense="maximize")


def test_instance_rejects_continuous_variables():
    # (0, 1/2) is feasible, but the enumerator searches integers only and
    # would report Infeasible; continuous variables are refused instead
    with pytest.raises(InputError):
        make_instance(
            2,
            rows=(make_row([2, 2], "==", 1),),
            bounds=[(0, 3)] * 2,
            integer=[False, False],
        )


@pytest.mark.parametrize(
    "row",
    [
        LPRow((Fraction(1),), "<=", Fraction(1)),
        LPRow((Fraction(1),) * 3, ">=", Fraction(1)),
        LPRow((Fraction(1),) * 2, "<", Fraction(1)),
    ],
    ids=["too-short", "too-long", "bad-sense"],
)
def test_instance_rejects_malformed_rows(row):
    # gen.certify_infeasible zips each row against the point, so a row of
    # another width would be checked on the wrong coordinates
    with pytest.raises(InputError, match="row"):
        make_instance(2, rows=(row,), bounds=_box(2, 0, 1))


def test_symmetry_warnings_flag_asymmetric_objective():
    group = analyze_group(["(1,2,3)"], 3)
    inst = make_instance(3, sense="max", objective=[1, 2, 3], group=group)
    warns = symmetry_warnings(inst)
    assert any("objective" in w for w in warns)
    inst_ok = make_instance(3, sense="max", objective=[1, 1, 1], group=group)
    assert symmetry_warnings(inst_ok) == []


def test_symmetry_warnings_flag_unpermuted_rows():
    group = analyze_group(["(1,2,3)"], 3)
    rows = (make_row([1, 0, 0], LE, 1),)
    inst = make_instance(3, rows=rows, group=group)
    assert any("rows" in w for w in symmetry_warnings(inst))
    sym_rows = tuple(
        make_row([1 if j == i else 0 for j in range(3)], LE, 1) for i in range(3)
    )
    assert symmetry_warnings(make_instance(3, rows=sym_rows, group=group)) == []


# ---------------------------------------------------------------------------
# LP relaxation


def test_lp_relax_feasibility_sense_detects_empty():
    rows = (make_row([1, 1], LE, 0), make_row([1, 1], GE, 1))
    inst = make_instance(2, rows=rows, bounds=_box(2, 0, 5))
    assert lp_relax(inst).status == INFEASIBLE


def test_lp_relax_max():
    rows = (make_row([1, 1], LE, 3),)
    inst = make_instance(2, sense="max", objective=[1, 1], rows=rows, bounds=_box(2, 0, 5))
    out = lp_relax(inst)
    assert out.status == FEASIBLE
    assert out.objective == 3


def test_lp_relax_unbounded():
    inst = make_instance(1, sense="max", objective=[1])
    assert lp_relax(inst).status == UNBOUNDED


def test_lp_relax_feasibility_sense_is_never_unbounded():
    """sum(x) has no maximum: Feasible, with no point to report."""
    inst = make_instance(2, rows=(make_row([1, -1], LE, 0),))
    assert lp_relax(inst) == Outcome(FEASIBLE)


# ---------------------------------------------------------------------------
# flattening


def test_flatten_orders_instance_then_aux():
    base = make_instance(2, bounds=_box(2, 0, 1))
    aux = AuxVar("q9_1", "integer")
    cs = ConstraintSet(
        "Sublayer",
        (Constraint(Add((Dot((1, 1), ("x1", "x2")), Const(-1))), EQ),),
        (aux,),
    )
    flat = flatten_subproblem(_sub(base, (cs,)))
    names = [v.name for v in flat.variables]
    assert names == ["x1", "x2", "q9_1"]
    q = flat.variables[2]
    assert q.kind == "integer"


def test_flatten_binary_aux_gets_unit_box():
    base = make_instance(1, bounds=_box(1, 0, 1))
    cs = ConstraintSet(
        "S2",
        (Constraint(Dot((1,), ("r1_0",)), LE_ZERO),),
        (AuxVar("r1_0", "binary"),),
    )
    flat = flatten_subproblem(_sub(base, (cs,)))
    r = [v for v in flat.variables if v.name == "r1_0"][0]
    assert (r.lo, r.hi) == (0, 1)


def test_flatten_rejects_duplicate_aux_names():
    base = make_instance(1)
    mk = lambda: ConstraintSet(
        "S2",
        (Constraint(Dot((1,), ("r1_0",)), LE_ZERO),),
        (AuxVar("r1_0", "binary"),),
    )
    with pytest.raises(InputError):
        flatten_subproblem(_sub(base, (mk(), mk())))


def _lower_export(sub):
    """The export document of sub lowered by name, constraint by
    constraint through _interval_of: (integer rows merged, or None when
    a constant row fails; the constraints that stay nonlinear)."""
    flat = flatten_subproblem(sub)
    index = {v.name: i for i, v in enumerate(flat.variables)}
    scaled, nonlinear = [], []
    for con in flat.constraints:
        row = _interval_of(con)
        if row is None:
            nonlinear.append(con)
            continue
        coeffs, lo, hi = row
        indexed = [(index[name], a) for name, a in coeffs.items() if a != 0]
        if indexed:
            scaled.append(_scale_row(indexed, lo, hi))
        elif (hi is not None and hi < 0) or (lo is not None and lo > 0):
            return None, nonlinear
    return _merge_rows(scaled), nonlinear


def test_export_states_the_enumerated_problem():
    """The enumerator reads instance rows by position; the export states
    them as expression trees.  On every planned subproblem of random
    symmetric instances in all three senses, lowering the export
    document by name gives the enumerator's integer rows and nonlinear
    constraints."""
    rng = random.Random(13)
    subs = nonlinear_subs = 0
    for i in range(36):
        sense = ("feasibility", "max", "min")[i % 3]
        if i % 2:
            inst = _random_full_cycle_instance(rng, rng.choice((3, 4)), sense)
        else:
            inst = _random_cycles_instance(rng, rng.choice(((2, 2), (2, 3), (3, 3))), sense)
        for sub in plan(inst).subproblems:
            index = {v.name: j for j, v in enumerate(flatten_subproblem(sub).variables)}
            rows, nonlinear = _lower(sub, index)
            assert (rows, nonlinear) == _lower_export(sub), (sub.id, inst.rows)
            subs += 1
            nonlinear_subs += bool(nonlinear)
    assert subs > 150 and nonlinear_subs > 50


# ---------------------------------------------------------------------------
# the enumerator


def test_solve_feasibility_finds_point():
    rows = (make_row([1, 1], "==", 3),)
    inst = make_instance(2, rows=rows, bounds=_box(2, 0, 3))
    out = solve_subproblem(_sub(inst))
    assert out.status == FEASIBLE
    assert sum(out.point) == 3
    assert all(v.denominator == 1 for v in out.point)


def test_solve_infeasible_by_rows():
    rows = (make_row([2, 2], "==", 3),)  # odd sum of evens
    inst = make_instance(2, rows=rows, bounds=_box(2, 0, 3))
    assert solve_subproblem(_sub(inst)).status == INFEASIBLE


def test_solve_max_picks_optimum():
    rows = (make_row([1, 1], LE, 4),)
    inst = make_instance(2, sense="max", objective=[2, 1], rows=rows, bounds=_box(2, 0, 3))
    out = solve_subproblem(_sub(inst))
    assert out.status == FEASIBLE
    assert out.objective == 7  # x1=3, x2=1
    assert out.point == (3, 1)


def test_solve_min_flips():
    inst = make_instance(2, sense="min", objective=[1, 1], bounds=_box(2, -2, 2))
    out = solve_subproblem(_sub(inst))
    assert out.objective == -4


def test_solve_budget_zero_is_unknown():
    inst = make_instance(2, bounds=_box(2, 0, 1))
    assert solve_subproblem(_sub(inst), budget=0).status == UNKNOWN


def test_solve_honors_added_equalities():
    base = make_instance(2, bounds=_box(2, 0, 5))
    anchor = _anchor_set(
        Constraint(Add((Dot((1, -1), ("x1", "x2")), Const(-2))), EQ)
    )
    out = solve_subproblem(_sub(base, (anchor,)))
    assert out.status == FEASIBLE
    x1, x2 = out.point
    assert x1 - x2 == 2


def test_solve_strict_senses_respect_eps():
    base = make_instance(1, bounds=_box(1, 0, 5))
    # x - 3 < 0 with a large eps excludes x = 3 itself
    strict = _anchor_set(
        Constraint(Add((Dot((1,), ("x1",)), Const(-3))), STRICT_NEG, 0.5)
    )
    out = solve_subproblem(_sub(base, (strict,)), )
    assert out.status == FEASIBLE
    assert out.point[0] <= 2
    pos = _anchor_set(Constraint(Dot((1,), ("x1",)), NON_NEG, 0.5))
    out2 = solve_subproblem(_sub(base, (pos,)))
    assert out2.point[0] >= 1


def test_solve_nonlinear_division_guard():
    """1/x1 <= 0 can never hold for x1 in 1..3; x1 = 0 must be rejected
    by the division, not crash the search."""
    from corecuts import Div

    base = make_instance(1, bounds=_box(1, 0, 3))
    cs = _anchor_set(Constraint(Div(Const(1), Dot((1,), ("x1",))), LE_ZERO))
    assert solve_subproblem(_sub(base, (cs,))).status == INFEASIBLE


def test_solve_leaves_no_cyclic_garbage():
    """The search state is freed on return: a feasible call, a
    searched-out call and a budget-cut call leave nothing for the cycle
    collector to find."""
    from corecuts import Div

    base = make_instance(3, rows=(make_row([1, 1, 1], "==", 4),), bounds=_box(3, 0, 3))
    # 1/x1 <= 0 holds nowhere, so every leaf is evaluated and rejected
    never = _anchor_set(Constraint(Div(Const(1), Dot((1,), ("x1",))), LE_ZERO))
    calls = [
        (_sub(base), DEFAULT_NODE_BUDGET, FEASIBLE),
        (_sub(base, (never,)), DEFAULT_NODE_BUDGET, INFEASIBLE),
        (_sub(base, (never,)), 3, UNKNOWN),
    ]
    for sub, budget, _ in calls:
        solve_subproblem(sub, budget=budget)
    gc.collect()
    gc.disable()
    try:
        for sub, budget, status in calls:
            assert solve_subproblem(sub, budget=budget).status == status
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_solve_interval_propagation_prunes_wide_boxes():
    """A chain of tight equalities over a huge declared box must solve
    within a small budget: propagation has to shrink the domain before
    enumeration."""
    n = 6
    rows = tuple(
        make_row([1 if j == i else -1 if j == i + 1 else 0 for j in range(n)], "==", 0)
        for i in range(n - 1)
    ) + (make_row([1] + [0] * (n - 1), "==", 37),)
    inst = make_instance(n, rows=rows, bounds=_box(n, -1000, 1000))
    out = solve_subproblem(_sub(inst), budget=500)
    assert out.status == FEASIBLE
    assert out.point == (37,) * n


def test_propagation_keeps_every_feasible_point():
    """Integer-scaled propagation is sound: on random small boxes and
    rows with rational and negative coefficients, every integer point of
    the box that satisfies the rows stays inside the propagated bounds,
    and an empty result means there is no such point.  run_plain agrees
    with the oracle on the status and returns an exact satisfying point."""
    rng = random.Random(5)
    empties = 0
    for _ in range(250):
        n = rng.randint(1, 4)
        box = []
        for _ in range(n):
            lo = rng.randint(-4, 3)
            box.append((lo, lo + rng.randint(0, 4)))
        anchor = [rng.randint(lo, hi) for lo, hi in box]
        rows = []
        for _ in range(rng.randint(1, 3)):
            coeffs = [
                Fraction(rng.randint(-5, 5), rng.choice([1, 2, 3, 4, 6])) for _ in range(n)
            ]
            sense = rng.choice(["<=", ">=", "=="])
            rhs = sum((a * v for a, v in zip(coeffs, anchor)), Fraction(0))
            if rng.random() < 0.4:
                rhs += Fraction(rng.randint(-5, 5), rng.choice([1, 2, 3, 5]))
            rows.append((coeffs, sense, rhs))
        expected = oracles.feasible_points(rows, box)

        scaled = []
        for coeffs, sense, rhs in rows:
            indexed = [(j, a) for j, a in enumerate(coeffs) if a != 0]
            if indexed:
                lo = None if sense == "<=" else rhs
                hi = None if sense == ">=" else rhs
                scaled.append(_scale_row(indexed, lo, hi))
        tightened = _propagate(list(box), scaled)
        if tightened is None:
            assert expected == []
        else:
            assert all(isinstance(b, int) for pair in tightened for b in pair)
            for point in expected:
                assert all(lo <= v <= hi for v, (lo, hi) in zip(point, tightened))

        inst = make_instance(
            n,
            rows=[make_row(c, sense, rhs) for c, sense, rhs in rows],
            bounds=[(Fraction(lo), Fraction(hi)) for lo, hi in box],
        )
        rep = run_plain(inst)
        assert rep.status == (FEASIBLE if expected else INFEASIBLE)
        if expected:
            assert all(type(v) is Fraction and v.denominator == 1 for v in rep.point)
            assert tuple(int(v) for v in rep.point) in expected
        else:
            empties += 1
    assert 50 < empties < 200


def _referee(sense, objective, rows, box):
    """Brute force: the lexicographically first satisfying point, or for
    max/min the lexicographically first optimum, as (status, point,
    objective)."""
    points = oracles.feasible_points(rows, box)
    if not points:
        return INFEASIBLE, None, None
    if sense == "feasibility":
        return FEASIBLE, points[0], None
    sign = 1 if sense == "max" else -1
    values = [sum((c * v for c, v in zip(objective, p)), Fraction(0)) for p in points]
    best = max(sign * v for v in values)
    i = next(i for i, v in enumerate(values) if sign * v == best)
    return FEASIBLE, points[i], values[i]


def _interval(sense, rhs):
    return (None if sense == "<=" else rhs), (None if sense == ">=" else rhs)


def _restated(rng, coeffs, sense, rhs):
    """The row again as a duplicate, a negation or a rational multiple:
    the same integer points, stated differently."""
    flip = {"<=": ">=", ">=": "<=", "==": "=="}
    kind = rng.choice(("same", "negated", "scaled"))
    if kind == "same":
        return coeffs, sense, rhs
    if kind == "negated":
        return [-a for a in coeffs], flip[sense], -rhs
    k = Fraction(rng.choice((2, 3, -2, -3)), rng.choice((1, 2, 5)))
    return [k * a for a in coeffs], sense if k > 0 else flip[sense], k * rhs


def test_propagator_agrees_with_brute_force():
    """Merged, gcd-rounded rows, the watch-list queue and the incumbent
    cutoff change no answer: on small random instances with restated
    rows, rows whose gcd rounds their bounds, fractional and all-zero
    objectives, solve_subproblem returns the referee's status, point
    and objective in all three senses."""
    rng = random.Random(11)
    seen = {"feasibility": 0, "max": 0, "min": 0}
    infeasible = 0
    for _ in range(300):
        n = rng.randint(1, 4)
        box = [(-2, 2)] * n
        rows = []
        for _ in range(rng.randint(1, 3)):
            g = rng.choice((1, 1, 2, 3))
            coeffs = [g * rng.randint(-2, 2) for _ in range(n)]
            if not any(coeffs):
                continue
            # an rhs off the multiples of g makes the divided bound round
            rows.append((coeffs, rng.choice(["<=", ">=", "=="]), Fraction(rng.randint(-6, 6))))
        rows += [_restated(rng, *rng.choice(rows)) for _ in range(rng.randint(0, 3)) if rows]
        sense = rng.choice(("feasibility", "max", "min"))
        if sense == "feasibility" or rng.random() < 0.15:
            objective = [Fraction(0)] * n
        else:
            objective = [Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(n)]
        inst = make_instance(
            n,
            sense=sense,
            objective=objective,
            rows=[make_row(c, rel, rhs) for c, rel, rhs in rows],
            bounds=_box(n, -2, 2),
        )
        out = solve_subproblem(_sub(inst))
        status, point, value = _referee(sense, objective, rows, box)
        merged = _merge_rows(
            _scale_row([(j, a) for j, a in enumerate(c) if a], *_interval(rel, rhs))
            for c, rel, rhs in rows
        )
        tightened = None if merged is None else _propagate(list(box), merged)
        if tightened is None:
            assert status == INFEASIBLE
        else:
            # an empty queue is a fixpoint: a second pass over every row
            # tightens nothing
            assert _propagate(list(tightened), merged) == tightened
        assert out.status == status, (sense, objective, rows)
        assert out.point == point, (sense, objective, rows)
        if sense != "feasibility":
            assert out.objective == value, (sense, objective, rows)
        seen[sense] += 1
        infeasible += status == INFEASIBLE
    assert min(seen.values()) > 60
    assert 30 < infeasible < 200


def test_capped_propagation_stays_sound():
    """x1 - x2 <= -1 and x2 - x1 <= -1 shrink the default box by one per
    visit, far beyond the visit cap: propagation alone stops before it
    finds the pair empty, and the search must still prove it infeasible.
    Either row alone is satisfiable, and the point returned meets it."""
    pair = (make_row([1, -1], LE, -1), make_row([-1, 1], LE, -1))
    scaled = [_scale_row(list(enumerate(row.coeffs)), None, row.rhs) for row in pair]
    assert _propagate([(-DEFAULT_BOX, DEFAULT_BOX)] * 2, scaled) is not None
    assert solve_subproblem(_sub(make_instance(2, rows=pair))).status == INFEASIBLE
    for row in pair:
        out = solve_subproblem(_sub(make_instance(2, rows=(row,))))
        assert out.status == FEASIBLE
        assert sum(a * v for a, v in zip(row.coeffs, out.point)) <= row.rhs


def test_solve_unbounded_integers_get_default_box():
    inst = make_instance(1, sense="max", objective=[1])
    out = solve_subproblem(_sub(inst))
    # clipped by the default +/-50 window rather than running forever
    assert out.status == FEASIBLE
    assert out.objective == 50


def test_export_subproblem_round_trips(tmp_path):
    from corecuts import parse_problem

    base = make_instance(2, sense="max", objective=[1, 2], bounds=_box(2, 0, 4))
    cs = _anchor_set(Constraint(Add((Dot((1, 1), ("x1", "x2")), Const(-3))), EQ))
    path = tmp_path / "sub.json"
    from corecuts import export_subproblem

    export_subproblem(_sub(base, (cs,)), path)
    parsed = parse_problem(path)
    assert [v.name for v in parsed.variables] == ["x1", "x2"]
    assert parsed.sense == "max"
