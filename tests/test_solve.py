"""The bounded enumeration engine for subproblems, and its flattening."""

import gc
import itertools
import math
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

import oracles

from corecuts import (
    Constraint,
    Cycle,
    Div,
    EngineOptions,
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
    report_to_dict,
    run_auto,
    run_plain,
    run_algorithm1,
    s1_for_point,
    s2_singular,
    smoothness,
    solve_subproblem,
    symmetry_warnings,
)
from corecuts.exprs import EQ, LE_ZERO, NON_NEG, STRICT_NEG, _interval_of
from corecuts.instancefile import analyze_group
from corecuts.perms import apply
from corecuts import exprs, simplex
from corecuts.simplex import GE, LE, LPRow, _merge_row, make_row
from corecuts.solve import (
    DEFAULT_BOX,
    DEFAULT_NODE_BUDGET,
    FEASIBLE,
    INFEASIBLE,
    UNBOUNDED,
    UNKNOWN,
    _lower,
    _propagate,
    _block_of,
    _variables,
    search_box,
)
from test_engine import _random_cycles_instance, _random_full_cycle_instance
from test_exprs import reference_linear_form


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


@pytest.mark.parametrize(
    "kwargs",
    [
        {"bounds": ((float("nan"), 2), (0, 2))},
        {"bounds": ((0, float("inf")), (0, 2))},
        {"bounds": (("0", 2), (0, 2))},
        {"bounds": ((0, True), (0, 2))},
        {"bounds": ((0,), (0, 2))},
        {"objective": (float("nan"), 1)},
        {"objective": ("1", 1)},
    ],
    ids=["nan-bound", "infinite-bound", "string-bound", "bool-bound", "short-bound",
         "nan-weight", "string-weight"],
)
def test_instance_rejects_malformed_bounds_and_objective(kwargs):
    """Each of these once escaped as a ValueError or TypeError from the
    solver or from make_instance; every solver path now refuses it when
    the instance is built."""
    with pytest.raises(InputError):
        make_instance(2, **kwargs)
    good = make_instance(2, objective=(1, Fraction(1, 2)), bounds=((0, 2.5), (None, Fraction(7, 2))))
    assert good.bounds == ((0, 2.5), (None, Fraction(7, 2)))


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


def _warnings_by_row_multiset(inst):
    """The reference rule: each generator's image of every row rebuilt as
    an LPRow, and the Counters of LPRows compared."""
    if inst.group is None:
        return []
    warnings = []
    rows = Counter(inst.rows)
    for g in inst.group.generators:
        label = f"generator {g.images}"
        if apply(g, inst.objective) != inst.objective:
            warnings.append(f"{label} does not fix the objective")
        if Counter(LPRow(apply(g, r.coeffs), r.sense, r.rhs) for r in inst.rows) != rows:
            warnings.append(f"{label} does not permute the constraint rows")
        if apply(g, inst.bounds) != inst.bounds:
            warnings.append(f"{label} does not preserve bounds")
    return warnings


def _as_written(rng, v):
    """v as an int, a Fraction or a float, where that type holds it exactly."""
    forms = [v]
    if v.denominator == 1:
        forms.append(int(v))
    if v.denominator in (1, 2, 4):
        forms.append(float(v))
    return rng.choice(forms)


def test_symmetry_warnings_match_the_row_multiset_rule():
    """On random instances under cyclic and transposition groups, with
    rows closed under the group, then permuted, perturbed, given another
    sense or rescaled, and coefficients written as equal int, Fraction
    and float values,
    symmetry_warnings returns the reference rule's list."""
    rng = random.Random(29)
    seen = Counter()
    for _ in range(400):
        n = rng.randint(2, 5)
        cycle = "(" + ",".join(map(str, range(1, n + 1))) + ")"
        choices = [[cycle], ["(1,2)"]]
        if n >= 4:
            choices.append(["(1,2)", "(1,2)(3,4)"])
        gens = rng.choice(choices)
        group = analyze_group(gens, n)
        rows = []
        for _ in range(rng.randint(0, 3)):
            orbit = [tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n))]
            sense = rng.choice((LE, GE, "=="))
            rhs = Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3)))
            for coeffs in orbit:
                for g in group.generators:
                    if (image := apply(g, coeffs)) not in orbit:
                        orbit.append(image)
            rows.extend([coeffs, sense, rhs] for coeffs in orbit)
        change = rng.choice(("none", "perturb", "resense", "rescale one", "rescale all"))
        if rows and change == "perturb":
            row = rng.choice(rows)
            j = rng.randrange(n + 1)
            if j == n:
                row[2] += Fraction(1, 2)
            else:
                row[0] = row[0][:j] + (row[0][j] + Fraction(1, 2),) + row[0][j + 1 :]
        elif rows and change == "resense":
            row = rng.choice(rows)
            row[1] = rng.choice([rel for rel in (LE, GE, "==") if rel != row[1]])
        elif rows and change.startswith("rescale"):
            for row in rows if change == "rescale all" else [rng.choice(rows)]:
                row[0], row[2] = tuple(2 * a for a in row[0]), 2 * row[2]
        rng.shuffle(rows)
        lp_rows = [
            LPRow(tuple(_as_written(rng, a) for a in coeffs), sense, _as_written(rng, rhs))
            for coeffs, sense, rhs in rows
        ]
        w = rng.choice((1, 2))
        objective = [w] * n if rng.random() < 0.8 else [w + (j == 0) for j in range(n)]
        bounds = _box(n, 0, 3) if rng.random() < 0.8 else ((0, 3),) + _box(n - 1, 0, 2)
        inst = make_instance(
            n, sense="max", objective=objective, rows=lp_rows, bounds=bounds, group=group
        )
        expected = _warnings_by_row_multiset(inst)
        assert symmetry_warnings(inst) == expected, (gens, rows)
        seen["rows" if any("rows" in w for w in expected) else "fixed rows"] += 1
        seen["mixed types"] += len({type(a) for r in lp_rows for a in r.coeffs}) > 1
    assert min(seen.values()) > 60, seen


def _report(run, inst):
    d = report_to_dict(run(inst))
    del d["wall_time"]
    for r in d["results"]:
        del r["seconds"]
    return d


def test_int_and_float_rows_read_as_exact_fractions():
    """An Instance converts int and float row entries exactly to
    Fractions, so rows written with floats (halves and quarters among
    them) give the same rows, and run_plain and run_auto the same
    reports, as the rows written with Fractions; a non-finite or
    non-number entry is refused."""
    repro = (LPRow((1.0, 0.5), LE, 1), LPRow((1, 1), LE, 1.5))
    for row in repro:
        inst = make_instance(2, rows=(row,), bounds=_box(2, 0, 2))
        assert all(type(v) is Fraction for v in (*inst.rows[0].coeffs, inst.rows[0].rhs))
        assert run_plain(inst).status == FEASIBLE
    rng = random.Random(5)
    for i in range(12):
        sense = ("feasibility", "max", "min")[i % 3]
        if i % 2:
            inst = _random_full_cycle_instance(rng, 4, sense)
        else:
            inst = _random_cycles_instance(rng, (2, 3), sense)
        d = rng.choice((1, 2, 4))
        rows = tuple(LPRow(tuple(a / d for a in r.coeffs), r.sense, r.rhs / d) for r in inst.rows)
        exact = replace(inst, rows=rows)
        written = replace(
            inst,
            rows=tuple(
                LPRow(tuple(_as_written(rng, a) for a in r.coeffs), r.sense, float(r.rhs))
                for r in rows
            ),
        )
        assert written.rows == exact.rows
        assert all(type(a) is Fraction for r in written.rows for a in (*r.coeffs, r.rhs))
        for run in (run_plain, run_auto):
            assert _report(run, written) == _report(run, exact)
    for bad in (float("inf"), float("nan"), "1", None, True):
        with pytest.raises(InputError):
            make_instance(2, rows=(LPRow((1, bad), LE, 1),))
        with pytest.raises(InputError):
            make_instance(2, rows=(LPRow((1, 1), LE, bad),))


def test_float_objective_weights_read_as_exact_fractions():
    """An Instance converts int and float objective weights exactly to
    Fractions, as it does row entries: a float weight once escaped from
    the solver as an AttributeError."""
    row = make_row([1, 1], LE, 3)
    inst = Instance(2, "max", (1.5, 1), (row,), ((0, 2), (0, 2)), (True, True))
    assert inst.objective == (Fraction(3, 2), 1)
    assert all(type(v) is Fraction for v in inst.objective)
    for run in (run_plain, run_auto):
        rep = run(inst)
        assert (rep.status, rep.point, rep.f_star) == (FEASIBLE, (2, 1), 4)


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


@pytest.mark.parametrize("sense", ["max", "min"])
def test_lp_relax_zero_objective_is_never_unbounded(sense):
    """A zero objective maximises sum(x) as a feasibility instance does,
    and scores 0: with a top layer the point lies on it, and when sum(x)
    has no maximum the outcome is Feasible with no point."""
    rows = (make_row([1, 1], LE, 3),)
    inst = make_instance(2, sense=sense, objective=[0, 0], rows=rows, bounds=_box(2, 0, 5))
    out = lp_relax(inst)
    assert (out.status, out.objective, sum(out.point)) == (FEASIBLE, 0, 3)
    inst = make_instance(2, sense=sense, objective=[0, 0], rows=(make_row([1, -1], LE, 0),))
    assert lp_relax(inst) == Outcome(FEASIBLE, objective=Fraction(0))


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


def _rounded(merged):
    """Merged rows with each exact bound rounded inward (math.ceil for lo,
    math.floor for hi), as the enumerator uses them; None when a range
    holds no integer."""
    rows = []
    for key, (lo, hi) in merged.items():
        lo = None if lo is None else math.ceil(Fraction(*lo))
        hi = None if hi is None else math.floor(Fraction(*hi))
        if lo is not None and hi is not None and lo > hi:
            return None
        rows.append((list(key), lo, hi))
    return rows


def _int_rows(rows):
    """Sparse rows (coeffs, lo, hi) merged by _merge_row and rounded
    inward; None when some row admits no integer point."""
    merged = {}
    if not all(_merge_row(merged, *row) for row in rows):
        return None
    return _rounded(merged)


def _lower_export(sub, orbital=(), decided=()):
    """The export document of sub lowered by name, constraint by
    constraint through _interval_of, with the rows of ``orbital`` (each
    a sparse ``(coeffs, lo, hi)``) after the instance rows: (integer rows
    merged, or None when some row admits no integer point; the
    constraints that stay nonlinear).  The constraints of the sets in
    ``decided`` are left out, and so are their auxiliaries from the
    variable positions."""
    flat = flatten_subproblem(sub)
    left_out = {id(c) for cs in decided for c in cs.constraints}
    aux_out = {av.name for cs in decided for av in cs.aux_vars}
    index = {v.name: i for i, v in enumerate(v for v in flat.variables if v.name not in aux_out)}
    linear, nonlinear = [], []
    for con in flat.constraints:
        if id(con) in left_out:
            continue
        row = _interval_of(con)
        if row is None:
            nonlinear.append(con)
            continue
        coeffs, lo, hi = row
        linear.append(([(index[name], a) for name, a in coeffs.items()], lo, hi))
    # the export states the instance rows first, all of them linear
    rows = len(sub.base.rows)
    return _int_rows(linear[:rows] + list(orbital) + linear[rows:]), nonlinear


def _orbital_rows(cycles):
    """The orbital rows x_c1 - x_cj >= 0 (j = 2..k) of each cycle."""
    return [
        ([(c.support[0] - 1, Fraction(1)), (i - 1, Fraction(-1))], Fraction(0), None)
        for c in cycles
        for i in c.support[1:]
    ]


def _blocks_of_sets(sub):
    """The enumerator's block entries read off sub's sets as synthesis
    records them: per cycle, in first-appearance order, its places,
    whether an S2 set, a smoothness set are on it, its S1 points, and
    its allowed rotations."""
    entries = {}
    for cs in sub.added:
        if cs.tag in ("S1", "S2", "Smooth"):
            entries.setdefault(cs.cycle, []).append(cs)
    return [
        (
            [i - 1 for i in c.support],
            any(cs.tag == "S2" for cs in sets),
            any(cs.tag == "Smooth" for cs in sets),
            tuple(cs.point for cs in sets if cs.tag == "S1"),
            c.k if c in sub.cycles and any(cs.tag == "S1" for cs in sets) else 1,
        )
        for c, sets in entries.items()
    ]


def test_export_states_the_enumerated_problem():
    """The enumerator reads instance rows by position; the export states
    them as expression trees.  On every planned subproblem of random
    symmetric instances in all three senses, lowering the export
    document by name, leaving out each S2 set's rows and binaries, and
    adding exactly the orbital rows of the subproblem's cycles gives the
    enumerator's integer rows.  The constraints that stay nonlinear are
    exactly those of the S1 and smoothness sets, which the enumerator
    decides on their blocks, as it does each S2 set (``_block_of``): one
    entry per block, with the canonical points of its cuts.  The export
    keeps each S2 set's disjunction and holds no orbital rows, so the
    enumerator decides the exported problem up to a rotation of each
    block of those cycles: a block passes when some rotation of it meets
    its S1 cuts."""
    rng = random.Random(13)
    subs = cut_subs = rotating = singular = 0
    for i in range(36):
        sense = ("feasibility", "max", "min")[i % 3]
        if i % 2:
            inst = _random_full_cycle_instance(rng, rng.choice((3, 4)), sense)
        else:
            inst = _random_cycles_instance(rng, rng.choice(((2, 2), (2, 3), (3, 3))), sense)
        for sub in plan(inst).subproblems:
            decided = [cs for cs in sub.added if _block_of(cs) is not None]
            assert decided == [cs for cs in sub.added if cs.tag in ("S1", "S2", "Smooth")], sub.id
            s2 = [cs for cs in decided if cs.tag == "S2"]
            rows, blocks = _lower(sub)
            expected, nonlinear = _lower_export(sub, _orbital_rows(sub.cycles), s2)
            assert rows == expected, (sub.id, inst.rows)
            assert nonlinear == [c for cs in decided if cs.tag != "S2" for c in cs.constraints]
            assert blocks == _blocks_of_sets(sub), sub.id
            if sub.cycles:
                assert rows is None or rows != _lower_export(sub, (), s2)[0], sub.id
            if s2:
                flat = flatten_subproblem(sub)
                assert {c for cs in s2 for c in cs.constraints} <= set(flat.constraints)
                assert len(_variables(sub, search=True)) < len(flat.variables)
                singular += 1
            subs += 1
            cut_subs += any(block[3] for block in blocks)
            rotating += bool(sub.cycles)
    assert subs > 150 and cut_subs > 50 and rotating > 50 and singular > 30


def test_lower_gives_the_recursive_readers_rows(monkeypatch):
    """On every planned subproblem of seeded Algorithm 1, 2 and 3
    instances, the integer rows and the block entries of _lower are
    those it gives with the recursive affine reader that linear_form
    replaced.  A set keeps its first reading, so the second
    _lower reads fresh copies of the sets."""
    rng = random.Random(29)
    algorithms = Counter()
    planned = []
    for i in range(60):
        sense = ("feasibility", "max", "min")[i // 3 % 3]
        if i % 3 == 0:
            inst = _random_full_cycle_instance(rng, rng.choice((3, 4, 5)), sense)
        elif i % 3 == 1:
            inst = _random_cycles_instance(rng, rng.choice(((2, 2), (2, 3), (3, 3))), sense)
        else:
            # the first cycle of two, declared alone: Algorithm 2
            inst = _random_cycles_instance(rng, (rng.choice((3, 4, 5)), 1), sense)
            inst = replace(inst, group=analyze_group([str(inst.group.selected_cycles[0])], inst.n))
        schedule = plan(inst)
        algorithms[schedule.algorithm] += 1
        planned += schedule.subproblems
    referred = Counter()

    def reference(expr):
        referred["calls"] += 1
        return reference_linear_form(expr)

    for sub in planned:
        lowered = _lower(sub)
        fresh = replace(sub, added=tuple(replace(cs) for cs in sub.added))
        before = referred["calls"]
        with monkeypatch.context() as patch:
            patch.setattr(exprs, "linear_form", reference)
            assert lowered == _lower(fresh), sub.id
        # the S1, S2 and smoothness sets are decided on their blocks, not lowered
        lowered_sets = [cs for cs in sub.added if _block_of(cs) is None]
        assert referred["calls"] - before == sum(len(cs.constraints) for cs in lowered_sets)
    assert min(algorithms[a] for a in (1, 2, 3)) >= 10 and len(planned) > 300, algorithms


def test_enumerator_refuses_unknown_variables():
    """A set's linear rows read the instance variables and the set's own
    auxiliaries: a name past x<n>, one not written as an instance
    variable, and another set's auxiliary are each an InputError."""
    base = make_instance(2, bounds=_box(2, 0, 1))
    z = AuxVar("z", "integer")

    def equal(names, aux=()):
        return ConstraintSet("Sublayer", (Constraint(Dot((1, -1), names), EQ),), tuple(aux))

    assert solve_subproblem(_sub(base, [equal(("x1", "z"), [z])])).status == FEASIBLE
    for added in (
        [equal(("x1", "x3"))],
        [equal(("x1", "y"))],
        [equal(("x1", "x02"))],
        [equal(("x1", "z"), [z]), equal(("x2", "z"))],
    ):
        with pytest.raises(InputError, match="unknown variable"):
            solve_subproblem(_sub(base, added))


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


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"box": -1}, "box must be >= 0"),
        ({"box": True}, "box must be an integer, not True"),
        ({"box": 2.0}, "box must be an integer, not 2.0"),
        ({"budget": 1.5}, "budget must be an integer, not 1.5"),
        ({"budget": True}, "budget must be an integer, not True"),
    ],
)
def test_solve_refuses_a_box_or_budget_that_is_no_count(kwargs, message):
    """sum x == 3 over [0, 3] is feasible; a negative box once made its
    range empty and certified it Infeasible."""
    inst = make_instance(3, rows=(make_row([1, 1, 1], "==", 3),), bounds=_box(3, 0, 3))
    with pytest.raises(InputError, match=message):
        solve_subproblem(_sub(inst), **kwargs)


def test_solve_empty_bounds_are_infeasible_before_the_search():
    """[1/3, 2/3] holds no integer, and no row holds that variable: the
    answer is Infeasible without a single attempt, however wide the rest
    of the box is."""
    empty = (Fraction(1, 3), Fraction(2, 3))
    narrow = make_instance(2, bounds=_box(1, 0, 3) + (empty,))
    assert solve_subproblem(_sub(narrow), budget=3).status == INFEASIBLE
    wide = make_instance(12, bounds=_box(11, 0, 3) + (empty,))
    assert solve_subproblem(_sub(wide), budget=1).status == INFEASIBLE


def _never(*support):
    """An S2 set and smoothness guards on the block of the cycle
    ``support``: Cir(block) singular, yet regular apart from its sum, so
    the sum is 0 on a block that is not constant, which no point of a
    nonnegative box is."""
    cycle = Cycle(support)
    return s2_singular(cycle), smoothness(cycle)


@pytest.mark.parametrize("budget, status", [(20, INFEASIBLE), (19, UNKNOWN)])
def test_solve_budget_counts_every_attempt(budget, status):
    """Box [0,3]^2 and a block on x1 and x2 that no point meets: the
    search tries 4 values of x1 and 4 of x2 under each, 4 + 16 = 20
    attempts, so a budget of exactly 20 searches the box out and 19 does
    not."""
    inst = make_instance(2, bounds=_box(2, 0, 3))
    assert solve_subproblem(_sub(inst, _never(1, 2)), budget=budget).status == status


@pytest.mark.parametrize("budget, status", [(4, INFEASIBLE), (3, UNKNOWN)])
def test_solve_decides_a_constraint_at_the_node_that_fixes_its_last_variable(budget, status):
    """x1 in [0, 0], x2 in [0, 2], x3 in [0, 3] and the same block on x1
    and x2: it refuses each value of x2 at the node that fixes x2, so no
    x3 is tried, and 1 + 3 = 4 attempts search the box out, not the 16
    that reach every leaf."""
    inst = make_instance(3, bounds=_box(1, 0, 0) + _box(1, 0, 2) + _box(1, 0, 3))
    assert solve_subproblem(_sub(inst, _never(1, 2)), budget=budget).status == status


def test_solve_decides_a_constraint_that_reads_no_variable_before_the_search():
    """1 <= 0 reads no variable and holds at no point: the answer is
    Infeasible before the first attempt, so a budget of 1 certifies it.
    A constant constraint that holds costs no attempt: the first point
    takes the two that fix x1 and x2."""
    inst = make_instance(2, bounds=_box(2, 0, 3))
    never = _anchor_set(Constraint(Const(1), LE_ZERO))
    assert solve_subproblem(_sub(inst, (never,)), budget=1).status == INFEASIBLE
    always = _anchor_set(Constraint(Const(-1), LE_ZERO))
    out = solve_subproblem(_sub(inst, (always,)), budget=2)
    assert (out.status, out.point) == (FEASIBLE, (0, 0))


def test_solve_refuses_a_nonlinear_set_it_cannot_decide():
    """The enumerator decides a nonlinear constraint only as an S1 cut,
    smoothness guards or an S2 set on the block that synthesis records;
    any other nonlinear constraint is an InputError, not a float
    verdict: a division in an anchor set, a constant division, an S1 cut
    without its point, and S2 or smoothness sets without their block."""
    inst = make_instance(3, bounds=_box(3, 0, 3))
    cycle = Cycle((1, 2, 3))
    for cs in (
        _anchor_set(Constraint(Div(Const(1), Dot((1,), ("x1",))), LE_ZERO)),
        _anchor_set(Constraint(Div(Const(1), Const(0)), LE_ZERO)),
        replace(s1_for_point((1, 0, 0), cycle), point=None),
        replace(s2_singular(cycle), cycle=None),
        replace(smoothness(cycle), cycle=None),
    ):
        with pytest.raises(InputError, match="nonlinear"):
            solve_subproblem(_sub(inst, (cs,)))


def test_solve_decides_s2_by_singularity_without_its_big_m():
    """x1 + x2 == 10 over [0, 10]^2: Cir(5, 5) is singular.  The
    enumerator decides singularity itself and finds (5, 5) after
    x1 = 0..5 and x2 = 5, 7 attempts, and some assignment of the
    binaries meets every exported row there, the one that frees the sum
    and pins the alternating sum: the rows need no big-M, so they hold
    the block however large its sum is."""
    inst = make_instance(
        2, rows=(make_row([1, 1], "==", 10),), bounds=_box(2, 0, 10),
        group=analyze_group(["(1,2)"], 2),
    )
    cycle = inst.group.selected_cycles[0]
    sub = Subproblem("s", inst, (s2_singular(cycle),), "S2", (), (cycle,))
    out = solve_subproblem(sub, budget=7)
    assert (out.status, out.point) == (FEASIBLE, (5, 5))
    assert [v.name for v in _variables(sub, search=True)] == ["x1", "x2"]
    flat = flatten_subproblem(sub)
    binaries = [v.name for v in flat.variables if v.kind == "binary"]
    assert binaries == ["r1_0", "r1_1"]
    met = [
        all(
            exprs.check_value(exprs.eval_float(c.expr, env), c.sense, c.eps)
            for c in flat.constraints
        )
        for bits in itertools.product((0.0, 1.0), repeat=len(binaries))
        for env in [{"x1": 5.0, "x2": 5.0, **dict(zip(binaries, bits))}]
    ]
    assert met == [False, False, True, False]


def test_solve_width_is_not_bounded_by_the_recursion_limit():
    """The search keeps its path on an explicit stack, so an instance
    wider than Python's recursion limit is searched like a narrow one."""
    n = 1200
    inst = make_instance(n, bounds=_box(n, 0, 0))
    zero = (Fraction(0),) * n
    out = solve_subproblem(_sub(inst))
    assert (out.status, out.point) == (FEASIBLE, zero)
    report = run_plain(inst)
    assert (report.status, report.point) == (FEASIBLE, zero)


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
    """A constant block makes Cir(x1, x2, x3) singular apart from its
    sum: the smoothness guards fail there, and so does an S1 cut alone,
    whose divisions are undefined there; both are decided exactly, with
    no division.  Without the rows, the guards and the cut each pass
    some point."""
    rows = (make_row([1, -1, 0], "==", 0), make_row([0, 1, -1], "==", 0))
    equal = make_instance(3, rows=rows, bounds=_box(3, 0, 3))
    free = make_instance(3, bounds=_box(3, 0, 3))
    cycle = Cycle((1, 2, 3))
    for cs in (smoothness(cycle), s1_for_point((1, 0, 0), cycle)):
        assert solve_subproblem(_sub(equal, (cs,))).status == INFEASIBLE
        assert solve_subproblem(_sub(free, (cs,))).status == FEASIBLE


def test_solve_leaves_no_cyclic_garbage():
    """The search state is freed on return: a feasible call, a
    searched-out call and a budget-cut call leave nothing for the cycle
    collector to find."""
    base = make_instance(3, rows=(make_row([1, 1, 1], "==", 4),), bounds=_box(3, 0, 3))
    # no block (x1, x2) meets both sets, so every such block is rejected
    never = _never(1, 2)
    calls = [
        (_sub(base), DEFAULT_NODE_BUDGET, FEASIBLE),
        (_sub(base, never), DEFAULT_NODE_BUDGET, INFEASIBLE),
        (_sub(base, never), 3, UNKNOWN),
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

        merged = _int_rows((enumerate(c), *_interval(sense, rhs)) for c, sense, rhs in rows)
        tightened = None if merged is None else _propagate(list(box), merged)
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
        merged = _int_rows((enumerate(c), *_interval(rel, rhs)) for c, rel, rhs in rows)
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


def _restated_range(rng, coeffs, lo, hi):
    """The row lo <= coeffs . x <= hi again as a duplicate, a negation or
    a rational multiple: the same points, stated differently."""
    kind = rng.choice(("same", "negated", "scaled"))
    k = {"same": 1, "negated": -1, "scaled": Fraction(rng.choice((2, 3, -2, -3)), 5)}[kind]
    lo, hi = (None if b is None else k * b for b in (lo, hi))
    return [k * a for a in coeffs], *((lo, hi) if k > 0 else (hi, lo))


def _rational(rng, m):
    return Fraction(rng.randint(-m, m), rng.choice((1, 1, 2, 3)))


def _admits(rows, point):
    return all(
        (lo is None or lo <= act) and (hi is None or act <= hi)
        for coeffs, lo, hi in rows
        for act in [sum(a * point[j] for j, a in coeffs)]
    )


def test_merge_row_keeps_exactly_the_integer_points():
    """_merge_row on rational rows with restated, negated and scaled
    duplicates, all-zero rows and bounds that the gcd rounds: the merged
    rows rounded inward admit exactly the integer points of the box that
    the rows admit, and a merged range is empty only when the rows admit
    no real point at all (checked by vertex enumeration over a box far
    wider than any vertex of these rows)."""
    rng = random.Random(17)
    seen = {"zero": 0, "merged": 0, "rounded": 0, "crossed": 0, "no integer": 0}
    for _ in range(400):
        n = rng.randint(1, 3)
        rows = []
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.1:
                coeffs = [Fraction(0)] * n
            else:
                # a common factor g makes the gcd round integer bounds
                g = rng.choice((1, 2, 3))
                coeffs = [g * _rational(rng, 2) for _ in range(n)]
            lo, hi = (rng.choice((None, _rational(rng, 6))) for _ in range(2))
            if rng.random() < 0.2:
                hi = lo
            rows.append((coeffs, lo, hi))
        rows += [_restated_range(rng, *rng.choice(rows)) for _ in range(rng.randint(0, 3))]
        merged = {}
        nonempty = all([_merge_row(merged, enumerate(c), lo, hi) for c, lo, hi in rows])
        sparse = [(list(enumerate(c)), lo, hi) for c, lo, hi in rows]
        box = list(itertools.product(range(-2, 3), repeat=n))
        expected = [p for p in box if _admits(sparse, p)]
        if nonempty:
            rounded = _rounded(merged)
            got = [p for p in box if rounded is not None and _admits(rounded, p)]
            seen["no integer"] += rounded is None
            seen["rounded"] += any(
                b is not None and b[0] % b[1] for bounds in merged.values() for b in bounds
            )
        else:
            got = []
            split = [(c, ">=", lo) for c, lo, _ in rows if lo is not None]
            split += [(c, "<=", hi) for c, _, hi in rows if hi is not None]
            verdict, _ = oracles.lp_vertex_oracle([0] * n, split, [(-10**6, 10**6)] * n)
            assert verdict == "infeasible", rows
            seen["crossed"] += all(any(c) for c, _, _ in rows)
        assert got == expected, rows
        seen["zero"] += any(not any(c) for c, _, _ in rows)
        seen["merged"] += len(merged) < sum(any(c) for c, _, _ in rows)
    assert min(seen.values()) > 15, seen


def test_enumerator_rows_are_the_tableau_rows_rounded_inward(monkeypatch):
    """The LP and the enumerator normalise the instance rows the same
    way: on random instances with restated rows and rational data, the
    integer rows of _lower are the ranged rows that Tableau builds, each
    bound rounded inward, in the same order."""
    merge = simplex._merge_row
    built = {}

    def spy(merged, coeffs, lo, hi):
        ok = merge(merged, coeffs, lo, hi)
        built["ranged"], built["nonempty"] = merged, built.get("nonempty", True) and ok
        return ok

    monkeypatch.setattr(simplex, "_merge_row", spy)
    rng = random.Random(19)
    empty = 0
    for _ in range(300):
        n = rng.randint(1, 4)
        rows = []
        for _ in range(rng.randint(1, 4)):
            coeffs = [Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3, 6))) for _ in range(n)]
            rhs = Fraction(rng.randint(-9, 9), rng.choice((1, 2, 4)))
            rows.append((coeffs, rng.choice((LE, GE, "==")), rhs))
        rows += [_restated(rng, *rng.choice(rows)) for _ in range(rng.randint(0, 3))]
        inst = make_instance(n, rows=[make_row(*row) for row in rows], bounds=_box(n, -2, 2))
        built.clear()
        simplex.Tableau(n, inst._merged, inst.bounds)
        lowered, _ = _lower(_sub(inst))
        assert lowered == (_rounded(built["ranged"]) if built["nonempty"] else None), rows
        empty += lowered is None
    assert 20 < empty < 200


def test_capped_propagation_stays_sound():
    """x1 - x2 <= -1 and x2 - x1 <= -1 shrink the default box by one per
    visit, far beyond the visit cap: propagation alone stops before it
    finds the pair empty, and the search must still prove it infeasible.
    Either row alone is satisfiable, and the point returned meets it."""
    pair = (make_row([1, -1], LE, -1), make_row([-1, 1], LE, -1))
    # normalised one by one: merged, the pair is one empty ranged row
    scaled = [_int_rows([(enumerate(row.coeffs), None, row.rhs)])[0] for row in pair]
    assert _propagate([(-DEFAULT_BOX, DEFAULT_BOX)] * 2, scaled) is not None
    assert solve_subproblem(_sub(make_instance(2, rows=pair))).status == INFEASIBLE
    for row in pair:
        out = solve_subproblem(_sub(make_instance(2, rows=(row,))))
        assert out.status == FEASIBLE
        assert sum(a * v for a, v in zip(row.coeffs, out.point)) <= row.rhs


def test_solve_unbounded_integers_get_default_box():
    """max x1 with no bounds: the search clips x1 to the default
    [-50, 50], so its best point 50 certifies nothing, and the answer is
    Unknown.  A feasibility search still reports a point it finds in
    the clip."""
    inst = make_instance(1, sense="max", objective=[1])
    assert solve_subproblem(_sub(inst)) == Outcome(UNKNOWN)
    out = solve_subproblem(_sub(make_instance(1, rows=(make_row([1], "==", 7),))))
    assert (out.status, out.point) == (FEASIBLE, (7,))


def test_a_clipped_box_certifies_no_verdict():
    """Five instances that leave bounds open, each answered wrongly while
    the search took the clipped box for the whole domain: an exhausted
    clip as a certificate of infeasibility (A, B, C, each feasible), or
    the clip's best point as the optimum (D, E, each unbounded).  Each
    is Unknown now.  Algorithm 1's direct fixed-space probe does not
    search the box, so run_auto still finds C's point (1, 1, 1)."""
    g3 = analyze_group(["(1,2,3)"], 3)
    a = make_instance(2, rows=(make_row([1, 1], "==", 200),))
    b = make_instance(3, rows=(make_row([1, 1, 1], "==", 301),), group=g3)
    c = make_instance(3, rows=(make_row([1, 1, 1], "==", 3),), group=g3)
    d = make_instance(1, sense="max", objective=[1])
    e = make_instance(
        3, sense="max", objective=[1, 1, 0],
        rows=(make_row([0, 0, 1], LE, 3), make_row([0, 0, 1], GE, 0)),
        group=analyze_group(["(1,2)"], 3),
    )
    box0 = EngineOptions(box=0)
    for run, inst, opts, algorithm in (
        (run_plain, a, None, 0),
        (run_auto, b, None, 1),
        (run_algorithm1, b, None, 1),
        (run_plain, c, box0, 0),
        (run_plain, d, None, 0),
        (run_auto, d, None, 0),
        (run_auto, e, None, 2),
    ):
        rep = run(inst, opts)
        assert (rep.algorithm, rep.status, rep.point) == (algorithm, UNKNOWN, None)
    rep = run_auto(c, box0)
    assert (rep.algorithm, rep.status, rep.point) == (1, FEASIBLE, (1, 1, 1))


def test_search_box_holds_the_widest_declared_bound():
    """An Instance reads its widest declared bound once; ``search_box`` is
    the larger of it and the box."""
    inst = make_instance(2, bounds=[(Fraction(-201, 2), None), (None, 3)])
    assert [search_box(inst, box) for box in (0, 50, 101, 200)] == [101, 101, 101, 200]
    assert inst._widest_bound == 101
    assert search_box(make_instance(2), 7) == 7


def test_declared_bounds_wider_than_the_box_are_searched_in_full():
    """Declared bounds are never clipped: the search uses
    ``search_box``, here the declared 100, and the planned S2 set is
    the cycle's one set, whatever the box.  Each instance is
    feasible; clipped to the fallback [-50, 50], each was answered
    Infeasible."""
    hundred = _box(1, 0, 100)
    pair = make_instance(2, rows=(make_row([1, 1], "==", 120),), bounds=hundred * 2)
    cycle = make_instance(
        3, rows=(make_row([1, 1, 1], "==", 181),), bounds=hundred * 3,
        group=analyze_group(["(1,2,3)"], 3),
    )
    rows = (make_row([1, 1, 1, 0, 0], "==", 181), make_row([0, 0, 0, 1, 1], "==", 150))
    blocks = make_instance(
        5, rows=rows, bounds=hundred * 5, group=analyze_group(["(1,2,3)", "(4,5)"], 5)
    )
    assert search_box(pair, DEFAULT_BOX) == 100
    assert [sp.added for sp in plan(cycle).subproblems if sp.tag == "S2"] == [
        (s2_singular(cycle.group.selected_cycles[0]),)
    ]
    for run, inst, algorithm in ((run_plain, pair, 0), (run_auto, cycle, 1), (run_auto, blocks, 3)):
        rep = run(inst)
        assert (rep.algorithm, rep.status) == (algorithm, FEASIBLE)
        assert all(0 <= x <= 100 for x in rep.point)
        assert all(sum(a * x for a, x in zip(r.coeffs, rep.point)) == r.rhs for r in inst.rows)


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
