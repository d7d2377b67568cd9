"""Schedules and dispatch for the three layer-search strategies."""

import copy
import dataclasses
import inspect
import math
import os
import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

import oracles
from corecuts import (
    ConstraintSet,
    EngineOptions,
    InputError,
    Subproblem,
    analyze_group,
    generate,
    instance_from_dict,
    make_instance,
    plan,
    plan_algorithm1,
    plan_algorithm2,
    plan_algorithm3,
    projected_essential_set,
    report_to_dict,
    run_algorithm1,
    run_algorithm2,
    run_algorithm3,
    run_auto,
    run_plain,
    s1_for_point,
    s2_singular,
    s3_anchor,
    smoothness,
    sublayer,
)
import corecuts
from corecuts import engine, exprs, simplex, solve
from corecuts.perms import Cycle, parse_generators
from corecuts.simplex import GE, LE, Tableau, lp_feasible, make_row


def _full_cycle_group(k):
    return analyze_group(["(" + ",".join(str(i) for i in range(1, k + 1)) + ")"], k)


def _two_cycles_group(k):
    a = "(" + ",".join(str(i) for i in range(1, k + 1)) + ")"
    b = "(" + ",".join(str(i) for i in range(k + 1, 2 * k + 1)) + ")"
    return analyze_group([a, b], 2 * k)


def _box(n, lo, hi):
    return ((Fraction(lo), Fraction(hi)),) * n


def _random_full_cycle_instance(rng, n, sense):
    """A small instance invariant under the n-cycle: every row comes with
    all its rotations, and the objective weighs every coordinate alike."""
    rows = []
    for _ in range(rng.randint(1, 2)):
        a = [rng.randint(-1, 3) for _ in range(n)]
        rel = rng.choice((LE, GE))
        rhs = rng.randint(0, 3 * sum(abs(v) for v in a) + 1)
        rows.extend(make_row(a[r:] + a[:r], rel, rhs) for r in range(n))
    objective = None if sense == "feasibility" else [rng.choice((-2, -1, 1, 2))] * n
    return make_instance(
        n, sense=sense, objective=objective, rows=rows, bounds=_box(n, 0, 3),
        group=_full_cycle_group(n),
    )


def _random_cycles_instance(rng, shape, sense, unmoved=0):
    """A small instance invariant under one cycle per entry of shape (the
    cycles cover x1..xm in order, and ``unmoved`` variables follow): an
    equality row family and an inequality row family, each closed under
    every rotation of every block, and an objective constant on each
    block; box [0, 2]."""
    m = sum(shape)
    n = m + unmoved
    starts = [sum(shape[:i]) for i in range(len(shape))]
    gens = ["(" + ",".join(str(s + j + 1) for j in range(k)) + ")" for s, k in zip(starts, shape)]
    rows = {}
    for rel in ("==", rng.choice((LE, GE))):
        a = [rng.randint(-1, 2) for _ in range(n)]
        rhs = rng.randint(0, sum(abs(v) for v in a) + 1)
        for shifts in product(*[range(k) for k in shape]):
            b = []
            for s, k, r in zip(starts, shape, shifts):
                b.extend(a[s + r : s + k] + a[s : s + r])
            b.extend(a[m:])
            rows[tuple(b), rel] = make_row(b, rel, rhs)
    weights = [rng.choice((-2, -1, 1, 2)) for _ in shape]
    weights += [rng.choice((-2, -1, 1, 2)) for _ in range(unmoved)]
    objective = None if sense == "feasibility" else [
        w for w, k in zip(weights, (*shape, *[1] * unmoved)) for _ in range(k)
    ]
    return make_instance(
        n, sense=sense, objective=objective, rows=list(rows.values()), bounds=_box(n, 0, 2),
        group=analyze_group(gens, n),
    )


# ---------------------------------------------------------------------------
# options and subproblem validation


def test_a_one_index_cycle_is_refused():
    """A 1x1 circulant is singular only at 0, so the residue schedule's
    argument (a block whose sum its length divides is singular) fails
    for one index: Algorithm 2 along (1) answered Infeasible here,
    although (1, 1) is feasible."""
    inst = make_instance(2, rows=(make_row([1, 1], LE, 4),), bounds=[(1, 2), (1, 2)])
    for support in ((1,), ()):
        with pytest.raises(InputError, match="at least two indices"):
            run_algorithm2(inst, Cycle(support))
    rep = run_plain(inst)
    assert rep.status == "Feasible" and rep.point == (1, 1)


def test_options_validate():
    for bad in (
        {"essential_budget": 0},
        {"budget": 0},
        {"budget": -5},
        {"box": -5},
        # counts are ints, and a bool is not a count
        {"budget": 1.5},
        {"budget": "3"},
        {"box": 2.5},
        {"essential_budget": True},
        {"eps": "x"},
        {"eps": True},
        # a truthy string must not turn a run dry, and a directory is a path
        {"dry_run": "no"},
        {"export_dir": 3},
        # an empty path would export nothing, and say nothing
        {"export_dir": ""},
    ):
        with pytest.raises(InputError):
            EngineOptions(**bad)
    opts = EngineOptions(budget=3, box=0, essential_budget=2, eps=1e-6)
    assert (opts.budget, opts.box, opts.essential_budget) == (3, 0, 2)


def test_public_callables_take_no_private_keywords():
    """Private per-call state stays off the public API; the one exception
    is the dict of encoded texts an exporting run shares."""
    allowed = {(name, "_texts") for name in ("export_subproblem", "write_problem", "dumps_problem")}
    private = set()
    for name in corecuts.__all__:
        obj = getattr(corecuts, name)
        if not callable(obj) or (inspect.isclass(obj) and issubclass(obj, BaseException)):
            continue
        for param in inspect.signature(obj).parameters:
            if param.startswith("_"):
                private.add((name, param))
    assert private <= allowed, private - allowed


@pytest.mark.parametrize("eps", [float("inf"), float("-inf"), float("nan"), 0.0])
def test_options_and_strict_constraints_reject_bad_eps(eps):
    """A strict cut realized with an infinite or non-positive eps is
    unsatisfiable or vacuous, which turns optima wrong: reject it."""
    from corecuts import Constraint, Dot
    from corecuts.exprs import NON_NEG, STRICT_NEG

    with pytest.raises(InputError, match="eps"):
        EngineOptions(eps=eps)
    for sense in (STRICT_NEG, NON_NEG):
        with pytest.raises(InputError, match="eps"):
            Constraint(Dot((1,), ("x1",)), sense, eps)


def test_subproblem_tag_must_match_sets():
    inst = make_instance(3)
    with pytest.raises(InputError):
        Subproblem("x", inst, (), "S1", ())
    cyc = _full_cycle_group(3).selected_cycles[0]
    ok = Subproblem("x", inst, (s2_singular(cyc),), "S2", ())
    assert ok.tag == "S2"


def test_subproblem_refuses_cycles_that_do_not_rotate_it():
    """An S3 anchor pins a rotation, so an S3 probe takes no cycles; the
    cycles must be disjoint and within 1..n, each must fix the instance
    by itself, and an S1 cut must read a block of the subproblem's
    cycles.  A cycle that fixes the instance needs no group to declare
    it, in any order of its support."""
    group = _two_cycles_group(3)
    first, second = group.selected_cycles
    inst = make_instance(6, rows=(make_row([1] * 6, "==", 5),), bounds=_box(6, 0, 2), group=group)
    probe = (sublayer(first, 1), s3_anchor((0, 0, 1), first))
    with pytest.raises(InputError, match="S3"):
        Subproblem("p", inst, probe, "S3", (), (first,))
    assert Subproblem("p", inst, probe, "S3", ()).cycles == ()
    s2 = (s2_singular(first),)
    for cycles in ((first, first), (first, Cycle((3, 4))), (Cycle((1, 7)),)):
        with pytest.raises(InputError):
            Subproblem("s", inst, s2, "S2", (), cycles)
    for cycles in ((Cycle((1, 2, 4)),), (Cycle((2, 3, 1)),), (Cycle((1, 3, 2)), second)):
        assert Subproblem("s", inst, s2, "S2", (), cycles).cycles == cycles
    assert Subproblem("s", make_instance(6), s2, "S2", (), (first,)).cycles == (first,)
    # a factor of a product generator that does not fix the instance alone
    linked = _repro_d()
    for c in linked.group.selected_cycles:
        with pytest.raises(InputError, match="alone does not fix"):
            Subproblem("s", linked, (s2_singular(c),), "S2", (), (c,))
    cut = (sublayer(first, 1), s1_for_point((0, 0, 1), first))
    with pytest.raises(InputError, match="S1"):
        Subproblem("c", inst, cut, "S1", (), (second,))
    assert Subproblem("c", inst, cut, "S1", (), [first, second]).cycles == (first, second)


def test_subproblem_reads_any_sequence_of_cycles_as_a_tuple():
    """cycles=[] is () and [c] is (c,): each subproblem so built solves
    like the one built with the tuple."""
    group = _full_cycle_group(3)
    (cycle,) = group.selected_cycles
    inst = make_instance(
        3, sense="max", objective=[1, 1, 1], rows=(make_row([1, 1, 1], "<=", 4),),
        bounds=_box(3, 0, 2), group=group,
    )
    s2 = (s2_singular(cycle),)
    for listed, cycles in (([], ()), ([cycle], (cycle,))):
        sp = Subproblem("s", inst, s2, "S2", (), listed)
        assert sp.cycles == cycles
        out = solve.solve_subproblem(sp)
        assert out.status == "Feasible"
        assert out == solve.solve_subproblem(Subproblem("s", inst, s2, "S2", (), cycles))


def test_planners_take_any_cycle_that_fixes_the_instance():
    """plan_algorithm2 and 3 take a cycle that fixes the instance even
    when no group selects it, or when its support starts elsewhere than
    the selected cycle's; their S1 and S2 subproblems search by it, and
    the verdict is plain enumeration's."""
    rows = (make_row([1] * 6, "==", 5), make_row([1, 1, 1, 0, 0, 0], "<=", 2))
    inst = make_instance(
        6, sense="max", objective=[1, 1, 1, 2, 2, 2], rows=rows, bounds=_box(6, 0, 2)
    )
    ungrouped = dataclasses.replace(inst, group=None)
    grouped = dataclasses.replace(inst, group=_two_cycles_group(3))
    ref = run_plain(inst)
    assert ref.status == "Feasible"
    for base, cycles in (
        (ungrouped, (Cycle((1, 2, 3)),)),
        (grouped, (Cycle((2, 3, 1)),)),
        (ungrouped, (Cycle((3, 1, 2)), Cycle((4, 5, 6)))),
    ):
        if len(cycles) == 1:
            schedule = plan_algorithm2(base, cycles[0], EngineOptions())
            rep = run_algorithm2(base, cycles[0])
        else:
            schedule = plan_algorithm3(base, cycles, EngineOptions())
            rep = run_algorithm3(base, cycles)
        searched = [sp for sp in schedule.subproblems if sp.tag in ("S1", "S2")]
        assert searched and all(sp.cycles == cycles for sp in searched)
        assert (rep.status, rep.f_star) == (ref.status, ref.f_star), cycles


def _orbit_instances(rng):
    """Seeded Algorithm 1, 2 and 3 instances, each in all three senses.
    Algorithm 3 gets cycle lengths 2 and 3, although run_auto answers
    the shapes (2, 2), (3, 3) and (2, 4) right too (300 draws of
    ``_random_cycles_instance`` agreed with box enumeration, and
    tests/test_pool.py covers every pool shape): with those shapes
    drawn as well, the two property tests below fail their own claims.
    A1.S2 then propagates 11 times with its cycles against 10 without,
    and no block of the 23 searched is rotated at its leaf."""
    for i in range(27):
        sense = ("feasibility", "max", "min")[i % 3]
        kind = i // 3 % 3
        if kind == 0:
            inst = _random_full_cycle_instance(rng, rng.choice((3, 4, 5)), sense)
        elif kind == 1:
            inst = _random_cycles_instance(rng, (rng.choice((3, 4, 5)), 1), sense)
            first = inst.group.selected_cycles[0]
            inst = dataclasses.replace(inst, group=analyze_group([str(first)], inst.n))
        else:
            inst = _random_cycles_instance(rng, (2, 3), sense)
        yield inst


def test_orbit_search_keeps_every_verdict_and_reports_feasible_points():
    """run_auto, whose S1 and S2 subproblems search one max-first point
    per orbit, agrees with run_plain and with box enumeration on status
    and optimum.  Every point a subproblem reports meets every instance
    row exactly, and, with the instance fixed to it, the subproblem's
    exported problem (no orbital rows) holds it."""
    rng = random.Random(41)
    algorithms, searched, rotated = Counter(), 0, 0
    for inst in _orbit_instances(rng):
        rows = [(r.coeffs, r.sense, r.rhs) for r in inst.rows]
        bounds = [(int(lo), int(hi)) for lo, hi in inst.bounds]
        points = oracles.feasible_points(rows, bounds)
        rep, plain = run_auto(inst), run_plain(inst)
        algorithms[rep.algorithm] += 1
        assert rep.status == plain.status == ("Feasible" if points else "Infeasible"), rows
        if points and inst.sense != "feasibility":
            values = [sum(c * x for c, x in zip(inst.objective, q)) for q in points]
            best = max(values) if inst.sense == "max" else min(values)
            assert rep.f_star == plain.f_star == best, rows
        subs = {sp.id: sp for sp in plan(inst).subproblems}
        for r in rep.results:
            point = r.outcome.point
            if point is None:
                continue
            assert tuple(point) in points, (r.id, point)
            if r.tag == "FIX":
                continue
            sp = subs[r.id]
            fixed = dataclasses.replace(sp.base, bounds=tuple((x, x) for x in point))
            exported = dataclasses.replace(sp, base=fixed, cycles=())
            assert solve.solve_subproblem(exported).status == "Feasible", (r.id, point)
            for c in sp.cycles:
                block = [point[i - 1] for i in c.support]
                searched += 1
                # the leaf rotated a max-first point to pass the S1 cuts
                rotated += block[0] != max(block)
    assert min(algorithms[a] for a in (1, 2, 3)) >= 6, algorithms
    assert searched > 10 and rotated, (searched, rotated)


def test_orbital_rows_never_add_propagations(monkeypatch):
    """Every S1 and S2 subproblem of seeded Algorithm 1, 2 and 3
    instances propagates no more often with its cycles than without
    them, answers the same status and optimum, and all of them together
    propagate strictly less often."""
    calls = Counter()
    propagate = solve._propagate

    def spy(*args, **kwargs):
        calls["now"] += 1
        return propagate(*args, **kwargs)

    monkeypatch.setattr(solve, "_propagate", spy)

    def count(sp):
        calls["now"] = 0
        out = solve.solve_subproblem(sp)
        return calls["now"], out

    rng = random.Random(43)
    with_rows = without = subs = 0
    for inst in _orbit_instances(rng):
        for sp in plan(inst).subproblems:
            if sp.tag not in ("S1", "S2"):
                continue
            assert sp.cycles
            (fewer, out), (more, plain) = count(sp), count(dataclasses.replace(sp, cycles=()))
            assert fewer <= more, sp.id
            assert (out.status, out.objective) == (plain.status, plain.objective), sp.id
            with_rows, without, subs = with_rows + fewer, without + more, subs + 1
    assert subs > 60 and with_rows < without, (subs, with_rows, without)


# ---------------------------------------------------------------------------
# planning counts


@pytest.mark.parametrize("k,s1,s3", [(5, 4, 16), (7, 6, 24), (8, 7, 28)])
def test_algorithm2_counts_at_budget_four(k, s1, s3):
    group = _full_cycle_group(k)
    inst = make_instance(k, group=group)
    sch = plan_algorithm2(inst, group.selected_cycles[0], EngineOptions(essential_budget=4))
    assert sch.counts() == {"S1": s1, "S2": 1, "S3": s3, "FIX": 0}


@pytest.mark.parametrize(
    "k,s1,s2,s3", [(5, 16, 2, 32), (8, 49, 2, 56)]
)
def test_algorithm3_counts_at_budget_four(k, s1, s2, s3):
    group = _two_cycles_group(k)
    inst = make_instance(2 * k, group=group)
    sch = plan_algorithm3(inst, group.selected_cycles, EngineOptions(essential_budget=4))
    assert sch.counts() == {"S1": s1, "S2": s2, "S3": s3, "FIX": 0}


def test_algorithm1_plan_on_generated_instance():
    inst = generate((1, 1, 0)).instance
    sch = plan_algorithm1(inst, EngineOptions())
    assert sch.counts() == {"S1": 1, "S2": 1, "S3": 1, "FIX": 0}
    assert sch.stop_layer == 0
    assert any("pruned" in note for note in sch.notes)


def _walked_layers(sch):
    """Every layer the walk passes before its stop layer, in walk order."""
    note = sch.notes[0]  # "LP optimum layer V, <walk> starts at L"
    start = int(note.rsplit(" ", 1)[1])
    step = 1 if "ascent" in note else -1
    return list(range(start, sch.stop_layer, step))


def test_algorithm1_prunes_exactly_the_lp_empty_layers():
    """Referee: a walked layer is LP-empty iff the rows plus
    sum(x) == L have no real solution; the pruned notes and the layer
    stages must follow that verdict layer by layer."""
    rng = random.Random(7)
    pruned_walks, kept = set(), 0
    for _ in range(200):
        n = rng.randint(3, 5)
        inst = _random_full_cycle_instance(rng, n, rng.choice(("feasibility", "max", "min")))
        if rng.random() < 0.7:
            # a band lo <= sum(x) <= hi with half-integer ends leaves
            # walked layers outside the LP layer range
            lo = Fraction(rng.randint(0, 6 * n), 2)
            hi = lo + Fraction(rng.randint(0, 2 * n), 2)
            band = (make_row([1] * n, GE, lo), make_row([1] * n, LE, hi))
            inst = dataclasses.replace(inst, rows=inst.rows + band)
        sch = plan_algorithm1(inst, EngineOptions())
        if sch.stop_layer is None:
            continue
        survivors = []
        for layer in _walked_layers(sch):
            row = make_row([1] * n, "==", layer)
            feasible = lp_feasible(n, list(inst.rows) + [row], list(inst.bounds))
            note = f"layer {layer} pruned (empty LP relaxation)"
            assert (note in sch.notes) == (not feasible), (layer, inst.rows)
            if feasible:
                survivors.append(layer)
            else:
                pruned_walks.add("ascent" if "ascent" in sch.notes[0] else "descent")
        kept += len(survivors)
        expected = [stage for layer in survivors for stage in (("S3", layer), ("S1", layer))]
        got = [(stage[0].tag, stage[0].provenance[1]) for stage in sch.stages[1:]]
        assert got == expected, inst.rows
    assert pruned_walks == {"ascent", "descent"} and kept


def _count_tableaus(monkeypatch):
    """Record the arguments of each simplex.Tableau build."""
    built = []
    real = Tableau.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        real(self, *args, **kwargs)

    monkeypatch.setattr(Tableau, "__init__", counting)
    return built


@pytest.mark.parametrize("top,stop,walked", [(6, 0, 6), (7, 7, 0)])
def test_algorithm1_plans_without_a_tableau(monkeypatch, top, stop, walked):
    """sum(x) <= 6 on a 7-cycle walks down over the six layers 6..1, and
    sum(x) <= 7 starts on its stop layer; both are planned on the fixed
    line, with no LP."""
    built = _count_tableaus(monkeypatch)
    inst = make_instance(
        7, rows=(make_row([1] * 7, LE, top),), bounds=_box(7, 0, 3),
        group=_full_cycle_group(7),
    )
    sch = plan_algorithm1(inst, EngineOptions())
    assert sch.stop_layer == stop
    assert len(_walked_layers(sch)) == walked
    assert built == []


@pytest.mark.parametrize(
    "sense,rel,rhs,bounds,walked",
    [
        # descent over negative layers, sum(x) has no minimum
        ("max", LE, -1, (None, Fraction(3)), [-1, -2]),
        # ascent from layer 1, sum(x) has no maximum
        ("min", GE, 1, (Fraction(0), None), [1, 2]),
    ],
)
def test_algorithm1_unbounded_layer_range_prunes_nothing(sense, rel, rhs, bounds, walked):
    n = 3
    inst = make_instance(
        n, sense=sense, objective=[1] * n, rows=(make_row([1] * n, rel, rhs),),
        bounds=(bounds,) * n, group=_full_cycle_group(n),
    )
    sch = plan_algorithm1(inst, EngineOptions())
    assert _walked_layers(sch) == walked
    assert not any("pruned" in note for note in sch.notes)
    assert [stage[0].provenance[1] for stage in sch.stages[1:]] == [
        layer for layer in walked for _ in range(2)
    ]


def test_feasibility_instance_without_a_top_layer_ascends(monkeypatch):
    """sum(x) >= 1 over x >= 0 has no LP maximum: a feasibility instance
    is then not Unbounded, and Algorithm 1 ascends from the LP minimum of
    sum(x), layer 1, read off the fixed line with no LP."""
    inst = make_instance(
        3, rows=(make_row([1, 1, 1], GE, 1),), bounds=[(Fraction(0), None)] * 3,
        group=analyze_group(["(1,2,3)"], 3),
    )
    built = _count_tableaus(monkeypatch)
    sch = plan_algorithm1(inst, EngineOptions())
    assert built == []
    assert (sch.lp.status, sch.lp.point) == ("Feasible", None)
    assert _walked_layers(sch) == [1, 2] and sch.stop_layer == 3
    rep, ref = run_auto(inst), run_plain(inst)
    assert rep.status == ref.status == "Feasible"
    assert sum(rep.point) >= 1 and all(v >= 0 for v in rep.point)


def test_feasibility_instance_without_layer_bounds_probes_layer_zero():
    """x_i - x_(i+1) <= 1 around a 3-cycle leaves sum(x) unbounded both
    ways: the walk is empty, and its stop layer is 0, where the direct
    probe finds the origin (here the global S2 answers first)."""
    rows = tuple(make_row(a, LE, 1) for a in ([1, -1, 0], [0, 1, -1], [-1, 0, 1]))
    inst = make_instance(3, rows=rows, group=_full_cycle_group(3))
    sch = plan_algorithm1(inst, EngineOptions())
    assert _walked_layers(sch) == [] and sch.stop_layer == 0
    rep, ref = run_auto(inst), run_plain(inst)
    assert rep.status == ref.status == "Feasible"
    assert all(sum(a * v for a, v in zip(row.coeffs, rep.point)) <= 1 for row in rows)
    assert engine._direct_fixed_probe(inst, 0).point == (0, 0, 0)


def test_direct_fixed_probe_checks_every_row_sense():
    """At layer 3 of a 3-cycle the probe's point is (1, 1, 1), where
    x1 + 2 x2 - x3 is 2: the rows <= 2, >= 2 and == 2 admit it, and each
    of <= 1, >= 3, == 1 and == 3 rejects it."""
    for rel, rhs, status in (
        (LE, 2, "Feasible"), (LE, 1, "Infeasible"),
        (GE, 2, "Feasible"), (GE, 3, "Infeasible"),
        ("==", 2, "Feasible"), ("==", 1, "Infeasible"), ("==", 3, "Infeasible"),
    ):
        inst = make_instance(3, rows=(make_row([1, 2, -1], rel, rhs),), group=_full_cycle_group(3))
        out = engine._direct_fixed_probe(inst, 3)
        assert out.status == status, (rel, rhs)
        assert out.point == ((1, 1, 1) if status == "Feasible" else None)
    # fractional coefficients and right-hand sides, pairs of rows that
    # merge into one ranged row (5/2 <= sum(x) <= 4 twice,
    # 1/2 x1 + 2 x2 - 1/3 x3 == 13/6, sum(x) <= 3), and an empty
    # instance, against the exact Fraction value of every row at
    # (layer/3) * 1
    half = Fraction(1, 2)
    skew = [half, 2, Fraction(-1, 3)]
    cases = [
        [make_row(skew, rel, rhs)]
        for rel in (LE, GE, "==")
        for rhs in (Fraction(13, 6), Fraction(2), Fraction(7, 3), Fraction(-13, 3))
    ] + [
        [make_row([1, 1, 1], LE, 4), make_row([2, 2, 2], GE, 5)],
        [make_row([-half] * 3, GE, -2), make_row([Fraction(2, 3)] * 3, GE, Fraction(5, 3))],
        [make_row(skew, LE, Fraction(13, 6)), make_row([-3, -12, 2], LE, -13)],
        [make_row([1, 1, 1], LE, 4), make_row([-1, -1, -1], GE, -3)],
        # an all-zero row that excludes 0 empties the instance
        [make_row([0, 0, 0], LE, -1), make_row([1, 1, 1], LE, 4)],
    ]
    seen = {"Feasible": 0, "Infeasible": 0}
    for rows in cases:
        inst = make_instance(3, rows=rows, group=_full_cycle_group(3))
        for layer in (-6, -3, 0, 3, 6, 9):
            value = Fraction(layer, 3)
            holds = []
            for row in rows:
                act = sum(a * value for a in row.coeffs)
                met = {LE: act <= row.rhs, GE: act >= row.rhs, "==": act == row.rhs}
                holds.append(met[row.sense])
            status = "Feasible" if all(holds) else "Infeasible"
            out = engine._direct_fixed_probe(inst, layer)
            assert out.status == status, (rows, layer)
            assert out.point == ((value,) * 3 if all(holds) else None)
            seen[status] += 1
    assert min(seen.values()) > 15, seen


def _holds(inst, point):
    """Whether point meets inst's bounds and rows, exactly."""
    if any((lo is not None and v < lo) or (hi is not None and v > hi)
           for (lo, hi), v in zip(inst.bounds, point)):
        return False
    return oracles._satisfies(point, [(r.coeffs, r.sense, r.rhs) for r in inst.rows])


@pytest.mark.parametrize("sense", ["max", "min"])
def test_zero_objective_walks_from_the_top_of_the_layer_range(sense):
    """A zero objective rewards no layer, so Algorithm 1 walks it as it
    walks a feasibility instance, from the top of the layer range: layer
    2, where (1, 1, 0) lies.  Planned from the LP vertex (1/2, 1/2, 1/2),
    the descent would start at layer 1, below every integer point, and
    answer Infeasible."""
    rows = (
        make_row([1, 1, 0], GE, 1), make_row([0, 1, 1], GE, 1), make_row([1, 0, 1], GE, 1),
        make_row([1, 1, 1], LE, 2),
    )
    inst = make_instance(
        3, sense=sense, objective=[0] * 3, rows=rows, bounds=_box(3, 0, 1),
        group=_full_cycle_group(3),
    )
    sch = plan_algorithm1(inst, EngineOptions())
    assert (sch.lp.status, sch.lp.objective) == ("Feasible", 0)
    assert sch.notes[0] == "LP optimum layer 2, descent starts at 2"
    rep, ref = run_auto(inst), run_plain(inst)
    assert rep.algorithm == 1
    assert rep.status == ref.status == "Feasible"
    assert rep.f_star == ref.f_star == 0
    assert sum(rep.point) == 2 and _holds(inst, rep.point)


def _random_line_instance(rng, n, sense):
    """A small instance the n-cycle fixes: one bound pair for every
    variable with sides left open, rows with all their rotations, some
    with coefficients that sum to 0, and one weight in -2..2 for every
    variable, 0 more often than the others."""
    lo = rng.choice((None, -1, 0))
    width = rng.randint(1, 3 if n <= 4 else 2 if n == 5 else 1)
    hi = rng.choice((None, width + (lo or 0), width + (lo or 0)))
    # each row passes near t0 * 1, on its side when the slack is >= 0
    t0 = rng.randint(-1 if lo is None else lo, 2 if hi is None else hi)
    rows = []
    for _ in range(rng.randint(1, 2)):
        a = [rng.randint(-2, 3) for _ in range(n)]
        if rng.random() < 0.25:
            a[0] -= sum(a)
        rel = rng.choice((LE, GE, LE, GE, "=="))
        slack = Fraction(rng.randint(-1, 3), 2)
        rhs = sum(a) * t0 + {LE: slack, GE: -slack, "==": 0}[rel]
        rows.extend(make_row(a[r:] + a[:r], rel, rhs) for r in range(n))
    if rng.random() < 0.5:
        # a band on sum(x) with half-integer ends prunes walked layers
        low = n * t0 + Fraction(rng.randint(-1, 2 * n), 2)
        rows += [make_row([1] * n, GE, low), make_row([1] * n, LE, low + rng.randint(0, n))]
    objective = None if sense == "feasibility" else [rng.choice((-2, -1, 0, 0, 1, 2))] * n
    return make_instance(
        n, sense=sense, objective=objective, rows=rows, bounds=[(lo, hi)] * n,
        group=_full_cycle_group(n),
    )


def test_fixed_line_plans_as_the_lp_does():
    """The fixed-line argument, against the simplex: on seeded instances
    an n-cycle fixes (n = 2..7, every sense), the planned LP status and
    objective are the Tableau's for the objective (sum(x) for a
    feasibility instance), the planned point is an LP point of that
    objective, the layer range is the Tableau's min and max of sum(x)
    and exactly the walked layers outside it are pruned, the direct
    probe agrees with a row check at every multiple of n from -3n to 3n,
    and run_auto agrees with box enumeration wherever the box is
    declared."""
    rng = random.Random(61)
    seen = Counter()
    for i in range(240):
        n = 2 + i % 6
        sense = ("feasibility", "max", "min")[i // 6 % 3]
        inst = _random_line_instance(rng, n, sense)
        sch = plan_algorithm1(inst, EngineOptions())
        ones = (1,) * n
        tableau = Tableau(n, inst._merged, inst.bounds)
        if sense == "feasibility":
            res = tableau.optimize(ones, maximize=True)
            unbounded = ("Feasible", None)
        else:
            res = tableau.optimize(inst.objective, maximize=sense == "max")
            unbounded = ("Unbounded", None)
        want = {
            "optimal": ("Feasible", res.objective),
            "infeasible": ("Infeasible", None),
            "unbounded": unbounded,
        }[res.status]
        assert (sch.lp.status, sch.lp.objective) == want, inst
        seen[f"lp {sch.lp.status}"] += 1
        seen["zero weight"] += sense != "feasibility" and not inst.objective[0]
        if sch.lp.point is not None:
            assert _holds(inst, sch.lp.point)
            value = sum(sch.lp.point) if sense == "feasibility" else engine._objective_of(
                inst, sch.lp.point
            )
            assert value == sch.lp.objective
        t_lo, t_hi, empty = engine._fixed_line(inst)
        assert empty == (res.status == "infeasible")
        if not empty:
            ends = []
            for t, maximize in ((t_lo, False), (t_hi, True)):
                end = tableau.optimize(ones, maximize=maximize)
                ends.append(end.objective if end.status == "optimal" else None)
                assert ends[-1] == (None if t is None else n * t), inst
            low, high = ends
            for layer in _walked_layers(sch) if sch.stop_layer is not None else ():
                outside = (low is not None and layer < low) or (high is not None and layer > high)
                assert (f"layer {layer} pruned (empty LP relaxation)" in sch.notes) == outside
                seen["pruned"] += outside
        for v in range(-3, 4):
            point = (Fraction(v),) * n
            probe = engine._direct_fixed_probe(inst, n * v)
            assert (probe.status == "Feasible") == _holds(inst, point), (inst, v)
            assert probe.point == (point if probe.status == "Feasible" else None)
            seen[f"probe {probe.status}"] += 1
        lo, hi = inst.bounds[0]
        if lo is None or hi is None:
            continue
        rep = run_auto(inst)
        assert rep.algorithm == 1
        points = _oracle_points(inst)
        assert rep.status == ("Feasible" if points else "Infeasible"), inst
        seen[f"run {rep.status}"] += 1
        if points:
            assert tuple(rep.point) in set(points)
            if sense != "feasibility":
                values = [engine._objective_of(inst, p) for p in points]
                assert rep.f_star == (max if sense == "max" else min)(values), inst
                seen["zero weight, solved"] += not inst.objective[0]
    assert min(seen[f"lp {s}"] for s in ("Feasible", "Infeasible", "Unbounded")) > 2, seen
    assert min(seen[k] for k in ("pruned", "probe Feasible", "probe Infeasible")) > 10, seen
    assert min(seen["run Feasible"], seen["run Infeasible"], seen["zero weight, solved"]) > 5, seen


def test_plan_selects_algorithm_by_group():
    full = make_instance(4, group=_full_cycle_group(4))
    assert plan(full).algorithm == 1
    partial = make_instance(5, group=analyze_group(["(1,2,3)"], 5))
    assert plan(partial).algorithm == 2
    double = make_instance(10, group=_two_cycles_group(5))
    assert plan(double).algorithm == 3
    plain = make_instance(3)
    assert plan(plain).algorithm == 0


def test_planners_refuse_a_cycle_that_leaves_the_variables():
    """A hand-built group whose selected cycle names x5 of a 3-variable
    instance is refused with InputError by every planner and run, before
    the symmetry check reads the cycle as a permutation of x1..x3."""
    group = parse_generators(["(1,2,3)"], n=3)
    group.selected_cycles = [Cycle((1, 2, 5))]
    inst = make_instance(3, rows=(make_row([1, 1, 1], "==", 3),), bounds=_box(3, 0, 2), group=group)
    cycle = group.selected_cycles[0]
    calls = (
        lambda: plan(inst),
        lambda: run_auto(inst),
        lambda: plan_algorithm1(inst, EngineOptions()),
        lambda: run_algorithm1(inst),
        lambda: plan_algorithm2(inst, cycle, EngineOptions()),
        lambda: plan_algorithm3(inst, (cycle, Cycle((4, 6))), EngineOptions()),
    )
    for call in calls:
        with pytest.raises(InputError, match="escapes the variable range"):
            call()


def test_algorithm1_requires_full_cycle():
    inst = make_instance(5, group=analyze_group(["(1,2,3)"], 5))
    with pytest.raises(InputError):
        plan_algorithm1(inst, EngineOptions())


def test_algorithm3_requires_two_cycles():
    group = _full_cycle_group(4)
    inst = make_instance(4, group=group)
    with pytest.raises(InputError):
        plan_algorithm3(inst, group.selected_cycles, EngineOptions())


def test_residue_sets_are_built_once_and_shared():
    """Every residue tuple's cut holds the very set objects of its
    cycles' residue cuts, and each probe of (cycle, residue) holds that
    residue's sub-layer row."""
    inst = _random_cycles_instance(random.Random(0), (3, 4), "max")
    schedule = plan(inst, EngineOptions(essential_budget=4))
    assert schedule.algorithm == 3
    probes = {}
    for sp in schedule.subproblems:
        if sp.tag == "S3":
            _, s, t, _ = sp.provenance
            probes.setdefault((s, t), []).append(sp.added)
    cuts = {}
    for sp in schedule.subproblems:
        if sp.tag != "S1":
            continue
        sets = sp.added
        for s, t in zip((1, 4), sp.provenance[1:]):
            size = 2 + len(probes[s, t])
            cut, sets = sets[:size], sets[size:]
            first = cuts.setdefault((s, t), cut)
            assert all(a is b for a, b in zip(cut, first))
            assert all(p[0] is cut[0] for p in probes[s, t])
        assert sets == ()
    assert len(cuts) == 2 + 3


def _unfixed_instances():
    """Two instances that the declared 3-cycle does not fix: a fixed
    point off the fixed space, and an objective on x1 alone."""
    group = _full_cycle_group(3)
    pinned = make_instance(
        3,
        rows=[make_row(a, "==", b) for a, b in (([1, 0, 0], 2), ([0, 1, 0], 0), ([0, 0, 1], 0))],
        bounds=_box(3, 0, 3),
        group=group,
    )
    skewed = make_instance(
        3, sense="max", objective=[1, 0, 0], rows=(make_row([1, 1, 1], LE, 4),),
        bounds=_box(3, 0, 3), group=group,
    )
    return pinned, skewed


@pytest.mark.parametrize("which, point", [(0, (2, 0, 0)), (1, (3, 0, 0))])
def test_run_auto_plans_plain_when_the_group_does_not_fix_the_instance(which, point):
    inst = _unfixed_instances()[which]
    schedule = plan(inst)
    assert schedule.algorithm == 0
    assert schedule.warnings and len(schedule.notes) == 1
    rep = run_auto(inst)
    assert (rep.algorithm, rep.status, rep.point) == (0, "Feasible", point)
    assert rep.warnings == schedule.warnings
    assert report_to_dict(rep)["warnings"] == list(schedule.warnings)
    ref = run_plain(inst)
    assert (rep.point, rep.f_star) == (ref.point, ref.f_star)


def _unfixed_forced_cases():
    """(algorithm, instance, cycle arguments) for each forced algorithm,
    on instances their declared group does not fix."""
    row = make_row([1, 0, 0], "==", 1)
    partial = make_instance(3, rows=(row,), group=analyze_group(["(1,2)"], 3))
    double = make_instance(4, rows=(make_row([0, 0, 1, 0], "==", 1),), group=_two_cycles_group(2))
    return [(1, inst, ()) for inst in _unfixed_instances()] + [
        (2, partial, (partial.group.selected_cycles[0],)),
        (3, double, (double.group.selected_cycles,)),
    ]


def test_forced_algorithms_refuse_an_instance_the_group_does_not_fix():
    runs = {1: run_algorithm1, 2: run_algorithm2, 3: run_algorithm3}
    for algorithm, inst, args in _unfixed_forced_cases():
        with pytest.raises(InputError, match="does not fix"):
            runs[algorithm](inst, *args)


def test_public_planners_refuse_an_instance_the_group_does_not_fix():
    """A caller that solves a planner's schedule itself must not get a
    false certificate: on the pinned 3-cycle instance, (2, 0, 0) is
    feasible, yet every subproblem of the Algorithm 1 schedule planned
    for it would be Infeasible."""
    plans = {1: plan_algorithm1, 2: plan_algorithm2, 3: plan_algorithm3}
    for algorithm, inst, args in _unfixed_forced_cases():
        with pytest.raises(InputError, match="does not fix"):
            plans[algorithm](inst, *args, EngineOptions())
    assert run_plain(_unfixed_instances()[0]).point == (2, 0, 0)


def _joint_orbit(a, rel, rhs):
    """The rows a.x rel rhs under each power of (1,2,3)(4,5,6)."""
    return [
        make_row(a[3 - r : 3] + a[: 3 - r] + a[6 - r :] + a[3 : 6 - r], rel, rhs) for r in range(3)
    ]


def _repro_d():
    """Two 3-blocks joined by one product generator: block sums 3 and 4
    and the orbit of -2x1 + 2x4 + x6 >= 2 under the joint rotation.
    Neither cycle alone fixes the rows, and (0, 1, 2, 0, 2, 2) is
    feasible."""
    rows = [make_row([1, 1, 1, 0, 0, 0], "==", 3), make_row([0, 0, 0, 1, 1, 1], "==", 4)]
    rows += _joint_orbit([-2, 0, 0, 2, 0, 1], GE, 2)
    return make_instance(
        6, rows=rows, bounds=_box(6, 0, 3), group=analyze_group(["(1,2,3)(4,5,6)"], 6)
    )


def test_plan_skips_cycles_that_do_not_fix_the_instance_alone():
    inst = _repro_d()
    assert not solve.symmetry_warnings(inst)
    assert [str(c) for c in inst.group.selected_cycles] == ["(1,2,3)", "(4,5,6)"]
    schedule = plan(inst)
    assert schedule.algorithm == 0 and not schedule.warnings
    assert schedule.notes == (
        "cycle (1,2,3) alone does not permute the constraint rows; not planned",
        "cycle (4,5,6) alone does not permute the constraint rows; not planned",
        "no selected cycle fixes the instance by itself; plain enumeration",
    )
    rep = run_auto(inst)
    assert (rep.algorithm, rep.status, rep.point) == (0, "Feasible", (0, 1, 2, 0, 2, 2))
    assert rep.point == run_plain(inst).point
    with pytest.raises(InputError, match="alone does not fix"):
        run_algorithm3(inst, inst.group.selected_cycles)
    with pytest.raises(InputError, match="alone does not fix"):
        plan_algorithm2(inst, inst.group.selected_cycles[0], EngineOptions())


def _linked_blocks_instance(rng, sense):
    """Two 3-blocks under the product generator (1,2,3)(4,5,6), box
    [0, 3]: the block sums fixed (3 and 4, or drawn) and the orbit of
    one random row under the joint rotation, which sometimes stays
    inside one block; the objective weighs each block alike."""
    sums = (3, 4) if rng.random() < 0.6 else (rng.randint(0, 9), rng.randint(0, 9))
    rows = [make_row([1, 1, 1, 0, 0, 0], "==", sums[0]), make_row([0, 0, 0, 1, 1, 1], "==", sums[1])]
    a = [rng.randint(-2, 2) for _ in range(6)]
    if rng.random() < 0.25:
        a[3:] = [0, 0, 0]
    rows += _joint_orbit(a, rng.choice((LE, GE)), rng.randint(-3, 4))
    weights = [rng.choice((-2, -1, 1, 2)) for _ in range(2)]
    objective = None if sense == "feasibility" else [weights[0]] * 3 + [weights[1]] * 3
    return make_instance(
        6, sense=sense, objective=objective, rows=rows, bounds=_box(6, 0, 3),
        group=analyze_group(["(1,2,3)(4,5,6)"], 6),
    )


def test_run_auto_agrees_with_run_plain_on_linked_blocks():
    """On seeded linked-block instances run_auto gives run_plain's status
    and optimum, whether it plans both cycles, one, or none."""
    rng = random.Random(47)
    seen = Counter()
    for i in range(90):
        inst = _linked_blocks_instance(rng, ("feasibility", "max", "min")[i % 3])
        rep, ref = run_auto(inst), run_plain(inst)
        assert (rep.status, rep.f_star) == (ref.status, ref.f_star), inst
        if rep.point is not None:
            assert oracles._satisfies(rep.point, [(r.coeffs, r.sense, r.rhs) for r in inst.rows])
        seen[rep.algorithm, rep.status] += 1
    assert seen[0, "Feasible"] > 5 and seen[3, "Feasible"] > 5, seen
    assert seen[0, "Infeasible"] + seen[3, "Infeasible"] > 5, seen


# ---------------------------------------------------------------------------
# dispatch semantics


def test_run_algorithm1_infeasible_generated_instance():
    """The global S2 of a generated hard instance rejects no block: the
    instance rows and the orbital rows refute every node.  So its search
    proves the instance empty, and the run ends there: no probe, cut or
    direct fixed-space evaluation runs, while the counts still describe
    the whole plan."""
    inst = generate((1, 1, 0)).instance
    rep = run_algorithm1(inst)
    assert rep.status == "Infeasible"
    assert rep.counts == {"S1": 1, "S2": 1, "S3": 1, "FIX": 0}
    assert [(r.id, r.outcome.status) for r in rep.results] == [("S2", "Infeasible")]
    assert rep.results[0].outcome._proof
    assert rep.notes[-1] == "S2" + PROOF_NOTE


def test_run_algorithm1_max_stops_at_first_feasible_layer():
    group = _full_cycle_group(3)
    inst = make_instance(
        3,
        sense="max",
        objective=[1, 1, 1],
        rows=(make_row([1, 1, 1], LE, 4),),
        bounds=_box(3, 0, 3),
        group=group,
    )
    rep = run_algorithm1(inst)
    assert rep.status == "Feasible"
    assert rep.f_star == 4
    assert sum(rep.point) == 4
    # descent stopped before dispatching the layer-4 cut subproblem
    assert len(rep.results) < len(rep.schedule)


def test_run_algorithm1_feasibility_early_stop_via_singular_point():
    group = _full_cycle_group(3)
    inst = make_instance(
        3,
        rows=(make_row([1, 1, 1], "==", 3),),
        bounds=_box(3, 0, 2),
        group=group,
    )
    rep = run_algorithm1(inst)
    assert rep.status == "Feasible"
    # (1,1,1) satisfies the global singularity subproblem outright
    assert rep.results[0].id == "S2"
    assert rep.results[0].outcome.status == "Feasible"
    assert rep.point == (1, 1, 1)


@pytest.mark.parametrize("sense,weight,f_star", [("min", 1, 4), ("max", -1, -4)])
def test_run_algorithm1_walks_up_when_lower_layers_are_better(sense, weight, f_star):
    group = _full_cycle_group(3)
    inst = make_instance(
        3,
        sense=sense,
        objective=[weight] * 3,
        rows=(make_row([2, 2, 2], GE, 7),),
        bounds=_box(3, 0, 3),
        group=group,
    )
    # the LP optimum layer is 7/2; the best integer layer is 4 (e.g. (2,1,1)),
    # which a walk down from layer 3 never visits
    rep = run_algorithm1(inst)
    assert rep.status == "Feasible"
    assert rep.f_star == f_star


def test_loose_max_instance_with_singular_blocks_is_certified_within_budget():
    """Cycles (1,2) and (3,...,8) under x_i + x_j <= 3 on the box [0, 2]:
    the incumbent cutoff row lets both the S2 subproblems and the plain
    search prove the optimum 26 within 5000 nodes a subproblem (they
    need at most 1,364 and 67; without the cutoff 37,589 and 5,010, and
    the answer is Unknown)."""
    n = 8
    rows = []
    for i in range(2):
        for j in range(2, n):
            coeffs = [0] * n
            coeffs[i] = coeffs[j] = 1
            rows.append(make_row(coeffs, LE, 3))
    inst = make_instance(
        n, sense="max", objective=[1, 1] + [2] * 6, rows=rows, bounds=_box(n, 0, 2),
        group=analyze_group(["(1,2)", "(3,4,5,6,7,8)"], n),
    )
    opts = EngineOptions(budget=5000)
    for run in (run_auto, run_plain):
        rep = run(inst, opts)
        assert rep.status == "Feasible", run.__name__
        assert rep.f_star == 26
        assert rep.point == (1, 1, 2, 2, 2, 2, 2, 2)


def test_run_auto_agrees_with_run_plain_on_full_cycles():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.choice((3, 4))
        sense = rng.choice(("max", "min", "feasibility"))
        inst = _random_full_cycle_instance(rng, n, sense)
        auto, plain = run_auto(inst), run_plain(inst)
        assert auto.algorithm == 1
        assert (auto.status, auto.f_star) == (plain.status, plain.f_star), (sense, inst.rows)


def test_run_algorithm2_feasibility_stops_at_first_feasible():
    group = analyze_group(["(1,2,3)"], 4)
    inst = make_instance(
        4, rows=(make_row([1, 1, 1, 1], "==", 4),), bounds=_box(4, 0, 2), group=group
    )
    rep = run_algorithm2(inst, group.selected_cycles[0])
    assert rep.status == "Feasible"
    assert rep.point == (1, 1, 1, 1)
    assert len(rep.results) < len(rep.schedule)


def test_run_algorithm3_feasibility_stops_at_first_feasible():
    group = analyze_group(["(1,2,3)", "(4,5,6)"], 6)
    inst = make_instance(
        6, rows=(make_row([1] * 6, "==", 5),), bounds=_box(6, 0, 2), group=group
    )
    rep = run_algorithm3(inst, group.selected_cycles)
    assert rep.status == "Feasible"
    # the S2 subproblem searches max-first points of both 3-cycles: the
    # lexicographically first, (0,0,0,1,2,2), comes back rotated
    assert rep.point == (0, 0, 0, 2, 1, 2)
    first, second = (0, 0, 0), (1, 2, 2)
    rotations = {first[a:] + first[:a] + second[b:] + second[:b] for a in range(3) for b in range(3)}
    assert rep.point in rotations
    assert len(rep.results) < len(rep.schedule)


@pytest.mark.parametrize(
    "shape", [(2, 2), (3, 3), (2, 4), (4, 4), (2, 6)], ids=lambda s: "+".join(map(str, s))
)
def test_run_auto_agrees_with_oracle_on_cycle_blocks(shape):
    # seed 3 draws instances of shapes (2,4) and (4,4) that a planner
    # probing one cycle per length, or covering singular blocks only at
    # residue k, answers wrongly
    rng = random.Random(f"{shape} seed 3")
    for _ in range(6):
        sense = rng.choice(("max", "min", "feasibility"))
        inst = _random_cycles_instance(rng, shape, sense)
        rows = [(r.coeffs, r.sense, r.rhs) for r in inst.rows]
        points = oracles.feasible_points(rows, [(0, 2)] * inst.n)
        rep = run_auto(inst)
        ids = [sid for sid, _, _ in rep.schedule]
        assert rep.algorithm == 3 and len(set(ids)) == len(ids)
        assert rep.status == ("Feasible" if points else "Infeasible"), (sense, rows)
        if points:
            assert tuple(rep.point) in points
            if sense != "feasibility":
                values = [sum(c * x for c, x in zip(inst.objective, p)) for p in points]
                assert rep.f_star == (max(values) if sense == "max" else min(values))


# pool instance 61: feasible only at points such as (0,0,0,1,0,0), whose
# first block is singular and whose second is an essential point of the
# 3-cycle; a planner that probes one cycle per length and covers singular
# blocks only beside cut blocks schedules no subproblem holding them
POOL_61 = {
    "format": 1, "n": 6,
    "objective": {"sense": "feasibility", "coeffs": ["0", "0", "0", "0", "0", "0"]},
    "rows": [
        {"coeffs": ["1", "1", "1", "0", "0", "0"], "sense": ">=", "rhs": "0"},
        {"coeffs": ["1", "1", "0", "-1", "-1", "-1"], "sense": "==", "rhs": "-1"},
        {"coeffs": ["0", "1", "1", "-1", "-1", "-1"], "sense": "==", "rhs": "-1"},
        {"coeffs": ["1", "0", "1", "-1", "-1", "-1"], "sense": "==", "rhs": "-1"},
        {"coeffs": ["1", "1", "1", "-1", "-1", "-1"], "sense": "==", "rhs": "-1"},
    ],
    "bounds": [{"lo": "0", "hi": "1", "integer": True}] * 6,
    "group": {"generators": ["(1,2,3)", "(4,5,6)"]},
}

# pool instance 170: the optimum 8 has the 4-cycle block (1,0,1,0),
# singular at residue 2 < 4, and the 2-cycle block (1,1)
POOL_170 = {
    "format": 1, "n": 6,
    "objective": {"sense": "max", "coeffs": ["1", "1", "3", "3", "3", "3"]},
    "rows": [
        {"coeffs": ["0", "0", "2", "-1", "-1", "-1"], "sense": "<=", "rhs": "1"},
        {"coeffs": ["0", "0", "-1", "2", "-1", "-1"], "sense": "<=", "rhs": "1"},
        {"coeffs": ["0", "0", "-1", "-1", "2", "-1"], "sense": "<=", "rhs": "1"},
        {"coeffs": ["0", "0", "-1", "-1", "-1", "2"], "sense": "<=", "rhs": "1"},
        {"coeffs": ["0", "0", "0", "-1", "-1", "0"], "sense": "==", "rhs": "-1"},
        {"coeffs": ["0", "0", "0", "0", "-1", "-1"], "sense": "==", "rhs": "-1"},
        {"coeffs": ["0", "0", "-1", "0", "0", "-1"], "sense": "==", "rhs": "-1"},
        {"coeffs": ["0", "0", "-1", "-1", "0", "0"], "sense": "==", "rhs": "-1"},
    ],
    "bounds": [{"lo": "0", "hi": "1", "integer": True}] * 6,
    "group": {"generators": ["(1,2)", "(3,4,5,6)"]},
}


def test_pool_61_two_equal_cycles_is_feasible():
    rep = run_auto(instance_from_dict(POOL_61))
    assert rep.algorithm == 3
    assert rep.status == "Feasible"
    assert sum(rep.point[3:]) - sum(rep.point[:3]) == 1


def test_pool_170_singular_block_below_its_cycle_length():
    rep = run_auto(instance_from_dict(POOL_170))
    assert rep.algorithm == 3
    assert rep.status == "Feasible"
    assert rep.f_star == 8
    assert rep.point[2:] in ((1, 0, 1, 0), (0, 1, 0, 1))


def _four_cycle_rows(offset, a, rel, rhs):
    """The row a.x rel rhs on the 4-cycle block x[offset:offset+4] of
    eight variables, with its rotations."""
    rows = []
    for r in range(4):
        coeffs = [0] * 8
        coeffs[offset : offset + 4] = a[r:] + a[:r]
        rows.append(make_row(coeffs, rel, rhs))
    return rows


# block rows (a, rel, rhs) on a 4-cycle: every solution of UNPROBED is a
# regular block that no probe anchors at essential budget 1 (a rotation
# of (0,1,0,2)); SINGULAR allows only (1,0,1,0) and (0,1,0,1), singular
# at residue 2; PROBED allows only rotations of (1,0,0,0), which only
# their own cycle's residue-1 probe holds
UNPROBED = [([1, 1, 1, 1], "==", 3), ([-1, 0, 2, 0], GE, 0)]
SINGULAR = [([1, 1, 0, 0], "==", 1)]
PROBED = [([1, 1, 1, 1], "==", 1)]


@pytest.mark.parametrize("partner", ["singular", "probed"])
@pytest.mark.parametrize("partner_first", [False, True])
def test_every_cycle_gets_its_own_s2_and_probes(partner, partner_first):
    blocks = [UNPROBED, SINGULAR if partner == "singular" else PROBED]
    if partner_first:
        blocks.reverse()
    rows = [
        row
        for offset, block in zip((0, 4), blocks)
        for a, rel, rhs in block
        for row in _four_cycle_rows(offset, a, rel, rhs)
    ]
    group = analyze_group(["(1,2,3,4)", "(5,6,7,8)"], 8)
    inst = make_instance(8, rows=rows, bounds=_box(8, 0, 2), group=group)
    rep = run_auto(inst)
    assert rep.status == "Feasible"
    for r in rows:
        act = sum(c * x for c, x in zip(r.coeffs, rep.point))
        assert act == r.rhs if r.sense == "==" else act >= r.rhs


def test_run_algorithm2_finds_layer_point():
    group = analyze_group(["(1,2,3)"], 3)
    inst = make_instance(
        3,
        rows=(make_row([1, 1, 1], "==", 4),),
        bounds=_box(3, 0, 2),
        group=group,
    )
    rep = run_algorithm2(inst, group.selected_cycles[0])
    assert rep.status == "Feasible"
    assert sum(rep.point) == 4


def test_run_plain_enumerates_without_symmetry():
    inst = make_instance(2, rows=(make_row([1, 1], "==", 3),), bounds=_box(2, 0, 2))
    rep = run_plain(inst)
    assert rep.algorithm == 0
    assert rep.status == "Feasible"


def test_run_auto_selects_and_reports_algorithm():
    inst = generate((1, 1, 0)).instance
    rep = run_auto(inst)
    assert rep.algorithm == 1
    assert rep.status == "Infeasible"
    plain = make_instance(1, bounds=_box(1, 0, 1))
    assert run_auto(plain).algorithm == 0


def test_dry_run_dispatches_nothing():
    inst = generate((1, 1, 0)).instance
    rep = run_algorithm1(inst, EngineOptions(dry_run=True))
    assert rep.counts == {"S1": 1, "S2": 1, "S3": 1, "FIX": 0}
    assert all(r.outcome.status == "Unknown" for r in rep.results)
    assert not [r for r in rep.results if r.tag == "FIX"]
    assert rep.status == "Unknown"


def _spy_on_reads(monkeypatch):
    """Count the instance-row reads of simplex._row_interval, the one
    reader that merging uses, and the solve._merge_rows calls, keyed by
    the identity of the rows they merge; list each constraint that
    exprs._interval_of lowers, and each subproblem the run dispatches,
    with its keyword arguments and outcome."""
    reads, merges, lowered, dispatched = Counter(), Counter(), [], []
    row_interval = simplex._row_interval

    def read(row):
        reads["rows"] += 1
        return row_interval(row)

    monkeypatch.setattr(simplex, "_row_interval", read)
    merge_rows = solve._merge_rows

    def merge(n, rows):
        merges[id(rows)] += 1
        return merge_rows(n, rows)

    monkeypatch.setattr(solve, "_merge_rows", merge)
    interval_of = exprs._interval_of

    def lower(con):
        lowered.append(con)
        return interval_of(con)

    monkeypatch.setattr(exprs, "_interval_of", lower)
    solve_subproblem = engine.solve_subproblem

    def dispatch(sp, **kwargs):
        out = solve_subproblem(sp, **kwargs)
        dispatched.append((sp, kwargs, out))
        return out

    monkeypatch.setattr(engine, "solve_subproblem", dispatch)
    return reads, merges, lowered, dispatched


def _fresh(sp):
    """sp over fresh copies of its instance and sets, which hold no
    reading yet."""
    added = tuple(dataclasses.replace(cs) for cs in sp.added)
    return dataclasses.replace(sp, base=dataclasses.replace(sp.base), added=added)


def _clear_caches():
    """Empty the package's lru_caches: the planner's set caches and the
    Fourier tables."""
    caches = [
        fn
        for name, mod in list(sys.modules.items())
        if name.startswith("corecuts.")
        for fn in vars(mod).values()
        if hasattr(fn, "cache_clear")
    ]
    # the planner's S2 sets, residue sets and layer rows, the Fourier
    # and cyclotomic tables
    assert len(caches) == 5, caches
    for fn in caches:
        fn.cache_clear()


def test_a_run_reads_each_row_and_each_constraint_once(monkeypatch, tmp_path):
    """An Instance merges its rows once for every run on it: run_auto
    (whose Algorithm 1 planner reads the merged rows on its fixed line),
    run_plain and a dry exporting run_auto together merge each row once.
    Synthesized sets and layer rows are built once per process, so from
    cold caches no constraint is lowered twice across all the runs, and
    every dispatched constraint but those of S1, S2 and smoothness sets
    has been lowered, in its run or an earlier one; the enumerator
    decides those sets exactly on their blocks, and lowers none of their
    constraints.  Every
    dispatched subproblem answers as a standalone solve_subproblem call
    on fresh copies of its instance and sets does, under the same box,
    budget and cutoff (the run's incumbent);
    the direct probe answers as it does on a fresh instance.  A dry run
    of Algorithm 1 merges the rows too, for its fixed line; a dry run
    of Algorithm 3, or of a plain instance, reads none."""
    _clear_caches()
    reads, merges, lowered, dispatched = _spy_on_reads(monkeypatch)
    rng = random.Random(31)
    seen, statuses = Counter(), set()
    for i in range(120):
        sense = ("feasibility", "max", "min")[i % 3]
        if i % 2:
            n = rng.choice((3, 4, 5))
            inst = _random_full_cycle_instance(rng, n, sense)
            if i % 4 == 1:
                # a row on sum(x) merges with every layer row
                band = make_row([1] * n, LE, rng.randint(n, 3 * n))
                inst = dataclasses.replace(inst, rows=inst.rows + (band,))
        else:
            inst = _random_cycles_instance(rng, rng.choice(((2, 2), (2, 3), (3, 3))), sense)
        # 25 attempts cut some subproblems short, so all three statuses show
        opts = EngineOptions(budget=rng.choice((25, solve.DEFAULT_NODE_BUDGET)))
        for spy in (reads, merges, dispatched):
            spy.clear()
        rep = run_auto(inst, opts)
        run_plain(inst, opts)
        run_auto(inst, EngineOptions(dry_run=True, export_dir=str(tmp_path / str(i))))
        assert merges == {id(inst.rows): 1}
        assert reads["rows"] == len(inst.rows)
        # the list holds every lowered constraint, so no identity is reused
        assert len({id(c) for c in lowered}) == len(lowered)
        constraints = {
            id(c): cs.tag for sp, _, _ in dispatched for cs in sp.added for c in cs.constraints
        }
        decided = {c for c, tag in constraints.items() if tag in ("S1", "S2", "Smooth")}
        assert constraints.keys() - decided <= {id(c) for c in lowered}
        assert not decided & {id(c) for c in lowered}
        seen["decided constraints"] += len(decided)
        # fresh copies of the sets are lowered again, outside the count
        mark = len(lowered)
        for sp, kwargs, out in dispatched:
            fresh = solve.solve_subproblem(_fresh(sp), **kwargs)
            assert fresh == out and fresh._proof == out._proof, sp.id
        del lowered[mark:]
        for r in rep.results:
            if r.tag == "FIX":
                probe = engine._direct_fixed_probe(dataclasses.replace(inst), r.provenance[1])
                assert probe == r.outcome
                seen["probes"] += 1
        # run_plain dispatches the last subproblem.  A proof ends the auto
        # run, and the plain search then proves the instance empty too
        *auto, (_, _, plain) = dispatched
        proved = [out._proof for _, _, out in auto]
        assert True not in proved[:-1], proved
        ended = proved[-1:] == [True]
        assert plain._proof or not ended
        seen["proofs"] += ended
        seen[f"algorithm {rep.algorithm}"] += len(dispatched) > 2 or ended
        statuses.update(out.status for _, _, out in dispatched)
    assert seen["algorithm 1"] > 10 and seen["algorithm 3"] > 40 and seen["probes"] > 10, seen
    assert seen["proofs"] > 10, seen
    assert seen["decided constraints"] > 100, seen
    assert statuses == {"Feasible", "Infeasible", "Unknown"}
    dry = EngineOptions(dry_run=True)
    reads.clear()
    inst = generate((1, 1, 0)).instance
    assert run_auto(inst, dry).algorithm == 1
    assert reads["rows"] == len(inst.rows)
    inst = _random_cycles_instance(rng, (2, 3), "max")
    for run, algorithm in ((run_auto, 3), (run_plain, 0)):
        reads.clear()
        assert run(inst, dry).algorithm == algorithm
        assert reads["rows"] == 0, run


def _timeless(report):
    """report_to_dict without its wall times."""
    out = report_to_dict(report)
    del out["wall_time"]
    for r in out["results"]:
        del r["seconds"]
    return out


def test_runs_on_one_instance_answer_as_on_a_fresh_copy(tmp_path):
    """An Instance keeps its readings from run to run, and no run changes
    them: on one instance, run_auto, run_plain, a dry exporting run_auto
    and run_auto again each give the report and the files that the same
    call gives on a fresh copy of the instance."""
    rng = random.Random(43)
    seen = Counter()
    for i in range(24):
        sense = ("feasibility", "max", "min")[i % 3]
        if i % 2:
            n = rng.choice((3, 4))
            inst = _random_full_cycle_instance(rng, n, sense)
            # a row on sum(x) merges with every layer row
            band = make_row([1] * n, LE, rng.randint(n, 3 * n))
            inst = dataclasses.replace(inst, rows=inst.rows + (band,))
        else:
            inst = _random_cycles_instance(rng, rng.choice(((2, 3), (3,))), sense)
        calls = (run_auto, run_plain, "export", run_auto)
        for j, call in enumerate(calls):
            got = []
            for target in (inst, dataclasses.replace(inst)):
                folder = tmp_path / f"{i}-{j}-{len(got)}"
                if call == "export":
                    rep = run_auto(target, EngineOptions(dry_run=True, export_dir=str(folder)))
                    files = {f: (folder / f).read_bytes() for f in sorted(os.listdir(folder))}
                else:
                    rep, files = call(target), None
                got.append((_timeless(rep), files))
            assert got[0] == got[1], (i, j)
            seen[got[0][0]["status"]] += 1
            seen[f"algorithm {got[0][0]['algorithm']}"] += 1
    assert seen["Feasible"] > 10 and seen["Infeasible"] > 10, seen
    assert seen["algorithm 1"] > 10 and seen["algorithm 2"] + seen["algorithm 3"] > 10, seen


def _caches_hit():
    return sum(
        fn.cache_info().hits
        for fn in (engine._s2_set, engine._residue_pieces, engine._layer_row)
    )


def test_the_planner_caches_hand_out_what_the_builders_build():
    """Each set cache of the planner hands out sets equal to fresh calls
    of the public builders, so the planned sets cannot drift from them;
    an int eps shares the entry of the float it equals."""
    for k in range(2, 8):
        c = Cycle(tuple(range(1, k + 1)))
        for box in (0, 5):
            assert engine._s2_set(c, box) == s2_singular(c, box)
        for t in range(1, k):
            for budget in (1, 2):
                points = projected_essential_set(k, t, budget).points
                for eps in (1e-6, 1):
                    assert engine._residue_pieces(c, t, budget, eps) == (
                        sublayer(c, t),
                        tuple(s3_anchor(z, c) for z in points),
                        smoothness(c, eps),
                        tuple(s1_for_point(z, c, eps) for z in points),
                    )
    assert engine._residue_pieces(c, 1, 1, 1) is engine._residue_pieces(c, 1, 1, 1.0)


def test_cold_and_warm_caches_give_the_same_runs(tmp_path):
    """The planner builds each set once per process (``engine``'s set
    caches).  On seeded instances of Algorithms 1, 2 and 3, a run with
    every cache cleared before it and the same run with the caches warm
    give the same report (times removed) and the same dry-run export
    files."""
    rng = random.Random(59)
    cases = []
    for i in range(6):
        sense = ("feasibility", "max", "min")[i % 3]
        inst = _random_full_cycle_instance(rng, rng.choice((3, 4)), sense)
        cases.append((run_algorithm1, inst, ()))
        inst = _random_cycles_instance(rng, (3, 2), sense)
        cases.append((run_algorithm2, inst, (inst.group.selected_cycles[0],)))
        inst = _random_cycles_instance(rng, rng.choice(((2, 3), (3, 3))), sense)
        cases.append((run_algorithm3, inst, (inst.group.selected_cycles,)))
    seen = Counter()
    for i, (run, inst, args) in enumerate(cases):
        got = []
        for cold in (True, False):
            hits = _caches_hit()
            reports = []
            for dry in (False, True):
                folder = tmp_path / f"{i}-{cold}-{dry}"
                if cold:
                    _clear_caches()
                opts = EngineOptions(dry_run=dry, export_dir=str(folder) if dry else None)
                reports.append(_timeless(run(dataclasses.replace(inst), *args, opts)))
            files = {f: (folder / f).read_bytes() for f in sorted(os.listdir(folder))}
            got.append((reports, files))
            if not cold:
                # the warm runs reuse the sets the cold runs built
                assert _caches_hit() > hits
        assert got[0] == got[1], i
        seen[got[0][0][0]["algorithm"]] += 1
        seen[got[0][0][0]["status"]] += 1
    assert seen[1] == seen[2] == seen[3] == 6, seen
    assert seen["Feasible"] and seen["Infeasible"], seen


def test_solving_leaves_the_shared_readings_unchanged():
    """Sets are shared by every run in the process, so no solve may change
    their readings: solving each planned subproblem twice gives one
    outcome and leaves each set's ``_rows`` and the instance's merged
    rows as they were."""
    rng = random.Random(67)
    tags = Counter()
    for i in range(6):
        sense = ("feasibility", "max", "min")[i % 3]
        for inst in (
            _random_full_cycle_instance(rng, 3, sense),
            _random_cycles_instance(rng, (2, 3), sense),
        ):
            for sp in plan(inst).subproblems:
                before = copy.deepcopy(([cs._rows for cs in sp.added], inst._merged))
                first = solve.solve_subproblem(sp)
                assert solve.solve_subproblem(sp) == first, sp.id
                assert ([cs._rows for cs in sp.added], inst._merged) == before, sp.id
                tags[sp.tag] += 1
    assert tags["S1"] > 10 and tags["S2"] > 10 and tags["S3"] > 10, tags


def test_plain_dry_run_exports_its_subproblem(tmp_path):
    inst = make_instance(2, rows=(make_row([1, 1], "==", 3),), bounds=_box(2, 0, 2))
    rep = run_plain(inst, EngineOptions(export_dir=str(tmp_path), dry_run=True))
    assert rep.status == "Unknown"
    assert os.listdir(tmp_path) == ["plain.json"]


def test_unbounded_lp_short_circuits():
    group = _full_cycle_group(3)
    inst = make_instance(3, sense="max", objective=[1, 1, 1], group=group)
    rep = run_algorithm1(inst)
    assert rep.status == "Unbounded"
    assert rep.results == ()


def test_planned_s2_big_m_holds_every_block_the_search_reaches():
    """Every S2 set a planner builds writes its linear factors with the
    big-M B = 2 * k * search_box(inst, box), and B bounds the block's
    |sum| and, for even k, its |alternating sum| over the domain the
    enumerator searches (the declared bounds, a missing side at the
    search box).  So the exported disjunction holds exactly the singular
    blocks there, as the enumerator's predicate does."""
    rng = random.Random(61)
    instances = [_random_full_cycle_instance(rng, n, "max") for n in (3, 4, 5, 6)]
    instances += [_random_cycles_instance(rng, s, "min") for s in ((2, 3), (2, 2), (4,), (3, 3))]
    wide = [(Fraction(-120), Fraction(80))] * 4
    instances.append(make_instance(4, bounds=wide, group=_full_cycle_group(4)))
    instances.append(make_instance(4, bounds=[(None, 7)] * 4, group=_two_cycles_group(2)))
    instances.append(make_instance(6, group=_two_cycles_group(3)))
    checked = Counter()
    for inst, box in product(instances, (0, 3, 50, 200)):
        width = solve.search_box(inst, box)
        for sp in plan(inst, EngineOptions(box=box)).subproblems:
            if sp.tag != "S2":
                continue
            (cs,) = sp.added
            aux = {av.name for av in cs.aux_vars}
            # the linear factor rows: each reads the block and one binary
            forms = [exprs.linear_form(con.expr) for con in cs.constraints]
            forms = [coeffs for coeffs, _ in filter(None, forms) if coeffs.keys() - aux]
            big_m = {-a for coeffs in forms for name, a in coeffs.items() if name in aux}
            k = cs.cycle.k
            assert big_m == {2 * k * width}, (sp.id, box)
            domain = [
                (-width if lo is None else lo, width if hi is None else hi)
                for lo, hi in (inst.bounds[i - 1] for i in cs.cycle.support)
            ]
            for coeffs in ([1] * k, [(-1) ** j for j in range(k)])[: 2 - k % 2]:
                top = sum(max(a * lo, a * hi) for a, (lo, hi) in zip(coeffs, domain))
                bottom = sum(min(a * lo, a * hi) for a, (lo, hi) in zip(coeffs, domain))
                assert max(top, -bottom) <= 2 * k * width, (sp.id, box, coeffs)
                checked[k % 2] += 1
    assert checked[0] > 20 and checked[1] > 10, checked


# ---------------------------------------------------------------------------
# the emptiness certificate


PROOF_NOTE = " proves the instance has no integer point; no later subproblem runs"


def _oracle_points(inst, radius=None):
    """The integer points of inst by box enumeration: over its declared
    bounds, with a missing side at -radius or radius."""
    rows = [(r.coeffs, r.sense, r.rhs) for r in inst.rows]
    box = [
        (-radius if lo is None else math.ceil(lo), radius if hi is None else math.floor(hi))
        for lo, hi in inst.bounds
    ]
    return oracles.feasible_points(rows, box)


def _certificate_instances(rng):
    """The hard instances of a few core points, then seeded small
    symmetric instances in [0, 2] or [0, 3]: full cycles (Algorithm 1,
    whose LP relaxation is mostly empty when they have no point) and
    blocks of one or two cycles (Algorithms 1 and 3), in every sense."""
    for c in ((1, 1, 0), (1, 0, 1, 1), (1, 1, 0, 1), (1, 0, 0, 1, 0), (2, 2, 2, 2, 1)):
        yield generate(c).instance
    for i in range(90):
        sense = ("feasibility", "max", "min")[i % 3]
        if i % 2:
            yield _random_full_cycle_instance(rng, rng.choice((3, 4)), sense)
        else:
            yield _random_cycles_instance(rng, rng.choice(((2,), (3,), (2, 2), (2, 3))), sense)


def test_a_proof_ends_the_run_only_on_an_empty_instance():
    """Whenever a subproblem proves the instance empty, box enumeration
    finds no point, the proof is the run's last result and its note
    names it, and every subproblem the run skipped, solved on its own,
    answers Infeasible, as does the direct fixed-space probe of a walk."""
    rng = random.Random(53)
    seen = Counter()
    for inst in _certificate_instances(rng):
        rep = run_auto(inst)
        proofs = [r.id for r in rep.results if r.outcome._proof]
        # an empty LP relaxation plans no subproblem
        seen["empty, searched"] += bool(rep.results) and not _oracle_points(inst)
        if not proofs:
            continue
        seen[f"proofs, algorithm {rep.algorithm}"] += 1
        assert proofs == [rep.results[-1].id] and not _oracle_points(inst), inst.rows
        assert rep.status == "Infeasible"
        assert rep.notes[-1] == proofs[0] + PROOF_NOTE
        schedule = plan(inst)
        ran = {r.id for r in rep.results}
        for sp in schedule.subproblems:
            if sp.id not in ran:
                assert solve.solve_subproblem(sp).status == "Infeasible", sp.id
                seen["skipped"] += 1
        if schedule.stop_layer is not None:
            probe = engine._direct_fixed_probe(inst, schedule.stop_layer)
            assert probe.status == "Infeasible"
            seen["probes"] += 1
    assert seen["proofs, algorithm 1"] > 5 and seen["proofs, algorithm 3"] > 10, seen
    assert seen["skipped"] > 50 and seen["probes"] > 5, seen
    # here every empty instance that runs a subproblem ends at its proof
    assert seen["proofs, algorithm 1"] + seen["proofs, algorithm 3"] == seen["empty, searched"]


def test_no_proof_from_a_pruned_cut_or_clipped_search():
    """A search proves nothing when a block check dropped a node, when
    its budget ran out, when it clipped a side the instance leaves open,
    or when it holds rows of its own (an S3 anchor, an S1 layer row);
    the run then goes on through its schedule."""
    # (1, 0, 0) meets the rows, but its circulant is regular: S2 drops it
    inst = make_instance(
        3, rows=(make_row([1, 1, 1], "==", 1),), bounds=_box(3, 0, 1), group=_full_cycle_group(3)
    )
    rep = run_algorithm1(inst)
    assert rep.status == "Feasible" and len(rep.results) > 1
    assert rep.results[0].id == "S2" and rep.results[0].outcome.status == "Infeasible"
    assert not any(r.outcome._proof for r in rep.results)
    # five attempts do not finish the global S2 of a hard instance
    hard = generate((1, 1, 0)).instance
    rep = run_algorithm1(hard, EngineOptions(budget=5))
    assert [r.id for r in rep.results] == ["S2", "L2.S3.0", "L2.S1", "L0.fix"]
    assert rep.results[0].outcome.status == rep.status == "Unknown"
    assert not any(r.outcome._proof for r in rep.results)
    # sum(x) = 301 has points, none of them in the clipped box [-50, 50]
    clipped = make_instance(3, rows=(make_row([1, 1, 1], "==", 301),), group=_full_cycle_group(3))
    rep = run_algorithm1(clipped)
    assert rep.results[0].outcome.status == rep.status == "Unknown"
    assert not any(r.outcome._proof for r in rep.results)
    # the probes and the cut of the hard instance end Infeasible, and
    # hold their layer row
    for sp in plan_algorithm1(hard, EngineOptions()).subproblems:
        out = solve.solve_subproblem(sp)
        assert out.status == "Infeasible"
        assert out._proof == (sp.tag == "S2"), sp.id


def test_the_proof_stays_out_of_the_outcome_api():
    """The proof is no argument of Outcome and stays outside its
    equality and repr: an outcome reads as it did before."""
    inst = make_instance(1, rows=(make_row([2], "==", 1),), bounds=_box(1, 0, 3))
    out = solve.solve_subproblem(Subproblem("plain", inst, (), "PLAIN", ("plain",)))
    assert out._proof and out == solve.Outcome("Infeasible")
    assert repr(out) == repr(solve.Outcome("Infeasible"))
    assert "_proof" not in inspect.signature(solve.Outcome).parameters
    assert not solve.Outcome("Infeasible")._proof


def _two_pair_instance(sense, weight=1):
    """max weight * sum(x), or min -weight * sum(x), subject to 3x1 + 3x2
    + 7x3 + 7x4 == 13 over [0, 2]^4, under the cycles (1,2) and (3,4).
    Every point has x1 + x2 = 2 and x3 + x4 = 1, so the optimum is 3 *
    weight (its negative, for min), and (1, 1, 1, 0), whose first block
    is singular, lies in A1.S2.  The LP over the orbits peaks at y = (2,
    1/7), where sum(x) = 29/7, so for weight 1 the LP bound is 4 (-4):
    no point reaches it."""
    sign = 1 if sense == "max" else -1
    return make_instance(
        4, sense=sense, objective=[sign * weight] * 4, rows=(make_row([3, 3, 7, 7], "==", 13),),
        bounds=_box(4, 0, 2), group=analyze_group(["(1,2)", "(3,4)"], 4),
    )


@pytest.mark.parametrize("sense", ["max", "min"])
def test_a_search_under_a_cutoff_proves_nothing(sense):
    """A plain subproblem and an S2 subproblem of a feasible instance
    both reach its optimum f.  From a cutoff at f, or past it, each
    ends Infeasible with no block rejection, which without a cutoff
    would prove the instance empty; under the cutoff it proves nothing.
    With no cutoff, or one worse than f, each answers as before.  An
    instance with no point proves itself empty only without a cutoff,
    and a cutoff needs a max or min instance and a number."""
    sign = 1 if sense == "max" else -1
    inst, f = _two_pair_instance(sense), 3 * sign
    s2 = plan(inst).subproblems[0]
    assert (s2.id, s2.tag, len(s2.cycles)) == ("A1.S2", "S2", 2)
    for sp in (Subproblem("plain", inst, (), "PLAIN", ("plain",)), s2):
        out = solve.solve_subproblem(sp)
        assert (out.status, out.objective) == ("Feasible", f), sp.id
        for worse in (None, f - sign, f - sign * Fraction(1, 2)):
            assert solve.solve_subproblem(sp, cutoff=worse) == out, (sp.id, worse)
        for cutoff in (f, f + sign * Fraction(1, 2), f + sign):
            cut, rejected = solve._search(sp, solve.DEFAULT_BOX, solve.DEFAULT_NODE_BUDGET, cutoff)
            assert (cut, rejected) == (solve.Outcome("Infeasible"), 0), (sp.id, cutoff)
            cut = solve.solve_subproblem(sp, cutoff=cutoff)
            assert cut.status == "Infeasible" and not cut._proof, (sp.id, cutoff)
    empty = make_instance(1, sense=sense, objective=[1], rows=(make_row([2], "==", 1),),
                          bounds=_box(1, 0, 3))
    plain = Subproblem("plain", empty, (), "PLAIN", ("plain",))
    assert solve.solve_subproblem(plain)._proof
    out = solve.solve_subproblem(plain, cutoff=0)
    assert out.status == "Infeasible" and not out._proof
    for bad in (True, "3", float("inf")):
        with pytest.raises(InputError, match="cutoff"):
            solve.solve_subproblem(plain, cutoff=bad)
    feasibility = dataclasses.replace(empty, sense="feasibility")
    with pytest.raises(InputError, match="a cutoff needs a max or min instance"):
        solve.solve_subproblem(Subproblem("plain", feasibility, (), "PLAIN", ("plain",)), cutoff=0)


@pytest.mark.parametrize("sense", ["max", "min"])
def test_a_run_whose_first_s2_finds_the_optimum_stays_feasible(sense):
    """Algorithm 3's first S2 finds the optimum, below the LP bound, so
    every later subproblem runs from that cutoff and ends Infeasible:
    the second S2 with no block rejection.  None of them proves the
    instance empty, and the run answers Feasible with the optimum, as
    run_plain does."""
    sign = 1 if sense == "max" else -1
    inst, f = _two_pair_instance(sense), 3 * sign
    rep = run_auto(inst)
    assert (rep.algorithm, rep.status, rep.f_star) == (3, "Feasible", f)
    assert rep.point == (1, 1, 1, 0) and _holds(inst, rep.point)
    assert (rep.f_star, rep.status) == (run_plain(inst).f_star, run_plain(inst).status)
    assert solve._orbit_bound(inst, plan(inst).subproblems[0].cycles) == 4 * sign
    # the bound is out of reach, so the whole schedule runs
    assert [r.id for r in rep.results] == [sid for sid, _, _ in rep.schedule]
    first, second, *rest = rep.results
    assert (first.id, first.outcome.objective, first.cutoff) == ("A1.S2", f, None)
    assert (second.id, second.outcome.status, second.cutoff) == ("A3.S2", "Infeasible", f)
    assert all(r.outcome.status == "Infeasible" and r.cutoff == f for r in rest)
    assert not any(r.outcome._proof for r in rep.results)
    assert [r["cutoff"] for r in report_to_dict(rep)["results"]] == [None] + [str(f)] * 4


def _bound_note(sid, bound):
    return f"{sid} reaches the LP bound {bound}; no later subproblem runs"


def _max_min_cycle_instances(rng, count):
    """Seeded max and min instances of Algorithms 2 and 3: blocks of
    shapes (2, 2), (2, 3) and (3, 3), and a 3-cycle with one unmoved
    variable."""
    for i in range(count):
        shape, unmoved = rng.choice((((2, 2), 0), ((2, 3), 0), ((3, 3), 0), ((3,), 1)))
        yield _random_cycles_instance(rng, shape, ("max", "min")[i % 2], unmoved)


def test_the_incumbent_and_the_lp_bound_keep_every_verdict():
    """On max/min instances of Algorithms 2 and 3, run_auto keeps
    run_plain's status and optimum, and reports a point that meets the
    instance and scores the optimum.  Its results are a prefix of its
    schedule, whose counts are the plan's.  Each result ran from the
    best value before it (``cutoff``, also in the report's dict), and
    each Feasible beats that value.  A run that ends early either proves
    the instance empty or reaches the LP bound, which is then its
    optimum and the last note."""
    rng = random.Random(43)
    seen = Counter()
    for inst in _max_min_cycle_instances(rng, 160):
        rep, ref = run_auto(inst), run_plain(inst)
        better = (lambda a, b: a > b) if inst.sense == "max" else (lambda a, b: a < b)
        assert rep.algorithm == (2 if len(inst.group.selected_cycles) == 1 else 3)
        assert (rep.status, rep.f_star) == (ref.status, ref.f_star), inst.rows
        if rep.point is not None:
            assert _holds(inst, rep.point)
            assert engine._objective_of(inst, rep.point) == rep.f_star
        ids = [r.id for r in rep.results]
        assert ids == [sid for sid, _, _ in rep.schedule][: len(ids)]
        assert rep.counts == plan(inst).counts()
        best = None
        for r, doc in zip(rep.results, report_to_dict(rep)["results"]):
            assert r.cutoff == best and doc["cutoff"] == (None if best is None else str(best))
            if r.outcome.status == "Feasible":
                assert best is None or better(r.outcome.objective, best)
                best = r.outcome.objective
        stopped = len(ids) < len(rep.schedule)
        bound = solve._orbit_bound(inst, plan(inst).subproblems[0].cycles)
        if stopped and rep.results[-1].outcome._proof:
            assert rep.status == "Infeasible"
            seen["proofs"] += 1
        elif stopped:
            assert rep.status == "Feasible" and rep.f_star == bound
            assert rep.notes[-1] == _bound_note(ids[-1], bound)
            seen[f"bound at result {len(ids)}"] += 1
        else:
            assert not any("LP bound" in note for note in rep.notes)
            seen["whole schedule"] += 1
        if rep.f_star is not None:
            assert not better(rep.f_star, bound)
    assert seen["proofs"] > 20 and seen["whole schedule"] > 5, seen
    assert sum(v for k, v in seen.items() if k.startswith("bound at result")) > 30, seen


def test_the_orbit_lp_has_the_relaxation_optimum_with_one_column_per_orbit():
    """The LP over the fixed space of the planned cycles has one column
    per orbit, a cycle's or an unmoved variable's, and the optimum of
    lp_relax; the LP bound is that optimum rounded down (up, for min)
    on the grid of the objective's values."""
    rng = random.Random(47)
    seen = Counter()
    for inst in _max_min_cycle_instances(rng, 80):
        cycles = plan(inst).subproblems[0].cycles
        tableau, objective = solve._orbit_lp(inst, cycles)
        assert tableau.n == len(objective) == inst.n - sum(c.k - 1 for c in cycles)
        assert sum(objective) == sum(inst.objective)
        res = tableau.optimize(objective, maximize=inst.sense == "max")
        lp = solve.lp_relax(inst)
        assert {"optimal": "Feasible", "infeasible": "Infeasible"}[res.status] == lp.status
        bound = solve._orbit_bound(inst, cycles)
        if lp.status == "Feasible":
            assert res.objective == lp.objective
            rounded = math.floor if inst.sense == "max" else math.ceil
            assert bound == rounded(lp.objective)
        else:
            assert bound is None
        seen[lp.status, len(cycles)] += 1
    assert seen["Feasible", 1] > 5 and seen["Feasible", 2] > 20 and seen["Infeasible", 2] > 5, seen
    # half weights: the objective's values are multiples of 1/2, and the
    # LP reaches 29/14
    half = _two_pair_instance("max", Fraction(1, 2))
    assert solve._orbit_bound(half, plan(half).subproblems[0].cycles) == 2
    assert run_auto(half).f_star == Fraction(3, 2)


def test_open_sides_never_contradict_box_enumeration():
    """On small symmetric instances whose bounds leave sides open,
    run_auto and run_plain may answer Unknown, but never against box
    enumeration: an Infeasible has no point in a wide box, a reported
    point meets every row exactly and the declared bounds, and a max/min
    optimum is its point's value and no enumerated point beats it."""
    rng = random.Random(59)
    pairs = ((0, None), (None, 2), (None, None), (-1, None), (0, 2))
    statuses = Counter()
    for i in range(60):
        sense = ("feasibility", "max", "min")[i % 3]
        if i % 2:
            inst = _random_full_cycle_instance(rng, 3, sense)
        else:
            inst = _random_cycles_instance(rng, rng.choice(((2,), (2, 2))), sense)
        pair = tuple(None if b is None else Fraction(b) for b in rng.choice(pairs))
        inst = dataclasses.replace(inst, bounds=(pair,) * inst.n)
        open_sides = None in pair
        points = _oracle_points(inst, radius=5)
        rows = [(r.coeffs, r.sense, r.rhs) for r in inst.rows]
        for run in (run_auto, run_plain):
            rep = run(inst)
            statuses[rep.status, open_sides] += 1
            if rep.status == "Infeasible":
                assert not points, (run.__name__, rows, pair)
            if rep.point is not None:
                point = tuple(int(v) for v in rep.point)
                assert point == rep.point and oracles.feasible_points(rows, [(v, v) for v in point])
                assert all(
                    (lo is None or v >= lo) and (hi is None or v <= hi)
                    for v, (lo, hi) in zip(point, inst.bounds)
                )
            if rep.status == "Feasible" and sense != "feasibility":
                assert rep.f_star == engine._objective_of(inst, rep.point)
                values = [engine._objective_of(inst, q) for q in points]
                assert (max(values) <= rep.f_star) if sense == "max" else (min(values) >= rep.f_star)
            if rep.status == "Unbounded":
                assert sense != "feasibility" and open_sides
    assert statuses["Feasible", True] > 10 and statuses["Unknown", True] > 10, statuses
    assert statuses["Infeasible", False] > 0, statuses


# ---------------------------------------------------------------------------
# reporting


def test_report_dict_shape():
    inst = generate((1, 1, 0)).instance
    rep = run_algorithm1(inst)
    doc = report_to_dict(rep)
    assert doc["format"] == 1
    assert doc["algorithm"] == 1
    assert doc["status"] == "Infeasible"
    assert doc["counts"] == {"S1": 1, "S2": 1, "S3": 1, "FIX": 0}
    assert doc["objective"] is None
    assert {"id", "tag", "status", "seconds"} <= set(doc["results"][0])
    assert doc["lp"]["status"] == "Feasible"
    assert isinstance(doc["wall_time"], float)


def test_report_dict_fractions_as_strings():
    group = _full_cycle_group(3)
    inst = make_instance(
        3,
        sense="max",
        objective=[Fraction(1, 3)] * 3,
        rows=(make_row([1, 1, 1], LE, 4),),
        bounds=_box(3, 0, 3),
        group=group,
    )
    doc = report_to_dict(run_algorithm1(inst))
    assert doc["objective"] == "4/3"
    assert all(isinstance(v, str) for v in doc["point"])
