"""Schedules and dispatch for the three layer-search strategies."""

import dataclasses
import os
import random
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
    report_to_dict,
    run_algorithm1,
    run_algorithm2,
    run_algorithm3,
    run_auto,
    run_plain,
    s2_singular,
)
from corecuts import engine
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


def _random_cycles_instance(rng, shape, sense):
    """A small instance invariant under one cycle per entry of shape (the
    cycles cover x1..xn in order): an equality row family and an
    inequality row family, each closed under every rotation of every
    block, and an objective constant on each block; box [0, 2]."""
    n = sum(shape)
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
            rows[tuple(b), rel] = make_row(b, rel, rhs)
    weights = [rng.choice((-2, -1, 1, 2)) for _ in shape]
    objective = None if sense == "feasibility" else [w for w, k in zip(weights, shape) for _ in range(k)]
    return make_instance(
        n, sense=sense, objective=objective, rows=list(rows.values()), bounds=_box(n, 0, 2),
        group=analyze_group(gens, n),
    )


# ---------------------------------------------------------------------------
# options and subproblem validation


def test_options_validate():
    with pytest.raises(InputError):
        EngineOptions(essential_budget=0)
    with pytest.raises(InputError):
        EngineOptions(budget=0)
    with pytest.raises(InputError):
        EngineOptions(budget=-5)
    with pytest.raises(InputError):
        EngineOptions(box=-5)


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


def _count_lp_work(monkeypatch):
    """Count tableau builds, phase-1 runs and optimised objectives."""
    counts = {"built": 0, "phase1": 0, "objectives": 0}

    def counting(key, real):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return real(*args, **kwargs)

        return wrapper

    for key, attr in (("built", "__init__"), ("phase1", "_phase1"), ("objectives", "optimize")):
        monkeypatch.setattr(Tableau, attr, counting(key, getattr(Tableau, attr)))
    return counts


@pytest.mark.parametrize("top,stop,walked,objectives", [(6, 0, 6, 2), (7, 7, 0, 1)])
def test_algorithm1_plans_with_at_most_two_lps(monkeypatch, top, stop, walked, objectives):
    """sum(x) <= 6 on a 7-cycle walks down over the six layers 6..1 and
    needs the relaxation and one range LP; sum(x) <= 7 starts on its
    stop layer and needs the relaxation only.  Both objectives run on
    one tableau, so phase 1 runs once."""
    counts = _count_lp_work(monkeypatch)
    inst = make_instance(
        7, rows=(make_row([1] * 7, LE, top),), bounds=_box(7, 0, 3),
        group=_full_cycle_group(7),
    )
    sch = plan_algorithm1(inst, EngineOptions())
    assert sch.stop_layer == stop
    assert len(_walked_layers(sch)) == walked
    assert counts == {"built": 1, "phase1": 1, "objectives": objectives}


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
    sum(x), layer 1, as a second objective on the same tableau."""
    inst = make_instance(
        3, rows=(make_row([1, 1, 1], GE, 1),), bounds=[(Fraction(0), None)] * 3,
        group=analyze_group(["(1,2,3)"], 3),
    )
    counts = _count_lp_work(monkeypatch)
    sch = plan_algorithm1(inst, EngineOptions())
    assert counts == {"built": 1, "phase1": 1, "objectives": 2}
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


def test_plan_selects_algorithm_by_group():
    full = make_instance(4, group=_full_cycle_group(4))
    assert plan(full).algorithm == 1
    partial = make_instance(5, group=analyze_group(["(1,2,3)"], 5))
    assert plan(partial).algorithm == 2
    double = make_instance(10, group=_two_cycles_group(5))
    assert plan(double).algorithm == 3
    plain = make_instance(3)
    assert plan(plain).algorithm == 0


def test_algorithm1_requires_full_cycle():
    inst = make_instance(5, group=analyze_group(["(1,2,3)"], 5))
    with pytest.raises(InputError):
        plan_algorithm1(inst, EngineOptions())


def test_algorithm3_requires_two_cycles():
    group = _full_cycle_group(4)
    inst = make_instance(4, group=group)
    with pytest.raises(InputError):
        plan_algorithm3(inst, group.selected_cycles, EngineOptions())


# ---------------------------------------------------------------------------
# dispatch semantics


def test_run_algorithm1_infeasible_generated_instance():
    inst = generate((1, 1, 0)).instance
    rep = run_algorithm1(inst)
    assert rep.status == "Infeasible"
    assert rep.counts == {"S1": 1, "S2": 1, "S3": 1, "FIX": 0}
    # the stop layer gets one direct fixed-space evaluation, kept in the
    # results but outside the subproblem counts
    fix = [r for r in rep.results if r.tag == "FIX"]
    assert len(fix) == 1 and fix[0].outcome.status == "Infeasible"
    assert all(r.outcome.status == "Infeasible" for r in rep.results)


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
    assert rep.point == (0, 0, 0, 1, 2, 2)
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
