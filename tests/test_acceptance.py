"""Release gate: every numeric contract the package ships, checked end
to end at its stated tolerance.  Each criterion is one test printing a
single line

    criterion N: PASS <measured numbers>   (or FAIL)

so `pytest tests/test_acceptance.py -s` reads as a checklist.  The
reference values come from tests/oracles.py (first-principles Fractions
and exhaustive enumeration, importing nothing from the package).
"""

import itertools
import json
import random
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest

import oracles
from corecuts import (
    BaryCoords,
    Const,
    Dot,
    EngineOptions,
    EvalDivisionByZero,
    SingularCirculant,
    Subproblem,
    all_rotations,
    analyze_group,
    check_value,
    det_circulant,
    eval_float,
    fixed_space_anchor,
    flatten_subproblem,
    is_lattice_free,
    make_instance,
    membership,
    parse_problem,
    plan_algorithm2,
    plan_algorithm3,
    projected_essential_set,
    s1_for_point,
    s2_singular,
    s3_anchor,
    smoothness,
    sublayer,
    t_hat_exact,
    t_values,
    write_problem,
)
from corecuts.simplex import make_row

CORPUS_SEED = 20260815


def _line(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} {detail}")


def _full_cycle(k):
    return analyze_group(["(" + ",".join(str(i) for i in range(1, k + 1)) + ")"], k)


def _two_cycles(k):
    a = "(" + ",".join(str(i) for i in range(1, k + 1)) + ")"
    b = "(" + ",".join(str(i) for i in range(k + 1, 2 * k + 1)) + ")"
    return analyze_group([a, b], 2 * k)


@pytest.fixture(scope="module")
def corpus():
    """200 random nonsingular integer vectors per n in 3..12, with their
    exact inverse-circulant first columns.  A draw may be discarded only
    when the oracle agrees its determinant is exactly zero."""
    rng = random.Random(CORPUS_SEED)
    t0 = time.perf_counter()
    entries = []
    for n in range(3, 13):
        got = 0
        while got < 200:
            c = tuple(rng.randint(-5, 5) for _ in range(n))
            try:
                exact = tuple(t_hat_exact(c))
            except SingularCirculant:
                assert oracles.det_fractions(oracles.circulant_rows(c)) == 0, c
                continue
            entries.append((c, exact))
            got += 1
    return entries, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# 1. inverse formula, float and exact routes


def test_criterion_01_inverse_formula_suite(corpus):
    entries, build_s = corpus
    t0 = time.perf_counter()
    worst = 0.0
    for c, _ in entries:
        n = len(c)
        tv = t_values(c)
        # Cir(a)Cir(b) is again circulant (of the vector Cir(a)b), so the
        # full n x n product's largest deviation from I is read off one
        # column; this is an identity, not an approximation.
        for i in range(n):
            w = sum(c[(i - j) % n] * tv.t_hat[j] for j in range(n))
            worst = max(worst, abs(w - 1.0) if i == 0 else abs(w))
    bad_exact = []
    for c, exact in entries:
        n = len(c)
        for i in range(n):
            w = sum(Fraction(c[(i - j) % n]) * exact[j] for j in range(n))
            if w != (1 if i == 0 else 0):
                bad_exact.append(c)
                break
    # and the literal full product on a slice, with no column shortcut
    for c, exact in entries[::137]:
        n = len(c)
        a = oracles.circulant_rows(c)
        b = oracles.circulant_rows(exact)
        for i in range(n):
            for j in range(n):
                p = sum(a[i][m] * b[m][j] for m in range(n))
                if p != (1 if i == j else 0):
                    bad_exact.append(c)
    elapsed = build_s + (time.perf_counter() - t0)
    ok = worst <= 1e-8 and not bad_exact and elapsed < 10.0
    _line(
        1,
        ok,
        f"max|Cir(c)Cir(t_hat(c)) - I| = {worst:.2e} float, "
        f"exact identity on {len(entries)} vectors, {elapsed:.2f} s",
    )
    assert ok, (worst, bad_exact[:3], elapsed)


# ---------------------------------------------------------------------------
# 2. sum of T values vanishes; float t_hat matches the exact route


def test_criterion_02_t_sum_and_exact_agreement(corpus):
    entries, _ = corpus
    worst_sum = worst_gap = 0.0
    for c, exact in entries:
        tv = t_values(c)
        worst_sum = max(worst_sum, abs(sum(tv.t)))
        worst_gap = max(
            worst_gap,
            max(abs(th - float(ex)) for th, ex in zip(tv.t_hat, exact)),
        )
    ok = worst_sum <= 1e-9 and worst_gap <= 1e-9
    _line(2, ok, f"|sum T_k| = {worst_sum:.2e}, float vs exact t_hat = {worst_gap:.2e}")
    assert ok, (worst_sum, worst_gap)


# ---------------------------------------------------------------------------
# 3. spectral determinant product formula vs exact rational determinants


def test_criterion_03_determinant_product_formula(corpus):
    entries, _ = corpus
    worst_rel = 0.0
    checked = 0
    for c, _ in entries:
        if len(c) > 10:
            continue
        exact = oracles.det_fractions(oracles.circulant_rows(c))
        rel = abs(det_circulant(c) - float(exact)) / max(1.0, abs(float(exact)))
        worst_rel = max(worst_rel, rel)
        checked += 1
    ok = worst_rel <= 1e-8
    _line(3, ok, f"relative error = {worst_rel:.2e} on {checked} dets, n <= 10")
    assert ok, worst_rel


# ---------------------------------------------------------------------------
# 4. invariance under translation along the all-ones direction


def test_criterion_04_translation_invariance():
    rng = random.Random(7)
    worst_t = worst_dot = 0.0
    made = 0
    while made < 100:
        n = rng.randint(3, 10)
        c = tuple(rng.randint(-5, 5) for _ in range(n))
        t = rng.choice([v for v in range(-3, 4) if v])
        ct = tuple(v + t for v in c)
        try:
            a = t_values(c)
            b = t_values(ct)
        except SingularCirculant:
            continue
        # the pairing invariance holds for z on c's layer: the 1/<c,1>
        # part of t_hat contributes <z,1>/(n <c,1>), which only cancels
        # between the two sides when <z,1> = <c,1>
        z = [rng.randint(-4, 4) for _ in range(n)]
        z[-1] = sum(c) - sum(z[:-1])
        zt = [v + t for v in z]
        worst_t = max(worst_t, max(abs(x - y) for x, y in zip(a.t, b.t)))
        d1 = sum(zv * tb for zv, tb in zip(z, a.t_bar))
        d2 = sum(zv * tb for zv, tb in zip(zt, b.t_bar))
        worst_dot = max(worst_dot, abs(d1 - d2))
        made += 1
    ok = worst_t <= 1e-9 and worst_dot <= 1e-9
    _line(4, ok, f"T translation gap = {worst_t:.2e}, pairing gap = {worst_dot:.2e}, 100 triples")
    assert ok, (worst_t, worst_dot)


# ---------------------------------------------------------------------------
# 5. the two core-certificate routes agree, and against the oracle


def test_criterion_05_core_verdict_agreement():
    mismatches = []
    classes = membership_checked = 0
    for n in (3, 4, 5):
        gs = _full_cycle(n)
        seen = set()
        for p in itertools.product((0, 1, 2), repeat=n):
            key = min(oracles.rotations(p))
            if key in seen:
                continue  # the orbit, hence the verdict, is shared
            seen.add(key)
            classes += 1
            brute = is_lattice_free(gs, p)
            if oracles.det_fractions(oracles.circulant_rows(p)) == 0:
                continue  # barycentric route undefined for singular Cir
            verts = set(all_rotations(p))
            layer = sum(p)
            witness = None
            for z in itertools.product(range(min(p), max(p) + 1), repeat=n):
                if sum(z) != layer or z in verts:
                    continue
                if isinstance(membership(z, p), BaryCoords):
                    witness = z
                    break
            via_membership = "NotCore" if witness else "Core"
            via_oracle, _ = oracles.hull_verdict_oracle(p)
            membership_checked += 1
            if not (brute.verdict == via_membership == via_oracle):
                mismatches.append((p, brute.verdict, via_membership, via_oracle))
    flagship = is_lattice_free(_full_cycle(5), (2, 2, 2, 2, 1))
    tilted = is_lattice_free(_full_cycle(3), (2, 1, 0))
    pinned_ok = (
        flagship.verdict == "Core"
        and tilted.verdict == "NotCore"
        and tilted.witness == (1, 1, 1)
    )
    ok = not mismatches and pinned_ok
    _line(
        5,
        ok,
        f"{classes} rotation classes, {membership_checked} checked on all three "
        f"routes, (2,2,2,2,1) {flagship.verdict}, (2,1,0) witness {tilted.witness}",
    )
    assert ok, (mismatches[:3], flagship, tilted)


# ---------------------------------------------------------------------------
# 6. schedule counts for the two cut-planning strategies


def test_criterion_06_schedule_counts():
    opts = EngineOptions(essential_budget=4)
    bad = []

    def ess_total(k):
        return sum(len(projected_essential_set(k, r, 4).points) for r in range(1, k))

    for k, s1, s3 in ((5, 4, 16), (7, 6, 24), (8, 7, 28)):
        group = _full_cycle(k)
        sch = plan_algorithm2(make_instance(k, group=group), group.selected_cycles[0], opts)
        want = {"S1": s1, "S2": 1, "S3": s3, "FIX": 0}
        if sch.counts() != want or s3 != ess_total(k):
            bad.append((k, sch.counts(), want, ess_total(k)))
    # two k-cycles: one S2 per cycle, every cycle's probes, (k-1)^2 cuts
    for k, s1, s3 in ((5, 16, 32), (8, 49, 56)):
        group = _two_cycles(k)
        sch = plan_algorithm3(make_instance(2 * k, group=group), group.selected_cycles, opts)
        want = {"S1": s1, "S2": 2, "S3": s3, "FIX": 0}
        if sch.counts() != want or s3 != 2 * ess_total(k):
            bad.append((2 * k, sch.counts(), want, 2 * ess_total(k)))
    ok = not bad
    _line(6, ok, "cycle schedules 5/7/8 and 5+5/8+8 all at pinned counts" if ok else f"{bad}")
    assert ok, bad


# ---------------------------------------------------------------------------
# 7. generate-then-solve round trip at desk scale


def test_criterion_07_end_to_end_generated_instance(tmp_path):
    t0 = time.perf_counter()
    path = tmp_path / "p1.json"
    gen = subprocess.run(
        [sys.executable, "-m", "corecuts.cli", "gen", "(1,2,3,4,5)", "2,2,2,2,1", "-o", str(path)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    solve = subprocess.run(
        [sys.executable, "-m", "corecuts.cli", "solve", str(path), "--algorithm", "1"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    elapsed = time.perf_counter() - t0
    report = json.loads(solve.stdout) if solve.stdout else {}
    doc = json.loads(path.read_text())
    rows = [
        ([Fraction(str(a)) for a in r["coeffs"]], r["sense"], Fraction(str(r["rhs"])))
        for r in doc["rows"]
    ]
    bounds = [
        (int(Fraction(str(b["lo"]))), int(Fraction(str(b["hi"])))) for b in doc["bounds"]
    ]
    independent = oracles.feasible_points(rows, bounds)
    counts = report.get("counts", {})
    ok = (
        gen.returncode == 0
        and json.loads(gen.stdout)["certified_infeasible"] is True
        and solve.returncode == 2
        and report.get("status") == "Infeasible"
        and (counts.get("S1"), counts.get("S2"), counts.get("S3")) == (1, 1, 1)
        and independent == []
        and elapsed < 60.0
    )
    _line(
        7,
        ok,
        f"gen+solve C_5 (2,2,2,2,1): {report.get('status')} with counts "
        f"{counts.get('S1')}/{counts.get('S2')}/{counts.get('S3')}, "
        f"{len(independent)} oracle-feasible points, {elapsed:.2f} s",
    )
    assert ok, (gen.returncode, solve.returncode, report.get("status"), counts, elapsed)


# ---------------------------------------------------------------------------
# 8. interchange-format round trip evaluates bit-exactly


def _random_subproblem(rng, i):
    k = rng.randint(3, 6)
    group = _full_cycle(k)
    cyc = group.selected_cycles[0]
    sense = rng.choice(("max", "min", "feasibility"))
    obj = (
        None
        if sense == "feasibility"
        else [Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 7))) for _ in range(k)]
    )
    rows = tuple(
        make_row(
            [rng.randint(-4, 4) for _ in range(k)],
            rng.choice(("<=", ">=", "==")),
            rng.randint(-6, 6),
        )
        for _ in range(rng.randint(1, 3))
    )
    inst = make_instance(
        k,
        sense=sense,
        objective=obj,
        rows=rows,
        bounds=[(Fraction(rng.randint(-5, -1)), Fraction(rng.randint(1, 6)))] * k,
        integer=[True] * k,
        group=group,
    )
    residue = rng.randint(1, k - 1)
    z = rng.choice(projected_essential_set(k, residue, 4).points)
    pool = [
        s2_singular(cyc),
        smoothness(cyc),
        s1_for_point(z, cyc),
        s3_anchor(z, cyc),
        sublayer(cyc, residue),
        fixed_space_anchor(cyc),
    ]
    added = tuple(cs for cs in pool if rng.random() < 0.5)
    tag = rng.choice([cs.tag for cs in added]) if added else "PLAIN"
    if tag not in ("S1", "S2", "S3"):
        tag = "PLAIN"
    return Subproblem(f"r{i}", inst, added, tag, (f"r{i}",))


def _eval_or_marker(expr, env):
    try:
        return eval_float(expr, env)
    except EvalDivisionByZero:
        return "div0"


def test_criterion_08_export_round_trip_bit_exact(tmp_path):
    rng = random.Random(99)
    bad = []
    for i in range(100):
        flat = flatten_subproblem(_random_subproblem(rng, i))
        path = tmp_path / f"{i}.json"
        write_problem(flat, path)
        parsed = parse_problem(path)
        assert parsed.sense == flat.sense
        names = [v.name for v in parsed.variables]
        assert names == [v.name for v in flat.variables]
        assert len(parsed.constraints) == len(flat.constraints)
        if flat.objective:
            items = list(flat.objective.items())
            obj = Dot(tuple(v for _, v in items), tuple(nm for nm, _ in items))
        else:
            obj = Const(Fraction(0))
        pairs = [(obj, parsed.objective)] + [
            (a.expr, b.expr) for a, b in zip(flat.constraints, parsed.constraints)
        ]
        for _ in range(100):
            env = {nm: rng.uniform(-9, 9) for nm in names}
            for orig, back in pairs:
                a = _eval_or_marker(orig, env)
                b = _eval_or_marker(back, env)
                if not (a == b):
                    bad.append((i, orig, a, b))
    ok = not bad
    _line(8, ok, f"100 subproblems x 100 assignments, {len(bad)} value mismatches")
    assert ok, bad[:3]


# ---------------------------------------------------------------------------
# 9. the singularity disjunction is exactly the vanishing determinant


def _s2_feasible(cs, c):
    names = [f"x{i + 1}" for i in range(len(c))]
    m = len(cs.aux_vars)
    for bits in range(2**m):
        env = {nm: float(v) for nm, v in zip(names, c)}
        for i, v in enumerate(cs.aux_vars):
            env[v.name] = float((bits >> i) & 1)
        if all(
            check_value(eval_float(con.expr, env), con.sense, con.eps)
            for con in cs.constraints
        ):
            return True
    return False


def test_criterion_09_singularity_disjunction_iff_det_zero():
    mismatches = []
    total = 0
    for k in (3, 4, 5):
        cs = s2_singular(_full_cycle(k).selected_cycles[0])
        for c in itertools.product(range(-2, 3), repeat=k):
            total += 1
            singular = abs(det_circulant(c)) <= 1e-9
            exact_zero = oracles.det_fractions(oracles.circulant_rows(c)) == 0
            feasible = _s2_feasible(cs, c)
            if not (singular == exact_zero == feasible):
                mismatches.append((c, singular, exact_zero, feasible))
    ok = not mismatches
    _line(9, ok, f"{total} vectors over k=3,4,5, {len(mismatches)} mismatches")
    assert ok, mismatches[:5]
