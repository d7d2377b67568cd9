"""Exact rational LP solver: optimality, infeasibility, unboundedness."""

import random
from fractions import Fraction

import pytest

from corecuts.simplex import EQ, GE, LE, Tableau, lp_feasible, make_row, solve_lp
from oracles import lp_vertex_oracle


def test_max_on_a_triangle():
    # max x + y s.t. x + 2y <= 4, 3x + y <= 6, x,y >= 0
    rows = [make_row([1, 2], LE, 4), make_row([3, 1], LE, 6)]
    res = solve_lp(2, [1, 1], rows, [(Fraction(0), None)] * 2)
    assert res.status == "optimal"
    assert res.x == (Fraction(8, 5), Fraction(6, 5))
    assert res.objective == Fraction(14, 5)


def test_min_flips_direction():
    rows = [make_row([1, 1], GE, 2)]
    res = solve_lp(2, [1, 2], rows, [(Fraction(0), None)] * 2, maximize=False)
    assert res.status == "optimal"
    assert res.objective == 2  # all weight on the cheaper variable
    assert res.x == (Fraction(2), Fraction(0))


def test_equality_row():
    rows = [make_row([1, 1, 1], EQ, 1)]
    res = solve_lp(3, [2, 1, 0], rows, [(Fraction(0), Fraction(1))] * 3)
    assert res.status == "optimal"
    assert res.objective == 2


def test_infeasible():
    rows = [make_row([1], LE, 0), make_row([1], GE, 1)]
    res = solve_lp(1, [1], rows, [(None, None)])
    assert res.status == "infeasible"
    assert not lp_feasible(1, rows, [(None, None)])


def test_unbounded():
    res = solve_lp(1, [1], [], [(Fraction(0), None)])
    assert res.status == "unbounded"


def test_free_variables():
    # max -x subject to x >= -3 expressed through a row, x free
    rows = [make_row([1], GE, -3)]
    res = solve_lp(1, [-1], rows, [(None, None)])
    assert res.status == "optimal"
    assert res.x == (Fraction(-3),)


def test_negative_lower_bounds():
    rows = [make_row([1, 1], LE, 0)]
    res = solve_lp(2, [1, 1], rows, [(Fraction(-2), Fraction(2))] * 2)
    assert res.status == "optimal"
    assert res.objective == 0


def test_exactness_no_rounding():
    # a pivot chain that would drift in floating point
    rows = [
        make_row([Fraction(1, 3), Fraction(1, 7)], LE, Fraction(10, 21)),
        make_row([Fraction(1, 11), Fraction(1, 13)], LE, Fraction(24, 143)),
    ]
    res = solve_lp(2, [1, 1], rows, [(Fraction(0), None)] * 2)
    assert res.status == "optimal"
    # optimum sits on the y axis where the second row is tight:
    # y = 13 * 24/143 = 24/11, beating both the row intersection (1,1)
    # and the x-axis vertex 10/7
    assert res.x == (Fraction(0), Fraction(24, 11))
    assert res.objective == Fraction(24, 11)


def test_degenerate_cycling_guard():
    # classic degenerate corner; Bland's rule must terminate
    rows = [
        make_row([Fraction(1, 4), -8, -1, 9], LE, 0),
        make_row([Fraction(1, 2), -12, Fraction(-1, 2), 3], LE, 0),
        make_row([0, 0, 1, 0], LE, 1),
    ]
    res = solve_lp(4, [Fraction(3, 4), -20, Fraction(1, 2), -6], rows, [(Fraction(0), None)] * 4)
    assert res.status == "optimal"
    assert res.objective == Fraction(5, 4)


def _random_rational(rng, span=6):
    return Fraction(rng.randint(-span, span), rng.choice([1, 1, 2, 3, 4, 5, 7]))


def _random_boxed_lp(rng):
    """A boxed LP with rational data over all three senses.  Bounds have
    rational widths, and about one variable in five is fixed (lo == hi).
    Most rows pass through a random point of the box, so many LPs are
    feasible.  Equality rows are often repeated (sometimes as a rational
    multiple), which leaves a zero-valued artificial basic after phase 1
    and makes the drive-out pivot run; other rows often get a partner
    with the same coefficient vector up to a rational multiple, which
    merges into one ranged row, and whose bounds may cross."""
    n = rng.randint(1, 3)
    bounds = []
    for _ in range(n):
        lo = _random_rational(rng)
        width = Fraction(0) if rng.random() < 0.2 else abs(_random_rational(rng, 4))
        bounds.append((lo, lo + width))
    anchor = [lo + (hi - lo) * Fraction(rng.randint(0, 4), 4) for lo, hi in bounds]
    rows = []
    for _ in range(rng.randint(0, 4)):
        coeffs = [_random_rational(rng) if rng.random() < 0.8 else Fraction(0) for _ in range(n)]
        sense = rng.choice([LE, GE, EQ])
        if rng.random() < 0.8:
            rhs = sum((a * v for a, v in zip(coeffs, anchor)), Fraction(0))
            slack = abs(_random_rational(rng, 3))
            rhs += {LE: slack, GE: -slack, EQ: 0}[sense]
        else:
            rhs = _random_rational(rng, 9)
        rows.append(make_row(coeffs, sense, rhs))
        factor = rng.choice([Fraction(1), Fraction(-2), Fraction(3, 2)])
        if sense == EQ and rng.random() < 0.5:
            rows.append(make_row([a * factor for a in coeffs], EQ, rhs * factor))
        elif sense != EQ and rng.random() < 0.4:
            other = {LE: GE, GE: LE}[sense] if factor > 0 else sense
            width = _random_rational(rng, 3)
            rows.append(make_row([a * factor for a in coeffs], other, (rhs - width) * factor))
    objective = [_random_rational(rng) for _ in range(n)]
    return n, objective, rows, bounds, rng.random() < 0.5


def test_boxed_lps_match_the_vertex_oracle():
    rng = random.Random(20261018)
    statuses = set()
    for _ in range(300):
        n, objective, rows, bounds, maximize = _random_boxed_lp(rng)
        res = solve_lp(n, objective, rows, bounds, maximize=maximize)
        status, value = lp_vertex_oracle(
            objective, [(r.coeffs, r.sense, r.rhs) for r in rows], bounds, maximize
        )
        statuses.add(status)
        assert res.status == status
        if status == "infeasible":
            continue
        assert res.objective == value
        assert all(isinstance(v, Fraction) for v in res.x)
        assert sum((c * v for c, v in zip(objective, res.x)), Fraction(0)) == value
        for row in rows:
            act = sum((a * v for a, v in zip(row.coeffs, res.x)), Fraction(0))
            assert {LE: act <= row.rhs, GE: act >= row.rhs, EQ: act == row.rhs}[row.sense]
        assert all(lo <= v <= hi for v, (lo, hi) in zip(res.x, bounds))
    assert statuses == {"optimal", "infeasible"}


def _random_general_lp(rng):
    """An LP with rational data, free, half-bounded and boxed variables
    and rows of all three senses.  Most rows pass close to an anchor
    point that meets every bound, so all three statuses occur."""
    n = rng.randint(1, 4)
    bounds = []
    for _ in range(n):
        lo, hi = sorted((_random_rational(rng), _random_rational(rng)))
        bounds.append(rng.choice([(None, None), (lo, None), (None, hi), (lo, hi)]))
    anchor = [
        lo if lo is not None else hi if hi is not None else Fraction(rng.randint(-4, 4))
        for lo, hi in bounds
    ]
    rows = []
    for _ in range(rng.randint(1, 4)):
        coeffs = [_random_rational(rng) if rng.random() < 0.8 else Fraction(0) for _ in range(n)]
        if not any(coeffs):
            coeffs[0] = Fraction(1)
        sense = rng.choice([LE, GE, EQ])
        rhs = sum((a * v for a, v in zip(coeffs, anchor)), Fraction(0))
        if rng.random() < 0.3:
            rhs += _random_rational(rng, 4)
        elif sense != EQ:
            rhs += {LE: 1, GE: -1}[sense] * abs(_random_rational(rng, 3))
        rows.append(make_row(coeffs, sense, rhs))
    objective = [_random_rational(rng) for _ in range(n)]
    return n, objective, rows, bounds, rng.random() < 0.5


def _assert_meets(x, rows, bounds):
    """x meets every row and bound exactly."""
    assert all(isinstance(v, Fraction) for v in x)
    for row in rows:
        act = sum((a * v for a, v in zip(row.coeffs, x)), Fraction(0))
        assert {LE: act <= row.rhs, GE: act >= row.rhs, EQ: act == row.rhs}[row.sense]
    for v, (lo, hi) in zip(x, bounds):
        assert (lo is None or lo <= v) and (hi is None or v <= hi)


def test_cross_check_against_scipy():
    """Status and optimum agree with HiGHS (presolve off: on these tiny
    LPs its presolve calls some feasible, unbounded LPs infeasible)."""
    scipy_opt = pytest.importorskip("scipy.optimize")
    rng = random.Random(31)
    statuses = set()
    for _ in range(200):
        n, objective, rows, bounds, maximize = _random_general_lp(rng)
        res = solve_lp(n, objective, rows, bounds, maximize=maximize)
        sign = {LE: 1, GE: -1}
        ref = scipy_opt.linprog(
            [float(-c if maximize else c) for c in objective],
            A_ub=[[float(sign[r.sense] * a) for a in r.coeffs] for r in rows if r.sense != EQ] or None,
            b_ub=[float(sign[r.sense] * r.rhs) for r in rows if r.sense != EQ] or None,
            A_eq=[[float(a) for a in r.coeffs] for r in rows if r.sense == EQ] or None,
            b_eq=[float(r.rhs) for r in rows if r.sense == EQ] or None,
            bounds=[tuple(None if b is None else float(b) for b in bd) for bd in bounds],
            method="highs",
            options={"presolve": False},
        )
        assert res.status == {0: "optimal", 2: "infeasible", 3: "unbounded"}[ref.status]
        statuses.add(res.status)
        if res.status == "optimal":
            assert float(res.objective) == pytest.approx(-ref.fun if maximize else ref.fun, abs=1e-7)
            _assert_meets(res.x, rows, bounds)
    assert statuses == {"optimal", "infeasible", "unbounded"}


def test_warm_starts_match_cold_solves():
    """Several objectives and senses optimised in turn on one tableau
    give the status and exact optimum of a cold solve each, at a point
    that meets every row and bound."""
    rng = random.Random(11)
    statuses = set()
    for _ in range(200):
        n, objective, rows, bounds, maximize = _random_general_lp(rng)
        tableau = Tableau(n, rows, bounds)
        for _ in range(4):
            warm = tableau.optimize(objective, maximize)
            cold = solve_lp(n, objective, rows, bounds, maximize=maximize)
            assert (warm.status, warm.objective) == (cold.status, cold.objective)
            statuses.add(warm.status)
            if warm.status == "optimal":
                _assert_meets(warm.x, rows, bounds)
                assert sum((c * v for c, v in zip(objective, warm.x)), Fraction(0)) == warm.objective
            objective = [_random_rational(rng) for _ in range(n)]
            maximize = rng.random() < 0.5
    assert statuses == {"optimal", "infeasible", "unbounded"}
