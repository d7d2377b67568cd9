"""Circulant spectra, the inverse-coefficient formulas, exact solvers.

Expected rationals in this file were pinned with tests/oracles.py
(plain Gaussian elimination over Fractions, no package imports).
"""

import math
import random
from fractions import Fraction

import pytest

import oracles

from corecuts import (
    SingularCirculant,
    canonical_projected,
    cut_rotation,
    det_circulant,
    eigenvalues,
    fourier_pair,
    is_singular,
    s1_for_point,
    s2_singular,
    smoothness,
    solve_circulant_exact,
    t_hat_exact,
    t_values,
)
from corecuts.exprs import EvalDivisionByZero, _interval_of, check_value, eval_float
from corecuts.perms import Cycle
from corecuts.spectral import _cyclotomic_table, scaled_inverse

# first column of Cir(c)^{-1}, pinned by oracles.t_hat_oracle
T_HAT_PINNED = {
    (1, 0, 0): (Fraction(1), Fraction(0), Fraction(0)),
    (2, 1, 0): (Fraction(4, 9), Fraction(-2, 9), Fraction(1, 9)),
    (1, 2, 0, 3): (
        Fraction(11, 48),
        Fraction(17, 48),
        Fraction(-13, 48),
        Fraction(-7, 48),
    ),
    (3, 1, 0, 0, 1): (
        Fraction(11, 25),
        Fraction(-4, 25),
        Fraction(1, 25),
        Fraction(1, 25),
        Fraction(-4, 25),
    ),
    (2, 2, 2, 2, 1): (
        Fraction(2, 9),
        Fraction(-7, 9),
        Fraction(2, 9),
        Fraction(2, 9),
        Fraction(2, 9),
    ),
}

# det Cir(c), pinned by oracles.det_fractions
DET_PINNED = {
    (2, 1, 0): 9,
    (1, 2, 0, 3): -48,
    (3, 1, 0, 0, 1): 125,
    (2, 2, 2, 2, 1): 9,
}


def test_fourier_pair_values():
    n = 8
    for m in range(1, n // 2 + 1):
        V, U = fourier_pair(n, m)
        for j in range(n):
            assert V[j] == pytest.approx(math.cos(2 * math.pi * j * m / n))
            assert U[j] == pytest.approx(math.sin(2 * math.pi * j * m / n))


def test_eigenvalues_match_direct_dft():
    c = (3, 1, 4, 1, 5)
    spec = eigenvalues(c)
    n = len(c)
    for m in range(n // 2 + 1):
        re = sum(c[j] * math.cos(2 * math.pi * j * m / n) for j in range(n))
        im = sum(c[j] * math.sin(2 * math.pi * j * m / n) for j in range(n))
        assert spec.psi_re[m] == pytest.approx(re, abs=1e-9)
        assert spec.psi_im[m] == pytest.approx(im, abs=1e-9)
        assert spec.proj_len_sq[m] == pytest.approx(re * re + im * im, abs=1e-9)


@pytest.mark.parametrize("c", sorted(T_HAT_PINNED))
def test_t_hat_exact_pinned(c):
    assert tuple(t_hat_exact(c)) == T_HAT_PINNED[c]


@pytest.mark.parametrize("c", sorted(T_HAT_PINNED))
def test_t_hat_float_matches_exact(c):
    tv = t_values(c)
    for f, e in zip(tv.t_hat, T_HAT_PINNED[c]):
        assert f == pytest.approx(float(e), abs=1e-12)


def test_t_hat_is_inverse_first_column():
    """Cir(c) . t_hat == e_1 exactly, for a handful of random vectors."""
    rng = random.Random(11)
    for n in range(3, 9):
        for _ in range(20):
            c = tuple(rng.randint(-4, 4) for _ in range(n))
            try:
                that = t_hat_exact(c)
            except SingularCirculant:
                continue
            prod = [
                sum(Fraction(c[(i - j) % n]) * that[j] for j in range(n))
                for i in range(n)
            ]
            assert prod[0] == 1
            assert all(v == 0 for v in prod[1:])


def test_t_values_t_sums_to_zero():
    rng = random.Random(12)
    for n in range(3, 11):
        for _ in range(20):
            c = tuple(rng.randint(-3, 3) for _ in range(n))
            try:
                tv = t_values(c)
            except SingularCirculant:
                continue
            assert abs(sum(tv.t)) <= 1e-9


def test_t_bar_reverses_t_hat():
    tv = t_values((2, 1, 0))
    n = 3
    for j in range(n):
        assert tv.t_bar[j] == tv.t_hat[(-j) % n]


@pytest.mark.parametrize("c", sorted(DET_PINNED))
def test_det_circulant_pinned(c):
    assert det_circulant(c) == pytest.approx(DET_PINNED[c], rel=1e-9)


def test_det_circulant_zero_cases():
    # <1, c> = 0
    assert det_circulant((1, -1, 0, 0)) == pytest.approx(0.0, abs=1e-9)
    # alternating-mode factor vanishes for n even
    assert det_circulant((1, 1, 0, 0)) == pytest.approx(0.0, abs=1e-9)


def test_singular_circulant_raises():
    with pytest.raises(SingularCirculant):
        t_values((1, -1, 0))
    with pytest.raises(SingularCirculant):
        t_hat_exact((1, 1, 0, 0))


def test_solve_circulant_exact():
    lam = solve_circulant_exact((2, 1, 0), (1, 1, 1))
    assert lam == [Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)]


def test_solve_circulant_exact_recovers_t_hat():
    c = (3, 1, 0, 0, 1)
    assert solve_circulant_exact(c, (1, 0, 0, 0, 0)) == t_hat_exact(c)


def test_scaled_inverse_is_an_integer_multiple_of_the_inverse():
    """A (D A^{-1}) == D I with D > 0, including matrices that need row
    swaps and matrices with a negative determinant."""
    rng = random.Random(13)
    seen_swap = seen_negative = False
    for n in range(1, 7):
        for _ in range(30):
            A = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            try:
                D, inv = scaled_inverse(A)
            except SingularCirculant:
                continue
            seen_swap |= A[0][0] == 0
            seen_negative |= oracles.det_fractions(A) < 0
            assert D > 0 and D == abs(oracles.det_fractions(A))
            for i in range(n):
                for j in range(n):
                    assert sum(A[i][k] * inv[k][j] for k in range(n)) == D * (i == j)
    assert seen_swap and seen_negative
    with pytest.raises(SingularCirculant):
        scaled_inverse([[1, 2], [2, 4]])


def test_cyclotomic_table_pinned():
    """Phi_d for every d | 12, from the constant term up."""
    assert _cyclotomic_table(12) == (
        (-1, 1),
        (1, 1),
        (1, 1, 1),
        (1, 0, 1),
        (1, -1, 1),
        (1, 0, -1, 0, 1),
    )
    assert _cyclotomic_table(7) == ((-1, 1), (1,) * 7)


def _meets(con, env):
    """Whether a constraint holds at env: exactly on its interval row
    when it has one, by the float evaluator and check_value otherwise
    (the quadratic factors' coefficients are floats)."""
    row = _interval_of(con)
    if row is None:
        return check_value(eval_float(con.expr, env), con.sense, con.eps)
    coeffs, lo, hi = row
    value = sum(Fraction(a) * env[name] for name, a in coeffs.items())
    return (lo is None or value >= lo) and (hi is None or value <= hi)


@pytest.mark.parametrize("k, low, high", [(2, -2, 2), (3, -2, 2), (4, -1, 2), (5, -1, 2), (6, -1, 1)])
def test_is_singular_is_the_projection_of_the_s2_disjunction(k, low, high):
    """Over a small box, Cir(x) is singular iff some assignment of the
    binaries meets every constraint of the exported s2_singular set."""
    from itertools import product

    cs = s2_singular(Cycle(tuple(range(1, k + 1))))
    binaries = [av.name for av in cs.aux_vars]
    seen = set()
    for x in product(range(low, high + 1), repeat=k):
        env = {f"x{i + 1}": v for i, v in enumerate(x)}
        disjunction = any(
            all(_meets(con, {**env, **dict(zip(binaries, r))}) for con in cs.constraints)
            for r in product((0, 1), repeat=len(binaries))
        )
        assert is_singular(x) == disjunction, x
        seen.add((disjunction, sum(x) == 0))
    # singular blocks with a nonzero sum too
    assert seen == {(True, True), (True, False), (False, False)}


def test_is_singular_agrees_with_the_exact_inverse():
    """On random blocks (k = 2..8), Cir(x) is singular iff t_hat_exact
    raises SingularCirculant."""
    rng = random.Random(41)
    singular = 0
    for _ in range(3000):
        c = [rng.randint(-3, 3) for _ in range(rng.randint(2, 8))]
        try:
            t_hat_exact(c)
            expected = False
        except SingularCirculant:
            expected = True
        assert is_singular(c) == expected, c
        singular += expected
    assert 100 < singular < 2900, singular


def test_is_singular_is_rotation_invariant():
    rng = random.Random(43)
    answers = set()
    for _ in range(500):
        c = [rng.randint(-2, 2) for _ in range(rng.randint(2, 8))]
        answer = is_singular(c)
        assert all(is_singular(c[s:] + c[:s]) == answer for s in range(1, len(c))), c
        answers.add(answer)
    assert answers == {True, False}


def _holds_in_floats(sets, x):
    """Whether block x meets every constraint of the exported sets under
    eval_float and check_value; a zero denominator fails it."""
    env = {f"x{i + 1}": float(v) for i, v in enumerate(x)}
    try:
        return all(
            check_value(eval_float(con.expr, env), con.sense, con.eps)
            for cs in sets
            for con in cs.constraints
        )
    except EvalDivisionByZero:
        return False


@pytest.mark.parametrize("k", range(2, 8))
def test_cut_rotation_decides_the_exported_cuts_and_guards(k):
    """On random blocks (entries -3..8) and up to four S1 cuts (points
    in -2..2), rotation by rotation, a rotation of the block passes
    cut_rotation with one allowed rotation iff it meets the exported
    smoothness guards and cuts in floats; cut_rotation over all k
    rotations returns the first such rotation, or None.  Each S1 set
    records its canonical point."""
    rng = random.Random(100 + k)
    cycle = Cycle(tuple(range(1, k + 1)))
    guards = smoothness(cycle)
    outcomes = set()
    for _ in range(300):
        points = [tuple(rng.randint(-2, 2) for _ in range(k)) for _ in range(rng.randint(0, 4))]
        cuts = [s1_for_point(z, cycle) for z in points]
        assert [cs.point for cs in cuts] == [canonical_projected(z) for z in points]
        recorded = [cs.point for cs in cuts]
        x = [rng.randint(-3, 8) for _ in range(k)]
        rotations = [[x[(i - s) % k] for i in range(k)] for s in range(k)]
        passing = [_holds_in_floats([guards, *cuts], r) for r in rotations]
        assert [cut_rotation(r, recorded) == 0 for r in rotations] == passing, (x, points)
        first = passing.index(True) if any(passing) else None
        assert cut_rotation(x, recorded, k) == first, (x, points)
        outcomes.add(first if first is None else bool(first))
    # blocks that fail, that pass as they are, and that pass only rotated
    assert outcomes == {None, False, True}, outcomes
