"""Constraint synthesis: outer cuts, singularity disjunctions, anchors.

The load-bearing check is the closed form behind s1_for_point: the cut
expression, evaluated at any nonsingular c, must equal
1 + sum_j z_j T_{(-j) mod k}(c) computed through the spectral path.
"""

import random
from fractions import Fraction

import pytest

from corecuts import (
    Cycle,
    InputError,
    SingularCirculant,
    canonical_projected,
    eval_float,
    is_singular,
    projected_essential_set,
    reduce_projected,
    s1_for_point,
    s2_singular,
    s3_anchor,
    smoothness,
    sublayer,
    t_values,
)
from corecuts.exprs import EQ, LE_ZERO, NON_NEG, STRICT_NEG, check_value, variables_of
from corecuts.synth import cycle_var_names, default_base_index, fixed_space_anchor


def _cyc(k):
    return Cycle(tuple(range(1, k + 1)))


def _env(c):
    return {f"x{i+1}": float(v) for i, v in enumerate(c)}


def _h_closed_form(z, c):
    """1 + sum_j z_j T_{(-j) mod k} straight from the spectral path."""
    tv = t_values(c)
    k = len(c)
    return 1.0 + sum(z[j] * tv.t[(-j) % k] for j in range(k))


# ---------------------------------------------------------------------------
# canonical projected form


def test_reduce_subtracts_most_frequent_value():
    assert reduce_projected((1, 1, 1, 1, 1, 0)) == (0, 0, 0, 0, 0, -1)
    assert reduce_projected((2, 1, 0)) == (2, 1, 0)
    # frequency tie resolves to the smaller value
    assert reduce_projected((1, 1, 0, 0)) == (1, 1, 0, 0)


def test_canonical_rotates_zeros_to_the_tail():
    assert canonical_projected((1, 1, 1, 1, 1, 0)) == (-1, 0, 0, 0, 0, 0)
    assert canonical_projected((0, 1, 2)) == (1, 2, 0)


def test_canonical_is_translation_and_rotation_invariant():
    z = (1, 0, 1, 1, 0, 0)
    want = canonical_projected(z)
    assert canonical_projected(tuple(v + 1 for v in z)) == want
    assert canonical_projected(z[2:] + z[:2]) == want


def test_cycle_var_names():
    assert cycle_var_names(Cycle((3, 1, 5))) == ("x3", "x1", "x5")


def test_default_base_index_first_modal_position():
    assert default_base_index((1, 1, 1, 0, 0, 0)) == 4
    assert default_base_index((2, 0, 1, 0, 0, 0)) == 2


# ---------------------------------------------------------------------------
# S1 cuts


def test_s1_is_one_strict_inequality():
    cs = s1_for_point((1, 1, 0), _cyc(3))
    assert cs.tag == "S1"
    assert len(cs.constraints) == 1
    assert cs.constraints[0].sense == STRICT_NEG


def test_s1_rejects_entries_outside_projected_range():
    with pytest.raises(InputError):
        s1_for_point((3, 0, 0), _cyc(3))
    with pytest.raises(InputError):
        s1_for_point((-2, 1, -3, 0), _cyc(4))


def test_s1_matches_spectral_closed_form():
    rng = random.Random(21)
    checked = 0
    for k in (3, 4, 5, 6, 7):
        cyc = _cyc(k)
        for residue in range(1, k):
            for z in projected_essential_set(k, residue, 4).points:
                cs = s1_for_point(z, cyc)
                expr = cs.constraints[0].expr
                zc = canonical_projected(z)
                for _ in range(8):
                    c = tuple(rng.randint(-4, 4) for _ in range(k))
                    try:
                        want = _h_closed_form(zc, c)
                    except SingularCirculant:
                        continue
                    got = eval_float(expr, _env(c))
                    assert got == pytest.approx(want, abs=1e-9)
                    checked += 1
    assert checked > 200


def test_s1_expression_is_translation_invariant_in_z():
    z = (1, 0, 1, 1, 0, 0)
    shifted = tuple(v + 1 for v in z)
    assert s1_for_point(z, _cyc(6)) == s1_for_point(shifted, _cyc(6))


def test_s1_near_full_residue_cut_has_single_negated_term():
    """The residue-(k-1) universal point (all ones, one zero) reduces to
    a single -T term: the cut reads 1 - T_m < 0 for one index m."""
    k = 6
    z = projected_essential_set(k, k - 1, 1).points[0]
    assert z == (1, 1, 1, 1, 1, 0)
    expr = s1_for_point(z, _cyc(k)).constraints[0].expr
    rng = random.Random(8)
    common = None
    trials = 0
    while trials < 6:
        c = tuple(rng.randint(-3, 3) for _ in range(k))
        try:
            tv = t_values(c)
        except SingularCirculant:
            continue
        h = eval_float(expr, _env(c))
        matches = {m for m in range(k) if abs((h - 1.0) + tv.t[m]) <= 1e-9}
        common = matches if common is None else (common & matches)
        trials += 1
    assert common is not None and len(common) == 1


# ---------------------------------------------------------------------------
# smoothness guards


@pytest.mark.parametrize("k,count", [(3, 1), (4, 2), (5, 2), (6, 3), (7, 3), (8, 4)])
def test_smoothness_guard_counts(k, count):
    cs = smoothness(_cyc(k))
    assert cs.tag == "Smooth"
    assert len(cs.constraints) == count
    assert all(c.sense == NON_NEG for c in cs.constraints)


def test_smoothness_guards_positive_iff_nonsingular():
    s = smoothness(_cyc(4))
    # det((1,1,0,0)) = 0 through the alternating mode: some guard fails
    env0 = _env((1, 1, 0, 0))
    vals = [eval_float(c.expr, env0) for c in s.constraints]
    assert not all(check_value(v, NON_NEG, 1e-6) for v in vals)
    env1 = _env((2, 1, 0, 0))
    vals = [eval_float(c.expr, env1) for c in s.constraints]
    assert all(check_value(v, NON_NEG, 1e-6) for v in vals)


# ---------------------------------------------------------------------------
# S2 singularity disjunctions


@pytest.mark.parametrize("k,rows,binaries", [(3, 3, 2), (4, 4, 3), (5, 4, 3)])
def test_s2_shape(k, rows, binaries):
    """One equality row per spectral factor, then the cardinality row."""
    cs = s2_singular(_cyc(k))
    assert cs.tag == "S2"
    assert len(cs.constraints) == rows
    assert [v.kind for v in cs.aux_vars] == ["binary"] * binaries
    assert [v.name for v in cs.aux_vars] == [f"r1_{i}" for i in range(binaries)]
    assert [c.sense for c in cs.constraints] == [EQ] * binaries + [LE_ZERO]


def _s2_feasible(cs, c, eps=1e-6):
    names = [f"x{i+1}" for i in range(len(c))]
    m = len(cs.aux_vars)
    for bits in range(2**m):
        env = {n: float(v) for n, v in zip(names, c)}
        for i, v in enumerate(cs.aux_vars):
            env[v.name] = float((bits >> i) & 1)
        if all(
            check_value(eval_float(con.expr, env), con.sense, con.eps)
            for con in cs.constraints
        ):
            return True
    return False


def test_s2_accepts_singular_rejects_regular():
    cs = s2_singular(_cyc(3))
    assert _s2_feasible(cs, (1, -1, 0))  # <1,c> = 0
    assert not _s2_feasible(cs, (1, 0, 0))  # identity circulant
    cs4 = s2_singular(_cyc(4))
    assert _s2_feasible(cs4, (1, 1, 0, 0))  # alternating factor vanishes
    assert _s2_feasible(cs4, (-1, 1, 0, 0))  # sign-guarded linear factor
    assert not _s2_feasible(cs4, (2, 1, 0, 0))


def _wide_blocks(rng, k):
    """Blocks of length k with entries up to 150 in absolute value: random
    ones, and singular ones made periodic, or with a zero sum or (even
    k) a zero alternating sum."""
    blocks = [(150,) * k, (-150,) + (150,) + (0,) * (k - 2)]
    for _ in range(30):
        x = [rng.randint(-150, 150) for _ in range(k)]
        blocks.append(tuple(x))
        for d in range(1, k):
            if k % d == 0:
                blocks.append(tuple(x[:d] * (k // d)))
        blocks.append(tuple(x[:-1]) + (-sum(x[:-1]),))
        if k % 2 == 0:
            tail = sum(v * (-1) ** j for j, v in enumerate(x[:-1]))
            blocks.append(tuple(x[:-1]) + (tail,))
    return blocks


@pytest.mark.parametrize("k", range(2, 7))
def test_s2_rows_hold_exactly_the_singular_blocks_at_any_width(k):
    """The rows need no bound on the block: over every binary assignment,
    some assignment meets them iff Cir(block) is singular, for blocks far
    wider than any default search box."""
    cs = s2_singular(_cyc(k))
    seen = set()
    for x in _wide_blocks(random.Random(k), k):
        singular = is_singular(x)
        assert _s2_feasible(cs, x) == singular, x
        seen.add(singular)
    assert seen == {True, False}


def test_s2_requires_at_least_one_zero_factor():
    """The cardinality row forbids switching every factor off."""
    cs = s2_singular(_cyc(3))
    names = ["x1", "x2", "x3"]
    env = {n: 5.0 for n in names}
    for v in cs.aux_vars:
        env[v.name] = 1.0
    vals = [eval_float(con.expr, env) for con in cs.constraints]
    assert not all(check_value(v, LE_ZERO, 1e-6) for v in vals)


# ---------------------------------------------------------------------------
# anchors and sub-layers


def test_s3_anchor_pins_offsets_to_base():
    z = (1, 1, 1, 0, 0, 0)
    cs = s3_anchor(z, _cyc(6))
    assert cs.tag == "S3"
    assert len(cs.constraints) == 5
    assert all(c.sense == EQ for c in cs.constraints)
    # anchored at base x4 (first modal position): x1 - x4 = 1 etc.
    env = {f"x{i+1}": float(z[i]) + 7.0 for i in range(6)}
    for con in cs.constraints:
        assert eval_float(con.expr, env) == 0.0


def test_s3_anchor_rejects_points_off_the_translate():
    cs = s3_anchor((1, 1, 0), _cyc(3))
    env = {"x1": 1.0, "x2": 0.0, "x3": 0.0}
    vals = [eval_float(c.expr, env) for c in cs.constraints]
    assert any(v != 0.0 for v in vals)


def test_sublayer_introduces_multiplier_variable():
    cs = sublayer(_cyc(5), 3)
    assert cs.tag == "Sublayer"
    assert len(cs.constraints) == 1
    assert cs.constraints[0].sense == EQ
    assert [(v.name, v.kind) for v in cs.aux_vars] == [("q1_3", "integer")]
    # x on layer 13 = 2*5 + 3 satisfies the row with q = 2
    env = {f"x{i+1}": v for i, v in enumerate((3.0, 3.0, 3.0, 3.0, 1.0))}
    env["q1_3"] = 2.0
    assert eval_float(cs.constraints[0].expr, env) == 0.0


# ---------------------------------------------------------------------------
# argument checks


def test_builders_check_their_arguments_and_build_equal_sets():
    """Each call builds a new set, equal for equal arguments: a list z
    reads as tuple(z), and eps as the float a Constraint keeps.  A bool
    is refused, though it equals an int."""
    c = _cyc(3)
    assert s2_singular(c) == s2_singular(Cycle((1, 2, 3)))
    assert sublayer(c, 1) == sublayer(c, 1)
    for residue in (True, 1.0):
        with pytest.raises(InputError, match="residue must be an integer"):
            sublayer(c, residue)
    z = [1, 0, 0]
    assert s1_for_point(z, c) == s1_for_point(tuple(z), c)
    assert s1_for_point(z, c, Fraction(1, 10**6)) == s1_for_point(z, c, 1e-6)
    assert s3_anchor(z, c) == s3_anchor(tuple(z), c)
    assert smoothness(c, 1) == smoothness(c, 1.0)
    assert smoothness(c, 1).constraints[0].eps == 1.0
    for build in (smoothness, lambda cyc, eps: s1_for_point(z, cyc, eps)):
        with pytest.raises(InputError, match="eps must be a number"):
            build(c, True)
    with pytest.raises(InputError, match="point length"):
        s3_anchor([1, 0], c)
    with pytest.raises(InputError, match="escape"):
        s1_for_point([3, 0, 0], c)


@pytest.mark.parametrize("build", [s1_for_point, s3_anchor])
@pytest.mark.parametrize("entry", [0.5, 1.0, True])
def test_point_builders_refuse_an_entry_that_is_not_an_int(build, entry):
    """An S1 cut is decided exactly on its point (spectral.cut_rotation),
    so a float entry would be decided in float arithmetic; True equals 1
    but is no int either."""
    with pytest.raises(InputError, match="point entry must be an integer"):
        build((entry, 0, 0), _cyc(3))


def test_a_cycle_that_is_not_ints_never_reaches_the_caches():
    """A cycle keys the planner's set caches (engine); True and 1.0
    equal 1, so a cycle over them would share the sets, over other
    names, of (1, 2).  Cycle refuses them before any builder runs."""
    want = s2_singular(Cycle((1, 2)))
    for support in ((True, 2), (1.0, 2)):
        with pytest.raises(InputError, match="cycle index must be an integer"):
            s2_singular(Cycle(support))
    assert s2_singular(Cycle((1, 2))) == want
    assert s2_singular(Cycle([1, 2])) == want
    assert {v for c in want.constraints for v in variables_of(c.expr)} >= {"x1", "x2"}


def test_fixed_space_anchor_equalizes_cycle_coordinates():
    cs = fixed_space_anchor(_cyc(4))
    assert cs.tag == "S3"
    assert len(cs.constraints) == 3
    env_ok = {f"x{i}": 2.5 for i in range(1, 5)}
    assert all(eval_float(c.expr, env_ok) == 0.0 for c in cs.constraints)
    env_bad = dict(env_ok, x3=1.0)
    assert any(eval_float(c.expr, env_bad) != 0.0 for c in cs.constraints)


def test_partial_cycle_names_follow_support():
    cyc = Cycle((2, 4, 6))
    cs = s3_anchor((1, 1, 0), cyc)
    from corecuts import variables_of

    used = set()
    for con in cs.constraints:
        used |= variables_of(con.expr)
    assert used <= {"x2", "x4", "x6"}
