"""Orbit polytopes: membership, lattice-free certification, essential sets.

The (2,1,0) witness and its barycentric coordinates were pinned with
tests/oracles.py (hull check by exhaustive enumeration + exact solve).
"""

import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corecuts import (
    BaryCoords,
    Cycle,
    InputError,
    LayerMismatch,
    NonActiveMismatch,
    Outside,
    all_rotations,
    display_form,
    is_lattice_free,
    membership,
    orbit,
    parse_generators,
    projected_essential_set,
    rotation_class_key,
    select_cycles,
)
from corecuts import simplex
from corecuts.corepoints import MAX_ESSENTIAL_WORK, _in_hull_exact, _necklace_points


def _c3():
    gs = parse_generators(["(1,2,3)"])
    select_cycles(gs)
    return gs


def _cn(n):
    gs = parse_generators(["(" + ",".join(str(i) for i in range(1, n + 1)) + ")"])
    select_cycles(gs)
    return gs


# ---------------------------------------------------------------------------
# membership


def test_membership_interior_point():
    r = membership((1, 1, 1), (2, 1, 0))
    assert isinstance(r, BaryCoords)
    assert r.lam == (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))


def test_membership_outside_point():
    r = membership((3, 0, 0), (2, 1, 0))
    assert isinstance(r, Outside)
    assert r.violating_index == 1
    assert r.lam == (Fraction(4, 3), Fraction(-2, 3), Fraction(1, 3))


def test_membership_vertex_is_unit_coordinates():
    r = membership((0, 2, 1), (2, 1, 0))
    assert isinstance(r, BaryCoords)
    assert sorted(r.lam) == [0, 0, 1]


def test_membership_layer_mismatch():
    with pytest.raises(LayerMismatch):
        membership((1, 1, 0), (2, 1, 0))


def test_membership_partial_cycle_checks_non_active():
    cyc = Cycle((1, 2, 3))
    # coordinate 4 off-support differs
    with pytest.raises(NonActiveMismatch):
        membership((1, 1, 1, 9), (2, 1, 0, 5), cyc)
    r = membership((1, 1, 1, 5), (2, 1, 0, 5), cyc)
    assert isinstance(r, BaryCoords)


# ---------------------------------------------------------------------------
# lattice-free certificates


def test_is_lattice_free_notcore_with_witness():
    cert = is_lattice_free(_c3(), (2, 1, 0))
    assert cert.verdict == "NotCore"
    assert cert.witness == (1, 1, 1)


def test_is_lattice_free_core_cases():
    assert is_lattice_free(_c3(), (1, 0, 0)).verdict == "Core"
    assert is_lattice_free(_cn(5), (2, 2, 2, 2, 1)).verdict == "Core"


def test_is_lattice_free_binary_points_are_core():
    gs = _cn(4)
    for z in [(1, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0), (1, 1, 1, 0)]:
        assert is_lattice_free(gs, z).verdict == "Core"


def _referee(gs, z, box_margin=0, order=None):
    """The core check without shortcuts: an exact LP for every non-vertex
    point of the whole box, in lexicographic order of the coordinates
    read along ``order`` (default 1..n)."""
    verts = orbit(gs, tuple(z))
    order = order or range(1, gs.n + 1)
    lo = [min(v[j - 1] for v in verts) - box_margin for j in order]
    hi = [max(v[j - 1] for v in verts) + box_margin for j in order]
    for read in itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))):
        cand = [0] * gs.n
        for j, v in zip(order, read):
            cand[j - 1] = v
        cand = tuple(cand)
        if cand not in verts and _in_hull_exact(cand, verts):
            return "NotCore", cand
    return "Core", None


def _agree(gs, z):
    cert = is_lattice_free(gs, z)
    assert (cert.verdict, cert.witness) == _referee(gs, z), z
    return cert.verdict


def _agree_on_a_wider_box(gs, z):
    """The orbit's box holds the hull, so the referee over the box
    widened by 1 finds the core check's verdict and witness."""
    cert = is_lattice_free(gs, z)
    assert (cert.verdict, cert.witness) == _referee(gs, z, box_margin=1), z


def test_core_check_matches_full_box_referee_on_full_cycles():
    rng = random.Random(6)
    verdicts = set()
    for n, count in ((3, 12), (4, 10), (5, 6), (6, 3)):
        gs = _cn(n)
        for _ in range(count):
            z = tuple(rng.randint(-1, 2) for _ in range(n))
            verdicts.add(_agree(gs, z))
    assert verdicts == {"Core", "NotCore"}


def test_core_check_matches_referee_on_other_groups():
    reordered = parse_generators(["(1,3,2,4)"])
    select_cycles(reordered)
    symmetric = parse_generators(["(1,2)", "(1,2,3,4)"])  # S4: 6 to 12 orbit points here
    select_cycles(symmetric)
    for gs in (reordered, symmetric):
        for z in [(2, 1, 0, 0), (2, 0, 1, 0), (1, 1, 0, 0), (2, 1, 1, -1), (0, 1, 2, 0)]:
            _agree(gs, z)


def test_core_check_matches_referee_on_singular_periodic_and_layer_zero():
    points = [
        (1, 0, 1, 0),  # periodic: two orbit points
        (2, 0, 2, 0),
        (1, 1, 0, 0),  # four orbit points, singular V
        (0, 1, 2, 1),
        (1, -1, 0),  # layer 0
        (2, -1, -1, 0),
        (1, 0, -1, 0),
    ]
    for z in points:
        _agree(_cn(len(z)), z)
        _agree_on_a_wider_box(_cn(len(z)), z)
    _agree(_cn(6), (2, 1, 0, 1, 0, 0))


def test_core_check_margin_on_regular_points():
    for z in [(2, 1, 0), (1, 0, 0), (2, 0, 1, 0), (2, 2, 2, 2, 1)]:
        _agree_on_a_wider_box(_cn(len(z)), z)


def test_core_check_under_shuffled_full_cycles():
    """Under a full cycle in any order the core check gives the
    referee's verdict.  Its witness is a non-vertex point of the hull on
    the orbit's layer: the first one read along the cycle from
    coordinate 1."""
    rng = random.Random(8)
    verdicts = set()
    for n, count in ((3, 10), (4, 10), (5, 6), (6, 2)):
        for _ in range(count):
            order = [1, *rng.sample(range(2, n + 1), n - 1)]
            gs = parse_generators(["(" + ",".join(map(str, order)) + ")"])
            select_cycles(gs)
            z = tuple(rng.randint(-1, 2) for _ in range(n))
            cert = is_lattice_free(gs, z)
            assert (cert.verdict, cert.witness) == _referee(gs, z, order=order), (order, z)
            verdicts.add(cert.verdict)
            if cert.witness is not None:
                verts = orbit(gs, z)
                assert sum(cert.witness) == sum(z) and cert.witness not in verts
                assert _in_hull_exact(cert.witness, verts)
    assert verdicts == {"Core", "NotCore"}


@pytest.mark.parametrize("entry", [1.5, True, "2"])
def test_core_check_refuses_non_integer_entries(entry):
    """1.5 was truncated to 1 and True read as 1."""
    with pytest.raises(InputError, match="point entry"):
        is_lattice_free(_c3(), (entry, 1, 0))


def test_core_check_refuses_a_box_no_index_fits():
    """The rotation-class scan is lazy: it takes the box's length first,
    so a 10**400-wide box raises OverflowError instead of running
    without end."""
    with pytest.raises(OverflowError):
        is_lattice_free(_c3(), (1, 10**400, 0))


def _count_lps(monkeypatch):
    calls = []
    real = simplex.lp_feasible

    def counting(n, rows, bounds):
        # the first rows hold the candidate point as right-hand sides
        calls.append(tuple(r.rhs for r in rows[:-1]))
        return real(n, rows, bounds)

    monkeypatch.setattr(simplex, "lp_feasible", counting)
    return calls


def test_regular_circulants_run_no_lp(monkeypatch):
    calls = _count_lps(monkeypatch)
    assert is_lattice_free(_cn(5), (2, 2, 2, 2, 1)).verdict == "Core"
    assert is_lattice_free(_cn(7), (1, 1, 0, 1, 0, 0, 0)).verdict == "Core"
    assert is_lattice_free(_c3(), (2, 1, 0)).witness == (1, 1, 1)
    assert calls == []


def test_singular_points_run_lps_on_their_layer_only(monkeypatch):
    calls = _count_lps(monkeypatch)
    z = (2, 1, 0, 1, 0, 0)
    assert is_lattice_free(_cn(6), z).verdict == "Core"
    assert calls and all(sum(x) == sum(z) for x in calls)
    calls.clear()
    z = (0, 1, 2, 1)
    cert = is_lattice_free(_cn(4), z)
    assert cert.witness == (1, 1, 1, 1)
    assert calls and all(sum(x) == sum(z) for x in calls)
    assert calls[-1] == cert.witness


# ---------------------------------------------------------------------------
# canonical forms


def test_display_form_prefers_trailing_zeros():
    assert display_form(all_rotations((0, 1, 2))) == (1, 2, 0)
    assert display_form(all_rotations((2, 0, 1, 0, 0, 0))) == (2, 0, 1, 0, 0, 0)


def test_rotation_class_key_is_rotation_invariant():
    for rot in all_rotations((0, 1, 2, 0, 2)):
        assert rotation_class_key(rot) == rotation_class_key((0, 1, 2, 0, 2))


def _least_rotations(n, lo, hi, layer):
    """Brute force: the least rotation of each class of box points (on
    the layer unless it is None), in lexicographic order."""
    box = itertools.product(range(lo, hi + 1), repeat=n)
    return sorted({rotation_class_key(v) for v in box if layer is None or sum(v) == layer})


def test_necklace_points_give_each_least_rotation_once_in_order():
    """One point per rotation class, the least of the class, in
    lexicographic order; under a cycle in another order the same holds
    of the points read along that cycle."""
    rng = random.Random(4)
    cases = 0
    for n in range(1, 8):
        order = rng.sample(range(1, n + 1), n)
        for lo, hi in ((0, 1), (-1, 1), (0, 2), (1, 3)):
            for layer in [None, *range(n * lo, n * hi + 1)]:
                want = _least_rotations(n, lo, hi, layer)
                assert list(_necklace_points(range(1, n + 1), lo, hi, layer)) == want
                got = [tuple(x[j - 1] for j in order) for x in _necklace_points(order, lo, hi, layer)]
                assert got == want, (order, lo, hi, layer)
                cases += 1
    assert cases == 252


# ---------------------------------------------------------------------------
# essential sets


def test_essential_set_layer_three_of_six():
    """Four points for the middle residue of a 6-cycle: three universal
    binary representatives plus one atom."""
    ess = projected_essential_set(6, 3, 4)
    assert ess.points == (
        (1, 1, 1, 0, 0, 0),
        (1, 0, 1, 1, 0, 0),
        (1, 0, 1, 0, 1, 0),
        (2, 0, 1, 0, 0, 0),
    )
    assert ess.kinds == ("Universal", "Universal", "Universal", "Atom")


def test_essential_set_full_residue_is_all_ones():
    ess = projected_essential_set(5, 5, 1)
    assert ess.points == ((1, 1, 1, 1, 1),)
    assert ess.kinds == ("Universal",)


def test_essential_set_totals_k8():
    total = sum(len(projected_essential_set(8, i, 4).points) for i in range(1, 8))
    assert total == 28


def test_essential_set_budget_one_keeps_first_universal():
    ess = projected_essential_set(6, 3, 1)
    assert ess.points == ((1, 1, 1, 0, 0, 0),)


def test_essential_set_refuses_oversized_sub_layers():
    """18 * 18 * C(18, 9), the worst-case scan of C(18, 9) = 48,620 vectors,
    exceeds the limit, and 16 * 16 * C(16, 8) does not; the all-ones
    residue of the 18-cycle has one vector and is answered."""
    assert 18 * 18 * math.comb(18, 9) > MAX_ESSENTIAL_WORK >= 16 * 16 * math.comb(16, 8)
    with pytest.raises(InputError, match="sub-layer too large"):
        projected_essential_set(18, 9, 1)
    with pytest.raises(InputError, match="sub-layer too large"):
        projected_essential_set(30, 15, 1)
    assert projected_essential_set(18, 18, 1).points == ((1,) * 18,)
    # the guard bounds the worst case, so a sub-layer under it is answered
    # at any budget, and an early stop does not lift the refusal
    assert projected_essential_set(16, 8, 1).points == ((1,) * 8 + (0,) * 8,)
    with pytest.raises(InputError, match="sub-layer too large"):
        projected_essential_set(200, 1, 1)


@pytest.mark.parametrize(
    "budget, message",
    [(1.5, "an integer"), (True, "an integer"), ("2", "an integer"), (0, ">= 1"), (-3, ">= 1")],
)
def test_essential_set_refuses_a_bad_budget(budget, message):
    with pytest.raises(InputError, match=f"budget must be {message}"):
        projected_essential_set(3, 1, budget)


@pytest.mark.parametrize(
    "k_len, residue, what",
    [(3.0, 1, "cycle length"), (True, 1, "cycle length"), ("3", 1, "cycle length"),
     (3, 1.0, "residue"), (3, True, "residue"), (3, None, "residue")],
)
def test_essential_set_refuses_a_length_or_residue_that_is_not_an_int(k_len, residue, what):
    with pytest.raises(InputError, match=f"{what} must be an integer"):
        projected_essential_set(k_len, residue, 1)


def test_essential_sets_refuse_bools_and_build_equal_sets():
    """Each call builds an equal essential set, and every argument
    refuses a bool, though True equals 1."""
    assert projected_essential_set(1, 1, 1) == projected_essential_set(1, 1, 1)
    assert projected_essential_set(1, 1, 1).points == ((1,),)
    for args in ((True, 1, 1), (1, True, 1), (1, 1, True)):
        with pytest.raises(InputError, match="must be an integer"):
            projected_essential_set(*args)


@functools.lru_cache(maxsize=None)
def _reference_universals(k_len, popcount):
    """Every universal class's display form, largest first, found the way
    ``projected_essential_set`` used to find them: each {0,1}-vector of
    the sub-layer keyed by its class under rotation and reflection, then
    all classes sorted.  The budget only cuts this list, so it is built
    once per sub-layer."""

    def bracelet_class_key(v):
        return min(rotation_class_key(v), rotation_class_key(tuple(reversed(v))))

    merged = {}
    if popcount == 0:
        merged[(1,) * k_len] = [(1,) * k_len]
    else:
        for ones in itertools.combinations(range(k_len), popcount):
            v = tuple(1 if j in ones else 0 for j in range(k_len))
            merged.setdefault(bracelet_class_key(v), []).append(v)
    return tuple(
        sorted(
            (
                display_form([rot for member in members for rot in all_rotations(member)])
                for members in merged.values()
            ),
            reverse=True,
        )
    )


def _reference_essential_set(k_len, residue, budget):
    """The enumerated classes cut to the budget, then atoms of the first
    universal point."""
    points = list(_reference_universals(k_len, residue % k_len)[:budget])
    kinds = ["Universal"] * len(points)
    if points and len(points) < budget:
        u = points[0]
        seen_atoms = set()
        for i in range(k_len):
            for j in range(k_len):
                if i == j or len(points) >= budget:
                    continue
                w = list(u)
                w[i] += 1
                w[j] -= 1
                wt = tuple(w)
                if all(x in (0, 1) for x in wt):
                    continue
                key = rotation_class_key(wt)
                if key in seen_atoms:
                    continue
                seen_atoms.add(key)
                points.append(wt)
                kinds.append("Atom")
    return residue, tuple(points), tuple(kinds)


def test_essential_set_matches_the_enumerated_reference():
    """The ordered scan keeps the classes' display forms in the order the
    reference sorts them, at every budget."""
    for k in range(1, 13):
        for residue in range(-1, k + 2):
            for budget in range(1, 7):
                ess = projected_essential_set(k, residue, budget)
                assert (ess.residue, ess.points, ess.kinds) == _reference_essential_set(
                    k, residue, budget
                ), (k, residue, budget)


@settings(max_examples=60, deadline=None)
@given(k=st.integers(3, 9), residue=st.integers(1, 9), budget=st.integers(1, 4))
def test_essential_set_entries_and_layers(k, residue, budget):
    residue = 1 + (residue - 1) % k
    ess = projected_essential_set(k, residue, budget)
    assert 1 <= len(ess.points) <= budget
    for z in ess.points:
        assert len(z) == k
        assert all(-2 <= v <= 2 for v in z)
        assert sum(z) % k == residue % k
