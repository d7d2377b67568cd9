"""Orbit polytopes: membership, lattice-free certification, essential sets.

The (2,1,0) witness and its barycentric coordinates were pinned with
tests/oracles.py (hull check by exhaustive enumeration + exact solve).
"""

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
from corecuts.corepoints import MAX_ESSENTIAL_COMBINATIONS, _in_hull_exact


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


def _referee(gs, z, box_margin=0):
    """The core check without shortcuts: an exact LP for every non-vertex
    point of the whole box, in lexicographic order."""
    verts = orbit(gs, tuple(z))
    lo = [min(v[j] for v in verts) - box_margin for j in range(gs.n)]
    hi = [max(v[j] for v in verts) + box_margin for j in range(gs.n)]
    for cand in itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))):
        if cand not in verts and _in_hull_exact(cand, verts):
            return "NotCore", cand
    return "Core", None


def _agree(gs, z, box_margin=0):
    cert = is_lattice_free(gs, z, box_margin=box_margin)
    assert (cert.verdict, cert.witness) == _referee(gs, z, box_margin), z
    return cert.verdict


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
        for margin in (0, 1):
            _agree(_cn(len(z)), z, margin)
    _agree(_cn(6), (2, 1, 0, 1, 0, 0))


def test_core_check_margin_on_regular_points():
    for z in [(2, 1, 0), (1, 0, 0), (2, 0, 1, 0), (2, 2, 2, 2, 1)]:
        _agree(_cn(len(z)), z, box_margin=1)


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
    """C(18, 9) = 48,620 vectors exceed the limit; the all-ones residue
    of the same cycle has one vector and is answered."""
    assert math.comb(18, 9) > MAX_ESSENTIAL_COMBINATIONS >= math.comb(16, 8)
    with pytest.raises(InputError, match="sub-layer too large"):
        projected_essential_set(18, 9, 1)
    with pytest.raises(InputError, match="sub-layer too large"):
        projected_essential_set(30, 15, 1)
    assert projected_essential_set(18, 18, 1).points == ((1,) * 18,)


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
