"""Orbit polytopes: membership, lattice-free certification, essential sets.

The (2,1,0) witness and its barycentric coordinates were pinned with
tests/oracles.py (hull check by exhaustive enumeration + exact solve).
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corecuts import (
    BaryCoords,
    Cycle,
    LayerMismatch,
    NonActiveMismatch,
    Outside,
    all_rotations,
    barycenter,
    co_projective,
    display_form,
    equivalent,
    in_fixed_lattice,
    is_lattice_free,
    isomorphic,
    membership,
    parse_generators,
    projected_essential_set,
    rotation_class_key,
    select_cycles,
    verify_layer,
)


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


@settings(max_examples=60, deadline=None)
@given(k=st.integers(3, 9), residue=st.integers(1, 9), budget=st.integers(1, 4))
def test_essential_set_entries_and_layers(k, residue, budget):
    residue = 1 + (residue - 1) % k
    ess = projected_essential_set(k, residue, budget)
    assert 1 <= len(ess.points) <= budget
    for z in ess.points:
        assert len(z) == k
        assert all(-2 <= v <= 2 for v in z)
        assert verify_layer(z, residue, k)


# ---------------------------------------------------------------------------
# group-relative relations


def test_barycenter_full_cycle():
    assert barycenter(_c3(), (2, 1, 0)) == (Fraction(1), Fraction(1), Fraction(1))


def test_in_fixed_lattice():
    gs = _c3()
    assert in_fixed_lattice((1, 1, 1), gs)
    assert not in_fixed_lattice((2, 1, 0), gs)


def test_equivalent_isomorphic_co_projective():
    gs = _c3()
    assert equivalent((2, 1, 0), (0, 2, 1), gs)
    assert not equivalent((2, 1, 0), (3, 2, 1), gs)
    # isomorphism also allows shifting along the fixed lattice
    assert isomorphic((2, 1, 0), (3, 2, 1), gs)
    assert co_projective((1, 2, 3), (3, 4, 5))
    assert not co_projective((1, 2, 3), (1, 2, 4))


def test_verify_layer():
    assert verify_layer((1, 1, 1, 0, 0, 0), 3, 6)
    assert not verify_layer((1, 1, 1, 0, 0, 0), 2, 6)
    # residues live modulo the cycle length
    assert verify_layer((2, 2, 2, 2, 1), 4, 5)
