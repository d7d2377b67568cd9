"""Permutations, cycle parsing, group classification, cycle selection."""

import pytest

from corecuts import (
    Cycle,
    GroupClass,
    InputError,
    Permutation,
    apply,
    classify,
    compose,
    cycle_decomposition,
    fixed_space_basis,
    identity,
    inverse,
    orbit,
    parse_generators,
    select_cycles,
)


def test_apply_places_entry_i_at_image_of_i():
    # sigma = (1,2,3): index 1 -> 2, so v_1 lands in slot 2
    p = Cycle((1, 2, 3)).as_permutation(3)
    assert apply(p, (10, 20, 30)) == (30, 10, 20)


def test_compose_is_p_then_q():
    p = Cycle((1, 2)).as_permutation(3)
    q = Cycle((2, 3)).as_permutation(3)
    pq = compose(p, q)
    # p first: 2 -> 1, and q leaves 1 fixed
    assert pq(2) == 1
    # p: 1 -> 2, then q: 2 -> 3
    assert pq(1) == 3
    assert compose(p, inverse(p)).is_identity()


def test_identity_and_apply_inverse():
    assert identity(4).is_identity()
    p = Cycle((1, 3, 4)).as_permutation(4)
    v = (5, 6, 7, 8)
    assert apply(inverse(p), apply(p, v)) == v


def test_permutation_rejects_non_bijection():
    with pytest.raises(InputError):
        Permutation((1, 1, 3))


def test_cycle_rejects_repeats():
    with pytest.raises(InputError):
        Cycle((1, 2, 1))


@pytest.mark.parametrize("support", [(), (1,), (4,)])
def test_cycle_needs_two_indices(support):
    with pytest.raises(InputError, match="at least two indices"):
        Cycle(support)


@pytest.mark.parametrize("support", [(True, 2), (1.0, 2), (1, "2"), (None, 2)])
def test_cycle_indices_must_be_ints(support):
    with pytest.raises(InputError, match="cycle index must be an integer"):
        Cycle(support)


def test_cycle_keeps_its_support_as_a_tuple():
    cyc = Cycle([3, 1, 2])
    assert cyc.support == (3, 1, 2) and cyc == Cycle((3, 1, 2))
    assert hash(cyc) == hash(Cycle((3, 1, 2)))


def test_parse_generators_single_full_cycle():
    gs = parse_generators(["(1,2,3,4,5)"])
    assert gs.n == 5
    assert len(gs.generators) == 1
    assert classify(gs) is GroupClass.DISJOINT_CYCLES
    [cyc] = select_cycles(gs)
    assert cyc.support == (1, 2, 3, 4, 5)


def test_parse_generators_respects_explicit_n():
    gs = parse_generators(["(1,2,3)"], n=6)
    assert gs.n == 6
    assert select_cycles(gs)[0].support == (1, 2, 3)


def test_cycle_decomposition_round_trip():
    p = Permutation((2, 3, 1, 5, 4, 6))
    cycles = cycle_decomposition(p)
    assert sorted(c.support for c in cycles) == [(1, 2, 3), (4, 5)]


def test_classify_product_of_disjoint_cycles():
    gs = parse_generators(["(1,2,3)(4,5)"])
    assert classify(gs) is GroupClass.PRODUCT_OF_DISJOINT_CYCLES


def test_classify_mixed_disjoint():
    # two generators, disjoint supports, one of them a product
    gs = parse_generators(["(1,2,3)", "(4,5)(6,7)"])
    assert classify(gs) is GroupClass.MIXED_DISJOINT


def test_select_cycles_two_disjoint_generators():
    gs = parse_generators(["(1,2,3,4,5)", "(6,7,8,9,10)"])
    assert classify(gs) is GroupClass.DISJOINT_CYCLES
    cycles = select_cycles(gs)
    assert [c.support for c in cycles] == [(1, 2, 3, 4, 5), (6, 7, 8, 9, 10)]


def test_select_cycles_composes_words_for_non_disjoint_generators():
    """Short products of overlapping generators can expose one long cycle.

    The two generators below overlap (both move 2 and 5); neither alone
    has a cycle longer than 5, but their product contains a 12-cycle
    fixing coordinates 6 and 9.  The word search must find it.
    """
    gs = parse_generators(["(1,2,3,4,5)", "(7,5,8,10,11)(12,13,2,14)"])
    assert gs.n == 14
    assert classify(gs) is GroupClass.NON_DISJOINT
    [cyc] = select_cycles(gs)
    assert cyc.k == 12
    assert cyc.support == (1, 14, 12, 13, 2, 3, 4, 8, 10, 11, 7, 5)
    assert {6, 9} == set(range(1, 15)) - set(cyc.support)


def test_select_cycles_word_length_cap():
    gs = parse_generators(["(1,2,3,4,5)", "(7,5,8,10,11)(12,13,2,14)"])
    # with words of length 1 only the raw generators are available
    best = select_cycles(gs, max_word_len=1)
    assert max(c.k for c in best) == 5


def test_orbit_full_cycle():
    gs = parse_generators(["(1,2,3)"])
    pts = orbit(gs, (2, 1, 0))
    assert set(pts) == {(2, 1, 0), (0, 2, 1), (1, 0, 2)}


def test_orbit_contains_start_once():
    gs = parse_generators(["(1,2,3,4)"])
    pts = orbit(gs, (1, 1, 1, 1))
    assert pts == [(1, 1, 1, 1)]


def test_fixed_space_basis_full_cycle():
    gs = parse_generators(["(1,2,3)"])
    select_cycles(gs)
    assert fixed_space_basis(gs) == [(1, 1, 1)]


def test_fixed_space_basis_partial_cycle():
    gs = parse_generators(["(1,2,3)"], n=5)
    select_cycles(gs)
    basis = fixed_space_basis(gs)
    assert (1, 1, 1, 0, 0) in basis
    assert (0, 0, 0, 1, 0) in basis and (0, 0, 0, 0, 1) in basis
    assert len(basis) == 3


def test_parse_rejects_malformed():
    for bad in ["", "1,2,3", "(1,2", "(1,a)", "(0,1)", "()", "(1)"]:
        with pytest.raises(InputError):
            parse_generators([bad])
