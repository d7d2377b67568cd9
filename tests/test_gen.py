"""The hard-instance generator and its enumeration certificate.

The empty-enumeration expectations below were independently confirmed
with tests/oracles.py (feasible_points over the exact rows).
"""

import dataclasses
import math
import random
from fractions import Fraction
from itertools import product

import pytest

from corecuts import (
    InputError,
    NotCore,
    analyze_group,
    certify_infeasible,
    generate,
    hard_instance,
    lp_relax,
    make_instance,
    rotation_class_key,
)
from corecuts.errors import SingularCirculant
from corecuts.gen import GenResult
from corecuts.simplex import make_row
from corecuts.solve import _cycle_misses


def test_hard_instance_shape():
    inst = hard_instance((2, 2, 2, 2, 1))
    assert inst.n == 5
    # n floor rows + n cap rows + the layer equality
    assert len(inst.rows) == 11
    senses = [r.sense for r in inst.rows]
    assert senses.count(">=") == 5 and senses.count("<=") == 5 and senses.count("==") == 1
    layer_row = [r for r in inst.rows if r.sense == "=="][0]
    assert layer_row.coeffs == (1,) * 5 and layer_row.rhs == 9
    assert inst.bounds == ((Fraction(0), Fraction(3)),) * 5
    assert inst.sense == "feasibility"
    assert inst.group is not None and inst.group.selected_cycles[0].k == 5


def test_hard_instance_rows_are_inverse_rotations():
    """Row i of the floor block applies the i-th rotation of the exact
    inverse coefficients; the LP relaxation must accept the barycentric
    center but the caps must cut away every vertex."""
    inst = hard_instance((2, 2, 2, 2, 1))
    assert lp_relax(inst).status == "Feasible"


def test_hard_instance_rejects_non_core_point():
    with pytest.raises(NotCore) as err:
        hard_instance((2, 1, 0))
    assert "(1, 1, 1)" in str(err.value)


def test_hard_instance_can_skip_core_check():
    inst = hard_instance((2, 1, 0), require_core=False)
    assert inst.n == 3


def test_certify_infeasible_on_the_flagship_instance():
    inst = hard_instance((2, 2, 2, 2, 1))
    empty, witness = certify_infeasible(inst)
    assert empty and witness is None


def test_certify_returns_witness_when_points_exist():
    inst = hard_instance((1, 1, 0), require_core=False)
    # relax the caps away: keep only floors and the layer row
    relaxed = type(inst)(
        n=inst.n,
        sense=inst.sense,
        objective=inst.objective,
        rows=tuple(r for r in inst.rows if r.sense != "<="),
        bounds=inst.bounds,
        integer=inst.integer,
        group=inst.group,
    )
    empty, witness = certify_infeasible(relaxed)
    assert not empty
    assert witness is not None and sum(witness) == 2


def test_generate_bundles_certificate():
    res = generate((1, 1, 0))
    assert isinstance(res, GenResult)
    assert res.layer == 2
    assert res.certified and res.witness is None


def test_generate_can_skip_certification():
    res = generate((2, 2, 2, 2, 1), certify=False)
    assert not res.certified
    assert res.instance.n == 5


def test_hard_instance_follows_the_given_cycle():
    """On a nonstandard cycle the images of c along that cycle are the
    orbit-polytope vertices: each meets every floor row and the layer
    row and breaks exactly one cap."""
    image = {1: 5, 5: 2, 2: 4, 4: 3, 3: 1}
    inst = hard_instance((2, 0, 1, 0, 0), cycle="(1,5,2,4,3)")
    point = (2, 0, 1, 0, 0)
    for _ in range(5):
        acts = [(r.sense, sum(a * v for a, v in zip(r.coeffs, point)), r.rhs) for r in inst.rows]
        assert all(act >= rhs for sense, act, rhs in acts if sense == ">=")
        assert all(act == rhs for sense, act, rhs in acts if sense == "==")
        assert sum(act > rhs for sense, act, rhs in acts if sense == "<=") == 1
        moved = [0] * 5
        for i, v in enumerate(point, start=1):
            moved[image[i] - 1] = v
        point = tuple(moved)
    assert certify_infeasible(inst) == (True, None)


def test_certify_scans_only_the_integers_inside_fractional_bounds():
    # x in [1/2, 5/2] with x <= 0 has no solution; 0 lies outside the
    # bounds and must not come back as a witness
    bounds = [(Fraction(1, 2), Fraction(5, 2))]
    empty = make_instance(1, rows=(make_row([1], "<=", 0),), bounds=bounds)
    assert certify_infeasible(empty) == (True, None)
    # rational rows are checked exactly: 2/3 x = 4/3 only at x = 2
    row = make_row([Fraction(2, 3)], "==", Fraction(4, 3))
    assert certify_infeasible(make_instance(1, rows=(row,), bounds=bounds)) == (False, (2,))


def _meets(row, point):
    act = sum(a * v for a, v in zip(row.coeffs, point))
    return {"<=": act <= row.rhs, ">=": act >= row.rhs, "==": act == row.rhs}[row.sense]


def _full_box_certify(inst):
    """Referee: every integer point of the box, in lexicographic order,
    against every row in exact arithmetic."""
    # equality rows first: the order changes only how soon a point fails
    rows = sorted(inst.rows, key=lambda row: row.sense != "==")
    ranges = [range(math.ceil(lo), math.floor(hi) + 1) for lo, hi in inst.bounds]
    for point in product(*ranges):
        if all(_meets(row, point) for row in rows):
            return False, point
    return True, None


def _with_rows(inst, rows):
    return dataclasses.replace(inst, rows=tuple(rows))


def _variants(inst, layer):
    """inst, inst without its caps, and inst with its layer row gone,
    scaled or fractional (no layer row to scan by)."""
    others = [r for r in inst.rows if r.sense != "=="]
    return [
        inst,
        _with_rows(inst, [r for r in inst.rows if r.sense != "<="]),
        _with_rows(inst, others),
        _with_rows(inst, others + [make_row([2] * inst.n, "==", 2 * layer)]),
        _with_rows(inst, others + [make_row([1] * inst.n, "==", Fraction(2 * layer + 1, 2))]),
    ]


def test_certify_matches_full_box_referee():
    """The enumeration gives the full box's verdict and first witness:
    on generated instances of core and non-core points, on relaxed ones
    that keep their layer row, and on instances whose layer row is gone,
    scaled or fractional.  On the same instances built on a full cycle
    in another order the verdict is the full box's, and a witness, the
    first read along that cycle, meets every row and bound."""
    rng = random.Random(11)
    shuffle = random.Random(12)
    witnesses = shuffled_witnesses = 0
    for _ in range(12):
        c = tuple(rng.randint(0, 2) for _ in range(rng.randint(3, 5)))
        try:
            inst = hard_instance(c, require_core=False)
        except SingularCirculant:
            continue
        for variant in _variants(inst, sum(c)):
            got = certify_infeasible(variant)
            assert got == _full_box_certify(variant), (c, variant.rows)
            witnesses += got[1] is not None
        order = [1, *shuffle.sample(range(2, len(c) + 1), len(c) - 1)]
        cycle = "(" + ",".join(map(str, order)) + ")"
        for variant in _variants(hard_instance(c, require_core=False, cycle=cycle), sum(c)):
            empty, witness = certify_infeasible(variant)
            assert empty == _full_box_certify(variant)[0], (c, cycle, variant.rows)
            if witness is not None:
                shuffled_witnesses += 1
                assert all(_meets(row, witness) for row in variant.rows)
                assert all(lo <= v <= hi for (lo, hi), v in zip(variant.bounds, witness))
    assert witnesses and shuffled_witnesses


def test_certify_checks_the_declared_cycle_before_scanning_classes():
    """An instance that its declared cycle does not fix, here a hard
    instance without one of its floor or cap rows, gets the full box's
    answer.  Without a cap, the one vertex left feasible is often not
    the least of its rotations, so a scan of one point per rotation
    class would have missed it."""
    inst = hard_instance((2, 2, 2, 2, 1))
    not_least = 0
    for i, row in enumerate(inst.rows):
        if row.sense == "==":
            continue
        variant = _with_rows(inst, inst.rows[:i] + inst.rows[i + 1 :])
        assert _cycle_misses(variant, variant.group.selected_cycles[0])
        got = certify_infeasible(variant)
        assert got == _full_box_certify(variant), i
        if row.sense == "<=":
            assert not got[0]
            not_least += got[1] != rotation_class_key(got[1])
    assert not_least


def test_certify_refuses_a_box_no_index_fits():
    """The rotation-class scan is lazy: it takes the box's length first,
    so a 10**400-wide box raises OverflowError instead of running
    without end."""
    group = analyze_group(["(1,2,3)"], 3)
    inst = make_instance(3, bounds=[(0, 10**400)] * 3, group=group)
    with pytest.raises(OverflowError):
        certify_infeasible(inst)


@pytest.mark.parametrize("entry", [1.5, True, "2"])
def test_generator_refuses_non_integer_entries(entry):
    """generate((1.5, 1, 0)) built and certified the instance of (1, 1, 0)."""
    for build in (hard_instance, generate):
        with pytest.raises(InputError, match="point entry"):
            build((entry, 1, 0))
