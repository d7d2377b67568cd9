"""Instance JSON documents: schema, rational encoding, validation."""

import json
from fractions import Fraction

import pytest

from corecuts import (
    InputError,
    generate,
    instance_from_dict,
    instance_to_dict,
    make_instance,
    read_instance,
    symmetry_warnings,
    write_instance,
)
from corecuts.instancefile import analyze_group, generator_strings
from corecuts.simplex import GE, LE, make_row


def _sample():
    group = analyze_group(["(1,2,3)"], 3)
    rows = tuple(
        make_row([1 if j == i else 0 for j in range(3)], LE, Fraction(1, 2))
        for i in range(3)
    )
    return make_instance(
        3,
        sense="max",
        objective=[Fraction(1, 3)] * 3,
        rows=rows,
        bounds=((Fraction(-1), Fraction(2)),) * 3,
        group=group,
    )


def test_document_schema():
    doc = instance_to_dict(_sample())
    assert doc["format"] == 1
    assert doc["n"] == 3
    assert doc["objective"]["sense"] == "max"
    assert doc["objective"]["coeffs"] == ["1/3", "1/3", "1/3"]
    assert doc["rows"][0]["sense"] == "<="
    assert doc["rows"][0]["rhs"] == "1/2"
    assert doc["bounds"][0] == {"lo": "-1", "hi": "2", "integer": True}
    assert doc["group"]["generators"] == ["(1,2,3)"]


def test_round_trip_preserves_everything():
    inst = _sample()
    back = instance_from_dict(instance_to_dict(inst))
    assert back.n == inst.n
    assert back.sense == inst.sense
    assert back.objective == inst.objective
    assert back.rows == inst.rows
    assert back.bounds == inst.bounds
    assert back.integer == inst.integer
    assert generator_strings(back.group) == generator_strings(inst.group)
    assert symmetry_warnings(back) == []


def test_write_read_file(tmp_path):
    inst = generate((1, 1, 0)).instance
    path = tmp_path / "inst.json"
    write_instance(inst, path)
    doc = json.loads(path.read_text())
    assert doc["format"] == 1
    back = read_instance(path)
    assert back.rows == inst.rows
    assert back.group.selected_cycles[0].support == (1, 2, 3)


def test_parser_accepts_plain_integers():
    doc = instance_to_dict(_sample())
    doc["rows"][0]["rhs"] = 1  # ints allowed where "p/q" strings are
    back = instance_from_dict(doc)
    assert back.rows[0].rhs == 1


def test_parser_rejects_bad_documents():
    base = instance_to_dict(_sample())

    bad_format = dict(base, format=99)
    with pytest.raises(InputError):
        instance_from_dict(bad_format)

    bad_sense = json.loads(json.dumps(base))
    bad_sense["objective"]["sense"] = "optimize"
    with pytest.raises(InputError):
        instance_from_dict(bad_sense)

    bad_row = json.loads(json.dumps(base))
    bad_row["rows"][0]["sense"] = "<"
    with pytest.raises(InputError):
        instance_from_dict(bad_row)

    bad_width = json.loads(json.dumps(base))
    bad_width["rows"][0]["coeffs"] = ["1", "2"]
    with pytest.raises(InputError):
        instance_from_dict(bad_width)


@pytest.mark.parametrize(
    "group",
    [["(1,2,3)"], "(1,2,3)", {"generators": [12]}, {"generators": [["(1,2,3)"]]}, {}],
    ids=["list", "string", "number-generator", "nested-generator", "no-generators"],
)
def test_parser_rejects_malformed_group(group):
    doc = instance_to_dict(_sample())
    doc["group"] = group
    with pytest.raises(InputError, match="generators"):
        instance_from_dict(doc)


@pytest.mark.parametrize("n", [2.5, "2", True, 2.0])
def test_parser_rejects_non_integer_n(n):
    """Each value truncates (int(n)) to the width of the document's
    rows, so only the type check rejects it."""
    width = int(n)
    doc = instance_to_dict(
        make_instance(width, rows=(make_row([1] * width, LE, 1),), bounds=[(0, 1)] * width)
    )
    doc["n"] = n
    with pytest.raises(InputError, match="n must be"):
        instance_from_dict(doc)


def test_parser_rejects_bool_numbers():
    doc = instance_to_dict(_sample())
    doc["rows"][0]["rhs"] = True
    with pytest.raises(InputError):
        instance_from_dict(doc)


def test_unbounded_sides_serialize_as_null():
    inst = make_instance(1, sense="min", objective=[1])
    doc = instance_to_dict(inst)
    assert doc["bounds"][0]["lo"] is None and doc["bounds"][0]["hi"] is None
    back = instance_from_dict(doc)
    assert back.bounds == ((None, None),)
