"""Instance files: a small JSON container for an ILP plus its symmetry.

Schema (``"format": 1``)::

    {
      "format": 1,
      "n": 5,
      "objective": {"sense": "feasibility" | "max" | "min",
                    "coeffs": ["0", ...]},
      "rows": [{"coeffs": ["4/9", ...], "sense": "<=" | ">=" | "==",
                "rhs": "1/2"}, ...],
      "bounds": [{"lo": "0", "hi": "3", "integer": true}, ...],
      "group": {"generators": ["(1,2,3,4,5)"]},
      "warnings": [...]                         # optional, informative
    }

All numbers are exact rationals: plain JSON integers or ``Fraction``
strings ("p/q"); the writer emits strings uniformly, so files
round-trip with no float in sight.  The group block stores only the
generator words; cycle classification and working-cycle selection are
recomputed on load — the selection is deterministic, so a file always
reanalyzes to the same engine schedule.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Optional

from .errors import InputError
from .perms import GroupSpec, classify, cycle_decomposition, parse_generators, select_cycles
from .simplex import make_row
from .solve import Instance, make_instance

FORMAT_VERSION = 1


def _frac_str(v: Fraction) -> str:
    return str(Fraction(v))


def _parse_frac(s) -> Fraction:
    if isinstance(s, bool) or not isinstance(s, (str, int)):
        raise InputError(f"expected integer or rational string, got {s!r}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"malformed rational {s!r}") from exc


def _bound_str(v: Optional[Fraction]):
    return None if v is None else _frac_str(v)


def _parse_bound(v) -> Optional[Fraction]:
    return None if v is None else _parse_frac(v)


def generator_strings(group: GroupSpec) -> list[str]:
    out = []
    for g in group.generators:
        cycles = cycle_decomposition(g)
        if cycles:
            out.append("".join(str(c) for c in cycles))
    return out


def analyze_group(strings, n: int) -> GroupSpec:
    """Parse generator words and derive the working cycles."""
    gs = parse_generators(list(strings), n=n)
    classify(gs)
    select_cycles(gs)
    return gs


def instance_to_dict(inst: Instance) -> dict:
    doc = {
        "format": FORMAT_VERSION,
        "n": inst.n,
        "objective": {
            "sense": inst.sense,
            "coeffs": [_frac_str(c) for c in inst.objective],
        },
        "rows": [
            {
                "coeffs": [_frac_str(c) for c in r.coeffs],
                "sense": r.sense,
                "rhs": _frac_str(r.rhs),
            }
            for r in inst.rows
        ],
        "bounds": [
            {"lo": _bound_str(lo), "hi": _bound_str(hi), "integer": flag}
            for (lo, hi), flag in zip(inst.bounds, inst.integer)
        ],
    }
    if inst.group is not None:
        doc["group"] = {"generators": generator_strings(inst.group)}
    return doc


def write_instance(inst: Instance, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(instance_to_dict(inst), fh, indent=1)
        fh.write("\n")


def _typed(v, kind: type, what: str):
    """v when it is a JSON array (kind list) or object (kind dict): a
    string where an array belongs would be read character by character."""
    if not isinstance(v, kind):
        noun = "array" if kind is list else "object"
        raise InputError(f"{what} must be a JSON {noun}, got {v!r}")
    return v


def instance_from_dict(doc: dict) -> Instance:
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_VERSION:
        raise InputError("unsupported or missing instance format version")
    try:
        n = doc["n"]
        if isinstance(n, bool) or not isinstance(n, int):
            raise InputError(f"n must be a JSON integer, got {n!r}")
        obj = doc["objective"]
        sense = obj["sense"]
        objective = [_parse_frac(c) for c in _typed(obj["coeffs"], list, "objective coeffs")]
        rows = []
        for r in _typed(doc["rows"], list, "rows"):
            r = _typed(r, dict, "each row")
            coeffs = [_parse_frac(c) for c in _typed(r["coeffs"], list, "row coeffs")]
            rows.append(make_row(coeffs, r["sense"], _parse_frac(r["rhs"])))
        bounds = [_typed(b, dict, "each bound") for b in _typed(doc["bounds"], list, "bounds")]
        integer = [b.get("integer", True) for b in bounds]
        bounds = [(_parse_bound(b["lo"]), _parse_bound(b["hi"])) for b in bounds]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed instance file: {exc}") from exc
    if len(objective) != n or len(bounds) != n:
        raise InputError("objective/bounds width does not match n")
    group = None
    if "group" in doc:
        spec = doc["group"]
        gens = spec.get("generators") if isinstance(spec, dict) else None
        if not isinstance(gens, list) or not all(isinstance(g, str) for g in gens):
            raise InputError('"group" must be an object whose "generators" is a list of strings')
        if gens:
            group = analyze_group(gens, n)
    return make_instance(
        n, sense=sense, objective=objective, rows=rows,
        bounds=bounds, integer=integer, group=group,
    )


def read_instance(path) -> Instance:
    """Read an instance file; bytes that are not ASCII, text that is not
    JSON and JSON nested too deeply to decode raise InputError."""
    with open(path, "r", encoding="ascii") as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:  # ValueError: bad bytes or JSON
            raise InputError(f"not valid JSON: {exc}") from exc
    return instance_from_dict(doc)
