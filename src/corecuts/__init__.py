"""corecuts: symmetry-exploiting layer search for integer programs.

The package decomposes a symmetric ILP along the cycles of its
permutation group: integer points are searched layer by layer (orbits
of the coordinate sum), each layer reduced to a handful of subproblems
built from core points of the cyclic action — nonlinear outer cuts,
circulant singularity disjunctions, and linear anchor probes — that a
small exact enumeration engine can decide at desk scale.

Layers load on first use.  ``import corecuts`` loads ``evalcore`` and
the modules it imports (``errors``, ``perms``, ``simplex``, ``exprs``);
every other layer loads when one of its names is first read, as in
``corecuts.run_auto``, ``from corecuts import generate`` or
``corecuts.engine``, and the name is then kept in the package.  So
reading an instance loads ``instancefile``, ``solve`` and ``spectral``
but not ``corepoints``, ``synth``, ``engine``, ``gen`` or ``minlp``.
``evalcore``, which no solver code calls, stays eager because the
benchmark's span tracer (``perfbench/spans.py``) looks it up in
``sys.modules`` when it installs; it goes when the benchmark drops it.
"""

import importlib

from . import evalcore  # noqa: F401

__version__ = "0.1.0"

#: the public names of each layer
_EXPORTS = {
    "errors": (
        "CorecutsError",
        "InputError",
        "LayerMismatch",
        "NonActiveMismatch",
        "NotCore",
        "OrbitCapExceeded",
        "SingularCirculant",
    ),
    "perms": (
        "Cycle",
        "GroupClass",
        "GroupSpec",
        "Permutation",
        "apply",
        "classify",
        "compose",
        "cycle_decomposition",
        "fixed_space_basis",
        "identity",
        "inverse",
        "orbit",
        "parse_cycles",
        "parse_generators",
        "select_cycles",
    ),
    "spectral": (
        "Spectrum",
        "TValues",
        "cut_rotation",
        "det_circulant",
        "eigenvalues",
        "fourier_pair",
        "is_singular",
        "solve_circulant_exact",
        "t_hat_exact",
        "t_values",
    ),
    "corepoints": (
        "BaryCoords",
        "CoreCertificate",
        "EssentialSet",
        "Outside",
        "all_rotations",
        "display_form",
        "is_lattice_free",
        "membership",
        "projected_essential_set",
        "rotation_class_key",
    ),
    "exprs": (
        "Add",
        "AuxVar",
        "Const",
        "Constraint",
        "ConstraintSet",
        "DEFAULT_EPS",
        "Div",
        "Dot",
        "EQ",
        "EQ_TOL",
        "EvalDivisionByZero",
        "LE_ZERO",
        "Mul",
        "NON_NEG",
        "SENSES",
        "STRICT_NEG",
        "Square",
        "Var",
        "check_value",
        "eval_float",
        "linear_form",
        "variables_of",
    ),
    "synth": (
        "canonical_projected",
        "cycle_var_names",
        "fixed_space_anchor",
        "reduce_projected",
        "s1_for_point",
        "s2_singular",
        "s3_anchor",
        "smoothness",
        "sublayer",
    ),
    "solve": (
        "FEASIBLE",
        "INFEASIBLE",
        "UNBOUNDED",
        "UNKNOWN",
        "FlatProblem",
        "FlatVar",
        "Instance",
        "Outcome",
        "export_subproblem",
        "flatten_subproblem",
        "lp_relax",
        "make_instance",
        "solve_subproblem",
        "symmetry_warnings",
    ),
    "engine": (
        "EngineOptions",
        "Report",
        "Schedule",
        "Subproblem",
        "SubResult",
        "plan",
        "plan_algorithm1",
        "plan_algorithm2",
        "plan_algorithm3",
        "report_to_dict",
        "run_algorithm1",
        "run_algorithm2",
        "run_algorithm3",
        "run_auto",
        "run_plain",
    ),
    "gen": ("GenResult", "certify_infeasible", "generate", "hard_instance"),
    "instancefile": (
        "analyze_group",
        "generator_strings",
        "instance_from_dict",
        "instance_to_dict",
        "read_instance",
        "write_instance",
    ),
    "minlp": ("dumps_problem", "parse_problem", "write_problem"),
    "evalcore": ("backend_name",),
}

#: each public name's layer
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}

__all__ = list(_LAYER_OF)


def __getattr__(name: str):
    """Load a public name's layer, or a layer, on first access."""
    if name in _LAYER_OF:
        value = getattr(importlib.import_module(f".{_LAYER_OF[name]}", __name__), name)
    elif name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
