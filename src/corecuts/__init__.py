"""corecuts: symmetry-exploiting layer search for integer programs.

The package decomposes a symmetric ILP along the cycles of its
permutation group: integer points are searched layer by layer (orbits
of the coordinate sum), each layer reduced to a handful of subproblems
built from core points of the cyclic action — nonlinear outer cuts,
circulant singularity disjunctions, and linear anchor probes — that a
small exact enumeration engine can decide at desk scale.
"""

from .errors import (
    CorecutsError,
    InputError,
    LayerMismatch,
    NonActiveMismatch,
    NotCore,
    OrbitCapExceeded,
    SingularCirculant,
)
from .perms import (
    Cycle,
    GroupClass,
    GroupSpec,
    Permutation,
    apply,
    classify,
    compose,
    cycle_decomposition,
    fixed_space_basis,
    identity,
    inverse,
    orbit,
    parse_cycles,
    parse_generators,
    select_cycles,
)
from .spectral import (
    Spectrum,
    TValues,
    det_circulant,
    eigenvalues,
    fourier_pair,
    is_singular,
    solve_circulant_exact,
    t_hat_exact,
    t_values,
)
from .corepoints import (
    BaryCoords,
    CoreCertificate,
    EssentialSet,
    Outside,
    all_rotations,
    display_form,
    is_lattice_free,
    membership,
    projected_essential_set,
    rotation_class_key,
)
from .exprs import (
    Add,
    AuxVar,
    Const,
    Constraint,
    ConstraintSet,
    DEFAULT_EPS,
    Div,
    Dot,
    EQ,
    EQ_TOL,
    EvalDivisionByZero,
    LE_ZERO,
    Mul,
    NON_NEG,
    SENSES,
    STRICT_NEG,
    Square,
    Var,
    check_value,
    eval_float,
    linear_form,
    variables_of,
)
from .synth import (
    canonical_projected,
    cycle_var_names,
    fixed_space_anchor,
    reduce_projected,
    s1_for_point,
    s2_singular,
    s3_anchor,
    smoothness,
    sublayer,
)
from .solve import (
    FEASIBLE,
    INFEASIBLE,
    UNBOUNDED,
    UNKNOWN,
    FlatProblem,
    FlatVar,
    Instance,
    Outcome,
    export_subproblem,
    flatten_subproblem,
    lp_relax,
    make_instance,
    solve_subproblem,
    symmetry_warnings,
)
from .engine import (
    EngineOptions,
    Report,
    Schedule,
    Subproblem,
    SubResult,
    plan,
    plan_algorithm1,
    plan_algorithm2,
    plan_algorithm3,
    report_to_dict,
    run_algorithm1,
    run_algorithm2,
    run_algorithm3,
    run_auto,
    run_plain,
)
from .gen import GenResult, certify_infeasible, generate, hard_instance
from .instancefile import (
    analyze_group,
    generator_strings,
    instance_from_dict,
    instance_to_dict,
    read_instance,
    write_instance,
)
from .minlp import dumps_problem, parse_problem, write_problem
from .evalcore import backend_name

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
