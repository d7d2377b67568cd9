"""Command-line driver.

Subcommands:

* ``analyze FILE`` — group classification, working cycles, fixed-space
  basis, LP layer of an instance file;
* ``gen GROUP POINT -o FILE`` — build the hard feasibility instance for
  a core point of a full cycle, certify it integer-infeasible, write it;
* ``solve FILE`` — run the planned algorithm (or a forced one) and
  print the full report as JSON;
* ``check-core GROUP POINT`` — exact core certificate;
* ``essential K RESIDUE [BUDGET]`` — projected essential set of one
  sub-layer;
* ``tvalues C`` — the inverse-circulant values of an integer vector.

Exit codes: 0 solved/feasible, 2 infeasible, 3 unknown, 64 bad input.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .corepoints import is_lattice_free, projected_essential_set
from .engine import (
    EngineOptions,
    report_to_dict,
    run_algorithm1,
    run_algorithm2,
    run_algorithm3,
    run_auto,
)
from .errors import CorecutsError, InputError
from .gen import generate
from .instancefile import analyze_group, instance_to_dict, read_instance
from .perms import fixed_space_basis
from .solve import (
    DEFAULT_BOX,
    DEFAULT_NODE_BUDGET,
    FEASIBLE,
    INFEASIBLE,
    UNBOUNDED,
    lp_relax,
)
from .exprs import DEFAULT_EPS
from .spectral import t_hat_exact, t_values

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_UNKNOWN = 3
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; the contract here is 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _emit(doc) -> None:
    json.dump(doc, sys.stdout, indent=1)
    sys.stdout.write("\n")


def _parse_point(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.replace("(", "").replace(")", "").split(","))
    except ValueError as exc:
        raise InputError(f"malformed point {text!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands


def cmd_analyze(args) -> int:
    inst = read_instance(args.file)
    doc = {"format": 1, "n": inst.n}
    if inst.group is None:
        doc["class"] = None
        doc["note"] = "NoSymmetry"
    else:
        gs = inst.group
        doc["class"] = gs.group_class.value if gs.group_class else None
        doc["selected_cycles"] = [str(c) for c in gs.selected_cycles]
        doc["fixed_space_basis"] = [list(v) for v in fixed_space_basis(gs)]
        if not gs.selected_cycles:
            doc["note"] = "NoSymmetry"
    lp = lp_relax(inst)
    doc["lp_status"] = lp.status
    if lp.point is not None:
        layer = sum(lp.point, Fraction(0))
        doc["lp_layer"] = str(layer)
    _emit(doc)
    return EXIT_OK


def cmd_gen(args) -> int:
    point = _parse_point(args.point)
    result = generate(point, certify=not args.skip_certify, cycle=args.group)
    if result.certified is False:
        print(
            f"FAIL construction: integer point {result.witness} satisfies all rows",
            file=sys.stderr,
        )
        return 1
    doc = instance_to_dict(result.instance)
    if args.skip_certify:
        doc["warnings"] = ["integer-infeasibility certification skipped (--skip-certify)"]
    with open(args.out, "w", encoding="ascii") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    summary = {
        "format": 1,
        "out": args.out,
        "n": len(point),
        "rows": len(result.instance.rows),
        "layer": str(result.layer),
        "certified_infeasible": result.certified,
    }
    _emit(summary)
    return EXIT_OK


def cmd_solve(args) -> int:
    inst = read_instance(args.file)
    opts = EngineOptions(
        budget=args.budget,
        eps=args.eps,
        box=args.box,
        essential_budget=args.essential_budget,
        export_dir=args.export_dir,
        dry_run=args.dry_run,
    )
    if args.algorithm == "auto":
        report = run_auto(inst, opts)
    elif args.algorithm == "1":
        report = run_algorithm1(inst, opts)
    elif args.algorithm == "2":
        if inst.group is None or not inst.group.selected_cycles:
            raise InputError("algorithm 2 needs a selected cycle")
        report = run_algorithm2(inst, inst.group.selected_cycles[0], opts)
    else:
        if inst.group is None or len(inst.group.selected_cycles) < 2:
            raise InputError("algorithm 3 needs at least two selected cycles")
        report = run_algorithm3(inst, inst.group.selected_cycles, opts)
    _emit(report_to_dict(report))
    if report.status in (FEASIBLE, UNBOUNDED):
        return EXIT_OK
    if report.status == INFEASIBLE:
        return EXIT_INFEASIBLE
    return EXIT_UNKNOWN


def cmd_check_core(args) -> int:
    point = _parse_point(args.point)
    group = analyze_group([args.group], len(point))
    cert = is_lattice_free(group, point)
    _emit(
        {
            "format": 1,
            "point": list(cert.point),
            "verdict": cert.verdict,
            "witness": None if cert.witness is None else list(cert.witness),
        }
    )
    return EXIT_OK


def cmd_essential(args) -> int:
    ess = projected_essential_set(args.k, args.residue, args.budget)
    _emit(
        {
            "format": 1,
            "k": args.k,
            "residue": args.residue,
            "points": [list(p) for p in ess.points],
            "kinds": list(ess.kinds),
        }
    )
    return EXIT_OK


def cmd_tvalues(args) -> int:
    c = _parse_point(args.c)
    tv = t_values(c)
    exact = t_hat_exact(c)
    _emit(
        {
            "format": 1,
            "c": list(c),
            "t": list(tv.t),
            "t_hat": list(tv.t_hat),
            "t_bar": list(tv.t_bar),
            "t_hat_exact": [str(v) for v in exact],
        }
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> _Parser:
    p = _Parser(prog="corecuts", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="classify an instance's symmetry")
    pa.add_argument("file")
    pa.set_defaults(func=cmd_analyze)

    pg = sub.add_parser("gen", help="generate a hard feasibility instance")
    pg.add_argument("group", help='cycle-notation generator, e.g. "(1,2,3,4,5)"')
    pg.add_argument("point", help='core point, e.g. "2,2,2,2,1"')
    pg.add_argument("-o", "--out", required=True)
    pg.add_argument(
        "--skip-certify",
        action="store_true",
        help="skip the exhaustive infeasibility certification (large n)",
    )
    pg.set_defaults(func=cmd_gen)

    ps = sub.add_parser("solve", help="run the layer-search engine")
    ps.add_argument("file")
    ps.add_argument("--algorithm", choices=("auto", "1", "2", "3"), default="auto")
    ps.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET,
                    help="assignment-node budget per subproblem")
    ps.add_argument("--eps", type=float, default=DEFAULT_EPS,
                    help="strict-inequality margin")
    ps.add_argument("--box", type=int, default=DEFAULT_BOX,
                    help="fallback half-width of the enumeration box for missing bounds")
    ps.add_argument("--export-dir", default=None,
                    help="write each dispatched subproblem as MINLP-JSON here")
    ps.add_argument("--essential-budget", type=int, default=1,
                    help="essential points per residue for probes and cuts")
    ps.add_argument("--dry-run", action="store_true",
                    help="plan and count subproblems without solving")
    ps.set_defaults(func=cmd_solve)

    pc = sub.add_parser("check-core", help="exact core certificate")
    pc.add_argument("group")
    pc.add_argument("point")
    pc.set_defaults(func=cmd_check_core)

    pe = sub.add_parser("essential", help="projected essential set of a sub-layer")
    pe.add_argument("k", type=int)
    pe.add_argument("residue", type=int)
    pe.add_argument("budget", type=int, nargs="?", default=4)
    pe.set_defaults(func=cmd_essential)

    pt = sub.add_parser("tvalues", help="inverse-circulant values of a vector")
    pt.add_argument("c", help='integer vector, e.g. "2,1,0"')
    pt.set_defaults(func=cmd_tvalues)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CorecutsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
