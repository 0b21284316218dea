"""Command-line surface: compute, validate, and export quadrature rules.

Subcommands
-----------
rule        trace the optimal rule for a target space (JSON or CSV out)
validate    re-check a rule document against its space
asymptotic  emit the infinite-domain pattern for a degree/continuity pair
hybrid      combine traced boundary elements with the asymptotic interior
assemble    build 1-D mass/stiffness matrices and report the savings

Exit codes: 0 success, 2 invalid request (parity, bad arguments), 3 trace
stalled, 4 validation failed.  Errors are emitted as JSON on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import basis
from .asymptotic import asymptotic_rule, hybrid_rule, solve_asymptotic_system
from .continuation import residual, trace
from .galerkin import (
    DiscretizationSpec,
    assemble,
    quadrature_space,
    savings_report,
    trial_space,
)
from .knots import ParityError, SplineSpace, uniform_space
from .serialization import RuleDocument, matrix_to_csv, matrix_to_triplets

ENV_TOL = "SPLINEGAUSS_TOL"
DEFAULT_TOL = 1e-12
DEFAULT_SEED = 20240704
DEFAULT_SAMPLES = 100


def _tolerance(args) -> float:
    if getattr(args, "tol", None) is not None:
        return args.tol
    env = os.environ.get(ENV_TOL)
    return float(env) if env else DEFAULT_TOL


def _fail(code: int, kind: str, message: str) -> int:
    sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")
    return code


def _emit(args, text: str) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_space(args) -> SplineSpace:
    if args.knots:
        with open(args.knots) as fh:
            doc = json.load(fh)
        if args.degree is not None:
            doc = {"degree": args.degree, **doc}
        space = SplineSpace.from_dict(doc)
        if args.degree is not None and space.degree != args.degree:
            raise ValueError(
                f"degree {args.degree} conflicts with knot file degree "
                f"{space.degree}"
            )
        return space
    if args.degree is None or args.continuity is None or args.elements is None:
        raise ValueError(
            "specify either --knots FILE or all of -d, -c, -N"
        )
    interval = tuple(args.interval) if args.interval else None
    return uniform_space(args.degree, args.continuity, args.elements, interval)


def cmd_rule(args) -> int:
    tol = _tolerance(args)
    try:
        space = _load_space(args)
    except (OSError, LookupError, TypeError, ValueError) as exc:
        # unreadable file or JSON, missing or mistyped fields, bad space
        return _fail(2, "invalid-space", f"{type(exc).__name__}: {exc}")
    try:
        result = trace(space)
    except (ParityError, ValueError) as exc:
        return _fail(2, "parity", str(exc))
    doc = RuleDocument.from_rule(result.rule, space)
    _emit(args, doc.to_csv() if args.format == "csv" else doc.to_json())
    if not result.converged:
        return _fail(
            3, "stalled", f"trace stalled at t={result.t_reached:.8f}"
        )
    if doc.residual_norm is None or doc.residual_norm > tol:
        return _fail(
            4, "residual", f"residual norm {doc.residual_norm} above {tol}"
        )
    return 0


def _random_spline_error(
    space: SplineSpace, rule, samples: int, seed: int
) -> float:
    """Max relative quadrature error over random coefficient vectors."""
    rng = np.random.default_rng(seed)
    ints = basis.integrals(space)
    a, b = space.interval
    first, values, _ = basis.evaluate_many(space, rule.nodes)
    rows = first[:, None] + np.arange(space.degree + 1)
    worst = 0.0
    for _ in range(samples):
        coeffs = rng.uniform(0.0, 0.5, space.dimension)
        exact = float(coeffs @ ints)
        # a 1 x (d+1) by (d+1) x 1 matmul runs the dot kernel of
        # eval_spline, and cumsum adds in node order as rule.apply does
        at_nodes = np.matmul(coeffs[rows][:, None, :], values[:, :, None])
        approx = float(np.cumsum(rule.weights * at_nodes[:, 0, 0])[-1])
        err = abs(approx - exact) / (np.linalg.norm(coeffs) * (b - a))
        worst = max(worst, err)
    return worst


def cmd_validate(args) -> int:
    tol = _tolerance(args)
    try:
        with open(args.rule) as fh:
            doc = RuleDocument.from_json(fh.read())
        space = doc.space()
        rule = doc.rule()
        defects = residual(space, rule)
    except (OSError, LookupError, TypeError, ValueError) as exc:
        # unreadable file or JSON, bad fields, nodes that do not fit the space
        return _fail(2, "malformed-document", f"{type(exc).__name__}: {exc}")
    norm = float(np.linalg.norm(defects)) / space.dimension
    worst_idx = int(np.argmax(np.abs(defects)))
    spline_err = _random_spline_error(space, rule, args.samples, args.seed)
    a, b = space.interval
    passed = bool(
        norm <= tol
        and float(np.abs(defects).max()) <= tol * (b - a)
        and spline_err <= tol
    )
    report = {
        "residual_norm": norm,
        "max_basis_error": float(np.abs(defects).max()),
        "worst_basis_index": worst_idx,
        "random_spline_max_error": spline_err,
        "samples": args.samples,
        "seed": args.seed,
        "tolerance": tol,
        "pass": passed,
    }
    _emit(args, json.dumps(report, indent=2) + "\n")
    return 0 if passed else 4


def cmd_asymptotic(args) -> int:
    try:
        if args.solve:
            pattern = solve_asymptotic_system(args.degree, args.continuity)
        else:
            pattern = asymptotic_rule(args.degree, args.continuity)
    except ValueError as exc:
        return _fail(2, "unsupported", str(exc))
    _emit(args, RuleDocument.from_pattern(pattern).to_json())
    return 0


def cmd_hybrid(args) -> int:
    tol = _tolerance(args)
    try:
        rule = hybrid_rule(
            args.degree, args.continuity, args.elements, args.boundary_depth
        )
    except (ParityError, ValueError) as exc:
        return _fail(2, "invalid-request", str(exc))
    space = uniform_space(args.degree, args.continuity, args.elements)
    doc = RuleDocument.from_rule(rule, space)
    _emit(args, doc.to_csv() if args.format == "csv" else doc.to_json())
    if rule.residual_norm is None or rule.residual_norm > tol:
        return _fail(
            4,
            "residual",
            f"hybrid residual norm {rule.residual_norm} above {tol}; "
            "increase --boundary-depth",
        )
    return 0


def cmd_assemble(args) -> int:
    interval = args.interval or (0.0, float(args.elements))
    try:
        spec = DiscretizationSpec(args.p, args.k, args.l)
        breaks = np.linspace(interval[0], interval[1], args.elements + 1)
        mesh = trial_space(spec, breaks).knots
    except ValueError as exc:
        return _fail(2, "invalid-spec", str(exc))
    try:
        result = trace(quadrature_space(spec, breaks))
        if not result.converged:
            raise RuntimeError(
                f"optimal-rule trace stalled at t={result.t_reached:.6f}"
            )
        report = savings_report(spec, mesh, rule=result.rule)
    except ParityError as exc:
        return _fail(2, "parity", str(exc))
    except (RuntimeError, ValueError) as exc:
        return _fail(3, "assembly-failed", str(exc))
    mass, stiff = assemble(spec, mesh, result.rule)
    writer = matrix_to_triplets if args.coo else matrix_to_csv
    prefix = args.out_prefix
    with open(f"{prefix}_mass.{'txt' if args.coo else 'csv'}", "w") as fh:
        fh.write(writer(mass))
    with open(f"{prefix}_stiffness.{'txt' if args.coo else 'csv'}", "w") as fh:
        fh.write(writer(stiff))
    _emit(args, json.dumps(report.to_dict(), indent=2) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splinegauss",
        description="Optimal Gaussian quadrature rules for odd-degree "
        "spline spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rule = sub.add_parser("rule", help="trace the optimal rule for a target")
    rule.add_argument("-d", "--degree", type=int, default=None)
    rule.add_argument("-c", "--continuity", type=int, default=None)
    rule.add_argument("-N", "--elements", type=int, default=None)
    rule.add_argument(
        "--interval",
        type=float,
        nargs=2,
        default=None,
        metavar=("A", "B"),
        help="integration interval (default [0, N])",
    )
    rule.add_argument("--knots", help="JSON file {degree, breaks, mults}")
    rule.add_argument("--format", choices=("json", "csv"), default="json")
    rule.add_argument("-o", "--output", default=None)
    rule.add_argument("--tol", type=float, default=None)
    rule.set_defaults(func=cmd_rule)

    val = sub.add_parser("validate", help="re-check a rule document")
    val.add_argument("rule", help="rule document (JSON)")
    val.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    val.add_argument("--seed", type=int, default=DEFAULT_SEED)
    val.add_argument("--tol", type=float, default=None)
    val.add_argument("-o", "--output", default=None)
    val.set_defaults(func=cmd_validate)

    asym = sub.add_parser("asymptotic", help="infinite-domain pattern")
    asym.add_argument("-d", "--degree", type=int, required=True)
    asym.add_argument("-c", "--continuity", type=int, required=True)
    asym.add_argument(
        "--solve",
        action="store_true",
        help="solve the periodic system instead of using tabulated values",
    )
    asym.add_argument("-o", "--output", default=None)
    asym.set_defaults(func=cmd_asymptotic)

    hyb = sub.add_parser("hybrid", help="boundary + asymptotic rule")
    hyb.add_argument("-d", "--degree", type=int, required=True)
    hyb.add_argument("-c", "--continuity", type=int, required=True)
    hyb.add_argument("-N", "--elements", type=int, required=True)
    hyb.add_argument("--boundary-depth", type=int, default=None)
    hyb.add_argument("--format", choices=("json", "csv"), default="json")
    hyb.add_argument("--tol", type=float, default=None)
    hyb.add_argument("-o", "--output", default=None)
    hyb.set_defaults(func=cmd_hybrid)

    asm = sub.add_parser("assemble", help="1-D Galerkin matrices + savings")
    asm.add_argument("-p", type=int, required=True, help="trial degree")
    asm.add_argument("-k", type=int, required=True, help="trial continuity")
    asm.add_argument("-l", type=int, required=True, help="weak-form order")
    asm.add_argument("-N", "--elements", type=int, required=True)
    asm.add_argument(
        "--interval", type=float, nargs=2, default=None, metavar=("A", "B")
    )
    asm.add_argument("--out-prefix", default="galerkin")
    asm.add_argument(
        "--coo", action="store_true", help="write coordinate triplets"
    )
    asm.add_argument("-o", "--output", default=None)
    asm.set_defaults(func=cmd_assemble)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
