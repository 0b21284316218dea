"""Command-line surface: compute, validate, and export quadrature rules.

Subcommands
-----------
rule        trace the optimal rule for a target space (JSON or CSV out)
validate    re-check a rule document against its space
asymptotic  emit the infinite-domain pattern for a degree/continuity pair
hybrid      combine traced boundary elements with the asymptotic interior
assemble    build 1-D mass/stiffness matrices and report the savings

Exit codes: 0 success, 1 internal error (an exception no command
handles), 2 invalid request (parity, bad or missing arguments, a
tolerance that is not finite and positive, fewer than one validation
sample) or an output path that cannot be written, 3 trace stalled or a
hybrid that cannot be assembled, 4 validation failed.  Errors are emitted
as JSON on stderr; ``--help`` prints usage on stdout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

import numpy as np

from . import basis
from .asymptotic import asymptotic_rule, hybrid_rule, solve_asymptotic_system
from .continuation import _residual_and_basis, trace
from .galerkin import (
    DiscretizationSpec,
    _band_grams,
    _dense,
    _savings,
    quadrature_space,
    trial_space,
)
from .knots import ParityError, SplineSpace, uniform_space
from .rules import _defect_norm
from .serialization import RuleDocument, matrix_to_csv, matrix_to_triplets

ENV_TOL = "SPLINEGAUSS_TOL"
DEFAULT_TOL = 1e-12
DEFAULT_SEED = 20240704
DEFAULT_SAMPLES = 100


def _check_options(args) -> None:
    """Resolve ``args.tol`` from --tol, $SPLINEGAUSS_TOL or the default.

    Raises ``ValueError`` for a tolerance that is not a finite positive
    number and for ``--samples`` below one.
    """
    if "tol" in vars(args):
        if args.tol is None:
            env = os.environ.get(ENV_TOL)
            try:
                args.tol = float(env) if env else DEFAULT_TOL
            except ValueError:
                raise ValueError(f"{ENV_TOL}={env!r} is not a number") from None
        if not (math.isfinite(args.tol) and args.tol > 0):
            raise ValueError(f"tolerance must be finite and positive; got {args.tol}")
    if vars(args).get("samples", 1) < 1:
        raise ValueError(f"--samples must be at least 1; got {args.samples}")


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
    try:
        space = _load_space(args)
    except (OSError, LookupError, TypeError, ValueError) as exc:
        # unreadable file or JSON, missing or mistyped fields, bad space
        return _fail(2, "invalid-space", f"{type(exc).__name__}: {exc}")
    try:
        result = trace(space)
    except ParityError as exc:
        return _fail(2, "parity", str(exc))
    except ValueError as exc:
        # an even degree or a knot vector that is not open
        return _fail(2, "invalid-space", str(exc))
    doc = RuleDocument.from_rule(result.rule, space)
    _emit(args, doc.to_csv() if args.format == "csv" else doc.to_json())
    if not result.converged:
        return _fail(
            3, "stalled", f"trace stalled at t={result.t_reached:.8f}"
        )
    if doc.residual_norm is None or doc.residual_norm > args.tol:
        return _fail(
            4, "residual", f"residual norm {doc.residual_norm} above {args.tol}"
        )
    return 0


def _random_spline_error(
    space: SplineSpace, rule, rows, values, samples: int, seed: int
) -> float:
    """Max relative quadrature error over random coefficient vectors, from
    the basis values at the nodes: ``values[p, k]`` is function
    ``rows[p, k]`` at node ``p``."""
    rng = np.random.default_rng(seed)
    ints = basis.integrals(space)
    a, b = space.interval
    worst = 0.0
    for _ in range(samples):
        coeffs = rng.uniform(0.0, 0.5, space.dimension)
        exact = float(coeffs @ ints)
        # one (d+1)-term dot per node, then a running sum in node order:
        # the digits of the validate report depend on this arithmetic
        at_nodes = np.matmul(coeffs[rows][:, None, :], values[:, :, None])
        approx = float(np.cumsum(rule.weights * at_nodes[:, 0, 0])[-1])
        err = abs(approx - exact) / (np.linalg.norm(coeffs) * (b - a))
        worst = max(worst, err)
    return worst


def cmd_validate(args) -> int:
    tol = args.tol
    try:
        with open(args.rule) as fh:
            doc = RuleDocument.from_json(fh.read())
        space = doc.space()
        rule = doc.rule()
        defects, rows, values = _residual_and_basis(space, rule)
    except (OSError, LookupError, TypeError, ValueError) as exc:
        # unreadable file or JSON, bad fields, nodes that do not fit the space
        return _fail(2, "malformed-document", f"{type(exc).__name__}: {exc}")
    norm = _defect_norm(defects)
    worst_idx = int(np.argmax(np.abs(defects)))
    spline_err = _random_spline_error(
        space, rule, rows, values, args.samples, args.seed
    )
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
    try:
        rule = hybrid_rule(
            args.degree, args.continuity, args.elements, args.boundary_depth
        )
    except ValueError as exc:
        return _fail(2, "invalid-request", str(exc))
    except RuntimeError as exc:
        return _fail(3, "hybrid-failed", str(exc))
    space = uniform_space(args.degree, args.continuity, args.elements)
    doc = RuleDocument.from_rule(rule, space)
    _emit(args, doc.to_csv() if args.format == "csv" else doc.to_json())
    if rule.residual_norm is None or rule.residual_norm > args.tol:
        return _fail(
            4,
            "residual",
            f"hybrid residual norm {rule.residual_norm} above {args.tol}; "
            "increase --boundary-depth",
        )
    return 0


def cmd_assemble(args) -> int:
    interval = tuple(args.interval or (0.0, float(args.elements)))
    try:
        spec = DiscretizationSpec(args.p, args.k, args.l)
        if not np.all(np.isfinite(interval)):
            raise ValueError(f"interval end points must be finite; got {interval}")
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
        # one assembly under the optimal rule feeds the report and the files
        bands = _band_grams(spec, mesh, result.rule)
        report = _savings(spec, mesh, result.rule, bands)
    except ParityError as exc:
        return _fail(2, "parity", str(exc))
    except (RuntimeError, ValueError) as exc:
        return _fail(3, "assembly-failed", str(exc))
    mass, stiff = map(_dense, bands)
    writer = matrix_to_triplets if args.coo else matrix_to_csv
    prefix = args.out_prefix
    with open(f"{prefix}_mass.{'txt' if args.coo else 'csv'}", "w") as fh:
        fh.write(writer(mass))
    with open(f"{prefix}_stiffness.{'txt' if args.coo else 'csv'}", "w") as fh:
        fh.write(writer(stiff))
    _emit(args, json.dumps(report.to_dict(), indent=2) + "\n")
    return 0


class _Parser(argparse.ArgumentParser):
    """Parser that raises its errors, so that ``main`` reports them as JSON
    instead of printing usage; subcommand parsers inherit the class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a negative number in any float() form (-1e6, -inf) is an argument,
        # not a flag as argparse's own pattern has it; no option looks so
        self._negative_number_matcher = re.compile(r"-\.?\d|-(inf|nan)", re.I)

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    try:
        args = build_parser().parse_args(argv)
        _check_options(args)
    except ValueError as exc:
        return _fail(2, "invalid-option", str(exc))
    try:
        return args.func(args)
    except OSError as exc:
        # the commands catch their input errors; what is left is output
        return _fail(2, "unwritable-output", f"{type(exc).__name__}: {exc}")
    except Exception as exc:
        return _fail(1, "internal-error", f"{type(exc).__name__}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
