"""The benchmark's workloads: generated inputs, the ops of one round, gates.

Every workload runs the same user path over its own set of meshes: compute
the optimal rule (``trace`` or ``hybrid_rule``), compare the interior of a
uniform C^1 rule with the asymptotic pattern, assemble Galerkin mass and
stiffness with it where a trial discretization fits the mesh, write the
rule document as JSON and CSV, read it back and run the ``validate``
command on it in-process.  The workloads differ in which meshes they feed
that path, and so in which layers do the work.

Importing this module imports the package; the benchmark times that
import as part of its set-up.
"""

from __future__ import annotations

import ast
import csv
import hashlib
import io
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import splinegauss as sg  # noqa: E402
from splinegauss import cli  # noqa: E402
import tracing as golden_tables  # noqa: E402  (tests/tracing.py)

if Path(sg.__file__).resolve().parent != ROOT / "src" / "splinegauss":
    raise ImportError(f"splinegauss imported from {sg.__file__}, not from {ROOT}")

# residual-norm gate, relative to the mean element width (b - a) / N; the
# tracker's own Newton tolerance is 1e-14 on unit elements
RESIDUAL_TOL = 1e-14
# optimal and classical Galerkin matrices agree to rounding
SAVINGS_TOL = 1e-12
# the interior of a uniform C^1 rule equals the periodic pattern to rounding
PATTERN_TOL = 1e-12
# C^1 pairs: tabulated period-one patterns that the interior reaches
# within a few elements of the boundary; the middle element of a mesh with
# fewer elements is still shaped by the boundary
PATTERN_PAIRS = {(5, 1), (7, 1), (9, 1)}
PATTERN_MIN_ELEMENTS = 10
VALIDATE_TOL = "1e-12"


def table_tolerances() -> tuple[dict, float]:
    """Per-table golden tolerances, read from the table test itself."""
    tree = ast.parse((ROOT / "tests" / "test_tables.py").read_text())
    found = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                if target.id in ("TOLERANCES", "DEFAULT_TOL"):
                    found[target.id] = ast.literal_eval(node.value)
    return found["TOLERANCES"], found["DEFAULT_TOL"]


@dataclass(frozen=True)
class Case:
    """One mesh of a workload and how its rule is produced and used."""

    key: str
    space: sg.SplineSpace
    produce: Callable[[], object]  # TraceResult or QuadratureRule
    spec: sg.DiscretizationSpec | None = None
    golden: str | None = None

    @property
    def pattern_pair(self) -> tuple[int, int] | None:
        mults = set(self.space.knots.mults[1:-1])
        breaks = np.asarray(self.space.knots.breaks)
        if (
            len(mults) != 1
            or self.space.num_elements < PATTERN_MIN_ELEMENTS
            or not np.allclose(np.diff(breaks), breaks[1] - breaks[0])
        ):
            return None
        pair = (self.space.degree, self.space.degree - mults.pop())
        return pair if pair in PATTERN_PAIRS else None


@dataclass(frozen=True)
class Workload:
    cases: list[Case]
    samples: int  # random splines per `validate` call
    seed: int


def galerkin_spec(space: sg.SplineSpace) -> sg.DiscretizationSpec | None:
    """Trial discretization whose weak-form integrands the space holds.

    Prefers one derivative in the weak form (mass and stiffness exact);
    falls back to a mass-only projection.  None for spaces of mixed
    continuity or above the trial continuity range.
    """
    mults = set(space.knots.mults[1:-1])
    if len(mults) != 1:
        return None
    p = (space.degree - 1) // 2
    c = space.degree - mults.pop()
    for l in (1, 0):
        k = c + l
        if 0 <= k <= p - 1 and l <= p:
            return sg.DiscretizationSpec(p, k, l)
    return None


def _trace_case(key: str, space: sg.SplineSpace, golden: str | None = None) -> Case:
    return Case(
        key, space, lambda: sg.trace(space), galerkin_spec(space), golden
    )


def _hybrid_case(d: int, c: int, n: int) -> Case:
    space = sg.uniform_space(d, c, n)
    return Case(
        f"hybrid_d{d}_c{c}_N{n}",
        space,
        lambda: sg.hybrid_rule(d, c, n),
        galerkin_spec(space),
    )


def trace_uniform_scaling(seed: int) -> Workload:
    """Uniform C^1 quintics over an 8x range of N: cost growth with size."""
    cases = [
        _trace_case(f"d5_c1_N{n}", sg.uniform_space(5, 1, n))
        for n in (5, 10, 20, 40)
    ]
    return Workload(cases, samples=2, seed=seed)


def trace_golden(seed: int) -> Workload:
    """The golden tables plus seeded non-uniform meshes (no fast path)."""
    cases = [
        _trace_case(name, golden_tables.space_for(name), golden=name)
        for name in golden_tables.ACCEPTANCE_TABLES + golden_tables.EXTRA_TABLES
    ]
    rng = np.random.default_rng(seed)
    for d, c, n in ((5, 1, 20), (7, 2, 15), (9, 1, 10)):
        breaks = np.concatenate([[0.0], np.cumsum(rng.uniform(0.7, 1.3, n))])
        mults = [d + 1] + [d - c] * (n - 1) + [d + 1]
        space = sg.SplineSpace(d, sg.KnotVector(breaks, mults))
        cases.append(_trace_case(f"perturbed_d{d}_c{c}_N{n}", space))
    return Workload(cases, samples=2, seed=seed)


def mesh_pipeline(seed: int) -> Workload:
    """Hybrid rules on large meshes, then assembly, documents and validate."""
    return Workload(
        [_hybrid_case(5, 0, n) for n in (251, 1001)], samples=10, seed=seed
    )


WORKLOADS = {
    "trace-uniform-scaling": trace_uniform_scaling,
    "trace-golden": trace_golden,
    "mesh-pipeline": mesh_pipeline,
}

# one small mesh per workload kind, run once through the pipeline in set-up
WARM_UP = {
    "trace-uniform-scaling": lambda: _trace_case("warm-up", sg.uniform_space(5, 1, 4)),
    "trace-golden": lambda: _trace_case("warm-up", sg.uniform_space(5, 1, 4)),
    "mesh-pipeline": lambda: _hybrid_case(5, 0, 5),
}


# -- correctness gates --------------------------------------------------


def rule_digest(rule) -> str:
    return hashlib.sha256(rule.nodes.tobytes() + rule.weights.tobytes()).hexdigest()


def rule_errors(case: Case, rule, tolerances: tuple[dict, float]) -> list[str]:
    """Shape, ordering, residual and golden-table gates of one rule."""
    space = case.space
    a, b = space.interval
    h = (b - a) / space.num_elements
    errors = []
    if 2 * rule.num_nodes != space.dimension:
        errors.append(f"{rule.num_nodes} nodes for dimension {space.dimension}")
        return errors
    if not (np.all(np.diff(rule.nodes) > 0) and a <= rule.nodes[0] and rule.nodes[-1] <= b):
        errors.append("nodes do not ascend inside the interval")
    if not np.all(rule.weights > 0):
        errors.append("non-positive weight")
    norm = sg.residual_norm(space, rule)
    if not norm <= RESIDUAL_TOL * h:
        errors.append(f"residual norm {norm:.3e} above {RESIDUAL_TOL} x h={h:.3g}")
    if case.golden is not None:
        by_table, default = tolerances
        tol = by_table.get(case.golden, default)
        for i, _, tau, omega, source in golden_tables.golden_rows(case.golden):
            if source == "misprint-excluded":
                continue
            dx = abs(rule.nodes[i - 1] - tau)
            dw = abs(rule.weights[i - 1] - omega)
            if not max(dx, dw) <= tol:
                errors.append(f"golden row {i} off by {max(dx, dw):.3e} > {tol}")
                break
    return errors


def pattern_errors(case: Case, rule, pattern) -> list[str]:
    """Middle element of the rule against the tiled asymptotic pattern."""
    a, b = case.space.interval
    h = (b - a) / case.space.num_elements
    e = case.space.num_elements // 2
    lo, hi = a + e * h, a + (e + 1) * h
    xs, ws = pattern.positions_in(e, e + 1)
    inside = (rule.nodes >= lo - 1e-9 * h) & (rule.nodes < hi - 1e-9 * h)
    if inside.sum() != len(xs):
        return [f"middle element holds {inside.sum()} nodes, pattern {len(xs)}"]
    dx = np.abs((rule.nodes[inside] - a) / h - xs).max()
    dw = np.abs(rule.weights[inside] / h - ws).max()
    if not max(dx, dw) <= PATTERN_TOL:
        return [f"interior off the asymptotic pattern by {max(dx, dw):.3e}"]
    return []


def savings_errors(case: Case, report) -> list[str]:
    errors = []
    if not report.mass_max_rel_diff <= SAVINGS_TOL:
        errors.append(f"mass differs by {report.mass_max_rel_diff:.3e}")
    if case.spec.l >= 1 and not report.stiffness_max_rel_diff <= SAVINGS_TOL:
        errors.append(f"stiffness differs by {report.stiffness_max_rel_diff:.3e}")
    return errors


def document_errors(case: Case, rule, read_back, csv_text: str) -> list[str]:
    """Round trip of the JSON document (bitwise) and of the CSV table."""
    rule2, space2 = read_back
    errors = []
    if rule_digest(rule2) != rule_digest(rule) or rule2.interval != rule.interval:
        errors.append("JSON round trip changed the rule")
    if space2.to_dict() != case.space.to_dict():
        errors.append("JSON round trip changed the space")
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    taus = np.array([float(r["tau"]) for r in rows])
    omegas = np.array([float(r["omega"]) for r in rows])
    if not (np.array_equal(taus, rule.nodes) and np.array_equal(omegas, rule.weights)):
        errors.append("CSV table does not reproduce the rule")
    return errors


# -- one pass of the pipeline ---------------------------------------------


@dataclass
class CaseRun:
    """Stage seconds, node count, digest and failures of one case."""

    attempted: int
    times: dict = field(default_factory=dict)
    failed: int = 0
    nodes: int = 0
    digest: str | None = None
    errors: list = field(default_factory=list)


def run_case(
    case: Case,
    workload: Workload,
    workdir: Path,
    measure: Callable,
    tolerances: tuple[dict, float],
) -> CaseRun:
    """Run every stage of the user path on one case.

    ``measure(fn)`` calls ``fn`` and returns ``(value, seconds)``; only
    those calls are timed (and traced), the gates run outside them.  Each
    stage is one op: it fails when it raises or a gate rejects it, and
    stages after a failed rule are counted as failed without running.
    """
    stages = ["rule"]
    if case.pattern_pair:
        stages.append("pattern")
    if case.spec is not None:
        stages.append("assemble")
    stages += ["write", "read", "validate"]
    run = CaseRun(attempted=len(stages))
    json_path = workdir / f"{case.key}.json"
    csv_path = workdir / f"{case.key}.csv"
    report_path = workdir / f"{case.key}.validate.json"

    def stage(name: str, fn: Callable, gate: Callable[[object], list]):
        try:
            value, run.times[name] = measure(fn)
            errors = gate(value)
        except Exception as exc:  # an op that raises is a failed op
            value, errors = None, [f"{type(exc).__name__}: {exc}"]
        if errors:
            run.failed += 1
            run.errors += [f"{case.key} {name}: {e}" for e in errors]
            return None
        return value

    def rule_of(out):  # trace returns a TraceResult, hybrid_rule a rule
        return getattr(out, "rule", out)

    def made(out):
        if getattr(out, "status", "converged") != "converged":
            return [f"trace {out.status} at t={out.t_reached:.6f}"]
        return rule_errors(case, rule_of(out), tolerances)

    out = stage("rule", case.produce, made)
    if out is None:
        run.failed = run.attempted
        return run
    rule = rule_of(out)
    run.nodes, run.digest = rule.num_nodes, rule_digest(rule)

    if case.pattern_pair:
        stage(
            "pattern",
            lambda: sg.asymptotic_rule(*case.pattern_pair),
            lambda pattern: pattern_errors(case, rule, pattern),
        )
    if case.spec is not None:
        mesh = sg.trial_space(case.spec, case.space.knots.breaks).knots
        stage(
            "assemble",
            lambda: sg.savings_report(case.spec, mesh, rule=rule),
            lambda report: savings_errors(case, report),
        )

    def write():
        doc = sg.RuleDocument.from_rule(rule, case.space)
        json_path.write_text(doc.to_json())
        csv_path.write_text(doc.to_csv())

    def read():
        doc = sg.RuleDocument.from_json(json_path.read_text())
        return doc.rule(), doc.space()

    stage("write", write, lambda _: [])
    stage("read", read, lambda back: document_errors(case, rule, back, csv_path.read_text()))

    argv = [
        "validate", str(json_path),
        "--samples", str(workload.samples),
        "--seed", str(workload.seed),
        "--tol", VALIDATE_TOL,
        "-o", str(report_path),
    ]

    def validated(code):
        if code != 0:
            return [f"validate exited {code}"]
        report = json.loads(report_path.read_text())
        return [] if report["pass"] is True else [f"validate report {report}"]

    stage("validate", lambda: cli.main(argv), validated)
    return run
