"""Checks of the benchmark's tracer and gates.

Run from the repository root: ``python3 -m pytest perfbench``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import splinegauss as sg  # noqa: E402
from splinegauss import basis, continuation, gauss  # noqa: E402

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def _traced(fn):
    tracer = Tracer()
    tracer.install()
    try:
        tracer.active = True
        value = fn()
    finally:
        tracer.uninstall()
    return value, tracer.metrics()


def test_points_include_the_source_rule_self_check(monkeypatch):
    # expected count from outside: every (node, basis function) pair of the
    # self-check, plus the nodes of each residual and Jacobian assembly and
    # each single-function value of the straddling-support integrals
    target = sg.uniform_space(5, 1, 4)
    source = sg.source_space(target)
    seen = [0]

    def counting(method):
        def wrapper(self, nodes, weights):
            seen[0] += len(nodes)
            return method(self, nodes, weights)

        return wrapper

    value_of = basis.value_of

    def counting_value_of(*args):
        seen[0] += 1
        return value_of(*args)

    monkeypatch.setattr(continuation._System, "residual", counting(continuation._System.residual))
    monkeypatch.setattr(continuation._System, "jacobian", counting(continuation._System.jacobian))
    monkeypatch.setattr(basis, "value_of", counting_value_of)

    result, metrics = _traced(lambda: sg.trace(target))

    source_nodes = source.num_elements * (source.degree + 1) // 2
    assert result.converged
    assert metrics["basis.points"] == source_nodes * source.dimension + seen[0]
    assert metrics["continuation.steps"] == result.steps_taken
    assert metrics["linalg.factorizations"] > 0


def test_traced_rule_is_bitwise_identical_and_bindings_restored():
    target = sg.uniform_space(5, 1, 4)
    plain = sg.trace(target).rule
    bound = (gauss.evaluate, continuation.source_rule, sg.trace, sg.QuadratureRule.apply)

    traced, metrics = _traced(lambda: sg.trace(target).rule)

    assert traced.nodes.tobytes() == plain.nodes.tobytes()
    assert traced.weights.tobytes() == plain.weights.tobytes()
    assert metrics["gauss.calls"] > 0
    after = (gauss.evaluate, continuation.source_rule, sg.trace, sg.QuadratureRule.apply)
    assert all(a is b for a, b in zip(after, bound))


def test_golden_tolerances_match_the_table_test():
    import test_tables

    expected = (test_tables.TOLERANCES, test_tables.DEFAULT_TOL)
    assert workloads.table_tolerances() == expected


def test_a_failed_gate_fails_the_rule_and_every_later_stage(tmp_path):
    space = sg.uniform_space(5, 1, 4)
    good = sg.trace(space).rule
    bad = sg.QuadratureRule(good.interval, good.nodes, good.weights * (1 + 1e-9))
    case = workloads.Case("bad", space, lambda: bad, workloads.galerkin_spec(space))
    wl = workloads.Workload([case], samples=1, seed=1)

    run = workloads.run_case(
        case, wl, tmp_path, lambda fn: (fn(), 0.0), workloads.table_tolerances()
    )

    assert run.attempted == 5  # rule, assemble, write, read, validate
    assert run.failed == run.attempted
    assert "residual norm" in run.errors[0]
