"""A rule does not depend on the scale or position of its interval.

Every solver stops when the max exactness defect is at most 4 eps times
the larger end point in magnitude, a bound that moves with the interval,
so tracing on a mapped interval gives the mapped rule.  The trace runs on
the breakpoints minus ``a``, so a translation that keeps the local
breakpoints exact moves the nodes by ``a`` and leaves the weights bitwise
as they are, and a short interval far from the origin keeps the digits of
its knots.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from splinegauss import NewtonFailure, residual, trace, uniform_space
from splinegauss import continuation, rules

from tracing import get_trace

EXACT = 4 * np.finfo(float).eps

# one space per continuity class, with and without surplus source knots
UNIT = [(5, 1, 10), (7, 1, 6), (9, 1, 5), (5, 0, 11), (7, 2, 7), (5, 3, 9), (7, 0, 5)]

# a fixed sample of bounded size keeps the run short and repeatable
SAMPLE = settings(derandomize=True, database=None, max_examples=20, deadline=None)


def check_reported(space, res):
    """A converged rule meets the convergence test; otherwise it stalled."""
    if not res.converged:
        assert res.status == "stalled"
        return
    a, b = space.interval
    assert np.abs(residual(space, res.rule)).max() <= EXACT * max(abs(a), abs(b))
    assert np.all(np.diff(res.rule.nodes) > 0) and np.all(res.rule.weights > 0)
    assert a <= res.rule.nodes[0] and res.rule.nodes[-1] <= b


@pytest.mark.parametrize("k", [-30, -3, 3, 30])
@pytest.mark.parametrize("key", UNIT)
def test_power_of_two_scaling_is_bitwise(key, k):
    d, c, n = key
    unit = get_trace(key).rule
    s = 2.0**k
    res = trace(uniform_space(d, c, n, (0.0, s * n)))
    assert res.converged
    assert np.array_equal(res.rule.nodes, s * unit.nodes)
    assert np.array_equal(res.rule.weights, s * unit.weights)


@SAMPLE
@given(
    key=st.sampled_from(UNIT),
    log_scale=st.floats(-6, 6),
    shift=st.floats(-1e3, 1e3),
)
def test_scaled_and_shifted_rule_is_the_mapped_unit_rule(key, log_scale, shift):
    d, c, n = key
    s = 10.0**log_scale
    a, b = shift * s, shift * s + n * s
    space = uniform_space(d, c, n, (a, b))
    res = trace(space)
    assert res.converged
    check_reported(space, res)
    expect = get_trace(key).rule.mapped_to(space.interval)
    assert np.abs(res.rule.nodes - expect.nodes).max() <= 1e-12 * (b - a)
    assert np.abs(res.rule.weights - expect.weights).max() <= 1e-12 * (b - a)


@SAMPLE
@given(
    key=st.sampled_from(UNIT),
    log_scale=st.floats(-6, 6),
    shift=st.floats(-1e6, 1e6),
)
def test_far_from_the_origin_a_trace_converges_or_reports_a_stall(
    key, log_scale, shift
):
    # the trace runs on [0, b - a], so even a short interval far out keeps
    # the digits of its knots and converges to rounding on [a, b]
    d, c, n = key
    space = uniform_space(d, c, n, (shift, shift + n * 10.0**log_scale))
    res = trace(space)
    assert res.converged
    check_reported(space, res)


@pytest.mark.parametrize("a", [-(2.0**20), 2.0**20, 2.0**40, 1e6])
def test_translation_moves_the_nodes_and_keeps_the_weights(a):
    # the local breakpoints are exactly 0, 1, ..., 10, so the local trace
    # is the unit trace and only adding a back rounds the nodes
    unit = get_trace((5, 1, 10)).rule
    res = trace(uniform_space(5, 1, 10, (a, a + 10.0)))
    assert res.converged and res.rule.interval == (a, a + 10.0)
    assert np.array_equal(res.rule.nodes, unit.nodes + a)
    assert np.array_equal(res.rule.weights, unit.weights)


def test_dropped_nodes_are_reported_on_the_target_interval():
    a, b = 2.0**20, 2.0**20 + 1.0
    res = trace(uniform_space(7, 1, 2, (a, b)))
    assert res.converged and res.rule.meta["surplus"] > 0
    dropped = np.array(res.rule.meta["dropped_nodes"])
    assert np.all(np.abs(dropped - b) <= 1e-6 * (b - a))


@pytest.mark.parametrize("where", ["mid-path", "limit"])
def test_a_stalled_rule_is_on_the_target_interval(monkeypatch, where):
    if where == "mid-path":  # the step constants of the library's stall test
        monkeypatch.setattr(continuation, "_INITIAL_STEP", 4e-2)
        monkeypatch.setattr(continuation, "_MIN_STEP", 3.9e-2)
        monkeypatch.setattr(continuation, "_MAX_STEP", 4e-2)
        monkeypatch.setattr(rules, "_NEWTON_MAX_ITERS", 1)
    else:

        def refuse(target, rule):
            raise NewtonFailure("not-degenerate")

        monkeypatch.setattr(continuation, "finalize_limit", refuse)
    a, b = 2.0**20, 2.0**20 + 1.0
    res = trace(uniform_space(7, 1, 2, (a, b)))
    assert res.status == "stalled" and res.rule.interval == (a, b)
    assert a <= res.rule.nodes.min() and res.rule.nodes.max() <= b


def test_short_interval_far_out_reaches_the_limit():
    # 1e-6 (b - a) is below one ulp of b here, but the limit is taken on
    # [0, b - a], where that bound is far above the rounding of b - a
    space = uniform_space(7, 1, 6, (-836000.0, -836000.0 + 1.04e-5))
    res = trace(space)
    assert res.converged
    check_reported(space, res)
