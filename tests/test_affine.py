"""A rule does not depend on the scale or position of its interval.

Every solver stops when the max exactness defect is at most 4 eps times
the larger end point in magnitude, a bound that moves with the interval,
so tracing on a mapped interval gives the mapped rule.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from splinegauss import residual, trace, uniform_space

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
    # a short interval far out holds few digits of its knots, so the trace
    # may stall; it must not raise, and a converged rule must be exact
    d, c, n = key
    space = uniform_space(d, c, n, (shift, shift + n * 10.0**log_scale))
    check_reported(space, trace(space))
