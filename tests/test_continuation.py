"""Exactness system, Newton corrector, and the path tracker."""

import numpy as np
import pytest

from splinegauss import (
    KnotVector,
    NewtonFailure,
    QuadratureRule,
    SplineSpace,
    TraceResult,
    asymptotic_rule,
    finalize_limit,
    jacobian,
    newton_correct,
    residual,
    residual_norm,
    source_rule,
    source_space,
    trace,
    uniform_space,
)
from splinegauss import continuation
from splinegauss.basis import eval_spline, evaluate_many, integrals
from splinegauss.continuation import _System
from splinegauss.knots import knot_path, space_at

from tracing import ACCEPTANCE_TABLES, EXTRA_TABLES, get_trace, space_for

# the convergence test of every solver: max defect <= EXACT * max(|a|, |b|)
EXACT = 4 * np.finfo(float).eps


class TestResidual:
    def test_source_rule_solves_source_system(self):
        src = source_space(uniform_space(7, 1, 2, (0.0, 1.0)))
        rule = source_rule(src)
        assert np.abs(residual(src, rule)).max() <= 1e-14

    def test_zero_weights_give_minus_integrals(self):
        space = uniform_space(5, 1, 4, (0.0, 1.0))
        m = space.dimension // 2
        rule = QuadratureRule(
            interval=space.interval,
            nodes=np.linspace(0.05, 0.95, m),
            weights=np.zeros(m),
        )
        assert residual(space, rule) == pytest.approx(-integrals(space))

    def test_dimension_mismatch_rejected(self):
        space = uniform_space(5, 1, 4, (0.0, 1.0))
        rule = QuadratureRule(
            interval=space.interval, nodes=np.array([0.5]), weights=np.array([1.0])
        )
        with pytest.raises(ValueError, match="square"):
            residual(space, rule)

    def test_traced_rule_residual_norm(self):
        res = get_trace("d5_c1_N10")
        space = uniform_space(5, 1, 10)
        assert residual_norm(space, res.rule) <= 1e-15


class TestJacobian:
    def test_degree_one_single_element_by_hand(self):
        space = SplineSpace(1, KnotVector([0.0, 1.0], [2, 2]))
        tau, om = 0.3, 0.8
        rule = QuadratureRule(
            interval=(0.0, 1.0), nodes=np.array([tau]), weights=np.array([om])
        )
        jac = jacobian(space, rule)
        # basis is (1-u, u); columns are d/dtau then d/domega
        expect = np.array([[-om, 1.0 - tau], [om, tau]])
        assert np.abs(jac - expect).max() <= 1e-15

    def test_matches_central_differences(self):
        space = uniform_space(5, 1, 4)
        res = get_trace((5, 1, 4))
        rule = res.rule
        jac = jacobian(space, rule)
        m = rule.num_nodes
        step = 1e-7
        fd = np.zeros_like(jac)
        x0 = np.concatenate([rule.nodes, rule.weights])
        for j in range(2 * m):
            xp, xm = x0.copy(), x0.copy()
            xp[j] += step
            xm[j] -= step
            rp = QuadratureRule(rule.interval, xp[:m], xp[m:])
            rm = QuadratureRule(rule.interval, xm[:m], xm[m:])
            fd[:, j] = (residual(space, rp) - residual(space, rm)) / (2 * step)
        assert np.abs(jac - fd).max() <= 1e-6

    @staticmethod
    def near_limit_state():
        """Full space just before t=1 with the dying node put back."""
        target = space_for("d7_c1_N30")
        rule = get_trace("d7_c1_N30").rule
        space = space_at(knot_path(source_space(target), target), 1.0 - 1e-8)
        nodes = np.concatenate([rule.nodes, rule.meta["dropped_nodes"]])
        weights = np.concatenate([rule.weights, rule.meta["dropped_weights"]])
        return space, QuadratureRule(rule.interval, nodes, weights)

    @pytest.mark.parametrize("state", ["golden", "near-limit"])
    def test_band_entries_scatter_to_the_dense_jacobian(self, state):
        if state == "golden":
            space, rule = space_for("d9_c1_N20"), get_trace("d9_c1_N20").rule
        else:
            space, rule = self.near_limit_state()
        m = rule.num_nodes
        # reference: nodes then weights, straight from the basis kernel
        first, values, derivatives = evaluate_many(space, rule.nodes)
        rows = first[:, None] + np.arange(space.degree + 1)
        cols = np.arange(m)[:, None]
        expect = np.zeros((space.dimension, 2 * m))
        expect[rows, cols] = rule.weights[:, None] * derivatives
        expect[rows, m + cols] = values
        jac = jacobian(space, rule)
        assert jac.tobytes() == expect.tobytes()
        sys = _System(space, cutoff=rule.interval[1])
        rows, cols, vals = sys.jacobian_entries(rule.nodes, rule.weights)
        interleaved = np.zeros_like(jac)
        interleaved[rows, cols] = vals
        order = np.arange(2 * m).reshape(2, m).T.ravel()  # x0, w0, x1, ...
        assert interleaved.tobytes() == jac[:, order].tobytes()

    @pytest.mark.parametrize("name", ACCEPTANCE_TABLES + EXTRA_TABLES)
    def test_bandwidths_at_most_degree_at_golden_rules(self, name):
        space, rule = space_for(name), get_trace(name).rule
        sys = _System(space, cutoff=rule.interval[1])
        rows, cols, _ = sys.jacobian_entries(rule.nodes, rule.weights)
        assert (rows - cols).max() <= space.degree
        assert (cols - rows).max() <= space.degree

    def test_zero_weights_zero_node_block(self):
        space = uniform_space(5, 1, 4, (0.0, 1.0))
        m = space.dimension // 2
        rule = QuadratureRule(
            interval=space.interval,
            nodes=np.linspace(0.05, 0.95, m),
            weights=np.zeros(m),
        )
        jac = jacobian(space, rule)
        assert np.abs(jac[:, :m]).max() == 0.0


class TestNewtonCorrect:
    def setup_method(self):
        self.src = source_space(uniform_space(7, 1, 2, (0.0, 1.0)))
        self.rule = source_rule(self.src)

    def test_exact_root_unchanged(self):
        out = newton_correct(self.src, self.rule)
        assert np.array_equal(out.nodes, self.rule.nodes)
        assert np.array_equal(out.weights, self.rule.weights)

    def test_recovers_perturbed_root(self):
        rng = np.random.default_rng(1)
        nodes = self.rule.nodes + rng.uniform(-1e-6, 1e-6, self.rule.num_nodes)
        weights = self.rule.weights + rng.uniform(-1e-6, 1e-6, self.rule.num_nodes)
        guess = QuadratureRule(self.rule.interval, nodes, weights)
        out = newton_correct(self.src, guess)
        assert np.abs(out.nodes - self.rule.nodes).max() <= 1e-14
        assert np.abs(out.weights - self.rule.weights).max() <= 1e-14
        assert out.residual_norm <= 1e-14

    def test_negative_weight_guess_fails(self):
        weights = self.rule.weights.copy()
        weights[0] = -0.5
        guess = QuadratureRule(self.rule.interval, self.rule.nodes, weights)
        with pytest.raises(NewtonFailure) as err:
            newton_correct(self.src, guess)
        assert err.value.cause == "left-domain"

    def test_coincident_nodes_are_singular(self):
        nodes = self.rule.nodes.copy()
        nodes[1] = nodes[0]
        guess = QuadratureRule(self.rule.interval, nodes, self.rule.weights)
        with pytest.raises(NewtonFailure) as err:
            newton_correct(self.src, guess)
        assert err.value.cause == "singular"

    def test_far_guess_fails_instead_of_silently_returning(self):
        m = self.rule.num_nodes
        guess = QuadratureRule(
            self.rule.interval,
            np.linspace(0.49, 0.51, m),
            np.full(m, 1.0 / m),
        )
        with pytest.raises(NewtonFailure) as err:
            newton_correct(self.src, guess)
        assert err.value.cause == "left-domain"


class TestFinalizeLimit:
    def test_no_surplus_is_identity(self):
        space = uniform_space(5, 1, 10)
        res = get_trace("d5_c1_N10")
        assert finalize_limit(space, res.rule, 0) is res.rule

    def test_traced_limit_records_degenerate_pair(self):
        res = get_trace((7, 1, 2, (0.0, 1.0)))
        rule = res.rule
        assert res.converged
        assert rule.num_nodes == 7
        (tau,) = rule.meta["dropped_nodes"]
        (om,) = rule.meta["dropped_weights"]
        assert abs(tau - 1.0) <= 1e-6
        assert 0.0 <= om <= 1e-6

    def test_rejects_nondegenerate_state(self):
        target = uniform_space(7, 1, 2, (0.0, 1.0))
        rule = source_rule(source_space(target))
        with pytest.raises(NewtonFailure, match="boundary limit"):
            finalize_limit(target, rule, 2)

    def test_rejects_a_reduced_rule_that_does_not_fit_the_target(self):
        target = uniform_space(7, 1, 2, (0.0, 1.0))
        rule = source_rule(source_space(target))
        with pytest.raises(ValueError, match="not square"):
            finalize_limit(target, rule, 4, force=True)


class TestTrace:
    def test_small_target_converges(self):
        res = get_trace((5, 1, 4))
        assert isinstance(res, TraceResult)
        assert res.converged and res.t_reached == 1.0
        assert res.rule.residual_norm <= 1e-15
        assert res.steps_taken > 0

    def test_converged_rules_are_well_formed(self):
        for key in [(5, 1, 4), (5, 0, 3), (7, 1, 2, (0.0, 1.0))]:
            res = get_trace(key)
            rule = res.rule
            target = uniform_space(*key)
            assert 2 * rule.num_nodes == target.dimension
            assert np.all(np.diff(rule.nodes) > 0)
            assert np.all(rule.weights > 0)
            a, b = rule.interval
            assert rule.nodes[0] >= a and rule.nodes[-1] <= b

    def test_symmetric_target_gives_symmetric_rule(self):
        res = get_trace((5, 1, 4))
        rule = res.rule
        a, b = rule.interval
        assert np.abs(rule.nodes + rule.nodes[::-1] - (a + b)).max() <= 1e-11
        assert np.abs(rule.weights - rule.weights[::-1]).max() <= 1e-11

    def test_affine_equivariance(self):
        res_unit = trace(uniform_space(5, 1, 4, (0.0, 1.0)))
        res_wide = get_trace((5, 1, 4))
        mapped = res_wide.rule.mapped_to((0.0, 1.0))
        assert np.abs(mapped.nodes - res_unit.rule.nodes).max() <= 1e-11
        assert np.abs(mapped.weights - res_unit.rule.weights).max() <= 1e-11

    def test_random_splines_integrate_exactly(self):
        res = get_trace((5, 0, 3))
        space = uniform_space(5, 0, 3)
        ints = integrals(space)
        a, b = space.interval
        rng = np.random.default_rng(99)
        for _ in range(100):
            coeffs = rng.uniform(0.0, 0.5, space.dimension)
            exact = float(coeffs @ ints)
            got = res.rule.apply(lambda u: eval_spline(space, coeffs, u))
            assert abs(got - exact) <= 1e-12 * np.linalg.norm(coeffs) * (b - a)

    def test_stall_is_reported_not_raised(self, monkeypatch):
        monkeypatch.setattr(continuation, "_INITIAL_STEP", 4e-2)
        monkeypatch.setattr(continuation, "_MIN_STEP", 3.9e-2)
        monkeypatch.setattr(continuation, "_MAX_STEP", 4e-2)
        monkeypatch.setattr(continuation, "_NEWTON_MAX_ITERS", 1)
        res = trace(uniform_space(7, 1, 2, (0.0, 1.0)))
        assert res.status == "stalled"
        assert res.t_reached < 1.0
        assert res.newton_failures > 0

    def test_late_failures_finish_through_the_forced_limit(self, monkeypatch):
        # the corrector keeps failing close to t = 1 on this clustered mesh,
        # so the step size underflows and the tracker clamps onto the limit
        target = SplineSpace(
            5,
            KnotVector(
                [0.0, 0.0601, 0.0631, 0.0759, 0.079, 0.1064, 0.2072, 0.2962,
                 0.3857, 0.3982, 0.4223, 0.4235, 0.488, 0.5231, 0.5364, 0.5527,
                 0.5773, 0.5995, 0.601, 0.6594, 0.7959, 1.0],
                [6, 3, 5, 2, 2, 1, 5, 5, 5, 5, 4, 3, 2, 1, 3, 4, 4, 2, 5, 1, 2, 6],
            ),
        )
        forced = []

        def spy(target, rule, r, force=False):
            forced.append(force)
            return finalize_limit(target, rule, r, force=force)

        monkeypatch.setattr(continuation, "finalize_limit", spy)
        res = trace(target)
        assert forced == [True]
        assert res.converged and res.newton_failures > 0
        a, b = target.interval
        defects = residual(target, res.rule)
        assert np.abs(defects).max() <= EXACT * max(abs(a), abs(b))

    def test_large_uniform_target_reaches_the_asymptotic_pattern(self):
        n = 160
        res = trace(uniform_space(5, 1, n))
        assert res.converged and res.rule.residual_norm <= 1e-14
        e = n // 2
        xs, ws = asymptotic_rule(5, 1).positions_in(e, e + 1)
        rule = res.rule
        inside = (rule.nodes >= e - 1e-9) & (rule.nodes < e + 1 - 1e-9)
        assert inside.sum() == len(xs)
        assert np.abs(rule.nodes[inside] - xs).max() <= 1e-12
        assert np.abs(rule.weights[inside] - ws).max() <= 1e-12

    def test_large_uniform_target_stops_at_rounding(self):
        # ‖F‖₂/dim shrinks as the dimension grows; only the max defect
        # shows whether Newton stopped early on a large mesh
        space = uniform_space(5, 1, 640)
        res = trace(space)
        assert res.converged
        assert np.abs(residual(space, res.rule)).max() <= EXACT * 640

    @pytest.mark.parametrize("name", ACCEPTANCE_TABLES + EXTRA_TABLES)
    def test_golden_traces_meet_the_convergence_test(self, name):
        space = space_for(name)
        a, b = space.interval
        defects = residual(space, get_trace(name).rule)
        assert np.abs(defects).max() <= EXACT * max(abs(a), abs(b))

    def test_parity_violation_raises(self):
        from splinegauss import ParityError

        with pytest.raises(ParityError):
            trace(uniform_space(5, 2, 4))

    def test_trace_metadata(self):
        res = get_trace((5, 1, 4))
        meta = res.rule.meta
        assert meta["provenance"] == "traced"
        assert meta["status"] == "converged"
        assert meta["degree"] == 5
