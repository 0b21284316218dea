"""Gauss-Legendre rules against the eigenvalue oracle and exactness."""

import numpy as np
import pytest

from splinegauss import KnotVector, SplineSpace, gauss, legendre_rule, source_rule
from splinegauss.basis import evaluate_functions, integrals

from oracles import golub_welsch


class TestLegendreRule:
    def test_one_point_is_midpoint(self):
        rule = legendre_rule(1)
        assert rule.nodes.tolist() == [0.0]
        assert rule.weights.tolist() == [2.0]

    def test_two_point(self):
        rule = legendre_rule(2)
        assert rule.nodes == pytest.approx([-1 / np.sqrt(3), 1 / np.sqrt(3)], abs=1e-15)
        assert rule.weights == pytest.approx([1.0, 1.0], abs=1e-15)

    def test_four_point_reference_values(self):
        rule = legendre_rule(4)
        ref = [
            -0.86113631159405257522,
            -0.33998104358485626480,
            0.33998104358485626480,
            0.86113631159405257522,
        ]
        assert np.abs(rule.nodes - ref).max() <= 1e-15

    @pytest.mark.parametrize("q", list(range(1, 33)))
    def test_matches_eigenvalue_oracle(self, q):
        rule = legendre_rule(q)
        nodes, weights = golub_welsch(q)
        assert np.abs(rule.nodes - nodes).max() <= 1e-14
        assert np.abs(rule.weights - weights).max() <= 1e-14

    @pytest.mark.parametrize("q", list(range(1, 33)))
    def test_monomial_exactness_on_unit_interval(self, q):
        rule = legendre_rule(q)
        xs = 0.5 * (rule.nodes + 1.0)
        ws = 0.5 * rule.weights
        for k in range(2 * q):
            err = abs(float(ws @ xs**k) - 1.0 / (k + 1))
            assert err <= 1e-14

    @pytest.mark.parametrize("q", list(range(2, 33)))
    def test_exact_symmetry(self, q):
        rule = legendre_rule(q)
        assert np.all(rule.nodes == -rule.nodes[::-1])
        assert np.all(rule.weights == rule.weights[::-1])
        assert np.all(np.diff(rule.nodes) > 0)
        assert abs(rule.weights.sum() - 2.0) <= 1e-14

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            legendre_rule(0)


class TestCompositeRule:
    def test_each_span_gets_the_mapped_element_rule(self):
        breaks = [0.0, 0.3, 1.0, 2.5]
        nodes, weights = gauss.composite_rule(3, breaks)
        ref = legendre_rule(3)
        for s, (xl, xr) in enumerate(zip(breaks, breaks[1:])):
            mid, half = 0.5 * (xl + xr), 0.5 * (xr - xl)
            assert np.array_equal(nodes[3 * s : 3 * s + 3], mid + half * ref.nodes)
            assert np.array_equal(weights[3 * s : 3 * s + 3], half * ref.weights)


class TestSourceRule:
    def test_two_septic_elements(self):
        space = SplineSpace(7, KnotVector([0.0, 0.5, 1.0], [8, 8, 8]))
        rule = source_rule(space)
        assert rule.num_nodes == 8
        assert np.sum(rule.nodes < 0.5) == 4
        assert np.sum(rule.nodes > 0.5) == 4
        assert rule.residual_norm <= 1e-13

    def test_single_element_is_plain_gauss(self):
        space = SplineSpace(5, KnotVector([2.0, 7.0], [6, 6]))
        rule = source_rule(space)
        ref = legendre_rule(3)
        assert rule.num_nodes == 3
        assert rule.nodes == pytest.approx(4.5 + 2.5 * ref.nodes, abs=1e-14)
        assert rule.weights == pytest.approx(2.5 * ref.weights, abs=1e-14)

    def test_integrates_degree_seven_monomial(self):
        space = SplineSpace(7, KnotVector([0.0, 1.0], [8, 8]))
        rule = source_rule(space)
        assert rule.apply(lambda t: t**7) == pytest.approx(1.0 / 8.0, abs=1e-15)

    def test_solves_source_exactness_system(self):
        space = SplineSpace(7, KnotVector([0.0, 0.5, 1.0], [8, 8, 8]))
        rule = source_rule(space)
        ints = integrals(space)
        for i in range(space.dimension):
            values, _ = evaluate_functions(
                space, np.full(rule.num_nodes, i), rule.nodes
            )
            q = sum(w * v for w, v in zip(rule.weights, values))
            assert abs(q - ints[i]) <= 1e-14

    def test_corrupted_element_rule_fails_the_self_check(self, monkeypatch):
        exact = gauss.legendre_rule

        def corrupted(q):
            rule = exact(q)
            weights = rule.weights.copy()
            weights[0] += 1e-9
            return gauss.ElementRule(q, rule.nodes.copy(), weights)

        monkeypatch.setattr(gauss, "legendre_rule", corrupted)
        space = SplineSpace(7, KnotVector([0.0, 0.5, 1.0], [8, 8, 8]))
        with pytest.raises(RuntimeError, match="source rule residual"):
            source_rule(space)

    def test_even_degree_rejected(self):
        space = SplineSpace(4, KnotVector([0.0, 1.0], [5, 5]))
        with pytest.raises(ValueError, match="odd"):
            source_rule(space)

    def test_continuous_space_rejected(self):
        space = SplineSpace(5, KnotVector([0.0, 0.5, 1.0], [6, 4, 6]))
        with pytest.raises(ValueError, match="discontinuous"):
            source_rule(space)
