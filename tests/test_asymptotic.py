"""Asymptotic patterns: closed forms, the periodic solver, hybrids."""

import math

import numpy as np
import pytest

from splinegauss import (
    AsymptoticPattern,
    ParityError,
    asymptotic_rule,
    hybrid_rule,
    pattern_residual,
    solve_asymptotic_system,
    uniform_space,
)
from splinegauss.continuation import residual_norm

from tracing import get_trace


def layouts_by_count(pattern):
    """Element layouts keyed by node count; phase-independent view."""
    out = {}
    for e in range(pattern.period):
        layout = pattern.element_layout(e)
        out[len(layout)] = layout
    return out


class TestClosedForms:
    @pytest.mark.parametrize(
        "pair", [(5, 0), (5, 1), (5, 2), (5, 3), (7, 0), (7, 1), (9, 1)]
    )
    def test_registry_patterns_are_exact(self, pair):
        pattern = asymptotic_rule(*pair)
        assert pattern_residual(pattern) <= 1e-14

    @pytest.mark.parametrize(
        "pair", [(5, 0), (5, 1), (5, 2), (5, 3), (7, 0), (7, 1), (9, 1)]
    )
    def test_weights_sum_to_period(self, pair):
        pattern = asymptotic_rule(*pair)
        assert pattern.weights.sum() == pytest.approx(pattern.period, abs=1e-14)

    def test_period_parity(self):
        for d, c in [(5, 0), (5, 1), (5, 2), (5, 3), (7, 0), (7, 1), (9, 1)]:
            pattern = asymptotic_rule(d, c)
            assert pattern.period == (1 if c % 2 else 2)

    def test_nodes_per_element(self):
        pattern = asymptotic_rule(7, 1)
        assert pattern.nodes_per_element == 3


class TestSolver:
    def test_septic_c1_three_point_constants(self):
        pattern = solve_asymptotic_system(7, 1)
        d1 = (7.0 - math.sqrt(7.0)) / 14.0
        assert pattern.offsets == pytest.approx([0.0, d1, 1 - d1], abs=1e-13)
        assert pattern.weights == pytest.approx(
            [37 / 135, 49 / 135, 49 / 135], abs=1e-13
        )

    def test_quintic_c1_knots_and_midpoints(self):
        pattern = solve_asymptotic_system(5, 1)
        assert pattern.offsets == pytest.approx([0.0, 0.5], abs=1e-14)
        assert pattern.weights == pytest.approx([7 / 15, 8 / 15], abs=1e-13)

    def test_nonic_c1_four_point_constants(self):
        pattern = solve_asymptotic_system(9, 1)
        assert pattern.offsets == pytest.approx(
            [0.0, 0.21132486540518711775, 0.5, 1 - 0.21132486540518711775],
            abs=1e-13,
        )
        assert pattern.weights == pytest.approx(
            [19 / 105, 27 / 105, 32 / 105, 27 / 105], abs=1e-13
        )

    def test_quintic_c0_constants(self):
        pattern = solve_asymptotic_system(5, 0)
        by_count = layouts_by_count(pattern)
        three = by_count[3]
        two = by_count[2]
        assert [o for o, _ in three] == pytest.approx(
            [0.07182558071116236600, 0.5, 1 - 0.07182558071116236600], abs=1e-13
        )
        assert [w for _, w in three] == pytest.approx(
            [45 / 132, 64 / 132, 45 / 132], abs=1e-13
        )
        assert [o for o, _ in two] == pytest.approx(
            [0.27639320225002103036, 1 - 0.27639320225002103036], abs=1e-13
        )
        assert [w for _, w in two] == pytest.approx(
            [55 / 132, 55 / 132], abs=1e-13
        )

    def test_septic_c0_four_node_element_is_quartic_roots(self):
        pattern = solve_asymptotic_system(7, 0)
        four = layouts_by_count(pattern)[4]
        offs = [o for o, _ in four]
        roots = np.sort(np.roots([112.0, -224.0, 141.0, -29.0, 1.0]))
        assert offs == pytest.approx(roots.tolist(), abs=1e-13)
        assert offs == pytest.approx(
            [
                0.04279465186386840500,
                0.32101760363894084659,
                0.67898239636105915341,
                0.95720534813613159500,
            ],
            abs=1e-13,
        )
        three = layouts_by_count(pattern)[3]
        assert [o for o, _ in three] == pytest.approx(
            [0.5 - math.sqrt(21) / 14, 0.5, 0.5 + math.sqrt(21) / 14], abs=1e-13
        )
        assert [w for _, w in three] == pytest.approx(
            [49 / 180, 64 / 180, 49 / 180], abs=1e-13
        )

    def test_quintic_c2_pair_from_quartic(self):
        pattern = solve_asymptotic_system(5, 2)
        pair = layouts_by_count(pattern)[2]
        mid = layouts_by_count(pattern)[1]
        d_hi = 0.83605670665166755138
        assert [o for o, _ in pair] == pytest.approx([1 - d_hi, d_hi], abs=1e-13)
        assert [w for _, w in pair] == pytest.approx(
            [0.66723184144087066164] * 2, abs=1e-13
        )
        assert mid[0][0] == pytest.approx(0.5, abs=1e-14)
        assert mid[0][1] == pytest.approx(0.66553631711825867672, abs=1e-13)
        # the pair positions are the inner roots of the quartic
        roots = np.sort(np.roots([164.0, -328.0, 150.0, 14.0, -5.0]))
        positive = roots[roots > 0]
        assert pair[0][0] == pytest.approx(float(positive[0]), abs=1e-13)
        assert pair[1][0] == pytest.approx(float(positive[1]), abs=1e-13)

    def test_quintic_c3_midpoint_rule(self):
        pattern = solve_asymptotic_system(5, 3)
        assert pattern.offsets == pytest.approx([0.5], abs=1e-14)
        assert pattern.weights == pytest.approx([1.0], abs=1e-14)

    @pytest.mark.parametrize(
        "pair", [(7, 2), (7, 3), (9, 3), (5, 4), (7, 6), (9, 8), (11, 10)]
    )
    def test_further_pairs_solve_exactly(self, pair):
        pattern = solve_asymptotic_system(*pair)
        assert pattern_residual(pattern) <= 1e-14
        assert pattern.weights.sum() == pytest.approx(pattern.period, abs=1e-13)

    @pytest.mark.parametrize(
        "pair", [(5, 0), (5, 1), (5, 2), (5, 3), (7, 0), (7, 1), (9, 1)]
    )
    def test_solver_reproduces_registry(self, pair):
        solved = solve_asymptotic_system(*pair)
        closed = asymptotic_rule(*pair)
        a = layouts_by_count(solved)
        b = layouts_by_count(closed)
        assert a.keys() == b.keys()
        for count in a:
            for (oa, wa), (ob, wb) in zip(a[count], b[count]):
                assert oa == pytest.approx(ob, abs=1e-13)
                assert wa == pytest.approx(wb, abs=1e-13)

    @pytest.mark.parametrize("pair", [(15, 0), (21, 4)])
    def test_slow_pairs_solve_within_the_solver_caps(self, pair):
        # (15, 0) takes 59 iterations; the tracker's caps of 25 iterations
        # and 10 halvings leave both pairs unsolved
        pattern = solve_asymptotic_system(*pair)
        bound = 4 * np.finfo(float).eps * pattern.period
        assert pattern_residual(pattern) <= bound

    def test_invalid_pair_rejected(self):
        with pytest.raises(ValueError):
            solve_asymptotic_system(6, 1)
        with pytest.raises(ValueError):
            solve_asymptotic_system(5, 5)


class TestPatternResidual:
    """The solver and this check share one residual; it must still bite."""

    @pytest.mark.parametrize("move", [1e-6, -1e-6])
    def test_moved_offsets_are_detected(self, move):
        exact = asymptotic_rule(7, 1)
        # move the symmetric pair apart or together; the knot node stays
        moved = AsymptoticPattern(
            7, 1, 1, exact.offsets + move * np.array([0.0, 1.0, -1.0]),
            exact.weights,
        )
        assert pattern_residual(moved) > 1e-7


class TestPatternValidation:
    def test_asymmetric_pattern_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            AsymptoticPattern(5, 1, 1, np.array([0.0, 0.4]), np.array([0.5, 0.5]))

    def test_wrong_count_rejected(self):
        with pytest.raises(ValueError, match="nodes per period"):
            AsymptoticPattern(5, 1, 1, np.array([0.5]), np.array([1.0]))


ALL_PAIRS = [(d, c) for d in range(1, 12, 2) for c in range(d)]


class TestEveryPair:
    @pytest.mark.parametrize("d, c", ALL_PAIRS)
    def test_pattern_is_exact(self, d, c):
        pattern = asymptotic_rule(d, c)
        assert pattern_residual(pattern) <= 1e-14
        assert pattern.weights.sum() == pytest.approx(pattern.period, abs=1e-14)

    @pytest.mark.parametrize("d, c", ALL_PAIRS)
    def test_solver_stops_at_rounding(self, d, c):
        # the solver's interval is one period: (0, period)
        pattern = solve_asymptotic_system(d, c)
        bound = 4 * np.finfo(float).eps * pattern.period
        assert pattern_residual(pattern) <= bound


class TestTraceInterior:
    """The middle period of a long uniform trace is the asymptotic pattern."""

    @pytest.mark.parametrize(
        "d, c, n",
        [(7, 3, 33), (9, 5, 33), (11, 0, 33), (7, 5, 101), (5, 4, 101)],
    )
    def test_middle_period_matches_pattern(self, d, c, n):
        rule = get_trace((d, c, n)).rule
        pattern = asymptotic_rule(d, c)
        interior = {}
        for e in range(n // 2, n // 2 + pattern.period):
            # a knot node belongs to the element it starts
            inside = (rule.nodes >= e - 0.02) & (rule.nodes < e + 0.98)
            interior[int(inside.sum())] = (
                rule.nodes[inside] - e,
                rule.weights[inside],
            )
        expected = layouts_by_count(pattern)
        assert interior.keys() == expected.keys()
        for count, (offsets, weights) in interior.items():
            assert offsets == pytest.approx(
                [o for o, _ in expected[count]], abs=1e-12
            )
            assert weights == pytest.approx(
                [w for _, w in expected[count]], abs=1e-12
            )


class TestConvergenceToPattern:
    def test_quintic_c1_interior_elements_match(self):
        res = get_trace("d5_c1_N10")
        pattern = asymptotic_rule(5, 1)
        grid, gw = pattern.positions_in(-1.0, 11.0)
        for x, w in zip(res.rule.nodes, res.rule.weights):
            if not 4.0 - 1e-9 <= x <= 6.0 + 1e-9:
                continue
            k = int(np.argmin(np.abs(grid - x)))
            assert abs(grid[k] - x) <= 1e-13
            assert abs(gw[k] - w) <= 1e-13


class TestHybrid:
    def test_matches_direct_trace(self):
        hybrid = hybrid_rule(5, 1, 10, 4)
        direct = get_trace("d5_c1_N10").rule
        assert np.abs(hybrid.nodes - direct.nodes).max() <= 1e-12
        assert np.abs(hybrid.weights - direct.weights).max() <= 1e-12

    def test_shallow_boundary_for_c0(self):
        rule = hybrid_rule(5, 0, 101, 1)
        assert rule.num_nodes == (101 * 5 + 1) // 2
        assert rule.residual_norm <= 1e-12

    def test_default_depths(self):
        rule = hybrid_rule(7, 1, 20)
        assert rule.meta["boundary_depth"] == 4
        assert rule.residual_norm <= 1e-12

    def test_no_default_above_c1(self):
        with pytest.raises(ValueError, match="boundary_depth"):
            hybrid_rule(5, 2, 31)

    def test_too_shallow_depth_reported_not_hidden(self):
        rule = hybrid_rule(5, 2, 31, 1)
        assert rule.residual_norm > 1e-9  # degradation is visible to callers
        target = uniform_space(5, 2, 31)
        assert residual_norm(target, rule) == pytest.approx(rule.residual_norm)

    def test_deep_boundary_for_c2_converges(self):
        rule = hybrid_rule(5, 2, 41, 15)
        assert rule.residual_norm <= 1e-12

    def test_even_elements_even_continuity_rejected(self):
        with pytest.raises(ParityError):
            hybrid_rule(5, 0, 100, 1)

    def test_too_few_elements_rejected(self):
        with pytest.raises(ValueError, match="at least"):
            hybrid_rule(5, 1, 5, 4)

    # phase: the pattern element that starts the interior at x = depth
    @pytest.mark.parametrize(
        "d, c, n, depth, phase",
        [
            (5, 0, 101, 1, 0),
            (5, 0, 31, 2, 1),
            (7, 2, 31, 2, 1),
            (7, 0, 51, 1, 0),
            (5, 1, 40, 4, 0),
            (7, 1, 20, None, 0),
        ],
    )
    def test_interior_is_the_pattern_tiled_bitwise(self, d, c, n, depth, phase):
        rule = hybrid_rule(d, c, n, depth)
        depth = rule.meta["boundary_depth"]
        pattern = asymptotic_rule(d, c)
        expected = []
        for k in range(n):
            shift = depth - phase + pattern.period * k  # an exact integer
            for offset, weight in zip(pattern.offsets, pattern.weights):
                if depth <= offset + shift <= n - depth:
                    expected.append((offset + shift, weight))
        inside = (rule.nodes >= depth) & (rule.nodes <= n - depth)
        assert rule.nodes[inside].tolist() == [x for x, _ in expected]
        assert rule.weights[inside].tolist() == [w for _, w in expected]
