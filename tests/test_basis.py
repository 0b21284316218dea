"""Basis evaluation against divided-difference and quadrature oracles."""

import math

import numpy as np
import pytest

from splinegauss import (
    KnotVector,
    SplineSpace,
    eval_spline,
    evaluate,
    knot_path,
    legendre_rule,
    source_space,
    space_at,
    uniform_space,
)
from splinegauss.basis import (
    evaluate_functions,
    evaluate_many,
    integral,
    integrals,
    integrals_up_to,
    value_of,
)

from oracles import bspline_value, heavy_gauss_integral

SPACES = {
    "source-septic": SplineSpace(7, KnotVector([0.0, 0.5, 1.0], [8, 8, 8])),
    "septic-c1": uniform_space(7, 1, 4, (0.0, 1.0)),
    "quintic-c0": uniform_space(5, 0, 3),
    "cubic-simple": SplineSpace(
        3, KnotVector([0.0, 1, 2, 3, 4, 5], [4, 1, 1, 1, 1, 4])
    ),
    "mixed-mults": SplineSpace(
        5, KnotVector([0.0, 0.3, 0.7, 1.0], [6, 3, 2, 6])
    ),
}


def dense_values(space, u):
    out = np.zeros(space.dimension)
    ev = evaluate(space, u)
    out[ev.first_index : ev.first_index + space.degree + 1] = ev.values
    return out


def oracle_values(space, u):
    """Divided-difference values of every basis function at ``u``.

    Truncated powers give left limits where a function jumps; on the
    mirrored knots they give the right limits the package uses, except at
    the right end, where the package takes the left limit as well.
    """
    T = space.expanded.tolist()
    d, n = space.degree, space.dimension
    if u == space.interval[1]:
        return np.array([bspline_value(T, d, i, u) for i in range(n)])
    mirror = [-t for t in reversed(T)]
    return np.array([bspline_value(mirror, d, n - 1 - i, -u) for i in range(n)])


def probe_points(space, count=30, seed=13):
    """Random points plus every breakpoint, both ends included."""
    a, b = space.interval
    rng = np.random.default_rng(seed)
    return np.concatenate([rng.uniform(a, b, count), space.knots.breaks])


@pytest.mark.parametrize("name", sorted(SPACES))
def test_partition_of_unity_and_derivative_sum(name):
    space = SPACES[name]
    a, b = space.interval
    rng = np.random.default_rng(42)
    _, values, derivatives = evaluate_many(space, rng.uniform(a, b, 10_000))
    assert np.all(np.abs(values.sum(axis=1) - 1.0) <= 1e-13)
    scale = np.maximum(1.0, np.abs(derivatives).max(axis=1))
    assert np.all(np.abs(derivatives.sum(axis=1)) <= 1e-10 * scale)


@pytest.mark.parametrize("name", sorted(SPACES))
def test_evaluate_many_matches_divided_differences(name):
    space = SPACES[name]
    d = space.degree
    xs = probe_points(space)
    first, values, _ = evaluate_many(space, xs)
    assert first.shape == xs.shape
    assert values.shape == (len(xs), d + 1)
    # the divided-difference oracle loses ~d digits to cancellation
    tol = 1e-12 * 10 ** max(d - 3, 0)
    for p, u in enumerate(xs):
        ours = np.zeros(space.dimension)
        ours[first[p] : first[p] + d + 1] = values[p]
        assert np.abs(ours - oracle_values(space, u)).max() <= tol, u


@pytest.mark.parametrize("name", sorted(SPACES))
def test_evaluate_many_rows_equal_scalar_evaluate(name):
    space = SPACES[name]
    xs = probe_points(space, seed=29)
    first, values, derivatives = evaluate_many(space, xs)
    for p, u in enumerate(xs):
        ev = evaluate(space, u)
        assert ev.first_index == first[p]
        assert ev.values.tobytes() == values[p].tobytes()
        assert ev.derivatives.tobytes() == derivatives[p].tobytes()


@pytest.mark.parametrize("bad", [1.5, -0.25, float("nan")])
def test_evaluate_many_rejects_one_point_outside(bad):
    space = SPACES["septic-c1"]
    with pytest.raises(ValueError, match="outside"):
        evaluate_many(space, [0.1, 0.5, bad, 0.9])


def test_open_left_endpoint_interpolates():
    space = SPACES["source-septic"]
    ev = evaluate(space, 0.0)
    assert ev.first_index == 0
    assert ev.values[0] == pytest.approx(1.0, abs=1e-15)
    assert np.all(np.abs(ev.values[1:]) <= 1e-15)


def test_right_end_uses_left_limit():
    space = SPACES["septic-c1"]
    ev = evaluate(space, space.interval[1])
    assert ev.first_index + space.degree == space.dimension - 1
    assert ev.values[-1] == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("name", sorted(SPACES))
def test_derivatives_match_finite_differences(name):
    space = SPACES[name]
    a, b = space.interval
    h = 1e-6 * (b - a)
    rng = np.random.default_rng(7)
    breaks = np.asarray(space.knots.breaks)
    count = 0
    while count < 200:
        u = rng.uniform(a + 2 * h, b - 2 * h)
        if np.min(np.abs(breaks - u)) < 4 * h:
            continue
        count += 1
        up = dense_values(space, u + h)
        um = dense_values(space, u - h)
        fd = (up - um) / (2 * h)
        ev = evaluate(space, u)
        exact = np.zeros(space.dimension)
        exact[ev.first_index : ev.first_index + space.degree + 1] = ev.derivatives
        scale = max(1.0, np.abs(exact).max())
        assert np.abs(fd - exact).max() <= 1e-6 * scale


def test_cardinal_cubic_values_at_interior_knot():
    space = SPACES["cubic-simple"]
    expanded = space.expanded.tolist()
    # oracle: divided differences of truncated powers, then freeze
    mid = 2.0
    oracle = [bspline_value(expanded, 3, i, mid) for i in range(space.dimension)]
    ours = dense_values(space, mid)
    assert np.abs(np.asarray(oracle) - ours).max() <= 1e-12
    center = int(np.argmax(ours))
    assert ours[center] == pytest.approx(2.0 / 3.0, abs=1e-13)
    assert ours[center - 1] == pytest.approx(1.0 / 6.0, abs=1e-13)
    assert ours[center + 1] == pytest.approx(1.0 / 6.0, abs=1e-13)


@pytest.mark.parametrize("name", ["septic-c1", "mixed-mults", "quintic-c0"])
def test_divided_difference_oracle_at_random_points(name):
    space = SPACES[name]
    a, b = space.interval
    expanded = space.expanded.tolist()
    rng = np.random.default_rng(3)
    # the divided-difference oracle loses ~d digits to cancellation
    tol = 1e-12 * 10 ** (space.degree - 3)
    for u in rng.uniform(a, b, 40):
        ours = dense_values(space, u)
        oracle = [
            bspline_value(expanded, space.degree, i, u)
            for i in range(space.dimension)
        ]
        assert np.abs(ours - np.asarray(oracle)).max() <= tol


def test_source_basis_is_bernstein():
    space = SplineSpace(7, KnotVector([0.0, 1.0], [8, 8]))
    rng = np.random.default_rng(11)
    for u in rng.uniform(0.0, 1.0, 50):
        vals = dense_values(space, u)
        bern = np.array(
            [math.comb(7, k) * u**k * (1 - u) ** (7 - k) for k in range(8)]
        )
        assert np.abs(vals - bern).max() <= 1e-14


class TestIntegral:
    def test_unit_element_bernstein(self):
        space = SplineSpace(7, KnotVector([0.0, 1.0], [8, 8]))
        for i in range(space.dimension):
            assert integral(space, i) == pytest.approx(1.0 / 8.0, abs=1e-16)

    def test_scaled_element(self):
        h = 0.37
        space = SplineSpace(7, KnotVector([0.0, h], [8, 8]))
        for i in range(space.dimension):
            assert integral(space, i) == pytest.approx(h / 8.0, abs=1e-16)

    @pytest.mark.parametrize("name", sorted(SPACES))
    def test_matches_heavy_quadrature(self, name):
        space = SPACES[name]
        T = space.expanded
        d = space.degree
        spans = list(zip(space.knots.breaks, space.knots.breaks[1:]))
        for i in range(space.dimension):
            ref = heavy_gauss_integral(
                lambda u: value_of(space, i, u), T[i], T[i + d + 1], spans=spans
            )
            assert integral(space, i) == pytest.approx(ref, abs=1e-13)

    def test_index_range(self):
        space = SPACES["cubic-simple"]
        with pytest.raises(IndexError):
            integral(space, space.dimension)

    def test_dying_functions_lose_their_integral(self):
        # as the inner breakpoint merges into the right end, the trailing
        # basis functions' integrals over [a, b] vanish: the normalization
        # makes the last one decay like h^2/4 and its neighbour like h/4
        # (constants frozen from the heavy quadrature oracle)
        for h in (1e-2, 1e-3, 1e-4):
            space = SplineSpace(
                7,
                KnotVector([0.0, 0.5, 1.0 - h, 1.0, 1.5], [8, 6, 2, 6, 2]),
            )
            upto = integrals_up_to(space, 1.0)
            assert upto[-1] == pytest.approx(h**2 / 4.0, rel=0.03)
            assert upto[-2] == pytest.approx(h / 4.0, rel=0.03)

    def test_integrals_up_to_against_oracle(self):
        space = SPACES["mixed-mults"]
        cutoff = 0.55
        T = space.expanded
        d = space.degree
        spans = list(zip(space.knots.breaks, space.knots.breaks[1:]))
        got = integrals_up_to(space, cutoff)
        for i in range(space.dimension):
            ref = heavy_gauss_integral(
                lambda u: value_of(space, i, u),
                T[i],
                min(T[i + d + 1], cutoff),
                spans=spans,
            )
            assert got[i] == pytest.approx(ref, abs=1e-14)

    @pytest.mark.parametrize("target", [(7, 1, 6), (5, 0, 5)])
    def test_integrals_up_to_equals_a_per_function_span_loop(self, target):
        # reference: each straddling function sums its Gauss points span by
        # span, in ascending order, one term at a time; same bits required
        def span_loop(space, cutoff):
            d = space.degree
            T = space.expanded
            g = legendre_rule((d + 2) // 2)
            out = integrals(space)
            for i in range(space.dimension):
                if T[i + d + 1] <= cutoff:
                    continue
                out[i] = 0.0
                spans = np.unique(T[i : i + d + 2])
                for xl, xr in zip(spans, spans[1:]):
                    xr = min(float(xr), cutoff)
                    if xr <= xl:
                        break
                    mid, half = 0.5 * (xl + xr), 0.5 * (xr - xl)
                    xs = mid + half * g.nodes
                    values, _ = evaluate_functions(space, [i] * len(xs), xs)
                    for w, v in zip(half * g.weights, values):
                        out[i] += w * v
            return out

        space = uniform_space(*target)
        path = knot_path(source_space(space), space)
        b = space.interval[1]
        for t in (0.3, 0.8, 1.0):
            moved = space_at(path, t)
            for cutoff in (b, 0.37 * b):
                got = integrals_up_to(moved, cutoff)
                assert np.array_equal(got, span_loop(moved, cutoff))

    def test_integrals_matches_per_index(self):
        space = SPACES["septic-c1"]
        all_at_once = integrals(space)
        for i in range(space.dimension):
            assert all_at_once[i] == integral(space, i)


class TestEvalSpline:
    def test_all_ones_is_unity(self):
        space = SPACES["quintic-c0"]
        coeffs = np.ones(space.dimension)
        rng = np.random.default_rng(5)
        for u in rng.uniform(*space.interval, 100):
            assert eval_spline(space, coeffs, u) == pytest.approx(1.0, abs=1e-13)

    def test_endpoint_coefficient(self):
        space = SPACES["septic-c1"]
        coeffs = np.zeros(space.dimension)
        coeffs[0] = 1.0
        assert eval_spline(space, coeffs, space.interval[0]) == pytest.approx(
            1.0, abs=1e-15
        )

    def test_random_coefficients_integrate_exactly(self):
        space = SPACES["mixed-mults"]
        rng = np.random.default_rng(17)
        coeffs = rng.uniform(-1.0, 1.0, space.dimension)
        spans = list(zip(space.knots.breaks, space.knots.breaks[1:]))
        ref = heavy_gauss_integral(
            lambda u: eval_spline(space, coeffs, u), *space.interval, spans=spans
        )
        assert float(coeffs @ integrals(space)) == pytest.approx(ref, abs=1e-13)

    def test_length_mismatch(self):
        space = SPACES["cubic-simple"]
        with pytest.raises(ValueError, match="coefficients"):
            eval_spline(space, np.ones(3), 0.5)


def test_outside_domain_rejected():
    space = SPACES["septic-c1"]
    with pytest.raises(ValueError, match="outside"):
        evaluate(space, 1.5)
