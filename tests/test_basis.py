"""Basis evaluation against divided-difference and quadrature oracles."""

import math

import numpy as np
import pytest

from splinegauss import (
    KnotVector,
    SplineSpace,
    eval_spline,
    knot_path,
    source_space,
    space_at,
    uniform_space,
)
from splinegauss.basis import (
    evaluate_functions,
    evaluate_many,
    integrals,
    integrals_up_to,
)

from oracles import (
    bspline_value,
    classic_basis_row,
    cut_integral_mp,
    heavy_gauss_integral,
)

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
    (first,), (values,), _ = evaluate_many(space, [u])
    out[first : first + space.degree + 1] = values
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
        one = evaluate_many(space, [u])
        assert one[0][0] == first[p]
        assert one[1][0].tobytes() == values[p].tobytes()
        assert one[2][0].tobytes() == derivatives[p].tobytes()


def edge_points(space):
    """Both ends of the supported region, the points one fuzz outside them
    (the farthest the kernel accepts) and the ulps next to each end."""
    T, d = space.expanded, space.degree
    lo, hi = float(T[d]), float(T[len(T) - d - 1])
    fuzz = 1e-12 * max(1.0, hi - lo) + 8 * np.spacing(max(abs(lo), abs(hi)))
    ends = [lo, hi, lo - fuzz, hi + fuzz]
    return ends + [np.nextafter(x, s) for x in (lo, hi) for s in (-np.inf, np.inf)]


# every degree 0..9, open (its first interior break of multiplicity d) and
# not open (all knots simple)
CLASSIC_SPACES = {
    f"d{d}-{kind}": SplineSpace(d, KnotVector(breaks, mults))
    for d in range(10)
    for kind, breaks, mults in (
        ("open", [0.0, 0.3, 0.7, 1.0], [d + 1, max(d, 1), 1, d + 1]),
        ("not-open", np.arange(2 * d + 4) * 0.25 - 0.5, [1] * (2 * d + 4)),
    )
}


@pytest.mark.parametrize("name", sorted(SPACES) + list(CLASSIC_SPACES))
def test_evaluate_many_rows_equal_the_classic_recurrence(name):
    space = {**SPACES, **CLASSIC_SPACES}[name]
    T, d = space.expanded, space.degree
    lo, hi = float(T[d]), float(T[len(T) - d - 1])
    rng = np.random.default_rng(31)
    xs = np.concatenate([
        rng.uniform(lo, hi, 40),
        [b for b in space.knots.breaks if lo <= b <= hi],
        edge_points(space),
    ])
    first, values, derivatives = evaluate_many(space, xs)
    assert values.flags.c_contiguous and derivatives.flags.c_contiguous
    for p, u in enumerate(xs):
        k, want_values, want_derivatives = classic_basis_row(T, d, u)
        assert first[p] == k
        assert values[p].tobytes() == np.array(want_values).tobytes(), u
        assert derivatives[p].tobytes() == np.array(want_derivatives).tobytes(), u


@pytest.mark.parametrize("bad", [1.5, -0.25, float("nan")])
def test_evaluate_many_rejects_one_point_outside(bad):
    space = SPACES["septic-c1"]
    with pytest.raises(ValueError, match="outside"):
        evaluate_many(space, [0.1, 0.5, bad, 0.9])


def test_open_left_endpoint_interpolates():
    space = SPACES["source-septic"]
    (first,), (values,), _ = evaluate_many(space, [0.0])
    assert first == 0
    assert values[0] == pytest.approx(1.0, abs=1e-15)
    assert np.all(np.abs(values[1:]) <= 1e-15)


def test_right_end_uses_left_limit():
    space = SPACES["septic-c1"]
    (first,), (values,), _ = evaluate_many(space, [space.interval[1]])
    assert first + space.degree == space.dimension - 1
    assert values[-1] == pytest.approx(1.0, abs=1e-15)


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
        (first,), _, (derivatives,) = evaluate_many(space, [u])
        exact = np.zeros(space.dimension)
        exact[first : first + space.degree + 1] = derivatives
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
            assert integrals(space)[i] == pytest.approx(1.0 / 8.0, abs=1e-16)

    def test_scaled_element(self):
        h = 0.37
        space = SplineSpace(7, KnotVector([0.0, h], [8, 8]))
        for i in range(space.dimension):
            assert integrals(space)[i] == pytest.approx(h / 8.0, abs=1e-16)

    @pytest.mark.parametrize("name", sorted(SPACES))
    def test_matches_heavy_quadrature(self, name):
        space = SPACES[name]
        T = space.expanded
        d = space.degree
        spans = list(zip(space.knots.breaks, space.knots.breaks[1:]))
        for i in range(space.dimension):
            ref = heavy_gauss_integral(
                lambda u: evaluate_functions(space, [i], [u])[0][0],
                T[i],
                T[i + d + 1],
                spans=spans,
            )
            assert integrals(space)[i] == pytest.approx(ref, abs=1e-13)

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

    def test_cutoff_one_ulp_past_the_supported_region(self):
        # far from the origin the region's end rounds one ulp below b
        b = 1e6 + 10
        target = uniform_space(7, 2, 15, (1e6, b))
        space = space_at(knot_path(source_space(target), target), 0.02)
        T = space.expanded
        end = T[len(T) - space.degree - 1]
        assert end == np.nextafter(b, 0.0)
        # basis values are at most one, so the sliver adds at most its width
        gap = integrals_up_to(space, b) - integrals_up_to(space, end)
        assert np.abs(gap).max() <= b - end

    def test_cutoff_below_the_supported_region_is_rejected(self):
        space = SPACES["septic-c1"]
        with pytest.raises(ValueError, match="below the supported region"):
            integrals_up_to(space, space.interval[0] - 0.5)

    def test_integrals_up_to_against_oracle(self):
        space = SPACES["mixed-mults"]
        cutoff = 0.55
        T = space.expanded
        d = space.degree
        spans = list(zip(space.knots.breaks, space.knots.breaks[1:]))
        got = integrals_up_to(space, cutoff)
        for i in range(space.dimension):
            ref = heavy_gauss_integral(
                lambda u: evaluate_functions(space, [i], [u])[0][0],
                T[i],
                min(T[i + d + 1], cutoff),
                spans=spans,
            )
            assert got[i] == pytest.approx(ref, abs=1e-14)

    @pytest.mark.parametrize(
        "target",
        [
            ((7, 1, 6), (0.3, 0.8, 1.0), (1.0, 0.37)),
            ((5, 0, 5), (0.3, 0.8, 1.0), (1.0, 0.37)),
            # a composite Gauss rule of the cut spans missed by up to 94 ulp
            ((7, 1, 30), (0.025,), (1.0,)),
        ],
    )
    def test_integrals_up_to_equals_a_per_function_span_loop(self, target):
        # reference: each function integrated span by span, every span cut
        # at the cutoff, in 40-digit arithmetic; a cut support is within a
        # few ulp of its full integral, an uncut one is the closed form
        key, times, fractions = target
        space = uniform_space(*key)
        path = knot_path(source_space(space), space)
        b = space.interval[1]
        for t in times:
            moved = space_at(path, t)
            T, d = moved.expanded, moved.degree
            full = integrals(moved)
            for cutoff in (f * b for f in fractions):
                got = integrals_up_to(moved, cutoff)
                cut = T[d + 1 : d + 1 + moved.dimension] > cutoff
                assert np.array_equal(got[~cut], full[~cut])
                for i in np.flatnonzero(cut):
                    ref = cut_integral_mp(T, d, i, cutoff)
                    assert abs(got[i] - ref) <= 4 * np.spacing(full[i])

    def test_integrals_matches_per_index(self):
        space = SPACES["septic-c1"]
        T, d = space.expanded, space.degree
        all_at_once = integrals(space)
        for i in range(space.dimension):
            assert all_at_once[i] == float(T[i + d + 1] - T[i]) / (d + 1)


class TestEvalSpline:
    def test_all_ones_is_unity(self):
        space = SPACES["quintic-c0"]
        coeffs = np.ones(space.dimension)
        rng = np.random.default_rng(5)
        xs = rng.uniform(*space.interval, 100)
        values = eval_spline(space, coeffs, xs)
        assert values.shape == xs.shape
        assert np.all(np.abs(values - 1.0) <= 1e-13)

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
            lambda u: float(eval_spline(space, coeffs, u)),
            *space.interval,
            spans=spans,
        )
        assert float(coeffs @ integrals(space)) == pytest.approx(ref, abs=1e-13)

    def test_length_mismatch(self):
        space = SPACES["cubic-simple"]
        with pytest.raises(ValueError, match="coefficients"):
            eval_spline(space, np.ones(3), 0.5)

    def test_keeps_the_shape_of_the_points(self):
        space = SPACES["mixed-mults"]
        coeffs = np.random.default_rng(23).uniform(-1.0, 1.0, space.dimension)
        grid = np.linspace(*space.interval, 12).reshape(3, 4)
        values = eval_spline(space, coeffs, grid)
        assert values.shape == (3, 4)
        assert eval_spline(space, coeffs, 0.5).shape == ()
        for u, v in zip(grid.ravel(), values.ravel()):
            assert v == pytest.approx(dense_values(space, u) @ coeffs, abs=1e-15)


def test_outside_domain_rejected():
    space = SPACES["septic-c1"]
    with pytest.raises(ValueError, match="outside"):
        eval_spline(space, np.ones(space.dimension), [0.5, 1.5])
