"""Knot vectors, spline spaces, and the geodesic knot transformation."""

import math

import numpy as np
import pytest

from splinegauss import (
    KnotVector,
    ParityError,
    SplineSpace,
    knot_path,
    source_space,
    space_at,
    uniform_space,
)


class TestKnotVector:
    def test_expanded_repeats_by_multiplicity(self):
        kv = KnotVector([0.0, 0.5, 1.0], [3, 1, 3])
        assert kv.expanded.tolist() == [0, 0, 0, 0.5, 1, 1, 1]
        assert kv.cardinality == 7

    def test_rejects_non_increasing_breaks(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            KnotVector([0.0, 0.0, 1.0], [1, 1, 1])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            KnotVector([0.0, 1.0], [1, 1, 1])

    def test_rejects_nonpositive_multiplicity(self):
        with pytest.raises(ValueError, match="positive"):
            KnotVector([0.0, 1.0], [1, 0])

    def test_json_round_trip_is_lossless(self):
        kv = KnotVector([0.0, 5 / 24, 1 / 3, 1.0], [8, 7, 5, 8])
        doc = kv.to_dict(degree=7)
        assert doc["degree"] == 7
        back = KnotVector.from_dict(doc)
        assert back.breaks == kv.breaks
        assert back.mults == kv.mults


class TestDimension:
    def test_septic_two_element_target(self):
        space = SplineSpace(7, KnotVector([0.0, 0.5, 1.0], [8, 6, 8]))
        assert space.dimension == 14

    def test_septic_two_element_source(self):
        space = SplineSpace(7, KnotVector([0.0, 0.5, 1.0], [8, 8, 8]))
        assert space.dimension == 16

    def test_uniform_quintic_against_multiset_count(self):
        space = uniform_space(5, 1, 10)
        # independent count: expanded knot multiset minus degree+1
        expanded = []
        for x, m in zip(space.knots.breaks, space.knots.mults):
            expanded.extend([x] * m)
        assert space.dimension == len(expanded) - 6 == 42

    def test_uniform_formula(self):
        for d in (5, 7, 9):
            for c in range(0, d):
                for N in (1, 2, 3, 7):
                    space = uniform_space(d, c, N)
                    assert space.dimension == N * d - N * c + c + 1

    def test_multiplicity_cap(self):
        with pytest.raises(ValueError, match="multiplicity exceeds"):
            SplineSpace(3, KnotVector([0.0, 1.0], [5, 4]))


class TestSourceSpace:
    def test_septic_two_elements(self):
        target = uniform_space(7, 1, 2, (0.0, 1.0))
        src = source_space(target)
        assert src.num_elements == 2
        assert src.dimension - target.dimension == 2
        assert all(m == 8 for m in src.knots.mults)

    def test_nonic_six_elements_no_surplus(self):
        target = uniform_space(9, 1, 6)
        src = source_space(target)
        assert src.num_elements == math.ceil((6 * 9 - 6 + 2) / 10) == 5
        assert src.dimension - target.dimension == 0

    def test_quintic_c0_eleven_elements(self):
        target = uniform_space(5, 0, 11)
        src = source_space(target)
        assert src.num_elements == math.ceil(target.dimension / 6) == 10
        assert src.dimension - target.dimension == 4

    def test_surplus_is_even_and_small(self):
        for d in (5, 7, 9):
            for c in range(0, d):
                for N in (3, 5, 9):
                    target = uniform_space(d, c, N)
                    if target.dimension % 2:
                        continue
                    r = source_space(target).dimension - target.dimension
                    assert r % 2 == 0
                    assert 0 <= r <= d - 1

    def test_even_continuity_even_elements_rejected(self):
        with pytest.raises(ParityError, match="odd number of elements"):
            source_space(uniform_space(5, 2, 2))

    def test_even_degree_rejected(self):
        space = SplineSpace(4, KnotVector([0.0, 1.0], [5, 5]))
        with pytest.raises(ValueError, match="odd"):
            source_space(space)

    def test_dimension_parity(self):
        # odd continuity: always even; even continuity: even iff N odd
        for d in (5, 7, 9):
            for c in range(0, d):
                for N in range(1, 9):
                    dim = uniform_space(d, c, N).dimension
                    if c % 2 == 1:
                        assert dim % 2 == 0
                    else:
                        assert (dim % 2 == 0) == (N % 2 == 1)


class TestKnotPath:
    @pytest.fixture
    def septic_path(self):
        target = uniform_space(7, 1, 2, (0.0, 1.0))
        return target, knot_path(source_space(target), target)

    def test_cardinalities(self, septic_path):
        target, path = septic_path
        assert len(path.source_knots) == 24
        assert target.knots.cardinality == 22
        assert len(path.target_knots) == 24
        assert path.extra == 2
        assert path.external_position == pytest.approx(1.5)
        assert np.sum(path.target_knots == 1.5) == 2

    def test_endpoints(self, septic_path):
        _, path = septic_path
        src = source_space(uniform_space(7, 1, 2, (0.0, 1.0)))
        assert np.array_equal(path.knots_at(0.0), np.sort(src.expanded))
        assert np.array_equal(path.knots_at(1.0), path.target_knots)

    def test_linear_interpolation(self, septic_path):
        _, path = septic_path
        mid = path.knots_at(0.5)
        assert np.allclose(mid, 0.5 * (path.source_knots + path.target_knots))
        # a knot moving from 0.5 to 1.0 passes through 0.75 at halftime
        assert 0.75 in mid

    def test_monotone_for_all_times(self, septic_path):
        _, path = septic_path
        for t in np.linspace(0.0, 1.0, 41):
            assert np.all(np.diff(path.knots_at(t)) >= 0)

    def test_monotone_nonuniform(self):
        breaks = [0, 5 / 24, 1 / 3, 1 / 2, 2 / 3, 19 / 24, 1]
        mults = [8, 7, 5, 6, 5, 7, 8]
        target = SplineSpace(7, KnotVector(breaks, mults))
        path = knot_path(source_space(target), target)
        for t in np.linspace(0.0, 1.0, 41):
            assert np.all(np.diff(path.knots_at(t)) >= 0)

    def test_out_of_range_time(self, septic_path):
        _, path = septic_path
        with pytest.raises(ValueError):
            path.knots_at(1.5)


class TestSpaceAt:
    @pytest.fixture
    def septic_path(self):
        target = uniform_space(7, 1, 2, (0.0, 1.0))
        return knot_path(source_space(target), target)

    def test_start_is_source(self, septic_path):
        sp = space_at(septic_path, 0.0)
        assert sp.knots.breaks == (0.0, 0.5, 1.0)
        assert sp.knots.mults == (8, 8, 8)

    def test_halfway_structure(self, septic_path):
        sp = space_at(septic_path, 0.5)
        assert sp.knots.breaks == (0.0, 0.5, 0.75, 1.0, 1.25)
        assert sp.knots.mults == (8, 6, 2, 6, 2)

    def test_end_is_target_plus_external(self, septic_path):
        sp = space_at(septic_path, 1.0)
        assert sp.knots.breaks == (0.0, 0.5, 1.0, 1.5)
        assert sp.knots.mults == (8, 6, 8, 2)

    def test_basis_count_constant_along_path(self, septic_path):
        for t in np.linspace(0.0, 1.0, 17):
            assert space_at(septic_path, t).dimension == 16

    def test_collapse_beyond_full_multiplicity_rejected(self):
        from splinegauss import KnotPath

        knots = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 1.0])
        path = KnotPath(
            degree=2,
            source_knots=knots.copy(),
            target_knots=knots.copy(),
            extra=0,
            external_position=1.0,
        )
        with pytest.raises(ValueError, match="multiplicity"):
            space_at(path, 0.5)
