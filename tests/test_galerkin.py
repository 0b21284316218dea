"""Galerkin assembly: space derivation, matrix identities, savings."""

import numpy as np
import pytest

from splinegauss import (
    DiscretizationSpec,
    KnotVector,
    assemble,
    classical_rule,
    rule_space,
    savings_report,
    trial_space,
)
from splinegauss.basis import integrals

from tracing import get_trace


def uniform_mesh(spec, n, interval=None):
    a, b = interval or (0.0, float(n))
    breaks = np.linspace(a, b, n + 1)
    mults = [spec.p + 1] + [spec.p - spec.k] * (n - 1) + [spec.p + 1]
    return KnotVector(breaks, mults)


class TestRuleSpace:
    def test_cubic_c2_once_differentiated(self):
        assert rule_space(DiscretizationSpec(3, 2, 1)) == (7, 1)

    def test_quadratic_c1_once_differentiated(self):
        assert rule_space(DiscretizationSpec(2, 1, 1)) == (5, 0)

    def test_no_differentiation_keeps_continuity(self):
        for p in (1, 2, 3, 4):
            for k in range(p):
                assert rule_space(DiscretizationSpec(p, k, 0)) == (2 * p + 1, k)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            DiscretizationSpec(2, 2, 0)  # continuity must stay below degree
        with pytest.raises(ValueError):
            DiscretizationSpec(3, 0, 2)  # k - l below -1
        with pytest.raises(ValueError):
            DiscretizationSpec(0, 0, 0)


class TestAssemble:
    def test_hat_function_mass_matrix(self):
        spec = DiscretizationSpec(1, 0, 0)
        n, h = 4, 0.25
        mesh = uniform_mesh(spec, n, (0.0, 1.0))
        mass, _ = assemble(spec, mesh, classical_rule(1, mesh.breaks))
        expect = np.zeros((5, 5))
        for i in range(5):
            expect[i, i] = 2 * h / 3 if 0 < i < 4 else h / 3
        for i in range(4):
            expect[i, i + 1] = expect[i + 1, i] = h / 6
        assert np.abs(mass - expect).max() <= 1e-15

    def test_mass_row_sums_are_basis_integrals(self):
        spec = DiscretizationSpec(3, 2, 1)
        mesh = uniform_mesh(spec, 8)
        space = trial_space(spec, mesh.breaks)
        mass, _ = assemble(spec, mesh, classical_rule(3, mesh.breaks))
        assert np.abs(mass.sum(axis=1) - integrals(space)).max() <= 1e-14

    def test_stiffness_annihilates_constants(self):
        spec = DiscretizationSpec(3, 2, 1)
        mesh = uniform_mesh(spec, 8)
        _, stiff = assemble(spec, mesh, classical_rule(3, mesh.breaks))
        assert np.abs(stiff @ np.ones(stiff.shape[0])).max() <= 1e-13

    def test_matrices_symmetric_and_mass_positive(self):
        spec = DiscretizationSpec(2, 1, 1)
        mesh = uniform_mesh(spec, 7)
        mass, stiff = assemble(spec, mesh, classical_rule(2, mesh.breaks))
        assert np.abs(mass - mass.T).max() == 0.0
        assert np.abs(stiff - stiff.T).max() == 0.0
        assert np.linalg.eigvalsh(mass).min() > 0.0

    def test_interval_mismatch_rejected(self):
        spec = DiscretizationSpec(2, 1, 1)
        mesh = uniform_mesh(spec, 7)
        with pytest.raises(ValueError, match="interval"):
            assemble(spec, mesh, classical_rule(2, np.linspace(0, 1, 8)))

    def test_wrong_interior_multiplicity_rejected(self):
        spec = DiscretizationSpec(3, 2, 1)
        kv = KnotVector([0.0, 1.0, 2.0], [4, 2, 4])
        with pytest.raises(ValueError, match="continuity"):
            assemble(spec, kv, classical_rule(3, [0.0, 1.0, 2.0]))


class TestOptimalVsClassical:
    @pytest.mark.parametrize("pkl", [(2, 1, 1), (3, 2, 1)])
    def test_matrices_agree_on_eleven_elements(self, pkl):
        spec = DiscretizationSpec(*pkl)
        mesh = uniform_mesh(spec, 11)
        rule = get_trace((2 * spec.p + 1, spec.k - spec.l, 11)).rule
        report = savings_report(spec, mesh, rule=rule)
        assert report.mass_max_rel_diff <= 1e-12
        assert report.stiffness_max_rel_diff <= 1e-12
        assert report.optimal_nodes < report.classical_nodes

    def test_single_element_counts_coincide(self):
        spec = DiscretizationSpec(3, 2, 1)
        mesh = uniform_mesh(spec, 1)
        report = savings_report(spec, mesh, rule=get_trace((7, 1, 1)).rule)
        assert report.optimal_nodes == report.classical_nodes == 4

    def test_savings_for_cubic_c2(self):
        spec = DiscretizationSpec(3, 2, 1)
        mesh = uniform_mesh(spec, 30)
        rule = get_trace("d7_c1_N30").rule
        report = savings_report(spec, mesh, rule=rule)
        assert report.optimal_nodes_interior_element == 3
        assert report.classical_nodes_per_element == 4
        assert report.optimal_nodes == 91
        assert report.classical_nodes == 120
        assert report.mass_max_rel_diff <= 1e-12
        assert report.stiffness_max_rel_diff <= 1e-12
        assert report.to_dict()["evaluation_ratio"] < 0.8
