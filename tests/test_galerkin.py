"""Galerkin assembly: space derivation, matrix identities, savings."""

import tracemalloc

import numpy as np
import pytest

from splinegauss import (
    DiscretizationSpec,
    KnotVector,
    SavingsReport,
    SplineSpace,
    assemble,
    classical_rule,
    quadrature_space,
    rule_space,
    savings_report,
    trace,
    trial_space,
)
from splinegauss.basis import evaluate_many, integrals

from tracing import get_trace


def uniform_mesh(spec, n, interval=None):
    a, b = interval or (0.0, float(n))
    breaks = np.linspace(a, b, n + 1)
    mults = [spec.p + 1] + [spec.p - spec.k] * (n - 1) + [spec.p + 1]
    return KnotVector(breaks, mults)


def dense_reference(spec, mesh, rule):
    """Mass and stiffness by one dense ``np.add.at`` per ``n × n`` matrix."""
    space = SplineSpace(spec.p, mesh)
    n = space.dimension
    first, values, derivatives = evaluate_many(space, rule.nodes)
    rows = first[:, None] + np.arange(spec.p + 1)
    entries = (rows[:, :, None] * n + rows[:, None, :]).ravel()
    w = rule.weights[:, None, None]

    def gram(f):
        out = np.zeros(n * n)
        np.add.at(out, entries, (w * (f[:, :, None] * f[:, None, :])).ravel())
        return out.reshape(n, n)

    return gram(values), gram(derivatives)


def rel_diff(x, y):
    scale = np.abs(y).max()
    return float(np.abs(x - y).max() / scale) if scale else 0.0


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


class TestBandedKernel:
    """The banded assembly reproduces a dense scatter bit for bit."""

    BREAKS = [0.0, 0.7, 1.0, 2.3, 2.9, 4.0, 4.4, 5.5]

    def rules(self, spec):
        traced = trace(quadrature_space(spec, self.BREAKS))
        assert traced.converged
        return {
            "classical": classical_rule(spec.p, self.BREAKS),
            "traced": traced.rule,
        }

    @pytest.mark.parametrize("l", [0, 1])
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_assemble_is_bitwise_the_dense_scatter(self, p, l):
        spec = DiscretizationSpec(p, p - 1, l)
        mesh = trial_space(spec, self.BREAKS).knots
        for name, rule in self.rules(spec).items():
            for got, ref in zip(
                assemble(spec, mesh, rule), dense_reference(spec, mesh, rule)
            ):
                assert got.shape == ref.shape, name
                assert got.tobytes() == ref.tobytes(), name

    @pytest.mark.parametrize("l", [0, 1])
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_savings_report_equals_the_dense_one(self, p, l):
        spec = DiscretizationSpec(p, p - 1, l)
        mesh = trial_space(spec, self.BREAKS).knots
        rule = self.rules(spec)["traced"]
        gauss = classical_rule(p, self.BREAKS)
        m_opt, k_opt = dense_reference(spec, mesh, rule)
        m_cl, k_cl = dense_reference(spec, mesh, gauss)
        mid = (len(self.BREAKS) - 1) // 2
        expect = SavingsReport(
            spec=spec,
            num_elements=len(self.BREAKS) - 1,
            optimal_nodes=rule.num_nodes,
            classical_nodes=gauss.num_nodes,
            optimal_nodes_interior_element=int(
                np.sum(
                    (rule.nodes >= self.BREAKS[mid])
                    & (rule.nodes < self.BREAKS[mid + 1])
                )
            ),
            classical_nodes_per_element=p + 1,
            mass_max_rel_diff=rel_diff(m_opt, m_cl),
            stiffness_max_rel_diff=rel_diff(k_opt, k_cl),
        )
        report = savings_report(spec, mesh, rule=rule)
        assert report == expect
        assert report.to_dict() == expect.to_dict()

    def test_savings_report_memory_grows_with_the_band(self):
        # dense n × n matrices here would peak near 184 MB
        spec = DiscretizationSpec(2, 1, 1)
        mesh = uniform_mesh(spec, 2001)
        rule = classical_rule(spec.p, mesh.breaks)
        tracemalloc.start()
        try:
            savings_report(spec, mesh, rule=rule)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16e6
