"""1-D Galerkin assembly with optimal spline quadrature.

A trial space of degree ``p`` and continuity ``k``, differentiated ``l``
times in the weak form, produces integrands contained in the odd-degree
space ``(2p + 1, k - l)``.  Assembling mass and stiffness matrices with
the optimal rule for that space reproduces classical per-element Gauss
assembly while evaluating at fewer points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import basis
from .gauss import composite_rule
from .knots import KnotVector, SplineSpace
from .rules import QuadratureRule

__all__ = [
    "DiscretizationSpec",
    "SavingsReport",
    "rule_space",
    "trial_space",
    "quadrature_space",
    "assemble",
    "classical_rule",
    "savings_report",
]


@dataclass(frozen=True)
class DiscretizationSpec:
    """Trial degree ``p``, trial continuity ``k``, weak-form order ``l``."""

    p: int
    k: int
    l: int

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("trial degree must be positive")
        if not 0 <= self.k <= self.p - 1:
            raise ValueError(
                f"trial continuity must lie in [0, p-1]; got {self.k}"
            )
        if not 0 <= self.l <= self.p:
            raise ValueError(f"derivative order must lie in [0, p]; got {self.l}")
        if self.k - self.l < -1:
            raise ValueError(
                f"k - l = {self.k - self.l} < -1: differentiating that often "
                "leaves no piecewise-polynomial integrand to match"
            )


def rule_space(spec: DiscretizationSpec) -> tuple[int, int]:
    """Degree and continuity of the space the quadrature must integrate."""
    return 2 * spec.p + 1, spec.k - spec.l


def trial_space(spec: DiscretizationSpec, breaks) -> SplineSpace:
    """Open trial space of degree ``p`` and continuity ``k`` on the breaks."""
    breaks = [float(x) for x in breaks]
    mults = [spec.p + 1] + [spec.p - spec.k] * (len(breaks) - 2) + [spec.p + 1]
    return SplineSpace(spec.p, KnotVector(breaks, mults))


def quadrature_space(spec: DiscretizationSpec, breaks) -> SplineSpace:
    """Odd-degree space on the same breaks containing all weak-form terms."""
    d, c = rule_space(spec)
    breaks = [float(x) for x in breaks]
    mults = [d + 1] + [d - c] * (len(breaks) - 2) + [d + 1]
    return SplineSpace(d, KnotVector(breaks, mults))


def assemble(
    spec: DiscretizationSpec, mesh: KnotVector, rule: QuadratureRule
) -> tuple[np.ndarray, np.ndarray]:
    """Mass and stiffness matrices of the trial space under ``rule``.

    ``M[i, j]`` sums ``w N_i N_j`` and ``K[i, j]`` sums ``w N_i' N_j'``
    over the rule's nodes.  Exactness of ``K`` presumes ``l >= 1`` in the
    spec used to derive the rule.  The mesh is the trial space's knot
    vector; its interior multiplicities must realize continuity ``k``.
    """
    space = SplineSpace(spec.p, mesh)
    if any(m != spec.p - spec.k for m in mesh.mults[1:-1]):
        raise ValueError(
            "mesh interior multiplicities do not match the trial continuity"
        )
    if not space.is_open:
        raise ValueError("trial mesh must be open")
    if (rule.interval[0], rule.interval[1]) != space.interval:
        raise ValueError(
            f"rule interval {rule.interval} does not cover the mesh "
            f"interval {space.interval}"
        )
    n = space.dimension
    first, values, derivatives = basis.evaluate_many(space, rule.nodes)
    rows = first[:, None] + np.arange(spec.p + 1)
    # flat (i, j) entries of each node's local block, in node order
    entries = (rows[:, :, None] * n + rows[:, None, :]).ravel()
    w = rule.weights[:, None, None]

    def gram(f: np.ndarray) -> np.ndarray:
        out = np.zeros(n * n)
        np.add.at(out, entries, (w * (f[:, :, None] * f[:, None, :])).ravel())
        return out.reshape(n, n)

    return gram(values), gram(derivatives)


def classical_rule(degree: int, breaks) -> QuadratureRule:
    """Per-element Gauss rule with ``degree + 1`` points per element."""
    breaks = [float(x) for x in breaks]
    nodes, weights = composite_rule(degree + 1, breaks)
    return QuadratureRule(
        interval=(breaks[0], breaks[-1]),
        nodes=nodes,
        weights=weights,
        meta={"provenance": "gauss", "points_per_element": degree + 1},
    )


@dataclass(frozen=True)
class SavingsReport:
    """Evaluation counts of optimal vs classical assembly plus agreement."""

    spec: DiscretizationSpec
    num_elements: int
    optimal_nodes: int
    classical_nodes: int
    optimal_nodes_interior_element: int
    classical_nodes_per_element: int
    mass_max_rel_diff: float
    stiffness_max_rel_diff: float

    @property
    def evaluation_ratio(self) -> float:
        return self.optimal_nodes / self.classical_nodes

    def to_dict(self) -> dict:
        return {
            "p": self.spec.p,
            "k": self.spec.k,
            "l": self.spec.l,
            "num_elements": self.num_elements,
            "optimal_nodes": self.optimal_nodes,
            "classical_nodes": self.classical_nodes,
            "optimal_nodes_interior_element": self.optimal_nodes_interior_element,
            "classical_nodes_per_element": self.classical_nodes_per_element,
            "evaluation_ratio": self.evaluation_ratio,
            "mass_max_rel_diff": self.mass_max_rel_diff,
            "stiffness_max_rel_diff": self.stiffness_max_rel_diff,
        }


def savings_report(
    spec: DiscretizationSpec,
    mesh: KnotVector,
    rule: QuadratureRule,
) -> SavingsReport:
    """Compare optimal-rule assembly against per-element Gauss.

    Assembles mass and stiffness both ways and reports node counts plus
    the maximum relative matrix discrepancies (both quadratures are exact
    for the integrands, so the matrices agree to rounding).
    """
    m_opt, k_opt = assemble(spec, mesh, rule)
    gauss = classical_rule(spec.p, mesh.breaks)
    m_cl, k_cl = assemble(spec, mesh, gauss)

    def rel_diff(x, y):
        scale = np.abs(y).max()
        return float(np.abs(x - y).max() / scale) if scale else 0.0

    n_elem = len(mesh.breaks) - 1
    mid = n_elem // 2  # interior element, unaffected by the boundary
    per_elem = int(
        np.sum((rule.nodes >= mesh.breaks[mid]) & (rule.nodes < mesh.breaks[mid + 1]))
    )
    return SavingsReport(
        spec=spec,
        num_elements=n_elem,
        optimal_nodes=rule.num_nodes,
        classical_nodes=gauss.num_nodes,
        optimal_nodes_interior_element=per_elem,
        classical_nodes_per_element=spec.p + 1,
        mass_max_rel_diff=rel_diff(m_opt, m_cl),
        stiffness_max_rel_diff=rel_diff(k_opt, k_cl),
    )
