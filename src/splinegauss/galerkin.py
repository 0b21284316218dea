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
from .knots import KnotVector, SplineSpace, open_space
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
    return open_space(spec.p, spec.k, breaks)


def quadrature_space(spec: DiscretizationSpec, breaks) -> SplineSpace:
    """Odd-degree space on the same breaks containing all weak-form terms."""
    return open_space(*rule_space(spec), breaks)


def _band_grams(
    spec: DiscretizationSpec, mesh: KnotVector, rule: QuadratureRule
) -> tuple[np.ndarray, np.ndarray]:
    """Mass and stiffness of the trial space under ``rule`` in band storage.

    Each band has shape ``(n, 2p + 1)`` and holds entry ``(i, j)`` at
    ``[i, j - i + p]``; slots outside the matrix stay zero.  Every node's
    ``(p + 1)²`` block is added in node order, so each entry sees the same
    additions in the same order as a dense scatter would.
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
    n, p = space.dimension, spec.p
    width = 2 * p + 1
    first, values, derivatives = basis.evaluate_many(space, rule.nodes)
    local = np.arange(p + 1)
    # flat band slots of each node's local block, in node order
    entries = (
        (first[:, None, None] + local[:, None]) * width
        + (p + local - local[:, None])
    ).ravel()
    w = rule.weights[:, None, None]

    def band(f: np.ndarray) -> np.ndarray:
        out = np.zeros(n * width)
        np.add.at(out, entries, (w * (f[:, :, None] * f[:, None, :])).ravel())
        return out.reshape(n, width)

    return band(values), band(derivatives)


def _dense(band: np.ndarray) -> np.ndarray:
    """The ``n × n`` matrix held in band storage of shape ``(n, 2p + 1)``."""
    n, width = band.shape
    rows = np.arange(n)[:, None]
    cols = rows + np.arange(width) - width // 2
    inside = (cols >= 0) & (cols < n)
    out = np.zeros((n, n))
    out[np.broadcast_to(rows, cols.shape)[inside], cols[inside]] = band[inside]
    return out


def assemble(
    spec: DiscretizationSpec, mesh: KnotVector, rule: QuadratureRule
) -> tuple[np.ndarray, np.ndarray]:
    """Mass and stiffness matrices of the trial space under ``rule``.

    ``M[i, j]`` sums ``w N_i N_j`` and ``K[i, j]`` sums ``w N_i' N_j'``
    over the rule's nodes.  Exactness of ``K`` presumes ``l >= 1`` in the
    spec used to derive the rule.  The mesh is the trial space's knot
    vector; its interior multiplicities must realize continuity ``k``.
    The sums run in band storage, O(n p) in time and memory; only the
    dense result is O(n²).
    """
    mass, stiffness = _band_grams(spec, mesh, rule)
    return _dense(mass), _dense(stiffness)


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
    return _savings(spec, mesh, rule, _band_grams(spec, mesh, rule))


def _savings(
    spec: DiscretizationSpec,
    mesh: KnotVector,
    rule: QuadratureRule,
    optimal: tuple[np.ndarray, np.ndarray],
) -> SavingsReport:
    """:func:`savings_report` from the bands ``rule`` already assembled."""
    m_opt, k_opt = optimal
    gauss = classical_rule(spec.p, mesh.breaks)
    m_cl, k_cl = _band_grams(spec, mesh, gauss)

    # off-band entries are zero in both matrices, so the bands suffice
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
