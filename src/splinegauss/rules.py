"""Quadrature rule container shared by the rule-producing modules."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

__all__ = ["QuadratureRule"]

# the rounding floor of the defects is 0.2-0.5 eps * max(|a|, |b|) (uniform
# meshes, N = 11..2561), so this bound is reached and still means exact
_EXACT = 4 * np.finfo(float).eps


def _converged(defects: np.ndarray, interval: tuple[float, float]) -> bool:
    """The convergence test of every solver: exactness defects at rounding
    level, relative to the end points so that it moves with the interval."""
    a, b = interval
    return float(np.abs(defects).max()) <= _EXACT * max(abs(a), abs(b))


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights for exact integration over an interval.

    ``meta`` carries provenance (traced / asymptotic / hybrid / gauss),
    the generating space description, and trace statistics when available.
    """

    interval: tuple[float, float]
    nodes: np.ndarray
    weights: np.ndarray
    residual_norm: float | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.shape != weights.shape or nodes.ndim != 1:
            raise ValueError("nodes and weights must be 1-D arrays of equal length")
        nodes.flags.writeable = False
        weights.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(
            self, "interval", (float(self.interval[0]), float(self.interval[1]))
        )

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def apply(self, f: Callable[[np.ndarray], np.ndarray]) -> float:
        """Approximate the integral of ``f``, which must map the array of
        all nodes to the array of its values there (one call)."""
        return float(self.weights @ f(self.nodes))

    def mapped_to(self, interval: tuple[float, float]) -> "QuadratureRule":
        """Affinely transplanted rule: nodes mapped, weights scaled."""
        a, b = self.interval
        c, e = map(float, interval)
        scale = (e - c) / (b - a)
        return replace(
            self,
            interval=(c, e),
            nodes=c + (self.nodes - a) * scale,
            weights=self.weights * scale,
        )

    def element_of(self, breaks) -> np.ndarray:
        """1-based element index of each node for the given breakpoints."""
        breaks = np.asarray(breaks, dtype=float)
        idx = np.searchsorted(breaks, self.nodes, side="right")
        return np.clip(idx, 1, len(breaks) - 1)
