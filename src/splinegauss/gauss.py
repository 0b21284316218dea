"""Classical Gauss-Legendre rules of arbitrary order.

Nodes are Legendre roots found by Newton iteration from Chebyshev-type
starting guesses; analytic weights follow from the derivative values.
Mapped per element onto a discontinuous spline space these form the
optimal source rule the continuation starts from
(:func:`splinegauss.continuation.source_rule`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = ["ElementRule", "composite_rule", "legendre_rule"]

_NEWTON_CAP = 100


@dataclass(frozen=True)
class ElementRule:
    """Reference Gauss-Legendre rule on [-1, 1]."""

    order: int
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.nodes.flags.writeable = False
        self.weights.flags.writeable = False


def _legendre_and_derivative(q: int, x: float) -> tuple[float, float]:
    """Value and derivative of the degree-q Legendre polynomial at x."""
    p_prev, p = 1.0, x
    for k in range(2, q + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    dp = q * (x * p - p_prev) / (x * x - 1.0)
    return p, dp


@lru_cache(maxsize=None)
def legendre_rule(q: int) -> ElementRule:
    """Gauss-Legendre nodes and weights of order ``q`` on [-1, 1].

    Exact for polynomials through degree ``2q - 1``.  Nodes ascend and are
    symmetric about zero; weights sum to two.
    """
    if q < 1:
        raise ValueError(f"order must be at least 1; got {q}")
    if q == 1:
        return ElementRule(1, np.array([0.0]), np.array([2.0]))
    half = np.empty(q // 2)
    whalf = np.empty(q // 2)
    for k in range(q // 2):
        x = np.cos(np.pi * (k + 0.75) / (q + 0.5))
        for it in range(_NEWTON_CAP + 1):
            p, dp = _legendre_and_derivative(q, x)
            dx = p / dp
            x -= dx
            if abs(dx) < 1e-15:
                break
        else:
            raise RuntimeError(f"Legendre root iteration failed for q={q}")
        p, dp = _legendre_and_derivative(q, x)
        half[k] = x
        whalf[k] = 2.0 / ((1.0 - x * x) * dp * dp)
    if q % 2:
        _, dp0 = _legendre_and_derivative(q, 0.0)
        mid_node = np.array([0.0])
        mid_weight = np.array([2.0 / (dp0 * dp0)])
    else:
        mid_node = np.empty(0)
        mid_weight = np.empty(0)
    nodes = np.concatenate([-half, mid_node, half[::-1]])
    weights = np.concatenate([whalf, mid_weight, whalf[::-1]])
    return ElementRule(q, nodes, weights)


def composite_rule(q: int, breaks) -> tuple[np.ndarray, np.ndarray]:
    """The ``q``-point Gauss rule mapped onto each span of ``breaks``.

    Returns nodes and weights span by span, so the nodes ascend when the
    breaks do.
    """
    breaks = np.asarray(breaks, dtype=float)
    elem = legendre_rule(q)
    xl, xr = breaks[:-1, None], breaks[1:, None]
    mid, half = 0.5 * (xl + xr), 0.5 * (xr - xl)
    return (mid + half * elem.nodes).ravel(), (half * elem.weights).ravel()
