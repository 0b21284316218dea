"""Infinite-domain quadrature patterns and hybrid boundary+interior rules.

On a uniform grid the optimal rule far from the boundary repeats with a
period of one element (odd continuity) or two elements (even continuity).
Closed-form constants are tabulated where known; otherwise the periodic
exactness system is solved directly.

``_tile`` alone places the tiled pattern, for the pattern's nodes, the
periodic residual and its Jacobian, and a hybrid rule's interior.  The
solver's symmetric ansatz is arrays over the period's nodes: node ``i``
sits at ``base[i] + sign[i] * delta[pair[i]]`` with weight ``w[widx[i]]``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
import math

import numpy as np

from . import basis
from .continuation import residual_norm, trace
from .gauss import legendre_rule
from .knots import KnotVector, ParityError, SplineSpace, uniform_space
from .rules import NewtonFailure, QuadratureRule, _damped_newton

__all__ = [
    "AsymptoticPattern",
    "asymptotic_rule",
    "solve_asymptotic_system",
    "hybrid_rule",
    "pattern_residual",
]

# Caps of the periodic solve, above the tracker's 25 / 10: (15, 0) takes 59
# iterations, and (15, 0), (21, 1) and (21, 4) go unsolved at 25 / 10.
_PATTERN_MAX_ITERS = 80
_PATTERN_HALVINGS = 25


@dataclass(frozen=True)
class AsymptoticPattern:
    """Per-period node offsets and weights of the infinite uniform rule.

    Offsets live in ``[0, period)`` in element units and ascend; the tiled
    node set repeats every ``period`` elements.  Knot nodes appear as an
    offset of exactly ``0.0`` and are shared between adjacent periods.
    """

    degree: int
    continuity: int
    period: int
    offsets: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        offsets = np.asarray(self.offsets, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        d, c = self.degree, self.continuity
        expected = self.period * (d - c) // 2
        if len(offsets) != expected:
            raise ValueError(
                f"pattern for degree {d}, continuity {c} needs {expected} "
                f"nodes per period, got {len(offsets)}"
            )
        if np.any(np.diff(offsets) <= 0):
            raise ValueError("offsets must be strictly ascending")
        if offsets[0] < 0 or offsets[-1] >= self.period:
            raise ValueError("offsets must lie in [0, period)")
        # the tiled node multiset must be invariant under reflection
        reflected = np.sort((1.0 - offsets) % self.period)
        order = np.argsort((1.0 - offsets) % self.period)
        if not (
            np.allclose(reflected, offsets, atol=1e-9)
            and np.allclose(weights[order], weights, atol=1e-9)
        ):
            raise ValueError("pattern is not symmetric within its period")
        offsets.flags.writeable = False
        weights.flags.writeable = False
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "weights", weights)

    @property
    def nodes_per_element(self) -> float:
        return (self.degree - self.continuity) / 2

    def element_layout(self, e: int) -> list[tuple[float, float]]:
        """(offset-within-element, weight) pairs of period element ``e``."""
        out = []
        for off, w in zip(self.offsets, self.weights):
            if e <= off < e + 1:
                out.append((float(off) - e, float(w)))
        return out

    def positions_in(self, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
        """Tiled nodes and weights with positions in ``[lo, hi)``."""
        xs, index = _tile(self.offsets, self.period, lo, hi)
        return xs, self.weights[index]


@lru_cache(maxsize=None)
def _closed_forms() -> dict[tuple[int, int], AsymptoticPattern]:
    sqrt7 = math.sqrt(7.0)
    sqrt21 = math.sqrt(21.0)
    d71 = (7.0 - sqrt7) / 14.0
    a70 = 0.5 - sqrt21 / 14.0
    # quartic-root node offsets of the four-node elements (degree 7, C^0)
    q70 = [
        0.04279465186386840500,
        0.32101760363894084659,
        0.67898239636105915341,
        0.95720534813613159500,
    ]
    wq1 = 0.20648114717852759795
    wq2 = 0.34351885282147240205
    d91 = 0.21132486540518711775
    d50a = 0.07182558071116236600
    d50b = 0.27639320225002103036
    e52 = 1.0 - 0.83605670665166755138
    w52_pair = 0.66723184144087066164
    w52_mid = 0.66553631711825867672

    def pat(d, c, period, items):
        items = sorted(items)
        return AsymptoticPattern(
            d,
            c,
            period,
            np.array([x for x, _ in items]),
            np.array([w for _, w in items]),
        )

    return {
        (5, 1): pat(5, 1, 1, [(0.0, 7 / 15), (0.5, 8 / 15)]),
        (7, 1): pat(
            7, 1, 1, [(0.0, 37 / 135), (d71, 49 / 135), (1 - d71, 49 / 135)]
        ),
        (9, 1): pat(
            9,
            1,
            1,
            [
                (0.0, 19 / 105),
                (d91, 27 / 105),
                (0.5, 32 / 105),
                (1 - d91, 27 / 105),
            ],
        ),
        (5, 3): pat(5, 3, 1, [(0.5, 1.0)]),
        (5, 0): pat(
            5,
            0,
            2,
            [
                (d50b, 55 / 132),
                (1 - d50b, 55 / 132),
                (1 + d50a, 45 / 132),
                (1.5, 64 / 132),
                (2 - d50a, 45 / 132),
            ],
        ),
        (7, 0): pat(
            7,
            0,
            2,
            [
                (a70, 49 / 180),
                (0.5, 64 / 180),
                (1 - a70, 49 / 180),
                (1 + q70[0], wq1),
                (1 + q70[1], wq2),
                (1 + q70[2], wq2),
                (1 + q70[3], wq1),
            ],
        ),
        (5, 2): pat(
            5,
            2,
            2,
            [(e52, w52_pair), (1 - e52, w52_pair), (1.5, w52_mid)],
        ),
    }


def _validate_pair(d: int, c: int) -> None:
    if d < 1 or d % 2 == 0:
        raise ValueError(f"degree must be odd and positive; got {d}")
    if not 0 <= c <= d - 1:
        raise ValueError(f"continuity must lie in [0, degree-1]; got {c}")


# ---------------------------------------------------------------------------
# periodic exactness system


def _tile(positions, period, lo, hi, origin=0):
    """Points ``positions[i] + origin + period * k`` that lie in ``[lo, hi)``.

    Returns the points and each point's index into ``positions``, ordered
    by tile ``k``, then by index.  A point is one addition of the exact
    integer ``origin + period * k`` to a position, so it rounds once.
    Positions may stray up to two periods outside ``[0, period)``, as the
    solver's iterates do.
    """
    k = np.arange(
        math.floor((lo - origin) / period) - 2,
        math.ceil((hi - origin) / period) + 3,
    )
    xs = np.asarray(positions) + (origin + period * k)[:, None]
    inside = (lo <= xs) & (xs < hi)
    return xs[inside], np.nonzero(inside)[1]


def _shape_space(d: int, c: int, period: int) -> tuple[SplineSpace, np.ndarray]:
    """Padded uniform grid and the indices of one period's basis shapes."""
    mult = d - c
    # evaluation stops d knots inside each end, and at multiplicity one a
    # shape of the period reaches d elements past it
    pad = 2 * (d + 1)
    breaks = np.arange(-pad, period + pad + 1, dtype=float)
    space = SplineSpace(d, KnotVector(breaks, [mult] * len(breaks)))
    first = int(np.searchsorted(space.expanded, 0.0, side="left"))
    return space, np.arange(first, first + mult * period)


def _tiled_defects(space, shapes, period, positions, weights):
    """Exactness defects of the tiled rule on ``shapes``, and its hits.

    ``defects[r]`` is the quadrature of shape ``shapes[r]`` minus its
    integral.  A hit is a tiled node in the closed support of a shape; for
    each hit this returns the shape's row, the node's index into
    ``positions`` and the shape's value and derivative there, ordered by
    shape, then tile, then index.
    """
    d = space.degree
    T = space.expanded
    lo, hi = T[shapes], T[shapes + d + 1]
    xs, index = _tile(positions, period, lo[0], np.nextafter(hi[-1], np.inf))
    rows, hit = np.nonzero((lo[:, None] <= xs) & (xs <= hi[:, None]))
    index = index[hit]
    values, derivs = basis.evaluate_functions(space, shapes[rows], xs[hit])
    defects = -(hi - lo) / (d + 1)
    # a node on the end of a closed support adds a zero
    np.add.at(defects, rows, weights[index] * values)
    return defects, rows, index, values, derivs


def pattern_residual(pattern: AsymptoticPattern) -> float:
    """Largest exactness defect of the tiled rule over one period's shapes.

    Zero (to rounding) exactly when the pattern integrates every basis
    function of the bi-infinite uniform space.
    """
    P = pattern.period
    space, shapes = _shape_space(pattern.degree, pattern.continuity, P)
    defects = _tiled_defects(space, shapes, P, pattern.offsets, pattern.weights)
    return float(np.abs(defects[0]).max())


def _configs(d: int, c: int):
    """Candidate symmetric layouts of one period, preferred first.

    Yields, per layout, ``(base, sign, pair, widx, delta0, w0)``, arrays
    over the period's nodes and the start of the unknowns.  Node ``i`` sits
    at ``base[i] + sign[i] * delta[pair[i]]`` with weight ``w[widx[i]]``.
    The two nodes of a pair share one offset unknown and one weight; a knot
    or midpoint node is fixed, with sign 0 and ``pair`` pointing at a single
    0 padded onto the offsets.  A period of one element starts from
    equispaced offsets and equal weights; each element of a period of two
    starts from its own Gauss-Legendre rule mapped to [0, 1], and an element
    with no nodes (c = d - 1) is skipped.  Preference is calibrated to the
    layouts the finite-domain rules converge to: knot nodes appear where
    ``c % 4 == 1``.
    """
    # per element of the period: (knot nodes, midpoint nodes, pairs)
    if c % 2 == 1:
        s = (d - c) // 2
        combos = [
            (k0, m0)
            for k0 in (0, 1)
            for m0 in (0, 1)
            if s - k0 - m0 >= 0 and (s - k0 - m0) % 2 == 0
        ]
        prefer_knot = c % 4 == 1
        combos.sort(key=lambda km: (-km[0] if prefer_knot else km[0], -km[1]))
        layouts = [[(k0, m0, (s - k0 - m0) // 2)] for k0, m0 in combos]
    else:
        total = d - c  # odd: exactly one element of the period holds a mid
        halves = (math.ceil(total / 2), total // 2)
        layouts = [
            [(0, n % 2, n // 2) for n in order] for order in (halves, halves[::-1])
        ]
    for elements in layouts:
        nodes, delta0, w0 = [], [], []  # nodes: (base, sign, pair, widx)
        for e, (knot, mid, pairs) in enumerate(elements):
            n = knot + mid + 2 * pairs
            if n == 0:
                continue
            # start of pair j at index j, of a fixed node at index ``pairs``
            if len(elements) == 1:
                x_start = [(j + 1.0) / (2.0 * (pairs + 1)) for j in range(pairs)]
                w_start = [1.0 / n] * (pairs + 1)
            else:
                # pairs take the lower Gauss nodes, a mid the centre one
                g = legendre_rule(n)
                x_start = 0.5 * (1.0 + g.nodes[:pairs])
                w_start = 0.5 * g.weights
            for b in [float(e)] * knot + [e + 0.5] * mid:
                nodes.append((b, 0.0, -1, len(w0)))
                w0.append(w_start[pairs])
            for j in range(pairs):
                nodes.append((float(e), 1.0, len(delta0), len(w0)))
                nodes.append((e + 1.0, -1.0, len(delta0), len(w0)))
                delta0.append(x_start[j])
                w0.append(w_start[j])
        base, sign, pair, widx = map(np.array, zip(*nodes))
        pair[pair < 0] = len(delta0)
        yield base, sign, pair, widx, np.array(delta0), np.array(w0)


def solve_asymptotic_system(d: int, c: int) -> AsymptoticPattern:
    """Solve the per-period exactness system with a symmetric ansatz.

    Gauss-Newton on the constraints that the tiled rule integrates each
    distinct periodic basis shape exactly, over the layouts and starts of
    ``_configs``.  Reproduces the tabulated closed forms and covers further
    pairs whose limit layout fits the symmetric ansatz.
    """
    _validate_pair(d, c)
    period = 1 if c % 2 == 1 else 2
    space, shapes = _shape_space(d, c, period)

    def solve_config(base, sign, pair, widx, delta0, w0, init_scale):
        n_deltas = len(delta0)
        theta = np.concatenate([delta0 * init_scale, w0])

        def place(th):  # node positions and weight unknowns
            deltas = np.append(th[:n_deltas], 0.0)
            return base + sign * deltas[pair], th[n_deltas:]

        def residual_jac(th):
            positions, ws = place(th)
            R, rows, node, val, der = _tiled_defects(
                space, shapes, period, positions, ws[widx]
            )
            J = np.zeros((len(shapes), len(th)))
            np.add.at(J, (rows, n_deltas + widx[node]), val)
            # a fixed node (sign 0) adds exact zeros to column n_deltas
            np.add.at(J, (rows, pair[node]), ws[widx[node]] * der * sign[node])
            return R, J

        try:
            theta = _damped_newton(
                theta,
                lambda th: residual_jac(th)[0],
                lambda th, R: np.linalg.lstsq(residual_jac(th)[1], -R, rcond=None)[0],
                (0, period),
                _PATTERN_MAX_ITERS,
                _PATTERN_HALVINGS,
            )[0]
        except NewtonFailure:
            return None
        deltas, ws = theta[:n_deltas], theta[n_deltas:]
        if np.any(ws <= 1e-12):
            return None
        if n_deltas and (
            np.any(deltas <= 1e-9)
            or np.any(deltas >= 0.5 - 1e-9)
            or (
                n_deltas > 1
                and np.min(np.abs(np.diff(np.sort(deltas)))) < 1e-9
            )
        ):
            return None
        positions, ws = place(theta)
        order = np.argsort(positions)
        return AsymptoticPattern(d, c, period, positions[order], ws[widx][order])

    for config in _configs(d, c):
        for init_scale in (1.0, 0.5, 1.5):
            pattern = solve_config(*config, init_scale)
            if pattern is not None:
                return pattern
    raise ValueError(
        f"no symmetric periodic layout converged for degree {d}, "
        f"continuity {c}"
    )


def asymptotic_rule(d: int, c: int) -> AsymptoticPattern:
    """Infinite-domain pattern for the degree/continuity pair.

    Tabulated constants are returned where available; otherwise the
    periodic exactness system is solved (:func:`solve_asymptotic_system`).
    """
    _validate_pair(d, c)
    registry = _closed_forms()
    if (d, c) in registry:
        return registry[(d, c)]
    return solve_asymptotic_system(d, c)


# ---------------------------------------------------------------------------
# hybrid boundary + asymptotic rules

# boundary elements whose nodes/weights differ from the asymptotic values
# at double precision; above continuity one the approach is too slow for a
# useful default
_DEFAULT_DEPTH = {
    (5, 0): 1,
    (7, 0): 1,
    (9, 0): 1,
    (5, 1): 4,
    (7, 1): 4,
    (9, 1): 4,
}


def hybrid_rule(
    d: int,
    c: int,
    num_elements: int,
    boundary_depth: int | None = None,
) -> QuadratureRule:
    """Rule on ``[0, N]``: traced boundary elements, asymptotic interior.

    The first ``boundary_depth`` elements (mirrored on the right) carry
    nodes and weights from a traced reference rule; every interior element
    follows the asymptotic pattern.  The residual norm on the target space
    is attached so callers can see the exactness degradation, which grows
    when the depth is too small for the continuity class.
    """
    _validate_pair(d, c)
    N = int(num_elements)
    if boundary_depth is None:
        boundary_depth = _DEFAULT_DEPTH.get((d, c))
        if boundary_depth is None:
            raise ValueError(
                f"no default boundary depth for degree {d}, continuity {c} "
                "(asymptotic approach is slow above continuity 1); pass "
                "boundary_depth explicitly"
            )
    depth = int(boundary_depth)
    if depth < 1:
        raise ValueError("boundary depth must be at least 1")
    if N < 2 * depth + 1:
        raise ValueError(
            f"need at least {2 * depth + 1} elements for boundary depth "
            f"{depth}"
        )
    target = uniform_space(d, c, N)
    if target.dimension % 2:
        raise ParityError(
            f"dimension {target.dimension} is odd; for even continuity use "
            "an odd number of elements"
        )
    pattern = asymptotic_rule(d, c)

    n_ref = 2 * depth + 5  # odd, keeps the mirrored boundary uncontaminated
    ref = trace(uniform_space(d, c, n_ref))
    if not ref.converged:
        raise RuntimeError(
            f"reference trace with {n_ref} elements stalled at "
            f"t={ref.t_reached:.6f}"
        )

    cut = depth - 0.02  # safely between the last interior offset and a knot
    left = ref.rule.nodes < cut
    # the interior starts at the pattern element whose node count matches
    # the reference's element [depth, depth + 1)
    phase = 0
    if pattern.period == 2:
        first = np.sum((ref.rule.nodes >= depth) & (ref.rule.nodes < depth + 1))
        counts = [len(pattern.element_layout(e)) for e in (0, 1)]
        if first not in counts:
            raise RuntimeError(
                "interior of the reference rule does not match the pattern"
            )
        phase = counts.index(first)
    nodes, weights = ref.rule.nodes[left], ref.rule.weights[left]
    xs, index = _tile(
        pattern.offsets, pattern.period, depth, N - depth + 0.5, depth - phase
    )
    interior = xs <= N - depth
    all_nodes = np.concatenate([nodes, xs[interior], N - nodes[::-1]])
    all_weights = np.concatenate(
        [weights, pattern.weights[index[interior]], weights[::-1]]
    )
    if np.any(np.diff(all_nodes) <= 0):
        raise RuntimeError("hybrid assembly produced unordered nodes")
    if 2 * len(all_nodes) != target.dimension:
        raise RuntimeError(
            f"hybrid assembly produced {len(all_nodes)} nodes; the optimal "
            f"count is {target.dimension // 2}"
        )
    rule = QuadratureRule(
        interval=(0.0, float(N)),
        nodes=all_nodes,
        weights=all_weights,
        meta={
            "provenance": "hybrid",
            "degree": d,
            "continuity": c,
            "boundary_depth": depth,
            "space": target.to_dict(),
        },
    )
    return replace(rule, residual_norm=residual_norm(target, rule))
