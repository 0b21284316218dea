"""Infinite-domain quadrature patterns and hybrid boundary+interior rules.

On a uniform grid the optimal rule far from the boundary repeats with a
period of one element (odd continuity) or two elements (even continuity).
Closed-form constants are tabulated where known; otherwise the periodic
exactness system is solved directly, or the pattern is read off the
converged interior of a long finite-domain trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
import math

import numpy as np

from . import basis
from .continuation import TraceConfig, residual_norm, trace
from .knots import KnotVector, ParityError, SplineSpace, uniform_space
from .rules import QuadratureRule

__all__ = [
    "AsymptoticPattern",
    "asymptotic_rule",
    "solve_asymptotic_system",
    "hybrid_rule",
    "pattern_residual",
]

_SNAP_TOL = 1e-6
_SOLVE_TOL = 1e-14


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
        xs, ws = [], []
        k0 = math.floor(lo / self.period) - 1
        k1 = math.ceil(hi / self.period) + 1
        for k in range(k0, k1 + 1):
            for off, w in zip(self.offsets, self.weights):
                x = off + self.period * k
                if lo <= x < hi:
                    xs.append(x)
                    ws.append(w)
        order = np.argsort(xs)
        return np.asarray(xs)[order], np.asarray(ws)[order]

    def to_dict(self) -> dict:
        return {
            "degree": self.degree,
            "continuity": self.continuity,
            "period": self.period,
            "offsets": [float(x) for x in self.offsets],
            "weights": [float(w) for w in self.weights],
        }


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


_CLOSED = None


def _closed_registry():
    global _CLOSED
    if _CLOSED is None:
        _CLOSED = _closed_forms()
    return _CLOSED


def _validate_pair(d: int, c: int) -> None:
    if d < 1 or d % 2 == 0:
        raise ValueError(f"degree must be odd and positive; got {d}")
    if not 0 <= c <= d - 1:
        raise ValueError(f"continuity must lie in [0, degree-1]; got {c}")


# ---------------------------------------------------------------------------
# periodic exactness system


def _shape_space(d: int, c: int, period: int) -> tuple[SplineSpace, list[int]]:
    """Padded uniform grid and the indices of one period's basis shapes."""
    mult = d - c
    pad = d + 4
    breaks = np.arange(-pad, period + pad + 1, dtype=float)
    space = SplineSpace(d, KnotVector(breaks, [mult] * len(breaks)))
    T = space.expanded
    first = int(np.searchsorted(T, 0.0, side="left"))
    shapes = list(range(first, first + mult * period))
    return space, shapes


def pattern_residual(pattern: AsymptoticPattern) -> float:
    """Largest exactness defect of the tiled rule over one period's shapes.

    Zero (to rounding) exactly when the pattern integrates every basis
    function of the bi-infinite uniform space.
    """
    d, c, P = pattern.degree, pattern.continuity, pattern.period
    space, shapes = _shape_space(d, c, P)
    T = space.expanded
    funcs, xs, ws = [], [], []
    for i in shapes:
        lo, hi = T[i], T[i + d + 1]
        px, pw = pattern.positions_in(lo - P, hi + P)
        inside = (lo <= px) & (px <= hi)
        funcs += [i] * int(inside.sum())
        xs.append(px[inside])
        ws.append(pw[inside])
    values, _ = basis.evaluate_functions(space, funcs, np.concatenate(xs))
    q = np.zeros(space.dimension)
    np.add.at(q, funcs, np.concatenate(ws) * values)
    shapes = np.asarray(shapes)
    defects = q[shapes] - (T[shapes + d + 1] - T[shapes]) / (d + 1)
    return float(np.abs(defects).max())


@dataclass(frozen=True)
class _NodeSpec:
    """One node of the symmetric ansatz within the period."""

    element: int
    kind: str  # "knot" | "mid" | "pair_lo" | "pair_hi"
    pair: int  # index into the offset unknowns (-1 for fixed nodes)
    weight: int  # index into the weight unknowns

    def position(self, deltas: np.ndarray) -> float:
        if self.kind == "knot":
            return float(self.element)
        if self.kind == "mid":
            return self.element + 0.5
        if self.kind == "pair_lo":
            return self.element + deltas[self.pair]
        return self.element + 1.0 - deltas[self.pair]

    def dposition(self) -> float:
        if self.kind == "pair_lo":
            return 1.0
        if self.kind == "pair_hi":
            return -1.0
        return 0.0


def _configs(d: int, c: int) -> list[tuple[list[_NodeSpec], int, int]]:
    """Candidate symmetric layouts, preferred first.

    Returns (node specs, number of offset unknowns, number of weight
    unknowns).  Preference is calibrated to the layouts the finite-domain
    rules converge to: knot nodes appear for continuity one, not above.
    """
    period = 1 if c % 2 == 1 else 2
    out = []
    if period == 1:
        s = (d - c) // 2
        combos = []
        for k0 in (0, 1):
            for m0 in (0, 1):
                rest = s - k0 - m0
                if rest >= 0 and rest % 2 == 0:
                    combos.append((k0, m0, rest // 2))
        prefer_knot = c == 1
        combos.sort(key=lambda km: (-km[0] if prefer_knot else km[0], -km[1]))
        for k0, m0, pairs in combos:
            specs: list[_NodeSpec] = []
            w = count()
            if k0:
                specs.append(_NodeSpec(0, "knot", -1, next(w)))
            if m0:
                specs.append(_NodeSpec(0, "mid", -1, next(w)))
            for j in range(pairs):
                wj = next(w)
                specs.append(_NodeSpec(0, "pair_lo", j, wj))
                specs.append(_NodeSpec(0, "pair_hi", j, wj))
            out.append((specs, pairs, k0 + m0 + pairs))
    else:
        total = d - c  # odd: exactly one element of the period holds a mid
        for order in (
            (math.ceil(total / 2), total // 2),
            (total // 2, math.ceil(total / 2)),
        ):
            specs = []
            deltas = count()
            weights = count()
            n_deltas = 0
            n_weights = 0
            for e, n_nodes in enumerate(order):
                if n_nodes % 2 == 1:
                    specs.append(_NodeSpec(e, "mid", -1, next(weights)))
                    n_weights += 1
                for _ in range(n_nodes // 2):
                    j = next(deltas)
                    wj = next(weights)
                    specs.append(_NodeSpec(e, "pair_lo", j, wj))
                    specs.append(_NodeSpec(e, "pair_hi", j, wj))
                    n_deltas += 1
                    n_weights += 1
            out.append((specs, n_deltas, n_weights))
    return out


def solve_asymptotic_system(d: int, c: int) -> AsymptoticPattern:
    """Solve the per-period exactness system with a symmetric ansatz.

    Gauss-Newton on the constraints that the tiled rule integrates each
    distinct periodic basis shape exactly, starting from equispaced
    offsets and equal weights.  Reproduces the tabulated closed forms and
    covers further pairs whose limit layout fits the symmetric ansatz.
    """
    _validate_pair(d, c)
    period = 1 if c % 2 == 1 else 2
    space, shapes = _shape_space(d, c, period)
    T = space.expanded

    def solve_config(specs, n_deltas, n_weights, init_scale):
        deltas0 = np.array(
            [(j + 1.0) / (2.0 * (n_deltas + 1)) for j in range(n_deltas)]
        ) * init_scale
        per_elem = {}
        for sp in specs:
            per_elem[sp.element] = per_elem.get(sp.element, 0) + 1
        # one weight unknown per distinct weight index
        w_init = np.zeros(n_weights)
        for sp in specs:
            w_init[sp.weight] = 1.0 / per_elem[sp.element]
        theta = np.concatenate([deltas0, w_init])

        def unpack(th):
            return th[:n_deltas], th[n_deltas:]

        def residual_jac(th):
            deltas, ws = unpack(th)
            R = np.zeros(len(shapes))
            J = np.zeros((len(shapes), len(th)))
            hits = []  # (row, function, node, spec) in accumulation order
            for row, i in enumerate(shapes):
                lo, hi = T[i], T[i + d + 1]
                R[row] = -(hi - lo) / (d + 1)
                k_lo = math.floor((lo - period) / period) - 1
                k_hi = math.ceil((hi + period) / period) + 1
                for k in range(k_lo, k_hi + 1):
                    for sp in specs:
                        x = sp.position(deltas) + period * k
                        if lo <= x <= hi:
                            hits.append((row, i, x, sp))
            rows, funcs, xs, hit = zip(*hits)
            rows = np.array(rows)
            val, der = basis.evaluate_functions(space, funcs, xs)
            w_idx, pair = np.array([(sp.weight, sp.pair) for sp in hit]).T
            w = ws[w_idx]
            dpos = np.array([sp.dposition() for sp in hit])
            # off-support hits add zeros, which leave every entry unchanged
            np.add.at(R, rows, w * val)
            np.add.at(J, (rows, n_deltas + w_idx), val)
            on = pair >= 0
            np.add.at(J, (rows[on], pair[on]), (w * der * dpos)[on])
            return R, J

        norm = np.inf
        for _ in range(80):
            R, J = residual_jac(theta)
            norm = np.abs(R).max()
            if norm <= _SOLVE_TOL:
                break
            step = np.linalg.lstsq(J, -R, rcond=None)[0]
            scale = 1.0
            for _ in range(25):
                trial = theta + scale * step
                R_t, _ = residual_jac(trial)
                if np.abs(R_t).max() < norm:
                    theta = trial
                    break
                scale *= 0.5
            else:
                break
        if norm > _SOLVE_TOL:
            return None
        deltas, ws = unpack(theta)
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
        items = [
            (sp.position(deltas), float(ws[sp.weight])) for sp in specs
        ]
        items.sort()
        return AsymptoticPattern(
            d,
            c,
            period,
            np.array([x for x, _ in items]),
            np.array([w for _, w in items]),
        )

    for specs, n_deltas, n_weights in _configs(d, c):
        for init_scale in (1.0, 0.5, 1.5):
            pattern = solve_config(specs, n_deltas, n_weights, init_scale)
            if pattern is not None:
                return pattern
    raise ValueError(
        f"no symmetric periodic layout converged for degree {d}, "
        f"continuity {c}"
    )


# ---------------------------------------------------------------------------
# pattern extraction from a long finite-domain trace


def _snap_offsets(offsets, weights, period):
    """Symmetrize near-converged offsets: exact knots, mids, and pairs."""
    items = sorted(zip(offsets, weights))
    snapped: list[tuple[float, float]] = []
    for e in range(period):
        elem = [(o - e, w) for o, w in items if e - 0.02 <= o < e + 0.98]
        fixed: list[tuple[float, float]] = []
        loose: list[tuple[float, float]] = []
        for o, w in elem:
            if abs(o) < _SNAP_TOL:
                fixed.append((0.0, w))
            elif abs(o - 0.5) < _SNAP_TOL:
                fixed.append((0.5, w))
            else:
                loose.append((o, w))
        lo, hi = 0, len(loose) - 1
        while lo < hi:
            o1, w1 = loose[lo]
            o2, w2 = loose[hi]
            delta = 0.5 * (o1 + (1.0 - o2))
            wm = 0.5 * (w1 + w2)
            loose[lo] = (delta, wm)
            loose[hi] = (1.0 - delta, wm)
            lo += 1
            hi -= 1
        snapped.extend((e + o, w) for o, w in fixed + loose)
    snapped.sort()
    return (
        np.array([o for o, _ in snapped]),
        np.array([w for _, w in snapped]),
    )


def _pattern_from_trace(d: int, c: int, num_elements: int) -> AsymptoticPattern:
    period = 1 if c % 2 == 1 else 2
    target = uniform_space(d, c, num_elements)
    res = trace(target)
    if not res.converged:
        raise ValueError(
            f"no convergent interior pattern for degree {d}, continuity {c}: "
            f"trace stalled at t={res.t_reached:.6f}"
        )
    rule = res.rule
    if period == 1:
        e0 = (num_elements + 1) // 2
    else:
        e0 = 2 * ((num_elements + 1) // 4)
    lo = (e0 - 1) - 0.02
    hi = lo + period
    mask = (rule.nodes >= lo) & (rule.nodes < hi)
    offsets = rule.nodes[mask] - (e0 - 1)
    weights = rule.weights[mask]
    offsets, weights = _snap_offsets(offsets, weights, period)
    return AsymptoticPattern(d, c, period, offsets, weights)


def asymptotic_rule(d: int, c: int, num_elements: int = 33) -> AsymptoticPattern:
    """Infinite-domain pattern for the degree/continuity pair.

    Tabulated constants are returned where available; otherwise the
    pattern is read from the converged interior of a uniform trace with
    ``num_elements`` elements (at least 31, odd so both parities exist).
    """
    _validate_pair(d, c)
    registry = _closed_registry()
    if (d, c) in registry:
        return registry[(d, c)]
    if num_elements < 31:
        raise ValueError("pattern extraction needs at least 31 elements")
    if num_elements % 2 == 0:
        num_elements += 1
    return _pattern_from_trace(d, c, num_elements)


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
    cfg: TraceConfig | None = None,
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
    ref = trace(uniform_space(d, c, n_ref), cfg)
    if not ref.converged:
        raise RuntimeError(
            f"reference trace with {n_ref} elements stalled at "
            f"t={ref.t_reached:.6f}"
        )

    cut = depth - 0.02  # safely between the last interior offset and a knot
    left = ref.rule.nodes < cut
    nodes = [ref.rule.nodes[left]]
    weights = [ref.rule.weights[left]]

    mid_nodes: list[float] = []
    mid_weights: list[float] = []
    if pattern.period == 1:
        layout = pattern.element_layout(0)
        knot_items = [(o, w) for o, w in layout if o == 0.0]
        interior = [(o, w) for o, w in layout if o > 0.0]
        for e in range(depth + 1, N - depth + 1):
            for o, w in knot_items:
                mid_nodes.append(e - 1.0)
                mid_weights.append(w)
            for o, w in interior:
                mid_nodes.append(e - 1.0 + o)
                mid_weights.append(w)
        for o, w in knot_items:
            mid_nodes.append(float(N - depth))
            mid_weights.append(w)
    else:
        layouts = [pattern.element_layout(0), pattern.element_layout(1)]
        first_count = int(
            np.sum((ref.rule.nodes >= depth) & (ref.rule.nodes < depth + 1))
        )
        if len(layouts[0]) != first_count:
            layouts.reverse()
        if len(layouts[0]) != first_count:
            raise RuntimeError(
                "interior of the reference rule does not match the pattern"
            )
        for e in range(depth + 1, N - depth + 1):
            for o, w in layouts[(e - depth - 1) % 2]:
                mid_nodes.append(e - 1.0 + o)
                mid_weights.append(w)
    nodes.append(np.asarray(mid_nodes))
    weights.append(np.asarray(mid_weights))

    nodes.append(N - ref.rule.nodes[left][::-1])
    weights.append(ref.rule.weights[left][::-1])

    all_nodes = np.concatenate(nodes)
    all_weights = np.concatenate(weights)
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
    norm = residual_norm(target, rule)
    return QuadratureRule(
        interval=rule.interval,
        nodes=rule.nodes,
        weights=rule.weights,
        residual_norm=norm,
        meta=rule.meta,
    )
