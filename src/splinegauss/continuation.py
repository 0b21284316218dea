"""Path tracking from the per-element Gauss rule to the target rule.

The rule (nodes and weights) is a root of the square exactness system
``F(x, t) = 0`` demanding that every basis function of the time-``t``
spline space is integrated exactly over ``[a, b]``.  A predictor through
the last three roots (two on a retry and near ``t = 1``) and a damped
Newton corrector, which factors the banded Jacobian of the interleaved
unknowns, advance the root as the knots travel; when the source carries
surplus basis functions, the trailing nodes drift to ``b`` with vanishing
weights and a reduced solve on the exact target space finishes the job,
also after a step underflow.  A root before ``t = 1`` only seeds the next
step, so its corrector stops at the path accuracy ``_PATH_TOL * (b - a)``;
the step that reaches ``t = 1`` and the reduced solve stop at rounding.
All of it runs on the breakpoints minus ``a``, over ``[0, b - a]``, so the
knots keep their digits far from the origin; only the returned rule is
moved back to ``[a, b]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg

from . import basis
from .gauss import composite_rule
from .knots import KnotVector, SplineSpace, knot_path, source_space, space_at
from .rules import NewtonFailure, QuadratureRule
from .rules import _converged, _damped_newton, _defect_norm, _rounding_bound

__all__ = [
    "TraceResult",
    "NewtonFailure",
    "residual",
    "jacobian",
    "residual_norm",
    "newton_correct",
    "finalize_limit",
    "source_rule",
    "trace",
]

# Pivot smaller than this times the largest entry of the row-equilibrated
# band factor is declared singular.
_PIVOT_REL_TOL = 1e-14

# The full system is traced until 1 - t falls below this before the
# degenerate limit is finalized; the dying weights are then genuinely tiny
# while knot gaps stay two orders above the coincidence tolerance.
_TAIL_GAP = 1e-8

# Step-size factors after a corrector failure and after an easy step (at
# most four Newton iterations), the first step and the step-size bounds.
_SHRINK = 0.5
_GROW = 1.5
_INITIAL_STEP = 1e-2
_MIN_STEP = 1e-10
_MAX_STEP = 5e-2

# Trailing weights at most this times (b - a) count as the degenerate limit.
_LIMIT_WEIGHT_THRESHOLD = 1e-10

# A corrector solve before t = 1 stops once max |F| is at most this times
# (b - a), or the rounding bound if that is larger: its root only seeds
# the next step (the inexact corrector of Allgower & Georg).  The end of
# the path is still solved to rounding.
_PATH_TOL = 1e-8


def _recorded(key: str) -> property:
    """Read-only view of ``rule.meta[key]``, the one record of a trace."""
    return property(lambda result: result.rule.meta[key])


@dataclass(frozen=True)
class TraceResult:
    """Outcome of a trace: the rule, whose ``meta`` records the path."""

    rule: QuadratureRule
    status = _recorded("status")  # "converged" | "stalled"
    steps_taken = _recorded("steps")
    newton_failures = _recorded("newton_failures")
    t_reached = _recorded("t_reached")

    @property
    def converged(self) -> bool:
        return self.status == "converged"


@dataclass
class _System:
    """Exactness system of one spline space with integrals over [a, b]."""

    space: SplineSpace
    cutoff: float
    integrals: np.ndarray = field(init=False)

    def __post_init__(self):
        self.integrals = basis.integrals_up_to(self.space, self.cutoff)

    def evaluate(self, nodes: np.ndarray, weights: np.ndarray):
        """Defects at ``(nodes, weights)`` and a callable giving the
        Jacobian's nonzeros ``(rows, columns, values)``, both from one
        basis evaluation.

        Columns interleave the unknowns as ``(x0, w0, x1, w1, ...)``; node
        ``j`` touches only its ``degree + 1`` basis functions, so the
        entries fill a narrow band around the diagonal.
        """
        first, values, derivatives = basis.evaluate_many(self.space, nodes)
        rows = first[:, None] + np.arange(self.space.degree + 1)
        defects = self.defects(rows, values, weights)

        def entries() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
            even = np.arange(0, 2 * len(nodes), 2)
            cols = np.repeat(np.concatenate((even, even + 1)), rows.shape[1])
            return (
                np.concatenate((rows, rows), axis=None),
                cols,
                np.concatenate((weights[:, None] * derivatives, values), axis=None),
            )

        return defects, entries

    def defects(
        self, rows: np.ndarray, values: np.ndarray, weights: np.ndarray
    ) -> np.ndarray:
        """Defects from the basis values at the nodes: ``values[p, k]`` is
        function ``rows[p, k]`` at node ``p``."""
        defects = -self.integrals
        np.add.at(defects, rows, weights[:, None] * values)
        return defects


def _check_shapes(space: SplineSpace, rule: QuadratureRule) -> None:
    if space.dimension != 2 * rule.num_nodes:
        raise ValueError(
            f"system is not square: dimension {space.dimension} vs "
            f"{2 * rule.num_nodes} unknowns"
        )


def residual(space: SplineSpace, rule: QuadratureRule) -> np.ndarray:
    """Exactness defects ``Q[D_i] - I[D_i]`` over ``[a, b]``."""
    return _residual_and_basis(space, rule)[0]


def _residual_and_basis(space: SplineSpace, rule: QuadratureRule):
    """:func:`residual` and the basis evaluation it came from, for a caller
    that needs both: ``(defects, rows, values)`` as in
    :meth:`_System.defects`."""
    _check_shapes(space, rule)
    first, values, _ = basis.evaluate_many(space, rule.nodes)
    rows = first[:, None] + np.arange(space.degree + 1)
    sys = _System(space, cutoff=rule.interval[1])
    return sys.defects(rows, values, rule.weights), rows, values


def residual_norm(space: SplineSpace, rule: QuadratureRule) -> float:
    """Euclidean norm of the defects divided by the system dimension."""
    return _defect_norm(residual(space, rule))


def jacobian(space: SplineSpace, rule: QuadratureRule) -> np.ndarray:
    """Dense derivative of the defects w.r.t. nodes then weights."""
    _check_shapes(space, rule)
    sys = _System(space, cutoff=rule.interval[1])
    rows, cols, vals = sys.evaluate(rule.nodes, rule.weights)[1]()
    m = rule.num_nodes
    jac = np.zeros((space.dimension, 2 * m))
    jac[rows, cols // 2 + (cols % 2) * m] = vals
    return jac


def _solve_banded(
    rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, rhs: np.ndarray
) -> np.ndarray:
    """Row-equilibrated band LU solve of ``J z = rhs`` from J's nonzeros.

    The bandwidths come from the entry pattern, so clustered nodes that
    widen the band stay correct.  Raises NewtonFailure on tiny pivots.
    """
    n = len(rhs)
    offset = rows - cols
    kl, ku = max(int(offset.max()), 0), max(-int(offset.min()), 0)
    scale = np.full(n, 1e-300)
    np.maximum.at(scale, rows, np.abs(vals))
    # LAPACK band storage keeps A[i, j] at ab[kl + ku + i - j, j]; the top
    # kl rows take the fill-in of the row interchanges
    ab = np.zeros((2 * kl + ku + 1, n))
    ab[kl + ku + offset, cols] = vals / scale[rows]
    lu, piv, info = scipy.linalg.lapack.dgbtrf(ab, kl, ku, overwrite_ab=True)
    diag = np.abs(lu[kl + ku])
    if info > 0 or diag.min() < _PIVOT_REL_TOL * max(np.abs(lu).max(), 1e-300):
        raise NewtonFailure("singular", "linear solve hit a negligible pivot")
    z, _ = scipy.linalg.lapack.dgbtrs(lu, kl, ku, rhs / scale, piv)
    return z


def _in_domain(
    nodes: np.ndarray, weights: np.ndarray, interval: tuple[float, float]
) -> bool:
    a, b = interval
    # each test is False on NaN, so a non-finite entry leaves the domain
    return bool(
        nodes[0] >= a and nodes[-1] <= b and (nodes[1:] >= nodes[:-1]).all()
        and weights.min() >= 0.0 and weights.max() <= b - a
    )


def _newton(
    sys: _System, interval: tuple[float, float], x: np.ndarray, bound: float
) -> tuple[np.ndarray, np.ndarray, int]:
    """Damped Newton from an in-domain guess ``x = (nodes, weights)`` until
    max |F| <= ``bound``: root, its defects, iterations."""
    m = len(x) // 2

    def system(x: np.ndarray):
        f, entries = sys.evaluate(x[:m], x[m:])

        def step() -> np.ndarray:
            z = _solve_banded(*entries(), f)
            return -np.concatenate((z[0::2], z[1::2]))

        return f, step

    return _damped_newton(
        x, system, bound, lambda x: _in_domain(x[:m], x[m:], interval)
    )


def newton_correct(space: SplineSpace, guess: QuadratureRule) -> QuadratureRule:
    """Polish a nearby guess into a root of the space's exactness system.

    Raises :class:`NewtonFailure` (cause ``singular``, ``iteration-cap`` or
    ``left-domain``) instead of returning an unconverged rule.
    """
    _check_shapes(space, guess)
    sys = _System(space, cutoff=guess.interval[1])
    x = np.concatenate([guess.nodes, guess.weights])
    x, f, _ = _newton(sys, guess.interval, x, _rounding_bound(guess.interval))
    m, norm = guess.num_nodes, _defect_norm(f)
    return replace(
        guess, nodes=x[:m], weights=x[m:], residual_norm=norm, meta=dict(guess.meta)
    )


def finalize_limit(target: SplineSpace, rule: QuadratureRule) -> QuadratureRule:
    """Resolve the degenerate end state into the reduced target rule.

    ``rule`` carries ``r/2`` more nodes than the optimal rule of
    ``target``, ``r = 2 * rule.num_nodes - target.dimension``; its trailing
    ones (at ``b`` with vanished weights) are dropped, and the remaining
    square system is Newton-solved on ``target``.  With ``r = 0`` the rule
    is returned unchanged; a negative or odd ``r`` raises ValueError.
    """
    r = 2 * rule.num_nodes - target.dimension
    if r == 0:
        return rule
    if r < 0 or r % 2:
        raise ValueError(f"surplus dimension must be even and positive; got {r}")
    a, b = rule.interval
    drop = r // 2
    tau, omega = rule.nodes[-drop:], rule.weights[-drop:]  # the trailing ones
    near_b = np.all(b - tau <= 1e-6 * (b - a))
    tiny_w = np.all(omega <= _LIMIT_WEIGHT_THRESHOLD * (b - a))
    if not (near_b or tiny_w):
        raise NewtonFailure(
            "not-degenerate",
            "trailing nodes/weights are not close to the boundary limit",
        )
    reduced = replace(rule, nodes=rule.nodes[:-drop], weights=rule.weights[:-drop])
    meta = dict(rule.meta)
    meta.update(dropped_nodes=tau.tolist(), dropped_weights=omega.tolist())
    return replace(newton_correct(target, reduced), meta=meta)


def source_rule(source: SplineSpace) -> QuadratureRule:
    """Optimal rule for a discontinuous odd-degree space: per-element Gauss.

    Each of the ``n`` elements carries the ``(d+1)/2``-point rule mapped
    affinely, giving ``n (d+1)/2`` nodes in ascending order.  The result is
    checked to integrate every basis function to rounding level.
    """
    d = source.degree
    if d % 2 == 0:
        raise ValueError(f"source space degree must be odd; got {d}")
    if any(m != d + 1 for m in source.knots.mults):
        raise ValueError("source space must be discontinuous (all mults d+1)")
    nodes, weights = composite_rule((d + 1) // 2, source.knots.breaks)
    rule = QuadratureRule(
        interval=source.interval,
        nodes=nodes,
        weights=weights,
        meta={"provenance": "gauss", "degree": d, "space": source.to_dict()},
    )
    defects = residual(source, rule)
    norm = _defect_norm(defects)
    if not _converged(defects, source.interval):
        raise RuntimeError(f"source rule residual {norm:.3e} above rounding")
    return replace(rule, residual_norm=norm)


def trace(target: SplineSpace) -> TraceResult:
    """Compute the optimal rule for ``target`` by continuation.

    Builds the source space and its per-element Gauss rule, moves the
    knots along the geodesic path with adaptive steps, and finishes with
    the reduced limit solve when the source had surplus dimensions.
    Stalls (a step underflow without surplus, a failed limit solve or
    final check) are reported through ``status``, never raised.
    """
    origin, knots = target.interval[0], target.knots
    breaks = np.subtract(knots.breaks, origin)
    local = SplineSpace(target.degree, KnotVector(breaks, knots.mults))
    src = source_space(local)
    r = src.dimension - local.dimension
    path = knot_path(src, local)
    start = source_rule(src)
    a, b = local.interval
    m = start.num_nodes
    rounding = _rounding_bound((a, b))
    path_bound = max(_PATH_TOL * (b - a), rounding)

    # the state: the root x = (nodes, weights) at t and up to two before it
    t, x = 0.0, np.concatenate([start.nodes, start.weights])
    before: list[tuple[float, np.ndarray]] = []
    steps = failures = 0

    def result(rule: QuadratureRule, stalled_at: float | None = None) -> TraceResult:
        """The one exit: ``rule`` back on ``[a, b]``, checked unless stalled."""
        meta = dict(rule.meta)
        if "dropped_nodes" in meta:
            meta["dropped_nodes"] = [tau + origin for tau in meta["dropped_nodes"]]
        rule = replace(rule, interval=target.interval, nodes=rule.nodes + origin)
        status, t_reached = "stalled", stalled_at
        if stalled_at is None:
            defects = residual(target, rule)
            rule = replace(rule, residual_norm=_defect_norm(defects))
            ok = _converged(defects, target.interval) and _valid_final(rule)
            status, t_reached = ("converged", 1.0) if ok else ("stalled", t)
        meta.update(
            provenance="traced",
            space=target.to_dict(),
            degree=target.degree,
            steps=steps,
            newton_failures=failures,
            t_reached=t_reached,
            status=status,
            surplus=r,
        )
        return TraceResult(replace(rule, meta=meta))

    def finish() -> TraceResult:
        """Every end but a step underflow without surplus: drop any surplus."""
        nonlocal failures
        rule = QuadratureRule((a, b), x[:m], x[m:])
        try:
            rule = finalize_limit(local, rule)
        except NewtonFailure:
            failures += 1
            return result(rule, t)
        return result(rule)

    dt = _INITIAL_STEP
    # only without surplus does t reach 1: the state is then the root
    while t < 1.0:
        if r == 0:
            t_next = min(t + dt, 1.0)
        elif 1.0 - t <= _TAIL_GAP:
            return finish()
        elif t + dt >= 1.0 - _TAIL_GAP:
            # geometric approach keeps the full system regular while the
            # dying weights shrink toward the limit
            t_next = max(1.0 - 0.1 * (1.0 - t), t + 0.5 * _TAIL_GAP)
        else:
            t_next = t + dt
        # predictor: the quadratic through the last three roots (Newton's
        # form), the secant on a retry and near t = 1, clipped into the box
        guess = np.array(x)
        if before:
            t1, x1 = before[0]
            slope = (x - x1) / (t - t1)
            if len(before) == 2 and t + dt < 1.0 - _TAIL_GAP:
                t2, x2 = before[1]
                curve = (slope - (x1 - x2) / (t1 - t2)) / (t - t2)
                slope += curve * (t_next - t1)
            guess += slope * (t_next - t)
        guess[:m] = np.clip(guess[:m], a, b)
        guess[m:] = np.clip(guess[m:], 0.0, b - a)
        sys = _System(space_at(path, t_next), cutoff=b)
        try:
            bound = rounding if t_next == 1.0 else path_bound
            x_next, _, iters = _newton(sys, (a, b), guess, bound)
        except NewtonFailure:
            failures += 1
            dt *= _SHRINK
            del before[1:]  # the retry takes the secant
            if dt < _MIN_STEP:
                # a surplus path may already sit at its degenerate limit
                if r:
                    return finish()
                return result(QuadratureRule((a, b), x[:m], x[m:]), t)
            continue
        before = [(t, x), *before[:1]]
        t, x = t_next, x_next
        steps += 1
        if iters <= 4:
            dt = min(dt * _GROW, _MAX_STEP)
    return finish()


def _valid_final(rule: QuadratureRule) -> bool:
    if np.any(np.diff(rule.nodes) <= 0.0):
        return False
    if np.any(rule.weights <= 0.0):
        return False
    a, b = rule.interval
    return rule.nodes[0] >= a and rule.nodes[-1] <= b
