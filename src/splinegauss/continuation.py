"""Path tracking from the per-element Gauss rule to the target rule.

The rule (nodes and weights) is a root of the square exactness system
``F(x, t) = 0`` demanding that every basis function of the time-``t``
spline space is integrated exactly over ``[a, b]``.  A secant predictor
and a damped Newton corrector, which factors the banded Jacobian of the
interleaved unknowns, advance the root as the knots travel; when
the source carries surplus basis functions, the trailing nodes drift to
``b`` with vanishing weights and a reduced solve on the exact target
space finishes the job.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg

from . import basis
from .gauss import source_rule
from .knots import KnotPath, SplineSpace, knot_path, source_space, space_at
from .rules import NewtonFailure, QuadratureRule, _converged, _damped_newton

__all__ = [
    "TraceResult",
    "NewtonFailure",
    "residual",
    "jacobian",
    "residual_norm",
    "newton_correct",
    "finalize_limit",
    "trace",
]

# Pivot smaller than this times the largest entry of the row-equilibrated
# band factor is declared singular.
_PIVOT_REL_TOL = 1e-14

# The full system is traced until 1 - t falls below this before the
# degenerate limit is finalized; the dying weights are then genuinely tiny
# while knot gaps stay two orders above the coincidence tolerance.
_TAIL_GAP = 1e-8

# A corrector failure beyond this time with surplus basis functions
# triggers the pre-clamped reduced finish instead of a stall.
_LATE_FAILURE_TIME = 1.0 - 1e-3

# Step-size factors after a corrector failure and after an easy step (at
# most four Newton iterations), the first step and the step-size bounds.
_SHRINK = 0.5
_GROW = 1.5
_INITIAL_STEP = 1e-2
_MIN_STEP = 1e-10
_MAX_STEP = 5e-2

# Corrector caps: a failed step gives up fast, so the step size shrinks
# instead of Newton grinding on a poor prediction.
_NEWTON_MAX_ITERS = 25
_HALVINGS = 10

# Trailing weights at most this times (b - a) count as the degenerate limit.
_LIMIT_WEIGHT_THRESHOLD = 1e-10


@dataclass(frozen=True)
class TraceResult:
    """Outcome of a trace: the rule plus path statistics."""

    rule: QuadratureRule
    steps_taken: int
    newton_failures: int
    t_reached: float
    status: str  # "converged" | "stalled"

    @property
    def converged(self) -> bool:
        return self.status == "converged"


@dataclass
class _System:
    """Exactness system of one spline space with integrals over [a, b]."""

    space: SplineSpace
    cutoff: float
    integrals: np.ndarray = field(init=False)
    _last: tuple | None = field(init=False, default=None)

    def __post_init__(self):
        self.integrals = basis.integrals_up_to(self.space, self.cutoff)

    @property
    def size(self) -> int:
        return self.space.dimension

    def _basis_at(self, nodes: np.ndarray):
        """Rows, values and derivatives per node, kept for the last nodes:
        Newton takes the Jacobian where it has just taken the residual."""
        if self._last is None or not np.array_equal(self._last[0], nodes):
            first, values, derivatives = basis.evaluate_many(self.space, nodes)
            rows = first[:, None] + np.arange(self.space.degree + 1)
            self._last = (np.array(nodes), rows, values, derivatives)
        return self._last[1:]

    def residual(self, nodes: np.ndarray, weights: np.ndarray) -> np.ndarray:
        rows, values, _ = self._basis_at(nodes)
        out = -np.array(self.integrals)
        np.add.at(out, rows, weights[:, None] * values)
        return out

    def jacobian_entries(
        self, nodes: np.ndarray, weights: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Nonzeros of the Jacobian as ``(rows, columns, values)``.

        Columns interleave the unknowns as ``(x0, w0, x1, w1, ...)``; node
        ``j`` touches only its ``degree + 1`` basis functions, so the
        entries fill a narrow band around the diagonal.
        """
        rows, values, derivatives = self._basis_at(nodes)
        even = np.arange(0, 2 * len(nodes), 2)
        cols = np.repeat(np.concatenate((even, even + 1)), rows.shape[1])
        return (
            np.concatenate((rows, rows), axis=None),
            cols,
            np.concatenate((weights[:, None] * derivatives, values), axis=None),
        )

    def jacobian(self, nodes: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Dense Jacobian with the columns ordered nodes, then weights."""
        rows, cols, vals = self.jacobian_entries(nodes, weights)
        m = len(nodes)
        jac = np.zeros((self.size, 2 * m))
        jac[rows, cols // 2 + (cols % 2) * m] = vals
        return jac


def _check_shapes(space: SplineSpace, rule: QuadratureRule) -> None:
    if space.dimension != 2 * rule.num_nodes:
        raise ValueError(
            f"system is not square: dimension {space.dimension} vs "
            f"{2 * rule.num_nodes} unknowns"
        )


def residual(space: SplineSpace, rule: QuadratureRule) -> np.ndarray:
    """Exactness defects ``Q[D_i] - I[D_i]`` over ``[a, b]``."""
    _check_shapes(space, rule)
    sys = _System(space, cutoff=rule.interval[1])
    return sys.residual(rule.nodes, rule.weights)


def residual_norm(space: SplineSpace, rule: QuadratureRule) -> float:
    """Euclidean norm of the defects divided by the system dimension."""
    return float(np.linalg.norm(residual(space, rule))) / space.dimension


def jacobian(space: SplineSpace, rule: QuadratureRule) -> np.ndarray:
    """Dense derivative of the defects w.r.t. nodes then weights."""
    _check_shapes(space, rule)
    sys = _System(space, cutoff=rule.interval[1])
    return sys.jacobian(rule.nodes, rule.weights)


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
    if nodes[0] < a or nodes[-1] > b:
        return False
    if np.any(np.diff(nodes) < 0.0):
        return False
    if np.any(weights < 0.0) or np.any(weights > (b - a)):
        return False
    return True


def _newton(
    sys: _System, interval: tuple[float, float], nodes: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float, int]:
    """Damped Newton from an in-domain guess: root, residual norm, iterations."""
    m = len(nodes)

    def step(x: np.ndarray, f: np.ndarray) -> np.ndarray:
        z = _solve_banded(*sys.jacobian_entries(x[:m], x[m:]), f)
        return -np.concatenate((z[0::2], z[1::2]))

    x, f, iters = _damped_newton(
        np.concatenate([nodes, weights]),
        lambda x: sys.residual(x[:m], x[m:]),
        step,
        interval,
        _NEWTON_MAX_ITERS,
        _HALVINGS,
        lambda x: _in_domain(x[:m], x[m:], interval),
    )
    return x[:m], x[m:], float(np.linalg.norm(f)) / sys.size, iters


def newton_correct(space: SplineSpace, guess: QuadratureRule) -> QuadratureRule:
    """Polish a nearby guess into a root of the space's exactness system.

    Raises :class:`NewtonFailure` (cause ``singular``, ``iteration-cap`` or
    ``left-domain``) instead of returning an unconverged rule.
    """
    _check_shapes(space, guess)
    sys = _System(space, cutoff=guess.interval[1])
    nodes, weights, norm, _ = _newton(sys, guess.interval, guess.nodes, guess.weights)
    return replace(
        guess, nodes=nodes, weights=weights, residual_norm=norm, meta=dict(guess.meta)
    )


def finalize_limit(
    target: SplineSpace, rule: QuadratureRule, r: int, force: bool = False
) -> QuadratureRule:
    """Resolve the degenerate end state into the reduced target rule.

    ``rule`` carries ``r/2`` more nodes than the optimal rule of
    ``target``; its trailing ones (at ``b`` with vanished weights) are
    dropped, and the remaining square system is Newton-solved on
    ``target``.  With ``r = 0`` the rule is returned unchanged.  ``force``
    skips the degeneracy check; used when a late corrector failure makes
    the tracker clamp onto the limit early.
    """
    if r == 0:
        return rule
    if r % 2:
        raise ValueError(f"surplus dimension must be even; got {r}")
    a, b = rule.interval
    drop = r // 2
    tail_nodes = rule.nodes[-drop:]
    tail_weights = rule.weights[-drop:]
    # the rounding of b bounds both from below, as in ``basis._spans``
    ulps = 8 * np.spacing(max(abs(a), abs(b)))
    near_b = np.all(b - tail_nodes <= 1e-6 * (b - a) + ulps)
    tiny_w = np.all(tail_weights <= _LIMIT_WEIGHT_THRESHOLD * (b - a) + ulps)
    if not (near_b or tiny_w or force):
        raise NewtonFailure(
            "not-degenerate",
            "trailing nodes/weights are not close to the boundary limit",
        )
    reduced = replace(rule, nodes=rule.nodes[:-drop], weights=rule.weights[:-drop])
    meta = dict(rule.meta)
    meta["dropped_nodes"] = [float(x) for x in tail_nodes]
    meta["dropped_weights"] = [float(w) for w in tail_weights]
    return replace(newton_correct(target, reduced), meta=meta)


@dataclass
class _Tracker:
    """Mutable state of one trace run."""

    path: KnotPath
    t: float = 0.0
    t_prev: float = 0.0
    x: np.ndarray | None = None
    x_prev: np.ndarray | None = None
    steps: int = 0
    failures: int = 0

    def predict(self, t_next: float) -> np.ndarray:
        if self.t == self.t_prev:
            guess = np.array(self.x)
        else:
            slope = (self.x - self.x_prev) / (self.t - self.t_prev)
            guess = self.x + slope * (t_next - self.t)
        m = len(guess) // 2
        a, b = self.path.interval
        guess[:m] = np.clip(guess[:m], a, b)
        guess[m:] = np.clip(guess[m:], 0.0, b - a)
        return guess

    def accept(self, t_next: float, nodes: np.ndarray, weights: np.ndarray):
        self.t_prev, self.x_prev = self.t, self.x
        self.t, self.x = t_next, np.concatenate([nodes, weights])
        self.steps += 1

    def correct_at(self, t_next: float) -> tuple[np.ndarray, np.ndarray, int]:
        sp = space_at(self.path, t_next)
        sys = _System(sp, cutoff=self.path.interval[1])
        guess = self.predict(t_next)
        m = len(guess) // 2
        nodes, weights, _, iters = _newton(
            sys, self.path.interval, guess[:m], guess[m:]
        )
        return nodes, weights, iters


def trace(target: SplineSpace) -> TraceResult:
    """Compute the optimal rule for ``target`` by continuation.

    Builds the source space and its per-element Gauss rule, moves the
    knots along the geodesic path with adaptive steps, and finishes with
    the reduced limit solve when the source had surplus dimensions.
    Stalls (step underflow before reaching the end) are reported through
    ``status``, never raised.
    """
    src = source_space(target)
    r = src.dimension - target.dimension
    path = knot_path(src, target)
    start = source_rule(src)
    a, b = target.interval

    tr = _Tracker(path=path)
    tr.x = np.concatenate([start.nodes, start.weights])

    def result(rule: QuadratureRule, status: str, t_reached: float) -> TraceResult:
        meta = dict(rule.meta)
        meta.update(
            provenance="traced",
            space=target.to_dict(),
            degree=target.degree,
            steps=tr.steps,
            newton_failures=tr.failures,
            t_reached=t_reached,
            status=status,
            surplus=r,
        )
        return TraceResult(
            rule=replace(rule, meta=meta),
            steps_taken=tr.steps,
            newton_failures=tr.failures,
            t_reached=t_reached,
            status=status,
        )

    def partial_rule() -> QuadratureRule:
        m = len(tr.x) // 2
        return QuadratureRule(interval=(a, b), nodes=tr.x[:m], weights=tr.x[m:])

    def finish(rule: QuadratureRule) -> TraceResult:
        defects = residual(target, rule)
        norm = float(np.linalg.norm(defects)) / target.dimension
        rule = replace(rule, residual_norm=norm)
        if not (_converged(defects, (a, b)) and _valid_final(rule)):
            return result(rule, "stalled", tr.t)
        return result(rule, "converged", 1.0)

    def finish_reduced(force: bool = False) -> TraceResult:
        pre = partial_rule()
        try:
            rule = finalize_limit(target, pre, r, force=force)
        except NewtonFailure:
            tr.failures += 1
            return result(pre, "stalled", tr.t)
        return finish(rule)

    dt = _INITIAL_STEP
    while True:
        remaining = 1.0 - tr.t
        if r == 0:
            t_next = min(tr.t + dt, 1.0)
        else:
            if remaining <= _TAIL_GAP:
                return finish_reduced()
            if tr.t + dt >= 1.0 - _TAIL_GAP:
                # geometric approach keeps the full system regular while
                # the dying weights shrink toward the limit
                t_next = max(1.0 - 0.1 * remaining, tr.t + 0.5 * _TAIL_GAP)
            else:
                t_next = tr.t + dt
        try:
            nodes, weights, iters = tr.correct_at(t_next)
        except NewtonFailure:
            tr.failures += 1
            dt *= _SHRINK
            if dt < _MIN_STEP:
                if r > 0 and tr.t > _LATE_FAILURE_TIME:
                    return finish_reduced(force=True)
                return result(partial_rule(), "stalled", tr.t)
            continue
        tr.accept(t_next, nodes, weights)
        if iters <= 4:
            dt = min(dt * _GROW, _MAX_STEP)
        if tr.t >= 1.0:
            # only without surplus does t reach 1: the state is the root
            return finish(partial_rule())


def _valid_final(rule: QuadratureRule) -> bool:
    if np.any(np.diff(rule.nodes) <= 0.0):
        return False
    if np.any(rule.weights <= 0.0):
        return False
    a, b = rule.interval
    return rule.nodes[0] >= a and rule.nodes[-1] <= b
