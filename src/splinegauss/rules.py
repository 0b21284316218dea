"""Quadrature rule container shared by the rule-producing modules, and the
convergence test, defect norm and damped Newton iteration of their solvers."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

__all__ = ["NewtonFailure", "QuadratureRule"]

# the rounding floor of the defects is 0.2-0.5 eps * max(|a|, |b|) (uniform
# meshes, N = 11..2561), so this bound is reached and still means exact
_EXACT = 4 * np.finfo(float).eps

# Caps of every Newton solve: a failed corrector step gives up fast, so the
# tracker shrinks its step instead of grinding on a poor prediction; the
# periodic solve, seeded from a traced rule, takes at most 4 iterations.
_NEWTON_MAX_ITERS = 25
_HALVINGS = 10


def _rounding_bound(interval: tuple[float, float]) -> float:
    """Largest exactness defect that counts as rounding level, relative to
    the end points so that it moves with the interval."""
    a, b = interval
    return _EXACT * max(abs(a), abs(b))


def _converged(defects: np.ndarray, interval: tuple[float, float]) -> bool:
    """The convergence test of every finished rule: defects at rounding
    level."""
    return float(np.abs(defects).max()) <= _rounding_bound(interval)


def _defect_norm(defects: np.ndarray) -> float:
    """The ``residual_norm`` every rule reports: ‖F‖₂ / dim."""
    return float(np.linalg.norm(defects)) / len(defects)


class NewtonFailure(RuntimeError):
    """Corrector did not produce a root; ``cause`` names the reason."""

    def __init__(self, cause: str, message: str = ""):
        super().__init__(message or cause)
        self.cause = cause


def _damped_newton(x, system, bound, admissible=None):
    """The damped Newton iteration of every solver: ``(x, f, iterations)``.

    ``system(x)`` evaluates the system once and returns ``(f, step)``: the
    defects at ``x`` and a callable giving the full Newton step there from
    that same evaluation.  The step is halved up to ``_HALVINGS`` times
    until the trial is ``admissible`` (None admits all) and lowers max |F|.
    Stops once max |F| <= ``bound``, which the caller sets: the rounding
    bound of :func:`_rounding_bound` for a rule that is an answer, a looser
    one for a root that only seeds the next solve.  Raises
    :class:`NewtonFailure` after ``_NEWTON_MAX_ITERS`` iterations or a step
    with no descent.
    """
    if admissible is not None and not admissible(x):
        raise NewtonFailure("left-domain", "guess violates the node/weight box")
    f, step = system(x)
    worst = np.abs(f).max()
    for it in range(_NEWTON_MAX_ITERS):
        if worst <= bound:
            return x, f, it
        dx = step()
        in_domain_once = False
        for _ in range(_HALVINGS):
            trial = x + dx
            if admissible is None or admissible(trial):
                in_domain_once = True
                f_trial, step_trial = system(trial)
                worst_trial = np.abs(f_trial).max()
                if worst_trial < worst:
                    x, f, step, worst = trial, f_trial, step_trial, worst_trial
                    break
            dx = 0.5 * dx
        else:
            raise NewtonFailure(
                "iteration-cap" if in_domain_once else "left-domain",
                "damped step made no progress"
                if in_domain_once
                else "damped step could not stay in the domain",
            )
    if worst <= bound:
        return x, f, _NEWTON_MAX_ITERS
    raise NewtonFailure(
        "iteration-cap",
        f"no convergence in {_NEWTON_MAX_ITERS} iterations (max defect {worst:.3e})",
    )


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
