"""B-spline basis evaluation, derivatives, and exact integrals.

Normalized B-splines over the expanded knot list of a
:class:`~splinegauss.knots.SplineSpace`.  Evaluation uses the triangular
recurrence with the right-limit convention at knots (left limit at the
right end of the supported region).  Each basis function integrates to
``support / (degree + 1)`` over its full support.
"""

from __future__ import annotations

import numpy as np

from .gauss import composite_rule
from .knots import SplineSpace

__all__ = [
    "evaluate_many",
    "evaluate_functions",
    "integrals",
    "integrals_up_to",
    "eval_spline",
]


def _spans(knots: np.ndarray, degree: int, xs: np.ndarray) -> np.ndarray:
    """Index ``k`` per point with ``knots[k] <= u < knots[k+1]``, full support.

    Valid evaluation points lie in ``[knots[degree], knots[n]]`` with
    ``n = len(knots) - degree - 1``, widened by a relative fuzz of 1e-12
    plus eight ulps of its end point of larger magnitude, so a point one
    ulp off an end is still inside; at the right end of that region the
    last nonempty span is returned (left-limit convention), and repeated
    knots are skipped.
    """
    d = degree
    lo_u, hi_u = float(knots[d]), float(knots[len(knots) - d - 1])
    fuzz = 1e-12 * max(1.0, abs(hi_u - lo_u))
    fuzz += 8 * np.spacing(max(abs(lo_u), abs(hi_u)))
    inside = (xs >= lo_u - fuzz) & (xs <= hi_u + fuzz)
    if not inside.all():
        raise ValueError(
            f"evaluation point {xs[~inside][0]} outside the supported region "
            f"[{lo_u}, {hi_u}]"
        )
    # nonempty spans run from the last copy of the left end to the last knot
    # below the right end; clamping puts fuzzed points and the right end
    # (left limit) on them and skips past repeated knots
    first = knots.searchsorted(lo_u, side="right") - 1
    last = knots.searchsorted(hi_u, side="left") - 1
    k = knots.searchsorted(xs, side="right") - 1
    return np.minimum(np.maximum(k, first), last)


def evaluate_many(
    space: SplineSpace, xs
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nonzero basis values and first derivatives at every point of ``xs``.

    Returns ``(first, values, derivatives)`` of shapes ``(n,)``,
    ``(n, d+1)`` and ``(n, d+1)``: row ``p`` belongs to basis functions
    ``first[p] .. first[p] + d`` at ``xs[p]``.  The triangular recurrence
    advances all points and all entries of one degree level together, so
    a call costs O(d) array operations.  Each entry takes the operations of
    the classic one-point recurrence in the same order, so a row does not
    depend on the other points of the batch.  Raises ``ValueError`` if any
    point lies outside the supported region.
    """
    d = space.degree
    T = space.expanded
    xs = np.asarray(xs, dtype=float)
    k = _spans(T, d, xs)[:, None]
    up = np.arange(1, d + 1)
    ahead = T[k + up]
    left = xs[:, None] - T[k + 1 - up]  # left[:, j-1] = u - T[k+1-j]
    right = ahead - xs[:, None]  # right[:, j-1] = T[k+j] - u
    zero = np.zeros((len(xs), 1))

    # level j holds the degree-j values of functions k-j .. k
    level = np.ones((len(xs), 1))
    for j in range(1, d + 1):
        below = level
        r_part = right[:, :j]
        l_part = left[:, j - 1 :: -1]
        temp = below / (r_part + l_part)
        level = np.concatenate((zero, l_part * temp), axis=1)
        level[:, :j] += r_part * temp

    first = k[:, 0] - d
    if d == 0:
        return first, level, np.zeros_like(level)
    # derivative of function k-d+r from the degree d-1 values B:
    # d * (B_{r-1} / (T[k+r] - T[k-d+r]) - B_r / (T[k+r+1] - T[k-d+r+1])),
    # a missing B counting as zero; each knot difference spans the nonempty
    # span [T[k], T[k+1]], so none is zero
    quot = below / (ahead - T[k - d + up])
    padded = np.concatenate((zero, quot, zero), axis=1)
    return first, level, d * (padded[:, :-1] - padded[:, 1:])


def evaluate_functions(
    space: SplineSpace, indices, xs
) -> tuple[np.ndarray, np.ndarray]:
    """Value and derivative of basis function ``indices[p]`` at ``xs[p]``.

    Both are zero where the point lies off that function's support.
    """
    first, values, derivatives = evaluate_many(space, xs)
    j = np.asarray(indices) - first
    off = (j < 0) | (j > space.degree)
    pick = np.arange(len(first)), np.clip(j, 0, space.degree)
    return np.where(off, 0.0, values[pick]), np.where(off, 0.0, derivatives[pick])


def integrals(space: SplineSpace) -> np.ndarray:
    """Full-support integrals of all basis functions."""
    d = space.degree
    T = space.expanded
    return (T[d + 1 : d + 1 + space.dimension] - T[: space.dimension]) / (d + 1)


def integrals_up_to(space: SplineSpace, cutoff: float) -> np.ndarray:
    """Integrals of all basis functions over ``[a, cutoff]``.

    Supports entirely below the cutoff use the closed form; straddling
    supports are integrated span by span with a Gauss rule exact for the
    space's degree; supports entirely above contribute zero.
    """
    d = space.degree
    T = space.expanded
    out = integrals(space)
    q = (d + 2) // 2  # exact through degree 2q-1 >= d
    funcs, xs, ws = [], [], []
    for i in np.flatnonzero(T[d + 1 : d + 1 + space.dimension] > cutoff):
        out[i] = 0.0
        # the spans of the support cut at the cutoff; none if it starts above
        spans = np.unique(np.minimum(T[i : i + d + 2], cutoff))
        x, w = composite_rule(q, spans)
        funcs += [i] * len(x)
        xs.append(x)
        ws.append(w)
    if funcs:
        values, _ = evaluate_functions(space, funcs, np.concatenate(xs))
        np.add.at(out, funcs, np.concatenate(ws) * values)
    return out


def eval_spline(space: SplineSpace, coeffs, xs) -> np.ndarray:
    """Values at the points ``xs`` of the spline with basis coefficients
    ``coeffs``, as an array of shape ``np.shape(xs)``."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (space.dimension,):
        raise ValueError(
            f"expected {space.dimension} coefficients, got {coeffs.shape}"
        )
    xs = np.asarray(xs, dtype=float)
    first, values, _ = evaluate_many(space, xs.ravel())
    rows = first[:, None] + np.arange(space.degree + 1)
    return (coeffs[rows] * values).sum(axis=1).reshape(xs.shape)
