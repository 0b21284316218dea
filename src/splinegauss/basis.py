"""B-spline basis evaluation, derivatives, and exact integrals.

Normalized B-splines over the expanded knot list of a
:class:`~splinegauss.knots.SplineSpace`.  Evaluation uses the triangular
recurrence with the right-limit convention at knots (left limit at the
right end of the supported region).  Each basis function integrates to
``support / (degree + 1)`` over its full support, and to that times a sum
of degree ``d + 1`` B-spline values over a cut one.
"""

from __future__ import annotations

import numpy as np

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
    # below the right end; counting only the knots between them puts fuzzed
    # points and the right end (left limit) on them and skips repeated knots
    first = knots.searchsorted(lo_u, side="right") - 1
    last = knots.searchsorted(hi_u, side="left") - 1
    return first + knots[first + 1 : last + 1].searchsorted(xs, side="right")


def evaluate_many(
    space: SplineSpace, xs
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nonzero basis values and first derivatives at every point of ``xs``.

    Returns ``(first, values, derivatives)`` of shapes ``(n,)``,
    ``(n, d+1)`` and ``(n, d+1)``, C-contiguous: row ``p`` belongs to basis
    functions ``first[p] .. first[p] + d`` at ``xs[p]``.  The triangular
    recurrence runs function-major: the knot differences are ``(d, n)``
    rows, and one ``(d + 1, n)`` table, entry ``i`` of every point in row
    ``i``, is filled in place level by level, so a level is a few array
    operations on contiguous row blocks and a call costs O(d) of them; the
    derivatives fill a second such table, and one transposing copy returns
    both.  Each entry takes the operations of the classic one-point
    recurrence (*The NURBS Book*, A2.2) in the same order, so a row does
    not depend on the other points of the batch.  Raises ``ValueError`` if
    any point lies outside the supported region.
    """
    d = space.degree
    T = space.expanded
    xs = np.asarray(xs, dtype=float)
    k = _spans(T, d, xs)
    # knots[r] = T[k+1-d+r], r = 0 .. 2d-1, one row per offset
    knots = T[k + np.arange(1 - d, d + 1)[:, None]]
    left = xs - knots[:d]  # left[d-j] = u - T[k+1-j]
    right = knots[d:] - xs  # right[j-1] = T[k+j] - u

    # level j fills rows d-j .. d with the degree-j values of functions
    # k-j .. k; entry i is right[i]*temp[i] + left[d-j+i]*temp[i-1], its
    # first term added to the row's initial zero and its second absent at
    # i = j, as in the one-point recurrence
    table = np.zeros((2, d + 1, len(xs)))
    level, slopes = table
    level[d] = 1.0
    for j in range(1, d + 1):
        below, above = level[d - j + 1 :], level[d - j : d]
        if j == d:
            # derivative of function k-d+r from the degree d-1 values B:
            # d * (B_{r-1} / (T[k+r] - T[k-d+r]) - B_r / (T[k+r+1] - T[k-d+r+1])),
            # a missing B counting as zero; each knot difference spans the
            # nonempty span [T[k], T[k+1]], so none is zero
            quot = below / (knots[d:] - knots[:d])
            slopes[1:] = quot
            slopes[:d] -= quot
            slopes *= d
        temp = below / (right[:j] + left[d - j :])
        np.multiply(left[d - j :], temp, out=below)
        np.add(above, np.multiply(right[:j], temp, out=temp), out=above)
    values, derivatives = table.transpose(0, 2, 1).copy()
    return k - d, values, derivatives


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

    Supports entirely below the cutoff use the closed form.  A cut one
    takes its full integral times ``sum_{j >= i} C_j(cutoff)``, with ``C_j``
    the degree ``d + 1`` B-splines on the knots with ``d + 2`` copies of the
    last appended (de Boor, *A Practical Guide to Splines*, ch. X); the
    classic one-point recurrence in Python floats gives these values in a
    third of the batched kernel's time.  Raises ``ValueError`` for a
    cutoff below ``T[d]``.
    """
    d = space.degree
    T = space.expanded
    out = integrals(space)
    cut = np.flatnonzero(T[d + 1 : d + 1 + space.dimension] > cutoff)
    if len(cut):
        x = float(cutoff)
        k = int(T.searchsorted(x, side="right")) - 1  # x in [T[k], T[k+1])
        if k < d:
            raise ValueError(f"cutoff {x} below the supported region")
        knots = np.append(T, np.full(d + 2, T[-1]))[k - d : k + d + 2].tolist()
        left, right = [x - z for z in knots[d::-1]], [z - x for z in knots[d + 1 :]]
        values = [1.0]  # C_{k-d-1} .. C_{k} at x (The NURBS Book, A2.2)
        for j in range(1, d + 2):
            saved = 0.0
            for r in range(j):
                temp = values[r] / (right[r] + left[j - r - 1])
                values[r] = saved + right[r] * temp
                saved = left[j - r - 1] * temp
            values.append(saved)
        suffix = np.append(np.cumsum(values[::-1])[::-1], 0.0)  # C_{k-d-1+s} on
        out[cut] *= suffix[np.clip(cut - (k - d - 1), 0, d + 2)]
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
