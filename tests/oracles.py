"""Independent reference implementations used only by the tests.

These deliberately avoid the package's own algorithms: basis values come
from confluent divided differences of truncated powers, Gauss nodes from
the Jacobi-matrix eigenvalue method, and integrals from heavy per-span
Gauss quadrature of the evaluated functions.  The one exception is the
classic scalar basis recurrence in Python floats, the reference for the
bits of the package's batched kernel.
"""

from __future__ import annotations

import bisect
import math

import mpmath
import numpy as np


def truncated_power_divided_difference(window, degree: int, x: float) -> float:
    """Divided difference over ``window`` of u -> (u - x)_+^degree.

    Repeated knots are handled confluently via derivatives in u.
    """
    window = [float(u) for u in window]

    def deriv(u: float, m: int) -> float:
        # m-th u-derivative of (u - x)_+^degree
        if m > degree or u < x or (u == x and degree - m > 0):
            return 0.0
        coeff = math.factorial(degree) / math.factorial(degree - m)
        return coeff * (u - x) ** (degree - m)

    n = len(window)
    table = [[0.0] * n for _ in range(n)]
    for span in range(n):
        for i in range(n - span):
            j = i + span
            if window[i] == window[j]:
                table[i][j] = deriv(window[i], span) / math.factorial(span)
            else:
                table[i][j] = (table[i + 1][j] - table[i][j - 1]) / (
                    window[j] - window[i]
                )
    return table[0][n - 1]


def bspline_value(expanded_knots, degree: int, i: int, x: float) -> float:
    """Normalized B-spline ``i`` at ``x`` via divided differences."""
    window = expanded_knots[i : i + degree + 2]
    span = window[-1] - window[0]
    return span * truncated_power_divided_difference(window, degree, x)


def golub_welsch(q: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights from the Jacobi matrix eigenproblem."""
    if q == 1:
        return np.array([0.0]), np.array([2.0])
    k = np.arange(1, q)
    beta = k / np.sqrt(4.0 * k * k - 1.0)
    jac = np.diag(beta, 1) + np.diag(beta, -1)
    nodes, vecs = np.linalg.eigh(jac)
    weights = 2.0 * vecs[0, :] ** 2
    return nodes, weights


def heavy_gauss_integral(f, a: float, b: float, spans=None, q: int = 64):
    """Integral of ``f`` on [a, b] by q-point Gauss on each span."""
    nodes, weights = golub_welsch(q)
    if spans is None:
        spans = [(a, b)]
    total = 0.0
    for xl, xr in spans:
        xl, xr = max(xl, a), min(xr, b)
        if xr <= xl:
            continue
        mid, half = 0.5 * (xl + xr), 0.5 * (xr - xl)
        total += half * sum(w * f(mid + half * x) for x, w in zip(nodes, weights))
    return total


def classic_basis_row(expanded_knots, degree: int, u: float):
    """``(first, values, derivatives)`` at ``u`` by the classic one-point
    recurrence in Python floats: the span search, *The NURBS Book* A2.2
    ``BasisFuns`` and the derivative quotient of the degree ``d - 1``
    values, each operation written out in the order of the scalar
    algorithm.

    The span is the last ``k`` with ``T[k] <= u``, clamped to the nonempty
    spans of the supported region ``[T[d], T[n]]``, so the right end takes
    the left limit.
    """
    T = [float(x) for x in expanded_knots]
    d, u = degree, float(u)
    lo, hi = T[d], T[len(T) - d - 1]
    first = bisect.bisect_right(T, lo) - 1
    last = bisect.bisect_left(T, hi) - 1
    k = min(max(bisect.bisect_right(T, u) - 1, first), last)
    left = [0.0] * (d + 1)
    right = [0.0] * (d + 1)
    N = [1.0] + [0.0] * d
    below = N[:1]
    for j in range(1, d + 1):
        left[j] = u - T[k + 1 - j]
        right[j] = T[k + j] - u
        below = N[:j]
        saved = 0.0
        for r in range(j):
            temp = N[r] / (right[r + 1] + left[j - r])
            N[r] = saved + right[r + 1] * temp
            saved = left[j - r] * temp
        N[j] = saved
    if d == 0:
        return k, N, [0.0]
    # d * (B[r-1] / (T[k+r] - T[k-d+r]) - B[r] / (T[k+r+1] - T[k-d+r+1]))
    # with the degree d-1 values B, a missing B counting as 0.0
    quot = [below[r] / (T[k + 1 + r] - T[k - d + 1 + r]) for r in range(d)]
    padded = [0.0] + quot + [0.0]
    derivs = [d * (padded[r] - padded[r + 1]) for r in range(d + 1)]
    return k - d, N, derivs


def cut_integral_mp(expanded_knots, degree: int, i: int, cutoff: float) -> float:
    """Integral of B-spline ``i`` up to ``cutoff`` to 40 digits.

    The Cox-de Boor recursion in ``mpmath`` on the function's ``degree + 2``
    knots, integrated span by span, each span cut at ``cutoff``, with the
    Gauss-Legendre rule of ``mpmath`` exact through the degree.
    """
    with mpmath.workdps(40):
        T = [mpmath.mpf(float(u)) for u in expanded_knots[i : i + degree + 2]]
        nodes, weights = mpmath.mp.gauss_quadrature(degree // 2 + 1, "legendre")
        total = mpmath.mpf(0)
        for xl, xr in zip(T, T[1:]):
            xr = min(xr, mpmath.mpf(float(cutoff)))
            if xr <= xl:
                continue
            mid, half = (xl + xr) / 2, (xr - xl) / 2
            total += half * sum(
                w * _cox_de_boor(T, degree, mid + half * x)
                for x, w in zip(nodes, weights)
            )
        return float(total)


def _cox_de_boor(T, degree: int, x):
    """B-spline on the knots ``T`` (``degree + 2`` of them) at ``x``, by
    the Cox-de Boor recursion; a term over a zero knot difference is 0."""

    def term(num, den, value):
        return num / den * value if den else 0

    B = [1 if T[j] <= x < T[j + 1] else 0 for j in range(degree + 1)]
    for p in range(1, degree + 1):
        B = [
            term(x - T[j], T[j + p] - T[j], B[j])
            + term(T[j + p + 1] - x, T[j + p + 1] - T[j + 1], B[j + 1])
            for j in range(degree + 1 - p)
        ]
    return B[0]
