"""Knot vectors, spline spaces, and the source/target knot transformation.

A spline space on ``[a, b]`` is described by ascending breakpoints with one
multiplicity per breakpoint.  The quadrature machinery deforms a maximally
discontinuous source space into a requested target space by moving knots
along straight-line (geodesic) paths; these paths and the intermediate
collapsed spaces are constructed here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
import math
import operator

import numpy as np

__all__ = [
    "KnotVector",
    "SplineSpace",
    "KnotPath",
    "ParityError",
    "open_space",
    "uniform_space",
    "source_space",
    "knot_path",
    "space_at",
]

# Two path knots closer than this (relative to the interval width) are
# collapsed into a single breakpoint.  Geodesic pairing keeps coincident
# groups exactly equal in exact arithmetic; this only absorbs rounding.
COINCIDENCE_REL_TOL = 1e-12


class ParityError(ValueError):
    """Requested space cannot carry an optimal rule with dim/2 nodes."""


@dataclass(frozen=True)
class KnotVector:
    """Breakpoint partition plus per-breakpoint multiplicities.

    Attributes
    ----------
    breaks : tuple of float
        Strictly increasing breakpoints, at least two.
    mults : tuple of int
        Positive multiplicity of each breakpoint.
    """

    breaks: tuple[float, ...]
    mults: tuple[int, ...]

    def __init__(self, breaks, mults):
        breaks = tuple(map(float, breaks))
        mults = tuple(map(int, mults))
        if len(breaks) != len(mults):
            raise ValueError("breaks and mults must have equal length")
        if len(breaks) < 2:
            raise ValueError("need at least two breakpoints")
        if not all(map(math.isfinite, breaks)):
            raise ValueError("breaks must be finite")
        if any(map(operator.ge, breaks, breaks[1:])):
            raise ValueError("breaks must be strictly increasing")
        if min(mults) < 1:
            raise ValueError("multiplicities must be positive")
        object.__setattr__(self, "breaks", breaks)
        object.__setattr__(self, "mults", mults)

    @property
    def cardinality(self) -> int:
        """Total number of knots counting multiplicity."""
        return sum(self.mults)

    @property
    def a(self) -> float:
        return self.breaks[0]

    @property
    def b(self) -> float:
        return self.breaks[-1]

    @cached_property
    def expanded(self) -> np.ndarray:
        """Knots repeated according to multiplicity, ascending."""
        out = np.repeat(np.asarray(self.breaks), np.asarray(self.mults))
        out.flags.writeable = False
        return out

    def to_dict(self, degree: int | None = None) -> dict:
        doc = {"breaks": list(self.breaks), "mults": list(self.mults)}
        if degree is not None:
            doc = {"degree": degree, **doc}
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "KnotVector":
        return cls(doc["breaks"], doc["mults"])


@dataclass(frozen=True)
class SplineSpace:
    """Piecewise polynomials of fixed degree with knot-controlled smoothness.

    Smoothness at breakpoint ``x_k`` is ``C^(degree - mults[k])``.  The
    quadrature pipeline uses odd degrees; even degrees are permitted so the
    same evaluation code serves Galerkin trial spaces.
    """

    degree: int
    knots: KnotVector

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("degree must be non-negative")
        if max(self.knots.mults) > self.degree + 1:
            raise ValueError(
                f"multiplicity exceeds degree+1 = {self.degree + 1}: "
                f"{self.knots.mults}"
            )
        n, T = self.dimension, self.expanded  # the basis sums to one on [T[d], T[n]]
        if n < 1 or T[self.degree] >= T[n]:
            raise ValueError(f"no interval is supported: knots {T.tolist()}")

    @property
    def dimension(self) -> int:
        """Number of basis functions: cardinality minus (degree+1)."""
        return self.knots.cardinality - (self.degree + 1)

    @property
    def interval(self) -> tuple[float, float]:
        return (self.knots.a, self.knots.b)

    @property
    def is_open(self) -> bool:
        """Both end multiplicities equal degree+1."""
        return (
            self.knots.mults[0] == self.degree + 1
            and self.knots.mults[-1] == self.degree + 1
        )

    @property
    def num_elements(self) -> int:
        return len(self.knots.breaks) - 1

    @cached_property
    def expanded(self) -> np.ndarray:
        return self.knots.expanded

    def to_dict(self) -> dict:
        return self.knots.to_dict(degree=self.degree)

    @classmethod
    def from_dict(cls, doc: dict) -> "SplineSpace":
        return cls(int(doc["degree"]), KnotVector.from_dict(doc))


def open_space(degree: int, continuity: int, breaks) -> SplineSpace:
    """Open space on ``breaks`` with the same continuity at every interior
    breakpoint: end multiplicities ``degree + 1``, interior ones
    ``degree - continuity``.
    """
    if not -1 <= continuity <= degree - 1:
        raise ValueError(
            f"continuity must lie in [-1, degree-1]; got {continuity}"
        )
    mults = [degree + 1] + [degree - continuity] * (len(breaks) - 2) + [degree + 1]
    return SplineSpace(degree, KnotVector(breaks, mults))


def uniform_space(
    degree: int,
    continuity: int,
    num_elements: int,
    interval: tuple[float, float] | None = None,
) -> SplineSpace:
    """Open space with uniform elements and uniform interior continuity.

    Interior multiplicities are ``degree - continuity``; the default
    interval is ``[0, num_elements]`` so elements have unit width.
    """
    if num_elements < 1:
        raise ValueError("need at least one element")
    if interval is None:
        interval = (0.0, float(num_elements))
    a, b = map(float, interval)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"interval end points must be finite; got {(a, b)}")
    return open_space(degree, continuity, np.linspace(a, b, num_elements + 1))


def source_space(target: SplineSpace) -> SplineSpace:
    """Discontinuous uniform space whose optimal rule is per-element Gauss.

    Picks the smallest element count ``n`` with ``n*(degree+1) >= dim`` so
    the source has at most ``degree - 1`` redundant basis functions.  The
    redundancy must be even, otherwise no optimal rule with ``dim/2`` nodes
    exists for the target.
    """
    d = target.degree
    if d % 2 == 0:
        raise ValueError(f"degree must be odd for optimal rules; got {d}")
    if not target.is_open:
        raise ValueError("target space must have an open knot vector")
    dim = target.dimension
    if dim % 2 != 0:
        raise ParityError(
            f"target dimension {dim} is odd, so no optimal rule with dim/2 "
            "nodes exists; for spaces of even uniform continuity choose an "
            "odd number of elements"
        )
    return uniform_space(d, -1, math.ceil(dim / (d + 1)), target.interval)


@dataclass(frozen=True)
class KnotPath:
    """Index-wise linear interpolation between sorted knot multisets.

    ``source_knots`` and ``target_knots`` have identical length; knot ``i``
    moves on the straight segment between its two endpoints.  The target
    multiset is the target space's knots augmented with ``extra`` copies of
    one external position past the right end, so the multisets match.
    """

    degree: int
    source_knots: np.ndarray
    target_knots: np.ndarray
    extra: int
    external_position: float

    def __post_init__(self):
        if self.source_knots.shape != self.target_knots.shape:
            raise RuntimeError(
                "internal error: source/target knot multisets differ in size"
            )
        self.source_knots.flags.writeable = False
        self.target_knots.flags.writeable = False

    @property
    def interval(self) -> tuple[float, float]:
        return (float(self.source_knots[0]), float(self.source_knots[-1]))

    def knots_at(self, t: float) -> np.ndarray:
        """Knot multiset at path time ``t`` in [0, 1]."""
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"path time must lie in [0, 1]; got {t}")
        return (1.0 - t) * self.source_knots + t * self.target_knots


def knot_path(source: SplineSpace, target: SplineSpace) -> KnotPath:
    """Geodesic path from the source knots to the augmented target knots.

    The ``r`` surplus source knots travel to ``b + (b - a)/N`` (one average
    element beyond the right end), where ``N`` is the number of target
    elements; everything else pairs up index-wise on the ascending sorts.
    """
    r = source.dimension - target.dimension
    if r < 0 or r % 2 != 0:
        raise RuntimeError(
            f"internal error: redundancy {r} invalid; source must come from "
            "source_space(target)"
        )
    a, b = target.interval
    ext = b + (b - a) / target.num_elements
    src = np.sort(source.expanded)
    tgt = np.sort(np.concatenate([target.expanded, np.full(r, ext)]))
    return KnotPath(
        degree=target.degree,
        source_knots=src,
        target_knots=tgt,
        extra=r,
        external_position=ext,
    )


def space_at(path: KnotPath, t: float) -> SplineSpace:
    """Spline space spanned by the path's knot multiset at time ``t``.

    Knots closer than the coincidence tolerance collapse into a single
    breakpoint whose multiplicity is the group size; a group larger than
    ``degree + 1`` indicates an invalid transformation and raises.
    """
    knots = path.knots_at(t)
    a, b = path.interval
    tol = COINCIDENCE_REL_TOL * (b - a)
    # a group runs while its knots lie at most tol above its first knot: a
    # gap above tol ends it, and a group of unequal knots (rare, as coincident
    # knots move together) is split at its first knot beyond tol until none is
    gaps = knots[1:] - knots[:-1]
    starts = np.flatnonzero(np.concatenate(([np.inf], gaps)) > tol)
    while np.count_nonzero(gaps) >= len(starts):  # unequal knots in a group
        ends = np.concatenate((starts[1:], [len(knots)]))
        wide = np.flatnonzero(knots[ends - 1] - knots[starts] > tol)
        if not len(wide):
            break
        splits = [g + np.argmax(knots[g:e] - knots[g] > tol)
                  for g, e in zip(starts[wide], ends[wide])]
        starts = np.sort(np.concatenate((starts, splits)))
    mults = np.concatenate((starts[1:], [len(knots)])) - starts
    if mults.max() > path.degree + 1:
        raise ValueError(
            f"knot collapse produced multiplicity above degree+1 at t={t}"
        )
    return SplineSpace(
        path.degree, KnotVector(knots[starts].tolist(), mults.tolist())
    )
