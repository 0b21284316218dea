"""Seeded robustness sweeps of the tracker.

Two generators of target spaces that stress the corrector:

- ``far_intervals``: short uniform intervals far from the origin, where the
  knots carry an error of about eps * max(|a|, |b|).  Draw ``k`` uses
  ``default_rng(10000 + k)``; of the first 140 draws, 96 give a space with
  an optimal rule.
- ``multiplicity_meshes``: random element widths in [0.2, 1] with random
  interior multiplicities 1..d, the paper's non-uniform multiplicities.
  Seed ``s`` uses ``default_rng(s)``; draws of odd dimension are skipped.

``python tests/sweeps.py`` (with ``src`` on ``PYTHONPATH``) traces both
sweeps and prints stalls, corrector failures, steps, basis evaluations and
``finalize_limit`` calls, for comparing two versions of the tracker.
"""

from __future__ import annotations

from typing import Iterator
from unittest import mock

import numpy as np

from splinegauss import (
    KnotVector,
    ParityError,
    SplineSpace,
    basis,
    continuation,
    source_space,
    trace,
    uniform_space,
)

FAR_DRAWS = 140
MULTIPLICITY_MESHES = 120


def far_intervals(draws: int = FAR_DRAWS) -> Iterator[tuple[int, SplineSpace]]:
    """``(k, space)`` for each of the first ``draws`` draws that has an
    optimal rule: d in {5, 7, 9}, c < d, N in 2..8, a in (-1e6, 1e6) and
    length 10^U(-6, -2), drawn in that order."""
    for k in range(draws):
        rng = np.random.default_rng(10000 + k)
        d = int(rng.choice([5, 7, 9]))
        c = int(rng.integers(0, d))
        n = int(rng.integers(2, 9))
        a = rng.uniform(-1e6, 1e6)
        length = 10 ** rng.uniform(-6, -2)
        try:
            space = uniform_space(d, c, n, (a, a + length))
            source_space(space)
        except (ParityError, ValueError):
            continue
        yield k, space


def multiplicity_meshes(
    count: int = MULTIPLICITY_MESHES,
) -> Iterator[tuple[int, SplineSpace]]:
    """``(s, space)`` for the first ``count`` seeds of even dimension: d in
    {5, 7, 9}, N in 4..29, widths U(0.2, 1) and interior multiplicities
    1..d, drawn in that order."""
    found, s = 0, 0
    while found < count:
        rng = np.random.default_rng(s)
        d = int(rng.choice([5, 7, 9]))
        n = int(rng.integers(4, 30))
        h = rng.uniform(0.2, 1.0, n)
        interior = rng.integers(1, d + 1, n - 1).tolist()
        breaks = np.concatenate([[0.0], np.cumsum(h)])
        space = SplineSpace(d, KnotVector(breaks, [d + 1, *interior, d + 1]))
        if space.dimension % 2 == 0:
            found += 1
            yield s, space
        s += 1


def sweep(cases) -> dict:
    """Trace every ``(key, space)``: the stalled keys and the totals of
    corrector failures, steps, basis evaluations and limit solves."""
    stalled, failures, steps = [], 0, 0
    with (
        mock.patch.object(basis, "evaluate_many", wraps=basis.evaluate_many)
        as evaluations,
        mock.patch.object(
            continuation, "finalize_limit", wraps=continuation.finalize_limit
        ) as limits,
    ):
        for key, space in cases:
            res = trace(space)
            if not res.converged:
                stalled.append(key)
            failures += res.newton_failures
            steps += res.steps_taken
    return {
        "stalled": stalled,
        "newton_failures": failures,
        "steps": steps,
        "basis_evaluations": evaluations.call_count,
        "finalize_limit_calls": limits.call_count,
    }


if __name__ == "__main__":
    for name, cases in (
        ("far intervals", far_intervals()),
        ("multiplicity meshes", multiplicity_meshes()),
    ):
        cases = list(cases)
        print(f"{name} ({len(cases)} spaces): {sweep(cases)}")
