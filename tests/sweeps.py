"""Seeded robustness sweeps of the tracker.

Two generators of target spaces that stress the corrector:

- ``far_intervals``: short uniform intervals far from the origin, where the
  knots carry an error of about eps * max(|a|, |b|).  Draw ``k`` uses
  ``default_rng(10000 + k)``; of the first 140 draws, 96 give a space with
  an optimal rule.
- ``multiplicity_meshes``: random element widths in [0.2, 1] with random
  interior multiplicities 1..d, the paper's non-uniform multiplicities.
  Seed ``s`` uses ``default_rng(s)``; draws of odd dimension are skipped.

- ``uniform_reach``: every uniform space of odd degree d <= 21, continuity
  c < d and N = 5..41 elements that has an even dimension, 3,289 spaces;
  the reach of the tracker at high degree.  It takes a few minutes, so no
  test runs it.

``python tests/sweeps.py`` (with ``src`` on ``PYTHONPATH``) traces the
three sweeps and prints stalls (each with the cause of the limit solve's
refusal, None where none was refused), corrector failures, steps, basis
evaluations and ``finalize_limit`` calls, for comparing two versions of
the tracker; then it lists the odd pairs (d, c) with d <= 21 that have no
asymptotic pattern.
"""

from __future__ import annotations

from typing import Iterator
from unittest import mock

import numpy as np

from splinegauss import (
    KnotVector,
    NewtonFailure,
    ParityError,
    SplineSpace,
    asymptotic_rule,
    basis,
    continuation,
    source_space,
    trace,
    uniform_space,
)

FAR_DRAWS = 140
MULTIPLICITY_MESHES = 120
MAX_DEGREE = 21


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


def uniform_reach(
    max_degree: int = MAX_DEGREE, elements: range = range(5, 42)
) -> Iterator[tuple[tuple[int, int, int], SplineSpace]]:
    """``((d, c, N), space)`` for every odd d <= ``max_degree``, c < d and N
    in ``elements`` whose uniform space has an even dimension."""
    for d in range(1, max_degree + 1, 2):
        for c in range(d):
            for n in elements:
                space = uniform_space(d, c, n)
                if space.dimension % 2 == 0:
                    yield (d, c, n), space


def missing_patterns(max_degree: int = MAX_DEGREE) -> list:
    """``((d, c), message)`` for each odd pair with d <= ``max_degree`` and
    c < d whose asymptotic pattern fails to solve."""
    missing = []
    for d in range(1, max_degree + 1, 2):
        for c in range(d):
            try:
                asymptotic_rule(d, c)
            except ValueError as exc:
                missing.append(((d, c), str(exc)))
    return missing


def sweep(cases) -> dict:
    """Trace every ``(key, space)``: the stalled keys, each paired with the
    cause of its last refused limit solve (None if none was refused), and
    the totals of corrector failures, steps, basis evaluations and limit
    solves."""
    stalled, failures, steps, refused = [], 0, 0, []
    finalize_limit = continuation.finalize_limit

    def limit(target, rule):
        try:
            return finalize_limit(target, rule)
        except NewtonFailure as exc:
            refused.append(exc.cause)
            raise

    with (
        mock.patch.object(basis, "evaluate_many", wraps=basis.evaluate_many)
        as evaluations,
        mock.patch.object(continuation, "finalize_limit", side_effect=limit)
        as limits,
    ):
        for key, space in cases:
            refused.clear()
            res = trace(space)
            if not res.converged:
                stalled.append((key, refused[-1] if refused else None))
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
        ("uniform reach", uniform_reach()),
    ):
        cases = list(cases)
        print(f"{name} ({len(cases)} spaces): {sweep(cases)}", flush=True)
    print(f"pairs without a pattern: {missing_patterns()}")
