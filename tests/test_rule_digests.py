"""Bit-level pins of the rules the benchmark workloads produce.

Each traced rule is pinned by the SHA-256 of ``nodes.tobytes() +
weights.tobytes()`` and its step count; the hybrid rule by its digest.  A
change meant to be bitwise neutral (a faster kernel, a leaner corrector
step) must pass this file unedited.  A change that moves bits on purpose
re-records the digests here and lists each move in CHANGES.md, as
``tests/test_cli_bytes.py`` does for the CLI bytes.  Every digest was
re-recorded when the cut integrals became exact and the predictor began
to extrapolate the last three roots: rules moved by at most 1.8e-16 of
``b - a``, with the same step counts.

Spaces: the 11 golden tables, the three perturbed meshes of the
trace-golden benchmark workload at seed 1, uniform C1 quintics at
N = 5, 10, 20, 40 (trace-uniform-scaling) and ``hybrid_rule(5, 0, 251)``
(mesh-pipeline).
"""

import hashlib

import numpy as np
import pytest

from splinegauss import KnotVector, SplineSpace, hybrid_rule, trace

from tracing import get_trace

# digest and step count of each traced rule
TRACES = {
    "d5_c1_N10": ("a49ac1280f631001439e735392c13e8456ed2a85dfca20e28fa3ed0f897a7563", 23),
    "d7_c1_N30": ("b645b22402fcaf89037b6a37bc85baec2402c349268202a08888ee6d053314c6", 29),
    "d9_c1_N20": ("bca87e4953446d0c7dfdca8cf7a4d08d5c2bb5931e31005416023770a62a75bf", 29),
    "d5_c0_N11": ("8c2fb7ddd3f1d3e8b1f8f1979c297ec567cfff053c4787ae8757f3b68a28491e", 29),
    "d7_c0_N11": ("4c005e5d5263d5c74dbed9bb798febfda6eb1fb08def122101e514266e4939e1", 29),
    "d7_varying_N6": ("90f65865e4612a4b3692321eb47b0ce6f272989ad36197e46425a77013c7896a", 29),
    "d7_c2_N31": ("50a2b30b287ea6995a2bf53c37c7c4b69718c2fa83b1eef5517204f4117f2a3f", 29),
    "d7_c3_N31": ("c80a7d843f390b13da2d26bcf9afc01d7be488af677d2062328db73dcdc8ecca", 23),
    "d9_c0_N7": ("a6a559a54447ed9129eb054a23e4bfb31ad6d9e513b7c82241a8fc90f0cef7e4", 29),
    "d5_c2_N31": ("9e924e36fe986b8f05a68efdb744b0fde6e9a3888fb99e060e329c43985cbd90", 23),
    "d5_c3_N31": ("746630919b9d1b79382a0fbaca0c09a22f3cd1cb437f108ba301df747e577ed4", 23),
    (5, 1, 5): ("392fc53ff2dab274f2711b9dce2322a1b90241bb90132deb037536f34e648c49", 29),
    (5, 1, 10): ("a49ac1280f631001439e735392c13e8456ed2a85dfca20e28fa3ed0f897a7563", 23),
    (5, 1, 20): ("3bfe7ab38cc4228289b33e0cb672b72b3390f9e0bc5db43f439dc593685883ac", 29),
    (5, 1, 40): ("dda623733229167ecea41c4d4d1ea0f30b6148303e9a86424ff6264a57e15a3c", 23),
}

# the perturbed meshes, keyed (degree, continuity, elements), in draw order
PERTURBED = {
    (5, 1, 20): ("5f4a94698f7d6d4e794307134f96643d0dee8b8e42e74409b08be1a34f4a477f", 29),
    (7, 2, 15): ("6e1e12fa714387a1a69f4a7afb5ffcad2455fdc9d8be5281b4cf66d40868e91f", 29),
    (9, 1, 10): ("d20f78f11bc720d259edc64c291f77ec9b449d345f49ad68fc6a9627087139d5", 29),
}

HYBRID_5_0_251 = "6c6fa4b9f7cd2b684777c501777267d757aab2805a36d974f9c042c2ac3bd7ae"


def digest(rule) -> str:
    return hashlib.sha256(rule.nodes.tobytes() + rule.weights.tobytes()).hexdigest()


def perturbed_spaces(seed: int = 1) -> dict:
    """The non-uniform meshes of the trace-golden workload: element widths
    drawn from U(0.7, 1.3), one generator for all three meshes."""
    rng = np.random.default_rng(seed)
    spaces = {}
    for d, c, n in PERTURBED:
        breaks = np.concatenate([[0.0], np.cumsum(rng.uniform(0.7, 1.3, n))])
        mults = [d + 1] + [d - c] * (n - 1) + [d + 1]
        spaces[d, c, n] = SplineSpace(d, KnotVector(breaks, mults))
    return spaces


@pytest.mark.parametrize("key", list(TRACES), ids=str)
def test_traced_rule_bits(key):
    result = get_trace(key)
    assert (digest(result.rule), result.steps_taken) == TRACES[key]


def test_perturbed_mesh_rule_bits():
    got = {}
    for key, space in perturbed_spaces().items():
        result = trace(space)
        got[key] = (digest(result.rule), result.steps_taken)
    assert got == PERTURBED


def test_hybrid_rule_bits():
    assert digest(hybrid_rule(5, 0, 251)) == HYBRID_5_0_251
