"""Bit-level pins of the rules the benchmark workloads produce.

Each traced rule is pinned by the SHA-256 of ``nodes.tobytes() +
weights.tobytes()`` and its step count; the hybrid rule by its digest.  A
change meant to be bitwise neutral (a faster kernel, a leaner corrector
step) must pass this file unedited.  A change that moves bits on purpose
re-records the digests here and lists each move in CHANGES.md, as
``tests/test_cli_bytes.py`` does for the CLI bytes.

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
    "d5_c1_N10": ("a8f665bc439f89f2fbf78bcc9450fc4588805af9de5bf9558af5439b94f59dd0", 23),
    "d7_c1_N30": ("27f11e345e14f30d901735134ca0add78ba4682794e3c69baee811e89c9de75c", 29),
    "d9_c1_N20": ("bcdab8986e7bc32c60b20d0905aa6c94c7c2b0713e1facc5f2c08cfdf1d92ef0", 29),
    "d5_c0_N11": ("4df7983ed4f1f04db36c75f3cc736d82b30c378aa1fb36dbe41b61427928b265", 29),
    "d7_c0_N11": ("8df368680915ef9498459e8e41226ca783e4f289e32b120b94c436a04f82430c", 29),
    "d7_varying_N6": ("51a0cdbcf4c1d039512f1edcc5539f19b7396fa3bd8156e41860810213afc2b7", 29),
    "d7_c2_N31": ("8d884494dc9604199b191b402bee8710e19343a79301cee78c30e3e43b2763a5", 29),
    "d7_c3_N31": ("61f5dfbb1a6004fd14e55b76847420aa71fe335535dfe793b33a855df9291796", 23),
    "d9_c0_N7": ("7c66747aca8750e188f0a904695c749f03fc9a1810410f802a5974b84722cd68", 29),
    "d5_c2_N31": ("ac548e94409724d9076e3cd635975adeab1f329e64566d9182922b18663ce8ea", 23),
    "d5_c3_N31": ("a3c75121acf53c11d1ff4f3c2fef817d1d359ea44b0a133048a5993ca135b1ff", 23),
    (5, 1, 5): ("fe61227b383c97ad748e212ccdfdf225c78446019f57b3fdd061aed8e988be01", 29),
    (5, 1, 10): ("a8f665bc439f89f2fbf78bcc9450fc4588805af9de5bf9558af5439b94f59dd0", 23),
    (5, 1, 20): ("609616d9651ff987a50310dc9757c50d3c5c84123654f45325f51f5669691394", 29),
    (5, 1, 40): ("946ad40e389430a8acdd8ba431e4efc66740d892a751008e27fd38a6a4a61b8c", 23),
}

# the perturbed meshes, keyed (degree, continuity, elements), in draw order
PERTURBED = {
    (5, 1, 20): ("9d2823c226c7937e34cd62b69ad768e657af8d936b8f353ccf46a14ff8370bf1", 29),
    (7, 2, 15): ("9791e9b713858b25dc42c4a11461271b80276e113693d6b24db8e1d75e57798a", 29),
    (9, 1, 10): ("8bbe5b604905df81378a448b1f58637e2b23d94a55022efc0c6c58792f113cf3", 29),
}

HYBRID_5_0_251 = "f9a9656460016ccb7a7125e2fed9e85c35f84a0724d7e47129b4b37a75834776"


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
