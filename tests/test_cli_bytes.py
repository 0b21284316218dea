"""The README command-line examples keep their bytes.

Each example runs in-process through ``cli.main``; the SHA-256 of its
stdout, and of the matrix files ``assemble`` writes, must equal the value
recorded here.  This is the byte-identical promise of ROADMAP.md, checked
on every run instead of by hand.  The ``asymptotic`` and ``hybrid`` values
date from before the asymptotic patterns were placed by one tiling
function.  The ``rule``, ``validate`` and ``assemble`` values were
re-recorded when every solver began to stop on the max defect relative
to the interval's end points: one node of ``rule`` moved by one ulp and
the matrix entries by at most 6.2e-16 of the largest entry.  The
``asymptotic-solve`` value was re-recorded when the periodic solve began
to start from a traced rule: it stops at another root within rounding,
and the nodes and weights of degree 7, C^1 moved by at most 2.2e-16.

Every value but ``asymptotic`` was re-recorded when the corrector began
to stop before t = 1 at the path accuracy ``1e-8 (b - a)`` instead of at
rounding.  The traced rules, and so the reference traces of ``hybrid``
and the seed of the periodic solve, moved in their last bits:
``rule`` by at most 1 ulp in 3 of its 42 values (still 23 steps),
``hybrid`` by at most 1 ulp in 4 of 506, ``asymptotic-solve`` by at most
2 ulp in 3 of 6; the ``residual_norm`` of ``validate`` went from
2.7436e-17 to 2.7501e-17; the ``assemble`` matrices moved by at most
8.7e-16 of their largest entry (150 of the mass and 165 of the stiffness
entries), and the report's mass and stiffness differences went from
6.9e-16 and 7.4e-16 to 5.8e-16 and 8.6e-16.
The document writers that changed with it (one encoder call per number
list, one basis evaluation per ``validate``) kept every byte.
"""

import hashlib

import pytest

from splinegauss.cli import main

RULE = ["rule", "-d", "5", "-c", "1", "-N", "10"]
ASSEMBLE = ["assemble", "-p", "3", "-k", "2", "-l", "1", "-N", "30"]

COMMANDS = {
    "rule": RULE,
    "rule-csv": RULE + ["--format", "csv"],
    "asymptotic": ["asymptotic", "-d", "7", "-c", "1"],
    "asymptotic-solve": ["asymptotic", "-d", "7", "-c", "1", "--solve"],
    "hybrid": [
        "hybrid", "-d", "5", "-c", "0", "-N", "101", "--boundary-depth", "1"
    ],
}

SHA256 = {
    "rule": "4efbfb1195ed7b9436d97f09729960f7a9e9b65ebd60240999be90f1512d9ee7",
    "rule-csv": "45305d162a5e2883f992d7700f1e99e99fd817d545b47195145fb36684f8e4aa",
    "asymptotic": "07f1ac1d08501cfd096f5437ffab8c54fb811f6888ae105fa75773c39a48d80b",
    "asymptotic-solve": (
        "c218f1a9ba18af744d6ab257a4baf5514f7784b29b162f82ce650474f23c2057"
    ),
    "hybrid": "4e8d07e915a2693ac47ecf6718ae2ea5da508a7799857571646d78eee34b6338",
    "validate": "e36060453c531ed4ed4ab0d7d9d5e677e6c67a1c8591d36ee5af4610f9c24587",
    "assemble": "ce3084ba15b06c109db5c86674c56b921f5b86589dc6b2795ccd2c562244d8d9",
    "run_mass.csv": "793b830eec909aeedf3ce932e3a3ed632c4921c13d374f7a0eaeb61ef78ff495",
    "run_stiffness.csv": (
        "516124bae666847fc1e89e0ff25112b4a9fed80017c6d0d74380c3c89851193b"
    ),
    "run_mass.txt": "64f68817bd410ff6ec97d62d16e22514ffdc6daf7809fc54cad913ac94d3c3d9",
    "run_stiffness.txt": (
        "e3c412176c7e4be9837d57e6ce926fd7d8f1ede192dad9aad9a2c6a44f3ded1d"
    ),
}


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def run(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    return out


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_stdout_bytes(capsys, name):
    assert sha256(run(capsys, COMMANDS[name])) == SHA256[name]


def test_validate_bytes(capsys, tmp_path):
    path = tmp_path / "out.json"
    path.write_text(run(capsys, RULE))
    assert sha256(run(capsys, ["validate", str(path)])) == SHA256["validate"]


@pytest.mark.parametrize("coo", [False, True], ids=["dense", "coo"])
def test_assemble_bytes(capsys, tmp_path, coo):
    argv = ASSEMBLE + ["--out-prefix", str(tmp_path / "run")]
    out = run(capsys, argv + ["--coo"] * coo)
    assert sha256(out) == SHA256["assemble"]
    suffix = "txt" if coo else "csv"
    for name in (f"run_mass.{suffix}", f"run_stiffness.{suffix}"):
        assert sha256((tmp_path / name).read_text()) == SHA256[name]
