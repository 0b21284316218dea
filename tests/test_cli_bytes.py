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

Every value but ``asymptotic`` was re-recorded again when the integrals of
the supports cut at ``b`` became exact and the corrector's predictor
began to extrapolate the last three roots.  ``rule`` moved by at most
2 ulp in 7 of its 42 values, still in 23 steps.  ``hybrid`` moved by at
most 2 ulp in 7 of 506.  ``asymptotic-solve`` moved by at most 3 ulp in
its 3 weights; its nodes kept their bits.
The ``residual_norm`` of ``validate`` went from 2.7501e-17 to 2.7349e-17.
The ``assemble`` matrices moved by at most 2.3e-16 of their largest
entry (73 of the mass and 99 of the stiffness entries), and the report's
stiffness difference went from 8.6e-16 to 7.4e-16.
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
    "rule": "08fd0c7e3b9476b768f38c34950239f22cb05d5561c4a620b4c43ce5b1ab28f6",
    "rule-csv": "9e6e556731da46a30f601288e4286c2136a73dadc2099d133f31738350d9606c",
    "asymptotic": "07f1ac1d08501cfd096f5437ffab8c54fb811f6888ae105fa75773c39a48d80b",
    "asymptotic-solve": (
        "0d1c87a8a0837970dfdee5177400499cb9f31f918c9488e79a4ad2073b68af15"
    ),
    "hybrid": "2417503552c0f80426f655243d895d34b98c4524931a476c393e93be8a4eae66",
    "validate": "ad0c696bc0e64a46eccb300a7eeea56fc497644d6cc891cf290ba229f5aed89d",
    "assemble": "7b11f333f8528e86b0bf957afe6e4e69221e4969d7e20fb6b42793ece3dee9a2",
    "run_mass.csv": "7ee95ead5684194a71176bcd0fd9ae67317931452dcb6f52cf2f70343c0eccff",
    "run_stiffness.csv": (
        "738ca43fe2c5b048f116f14c63976e2c89a0b987b0620e06a458d3d9733b1942"
    ),
    "run_mass.txt": "ae37d538828db5154c713a288871011bf7dac43f82c752bcd64851be2dda7149",
    "run_stiffness.txt": (
        "ea3d81dc1c0e9574b63c1a2f062bd72d390aeb6f5366c07cbb77b8a48baaa9a4"
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
