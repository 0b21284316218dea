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
    "rule": "c3e5621a6b06f5e1fbb8957cb6701d8572a1d891b850f3f03b2298556c7f20b6",
    "rule-csv": "5b59460afc6db66784ab3aae9c3b6c2da6dd7236bed99b2e57170f1e56daf27f",
    "asymptotic": "07f1ac1d08501cfd096f5437ffab8c54fb811f6888ae105fa75773c39a48d80b",
    "asymptotic-solve": (
        "3d38d67c93740d47174f53e0817a6094aec07f455174eae48bbca476aa2d0425"
    ),
    "hybrid": "642b1363cd533ff40a372fab0c1efa95ae1b0a74d1e4fca69f196c503263716e",
    "validate": "1c2d5e233a372bf0bf52dc6e30bb7f3efec60456591361be982a7002aeee410b",
    "assemble": "3905945d715977a660d5ae7f9e2f64f8f1d69da5aed3df315c41eb4df7032708",
    "run_mass.csv": "6b64b4268c18909b564d2ad6ccd87c9d6f61e2751c82f5323f2dda2b68c1cf65",
    "run_stiffness.csv": (
        "5531c58758cd049cf9728744dd4f364693c2ad12833da8829c30a517738a7905"
    ),
    "run_mass.txt": "9cc53b452e3fcaf1c15e7165b878e335b4ccab7354410d9a9e1bd4c7c685ac94",
    "run_stiffness.txt": (
        "56bcf570b0142045f240d9f5724fc21e04bd835261f74eb6e75ed1fbecaf3d3b"
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
