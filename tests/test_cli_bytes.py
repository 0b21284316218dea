"""The README command-line examples keep their bytes.

Each example runs in-process through ``cli.main``; the SHA-256 of its
stdout, and of the matrix files ``assemble`` writes, must equal the value
recorded before the asymptotic patterns were placed by one tiling
function.  This is the byte-identical promise of ROADMAP.md, checked on
every run instead of by hand.
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
    "rule": "0558c68cd57c3a4c864098f8fb2cd21c2084323e99846f1c0a0bc564aa5071fc",
    "rule-csv": "8d278830cf10b663fad4db74ef3e599d036d56641c3daf2546410e5423574a43",
    "asymptotic": "07f1ac1d08501cfd096f5437ffab8c54fb811f6888ae105fa75773c39a48d80b",
    "asymptotic-solve": (
        "5201ef3f70c9fd5b680faadea1f203691c56802f90a3e1bd31e2e73ae29cae38"
    ),
    "hybrid": "642b1363cd533ff40a372fab0c1efa95ae1b0a74d1e4fca69f196c503263716e",
    "validate": "5b5ba3d97f64a3cfb5003a0e5fc33aff99bc95e3c80b8906a6d8fc3b0f928e78",
    "assemble": "18a330805e436a3e7c2e55658c55855f811a522fa525dcfe5ff9526da697afdd",
    "run_mass.csv": "5083bc99d73076c73a7b077506b8fecf49177885d738ca841a6b59da55105251",
    "run_stiffness.csv": (
        "8704a62f3515434178ad4544873e0d60512b318ca2c574d11d1b9612be464118"
    ),
    "run_mass.txt": "2a51870f9e2bdc2432ac1e0459d9e3492a7d3eece02661bb284c116d9a6d34f3",
    "run_stiffness.txt": (
        "4f1a16b0586bb813f7552624105586db28539ef2ba11dd1503e25de80813c18c"
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
