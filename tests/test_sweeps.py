"""The seeded robustness sweeps of ``sweeps.py``: stalls are reported,
never raised, and none occurs."""

from sweeps import far_intervals, multiplicity_meshes, sweep


def test_far_intervals_stall_only_where_recorded():
    cases = list(far_intervals())
    assert len(cases) == 96
    # none stalls: in local coordinates the knots keep their digits
    assert sweep(cases)["stalled"] == []


def test_random_multiplicities_converge():
    assert sweep(multiplicity_meshes(40))["stalled"] == []
