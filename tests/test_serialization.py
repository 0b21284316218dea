"""Rule documents: JSON round-trips, CSV table style, matrix export."""


import io
import json
from dataclasses import replace

import numpy as np
import pytest

from splinegauss import RuleDocument, asymptotic_rule, hybrid_rule, uniform_space
from splinegauss.serialization import matrix_to_csv, matrix_to_triplets

from tracing import get_trace


@pytest.fixture(scope="module")
def traced_doc():
    res = get_trace((5, 1, 4))
    return RuleDocument.from_rule(res.rule, uniform_space(5, 1, 4))


class TestRuleDocument:
    def test_from_rule_captures_space_and_stats(self, traced_doc):
        assert traced_doc.degree == 5
        assert traced_doc.continuity == 1
        assert traced_doc.breaks == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert traced_doc.mults == [6, 4, 4, 4, 6]
        assert traced_doc.provenance == "traced"
        assert traced_doc.trace["status"] == "converged"
        assert traced_doc.residual_norm is not None

    def test_json_round_trip_is_bit_exact(self, traced_doc):
        text = traced_doc.to_json()
        back = RuleDocument.from_json(text)
        assert back.nodes == traced_doc.nodes
        assert back.weights == traced_doc.weights
        assert back.residual_norm == traced_doc.residual_norm
        assert back.to_json() == text

    def test_space_reconstruction(self, traced_doc):
        space = traced_doc.space()
        assert space.dimension == 2 * len(traced_doc.nodes)

    def test_rule_reconstruction(self, traced_doc):
        rule = traced_doc.rule()
        assert rule.nodes.tolist() == traced_doc.nodes
        assert rule.interval == (0.0, 4.0)

    def test_csv_has_twenty_decimals_and_elements(self, traced_doc):
        lines = traced_doc.to_csv().splitlines()
        assert lines[0] == "element,i,tau,omega"
        assert len(lines) == 1 + len(traced_doc.nodes)
        first = lines[1].split(",")
        assert first[0] == "1" and first[1] == "1"
        assert len(first[2].split(".")[1]) == 20
        assert len(first[3].split(".")[1]) == 20
        # a node sitting on a knot belongs to the element on its right
        elements = [int(line.split(",")[0]) for line in lines[1:]]
        assert elements == sorted(elements)

    def test_pattern_document_carries_period(self):
        doc = RuleDocument.from_pattern(asymptotic_rule(7, 1))
        assert doc.period == 1
        assert doc.provenance == "asymptotic"
        assert doc.continuity == 1
        round_tripped = RuleDocument.from_json(doc.to_json())
        assert round_tripped.period == 1

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            RuleDocument(
                degree=5,
                interval=(0.0, 1.0),
                nodes=[0.5],
                weights=[],
                provenance="traced",
            )

    def test_json_floats_survive_17_digits(self):
        value = 0.1234567890123456789
        doc = RuleDocument(
            degree=5,
            interval=(0.0, 1.0),
            nodes=[value],
            weights=[value],
            provenance="traced",
        )
        assert RuleDocument.from_json(doc.to_json()).nodes[0] == value


def csv_reference(doc: RuleDocument) -> str:
    """The CSV table written one row at a time."""
    out = io.StringIO()
    out.write("element,i,tau,omega\n")
    breaks = doc.breaks if doc.breaks is not None else doc.interval
    elems = doc.rule().element_of(breaks)
    for i, (e, x, w) in enumerate(zip(elems, doc.nodes, doc.weights), start=1):
        out.write(f"{e},{i},{x:.20f},{w:.20f}\n")
    return out.getvalue()


WRITER_CASES = [
    "traced", "hybrid", "pattern", "no-trace", "nan-residual", "inf-residual",
    "integer-lists", "extreme-floats", "empty",
]


@pytest.fixture(scope="module")
def writer_docs():
    traced = RuleDocument.from_rule(get_trace((5, 1, 4)).rule, uniform_space(5, 1, 4))
    hybrid = RuleDocument.from_rule(
        hybrid_rule(5, 0, 21, boundary_depth=1), uniform_space(5, 0, 21)
    )
    return {
        "traced": traced,
        "hybrid": hybrid,
        "pattern": RuleDocument.from_pattern(asymptotic_rule(7, 1)),
        "no-trace": replace(traced, trace={}),
        "nan-residual": replace(traced, residual_norm=float("nan")),
        "inf-residual": replace(traced, residual_norm=float("inf")),
        "integer-lists": replace(
            traced, interval=(0, 4), nodes=[1, 2, 3], weights=[2, 1, 1]
        ),
        "extreme-floats": replace(
            traced, nodes=[-0.0, 5e-324, 1e300], weights=[-np.inf, np.nan, 1e-5]
        ),
        "empty": replace(traced, nodes=[], weights=[], breaks=[], mults=[]),
    }


class TestWriters:
    @pytest.mark.parametrize("name", WRITER_CASES)
    def test_json_is_the_indented_dump(self, writer_docs, name):
        doc = writer_docs[name]
        assert doc.to_json() == json.dumps(doc.to_dict(), indent=2) + "\n"

    @pytest.mark.parametrize("name", ["traced", "hybrid", "pattern", "no-trace"])
    def test_csv_is_the_row_by_row_table(self, writer_docs, name):
        doc = writer_docs[name]
        assert doc.to_csv() == csv_reference(doc)


class TestMatrixExport:
    def test_dense_csv_round_trip(self):
        mat = np.array([[1.0, 0.12345678901234567], [0.0, 3.5]])
        text = matrix_to_csv(mat)
        back = np.array(
            [[float(v) for v in line.split(",")] for line in text.splitlines()]
        )
        assert np.array_equal(back, mat)

    def test_triplets_skip_zeros(self):
        mat = np.array([[1.0, 0.0], [0.0, 2.0]])
        lines = matrix_to_triplets(mat).splitlines()
        assert lines == ["0 0 1.0", "1 1 2.0"]
