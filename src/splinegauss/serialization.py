"""Rule documents: JSON and CSV forms of quadrature rules and patterns.

The JSON schema round-trips nodes and weights at 17 significant digits;
CSV mirrors the 20-decimal table style (digits beyond ~16 are
presentation only in double precision).
"""

from __future__ import annotations

from dataclasses import dataclass, field
import io
import json

import numpy as np

from .asymptotic import AsymptoticPattern
from .knots import KnotVector, SplineSpace
from .rules import QuadratureRule

__all__ = ["SCHEMA_VERSION", "RuleDocument", "matrix_to_csv", "matrix_to_triplets"]

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class RuleDocument:
    """Serializable record of a quadrature rule and its provenance."""

    degree: int
    interval: tuple[float, float]
    nodes: list[float]
    weights: list[float]
    provenance: str  # traced | asymptotic | hybrid | gauss
    breaks: list[float] | None = None
    mults: list[int] | None = None
    continuity: int | None = None
    residual_norm: float | None = None
    period: int | None = None
    trace: dict = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self):
        if len(self.nodes) != len(self.weights):
            raise ValueError("nodes and weights differ in length")

    # -- construction -------------------------------------------------

    @classmethod
    def from_rule(
        cls, rule: QuadratureRule, space: SplineSpace | None = None
    ) -> "RuleDocument":
        meta = rule.meta
        space_doc = meta.get("space")
        if space is None and space_doc is not None:
            space = SplineSpace.from_dict(space_doc)
        trace_stats = {
            key: meta[key]
            for key in ("steps", "newton_failures", "t_reached", "status", "surplus")
            if key in meta
        }
        continuity = meta.get("continuity")
        if continuity is None and space is not None:
            interior = set(space.knots.mults[1:-1])
            if len(interior) == 1:
                continuity = space.degree - interior.pop()
        return cls(
            degree=int(meta.get("degree", space.degree if space else 0)),
            interval=rule.interval,
            nodes=rule.nodes.tolist(),
            weights=rule.weights.tolist(),
            provenance=str(meta.get("provenance", "traced")),
            breaks=list(space.knots.breaks) if space else None,
            mults=list(space.knots.mults) if space else None,
            continuity=continuity,
            residual_norm=rule.residual_norm,
            trace=trace_stats,
        )

    @classmethod
    def from_pattern(cls, pattern: AsymptoticPattern) -> "RuleDocument":
        return cls(
            degree=pattern.degree,
            interval=(0.0, float(pattern.period)),
            nodes=[float(x) for x in pattern.offsets],
            weights=[float(w) for w in pattern.weights],
            provenance="asymptotic",
            continuity=pattern.continuity,
            period=pattern.period,
        )

    # -- conversions ---------------------------------------------------

    def space(self) -> SplineSpace:
        if self.breaks is None or self.mults is None:
            raise ValueError("document does not carry a knot vector")
        return SplineSpace(self.degree, KnotVector(self.breaks, self.mults))

    def rule(self) -> QuadratureRule:
        return QuadratureRule(
            interval=self.interval,
            nodes=np.asarray(self.nodes),
            weights=np.asarray(self.weights),
            residual_norm=self.residual_norm,
            meta={"provenance": self.provenance, "degree": self.degree},
        )

    def to_dict(self) -> dict:
        doc = {
            "schema_version": self.schema_version,
            "degree": self.degree,
            "provenance": self.provenance,
            "interval": list(self.interval),
            "nodes": self.nodes,
            "weights": self.weights,
        }
        if self.continuity is not None:
            doc["continuity"] = self.continuity
        if self.breaks is not None:
            doc["breaks"] = self.breaks
            doc["mults"] = self.mults
        if self.residual_norm is not None:
            doc["residual_norm"] = self.residual_norm
        if self.period is not None:
            doc["period"] = self.period
        if self.trace:
            doc["trace"] = self.trace
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "RuleDocument":
        return cls(
            degree=int(doc["degree"]),
            interval=tuple(doc["interval"]),
            nodes=[float(x) for x in doc["nodes"]],
            weights=[float(w) for w in doc["weights"]],
            provenance=doc.get("provenance", "traced"),
            breaks=doc.get("breaks"),
            mults=doc.get("mults"),
            continuity=doc.get("continuity"),
            residual_norm=doc.get("residual_norm"),
            period=doc.get("period"),
            trace=doc.get("trace", {}),
            schema_version=int(doc.get("schema_version", SCHEMA_VERSION)),
        )

    def to_json(self) -> str:
        """The bytes of ``json.dumps(self.to_dict(), indent=2)`` and a
        newline.

        A flat number list is encoded in one call of the C encoder, which
        the indented encoder cannot use, and laid out one entry a line.
        """
        fields = (
            f"  {json.dumps(key)}: {_indented(value)}"
            for key, value in self.to_dict().items()
        )
        return "{\n" + ",\n".join(fields) + "\n}\n"

    @classmethod
    def from_json(cls, text: str) -> "RuleDocument":
        return cls.from_dict(json.loads(text))

    def to_csv(self) -> str:
        """Table-style CSV: element, index, node, weight at 20 decimals."""
        breaks = self.breaks if self.breaks is not None else self.interval
        elems = self.rule().element_of(breaks).tolist()
        rows = map(
            "{},{},{:.20f},{:.20f}\n".format,
            elems,
            range(1, len(elems) + 1),
            self.nodes,
            self.weights,
        )
        return "element,i,tau,omega\n" + "".join(rows)


def _indented(value) -> str:
    """``value`` as ``json.dumps(..., indent=2)`` writes it one level deep."""
    if isinstance(value, list) and value:
        flat = json.dumps(value)[1:-1]
        # numbers, booleans and null only: no nested list, object or string
        if not any(c in flat for c in '[{"'):
            return "[\n    " + flat.replace(", ", ",\n    ") + "\n  ]"
    return json.dumps(value, indent=2).replace("\n", "\n  ")


def matrix_to_csv(matrix: np.ndarray) -> str:
    """Dense CSV with full round-trip precision."""
    out = io.StringIO()
    for row in np.atleast_2d(matrix):
        out.write(",".join(repr(float(v)) for v in row) + "\n")
    return out.getvalue()


def matrix_to_triplets(matrix: np.ndarray) -> str:
    """Coordinate text: ``i j value`` per line for the nonzero entries."""
    mat = np.atleast_2d(matrix)
    # row-major like the matrix; NaN and zeros of either sign fail the test
    rows, cols = np.nonzero(np.abs(mat) > 0.0)
    values = mat[rows, cols].tolist()
    return "".join(
        f"{i} {j} {float(v)!r}\n"
        for i, j, v in zip(rows.tolist(), cols.tolist(), values)
    )
