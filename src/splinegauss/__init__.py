"""Optimal Gaussian quadrature rules for odd-degree spline spaces.

Rules with the minimum node count (half the space dimension) are obtained
by deforming the knot vector of a discontinuous source space, whose
optimal rule is classical per-element Gauss, into the requested target
space while tracking the rule as the root of the exactness system.  The
package also provides the periodic infinite-domain patterns those rules
converge to, hybrid boundary+asymptotic rules, and a 1-D Galerkin
assembly demonstration.
"""

from .asymptotic import (
    AsymptoticPattern,
    asymptotic_rule,
    hybrid_rule,
    pattern_residual,
    solve_asymptotic_system,
)
from .basis import eval_spline, integrals
from .continuation import (
    TraceResult,
    finalize_limit,
    jacobian,
    newton_correct,
    residual,
    residual_norm,
    trace,
)
from .galerkin import (
    DiscretizationSpec,
    SavingsReport,
    assemble,
    classical_rule,
    quadrature_space,
    rule_space,
    savings_report,
    trial_space,
)
from .gauss import ElementRule, legendre_rule, source_rule
from .knots import (
    KnotPath,
    KnotVector,
    ParityError,
    SplineSpace,
    knot_path,
    source_space,
    space_at,
    uniform_space,
)
from .rules import NewtonFailure, QuadratureRule
from .serialization import RuleDocument

__version__ = "1.0.0"

__all__ = [
    "AsymptoticPattern",
    "DiscretizationSpec",
    "ElementRule",
    "KnotPath",
    "KnotVector",
    "NewtonFailure",
    "ParityError",
    "QuadratureRule",
    "RuleDocument",
    "SavingsReport",
    "SplineSpace",
    "TraceResult",
    "__version__",
    "assemble",
    "asymptotic_rule",
    "classical_rule",
    "eval_spline",
    "finalize_limit",
    "hybrid_rule",
    "integrals",
    "jacobian",
    "knot_path",
    "legendre_rule",
    "newton_correct",
    "pattern_residual",
    "quadrature_space",
    "residual",
    "residual_norm",
    "rule_space",
    "savings_report",
    "solve_asymptotic_system",
    "source_rule",
    "source_space",
    "space_at",
    "trace",
    "trial_space",
    "uniform_space",
]
