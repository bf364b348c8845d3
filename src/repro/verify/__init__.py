"""Static verification: a sharding "type checker" for TAP plans.

Three rule-based, simulator-free layers:

* :mod:`repro.verify.plan_checks` — verify a :class:`ShardingPlan`, a
  :class:`RoutedPlan` or a :class:`RewriteResult` against the invariants
  the search, the cost model and the simulator all assume (dimension
  divisibility, pattern-chain connectivity, collective legality,
  gradient-packing conservation, cost sanity, cached-tape shape).
* :mod:`repro.verify.lint` — per-file AST rules over the codebase itself,
  guarding the invariants the memoization layers depend on (no
  frozen-dataclass mutation, structural cache keys, no set-ordered
  output, no wall-clock reads in pricing code).
* :mod:`repro.verify.analyze` — interprocedural analysis: a call graph
  over the whole package, purity propagation from the deterministic
  entry points to clock/RNG/order taint, and lockset analysis for the
  threaded planner layers.

All three emit structured :class:`Diagnostic` records and are wired into
the CLI as ``repro verify plan`` / ``repro verify lint`` /
``repro verify analyze``.
"""

from .diagnostics import Diagnostic, VerificationReport, PlanVerificationError
from .plan_checks import verify_plan, verify_routed, verify_rewrite
from .lint import LINT_RULES, lint_paths, lint_source
from .analyze import ANALYZE_RULES, analyze_paths
from .output import FORMATS, format_diagnostics

__all__ = [
    "Diagnostic",
    "VerificationReport",
    "PlanVerificationError",
    "verify_plan",
    "verify_routed",
    "verify_rewrite",
    "LINT_RULES",
    "lint_paths",
    "lint_source",
    "ANALYZE_RULES",
    "analyze_paths",
    "FORMATS",
    "format_diagnostics",
]
