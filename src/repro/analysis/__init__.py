"""Static analysis for the MTCache reproduction.

Three passes, one CLI (``python -m repro analyze``):

* :mod:`repro.analysis.selflint` — repo-specific rules over the
  package's own Python source (stdlib ``ast``).
* the workload pass (:func:`repro.analysis.cli.check_workload`) — the
  engine's own bind over the TPC-W procedures on a backend and a cache
  server: what the engine would raise at a procedure's first ``EXEC``
  (undeclared variables, argument mismatches, unknown names, operand
  types that do not combine) is what it reports. Every SELECT of a bound
  body is planned under :mod:`repro.analysis.plancheck`, the structural
  invariants of optimizer-produced plans (schema agreement, DataLocation
  discipline, ChoosePlan well-formedness, parameter completeness).
* :mod:`repro.analysis.concurrency` — lock order, atomicity and the
  runtime lock witness.

All passes report :class:`repro.errors.AnalysisError` diagnostics.
"""

from __future__ import annotations

import os

from repro.analysis.plancheck import PlanVerifier, check_plan, verify_plan

__all__ = [
    "PlanVerifier",
    "check_plan",
    "verify_plan",
    "checked_plans_default",
]


def checked_plans_default() -> bool:
    """Resolve the opt-in checked-execution default from the environment.

    Servers created while ``REPRO_CHECKED_PLANS`` is set (to anything but
    ``0``) verify every freshly optimized plan; the test suite turns this
    on globally, production defaults stay off.
    """
    return os.environ.get("REPRO_CHECKED_PLANS", "0") not in ("", "0")
