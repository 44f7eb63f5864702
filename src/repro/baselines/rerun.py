"""Re-GAP and Re-Greedy: recompute-from-scratch after an atomic operation.

Tables VII-IX compare the incremental algorithms against simply re-running
the GEPC solvers on the post-change instance.  The re-run ignores the old
plan entirely, so its negative impact ``dif(P, P')`` is typically large even
when its utility is comparable — the trade-off the IEP problem formalises.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.gepc.base import GEPCSolver
from repro.core.iep.operations import AtomicOperation
from repro.core.metrics import dif as dif_metric
from repro.core.metrics import total_utility
from repro.core.model import Instance
from repro.core.plan import GlobalPlan
from repro.obs import get_recorder


@dataclass
class RerunOutcome:
    """Result of a from-scratch re-solve on the changed instance."""

    instance: Instance
    plan: GlobalPlan
    utility: float
    dif: int


class RerunBaseline:
    """Wraps a GEPC solver as an IEP competitor (Re-GAP / Re-Greedy)."""

    def __init__(self, solver: GEPCSolver) -> None:
        self._solver = solver

    @property
    def name(self) -> str:
        return f"re-{self._solver.name}"

    def apply(
        self,
        instance: Instance,
        plan: GlobalPlan,
        operation: AtomicOperation,
    ) -> RerunOutcome:
        """Apply ``operation`` by re-solving GEPC from scratch."""
        obs = get_recorder()
        operation.validate(instance)
        new_instance = operation.apply_to_instance(instance.copy())
        with obs.span("rerun.resolve"):
            solution = self._solver.solve(new_instance)
        return RerunOutcome(
            instance=new_instance,
            plan=solution.plan,
            utility=total_utility(new_instance, solution.plan),
            dif=dif_metric(plan, solution.plan),
        )
