"""Batch IEP: many atomic operations repaired in one pass (future work).

The paper handles multi-change updates by "running the incremental version
multiple times" and leaves a native batch algorithm to future work.  This
module implements that extension:

1. **Fold** all instance changes into a copy of the instance, patched in
   place, and let a copy of the plan follow the patches.
2. **Strip** every assignment the combined changes broke: zero-utility
   pairs, time conflicts, over-budget routes, and over-upper-bound events
   (lowest utilities evicted first).
3. **Repair** each event left between 1 and ``xi_j - 1`` attendees with the
   Algorithm-4 machinery (free additions, then Delta-heap transfers, then
   cancellation), processing the largest deficits last so cheap fixes free
   capacity first.
4. **Fill** every touched user with the step-2 filler.

Compared to applying the operations sequentially, one pass avoids repairing
intermediate states a later operation immediately invalidates; utility and
``dif`` are usually comparable, while the batch is faster for long change
lists (see ``benchmarks/bench_batch_iep.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.gepc.fill import UtilityFill
from repro.core.iep.operations import AtomicOperation
from repro.core.metrics import dif as dif_metric
from repro.core.metrics import total_utility
from repro.core.model import Instance
from repro.core.plan import GlobalPlan, Journal
from repro.core.repair import repair_lower_bounds, strip_violations
from repro.obs import get_recorder


@dataclass
class BatchResult:
    """Outcome of one batched repair."""

    instance: Instance
    plan: GlobalPlan
    operations: list[AtomicOperation]
    dif: int
    diagnostics: dict[str, float] = field(default_factory=dict)

    @property
    def utility(self) -> float:
        return total_utility(self.instance, self.plan)


class BatchIEPEngine:
    """Repairs a plan for a whole batch of atomic operations at once."""

    def apply(
        self,
        instance: Instance,
        plan: GlobalPlan,
        operations: list[AtomicOperation],
    ) -> BatchResult:
        obs = get_recorder()
        instance = instance.copy()
        new_plan = plan.rebound_to(instance)
        with Journal(new_plan) as journal, obs.span("batch.fold"):
            for operation in operations:
                operation.validate(instance)
                operation.apply_to_instance(instance)
            new_plan.follow(journal)
        # Note: validation against intermediate instances intentionally --
        # a batch is an ordered change list, exactly like the sequential
        # engine sees it.

        diagnostics: dict[str, float] = {}
        with obs.span("batch.repair"):
            touched = strip_violations(instance, new_plan, diagnostics)
            repair_lower_bounds(instance, new_plan, diagnostics)
            if touched:
                diagnostics["refilled"] = float(
                    UtilityFill().fill(instance, new_plan, only_users=touched)
                )
        obs.count("batch.operations", len(operations))
        return BatchResult(
            instance=instance,
            plan=new_plan,
            operations=list(operations),
            dif=dif_metric(plan, new_plan),
            diagnostics=diagnostics,
        )

