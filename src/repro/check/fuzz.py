"""The differential fuzz driver (``repro-gepc fuzz``).

The paper's IEP contract is that every atomic operation turns a feasible
plan into a feasible plan.  This driver checks that contract, seeded and
op by op, for every system in the tree that applies operations.  Per
seed it builds once:

* a small synthetic Meetup instance (one ``generate_ebsn`` call);
* the **twin** (:func:`run_twin`): an in-memory
  :class:`~repro.platform.service.EBSNPlatform` that publishes a greedy
  plan and applies one seeded operation stream, each operation drawn
  against the twin's *current* state (plus a ``NewEvent`` every
  ``NEW_EVENT_EVERY`` steps, which the mixed stream never draws).  It
  records a :class:`TwinState` (utility + plan summary) per sequence
  number, so every leg can be diffed at any horizon.  Every operation
  must therefore apply: a twin rejection is an engine error on a valid
  operation and fails the seed.

Each system under test is a *leg*: a plain function that applies the
twin's operations and diffs what it observes against the twin and
against its own oracles.

``memory``
    The functional :meth:`~repro.core.iep.engine.IEPEngine.apply` (copy,
    then apply) on its own state, against the twin's in-place path.
    After every operation: utility, plan, ``dif`` and route costs equal
    to the twin's to the bit; the full :class:`InvariantAuditor`;
    ``check_plan``, equal to :func:`exhaustive_check_plan`; incremental
    vs from-scratch rebuild (utility and feasibility verdict);
    vectorized kernel vs the scalar cold-cache
    fallback (cost and mask); route-cost drift, re-pinned above
    ``ROUTE_DRIFT_REPIN_TOL``.  Before each operation, the rollback
    probe fails it in place on copies right after its repair's first
    plan mutation: the state must come back exactly.  On the final
    state: the kernel-strategy audit.
``sharded``
    :class:`~repro.scale.BatchedPlatform` fed the stream in batches:
    ``check_plan`` once per flush (the flush's own violation count must
    agree), the twin's state while no flush has folded anything, and
    serial replay of the applied log (plan and utility) at the end.
    Then :class:`~repro.scale.ShardedSolver` on the twin's final
    instance: ``shards=1`` equals monolithic greedy, a second solve
    through a two-worker pool (pickled shards rebuilt in the workers)
    equals the in-process one, and the sharded plan is feasible and
    auditor-clean.
``durable``
    :class:`~repro.platform.durable.DurablePlatform`.  One uncrashed pass
    counts the crash points; then every crash point, with and without a
    torn WAL tail, is injected at a seeded-random occurrence.  Each
    recovery must be auditor-clean and equal the twin (utility and plan)
    at the durable horizon, and a torn tail must be truncated.
``service``
    The real planning service over HTTP and WebSocket (alternating per
    frame): per-frame acceptance and utility vs the twin, the final plan
    summary, and the served oplog vs the twin's accepted operations.
    Under ``REPRO_SHADOW_CHECKS=1`` the run is also instrumented by
    :mod:`repro.check.lockdep`.

:data:`PRESETS` picks legs; ``--sharded``, ``--durable`` and
``--service`` name presets.  Everything is seeded: a failure prints a
``reproduce:`` command (:meth:`FuzzConfig.reproduce`) that replays it.
"""

from __future__ import annotations

import random
import shutil
import tempfile
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.check.auditor import (
    AuditReport,
    CacheMismatch,
    InvariantAuditor,
    exhaustive_check_plan,
)
from repro.check.lockdep import LockDep, LockDepSummary, LoopWatchdog, maybe_lockdep
from repro.core import plan as plan_module
from repro.core.constraints import check_plan
from repro.core.gepc.greedy import GreedySolver
from repro.core.iep.engine import IEPEngine
from repro.core.iep.operations import AtomicOperation, NewEvent
from repro.core.metrics import total_utility
from repro.core.model import Instance
from repro.core.plan import GlobalPlan, PlanSummary
from repro.core.tolerances import (
    AUDIT_FLOAT_TOL,
    BUDGET_TOL,
    ROUTE_DRIFT_REPIN_TOL,
)
from repro.datasets.meetup import MeetupConfig, generate_ebsn
from repro.obs import get_recorder
from repro.platform.durable import (
    CRASH_POINTS,
    REJECTION_ERRORS,
    CrashInjector,
    DurablePlatform,
    InjectedCrash,
    RecoveryError,
)
from repro.platform.oplog import operation_to_dict
from repro.platform.service import EBSNPlatform
from repro.platform.stream import OperationStream

if TYPE_CHECKING:  # pragma: no cover - the service stack loads lazily
    from repro.service.server import ServiceThread

#: Preset name -> (table title, legs it runs).
PRESETS: dict[str, tuple[str, tuple[str, ...]]] = {
    "memory": ("Differential fuzz", ("memory",)),
    "sharded": ("Differential fuzz (sharded)", ("memory", "sharded")),
    "durable": ("Crash-recovery fuzz", ("durable",)),
    "service": ("Service fuzz", ("service",)),
}

#: Fixed shape of every fuzz instance beyond its user/event counts.
GROUPS = 4
CONFLICT_RATIO = 0.35
#: The mixed stream never draws a ``NewEvent``; every leg must also see
#: the ``append_event`` path and its WAL encoding.
NEW_EVENT_EVERY = 5
SHARDS = 3
BATCH_SIZE = 4
#: Small cadence so recoveries exercise snapshot + replay, not just
#: replay.  The durable leg runs without fsync: its "disk" is a temp dir
#: that dies with the process, and atomicity is still exercised.
SNAPSHOT_EVERY = 4


@dataclass(frozen=True)
class FuzzConfig:
    """Shape of one fuzzing run (identical across seeds)."""

    preset: str = "memory"
    operations: int = 12
    n_users: int = 24
    n_events: int = 10

    def __post_init__(self) -> None:
        if self.preset not in PRESETS:
            raise ValueError(
                f"unknown fuzz preset {self.preset!r}; choose from "
                + ", ".join(PRESETS)
            )

    @property
    def legs(self) -> tuple[str, ...]:
        return PRESETS[self.preset][1]

    def meetup(self, seed: int) -> MeetupConfig:
        return MeetupConfig(
            n_users=self.n_users,
            n_events=self.n_events,
            n_groups=GROUPS,
            conflict_ratio=CONFLICT_RATIO,
            seed=seed,
        )

    def reproduce(self, seed: int) -> str:
        """The command that replays one seed of this run."""
        flag = "" if self.preset == "memory" else f" --{self.preset}"
        return (
            f"repro-gepc fuzz{flag} --base-seed {seed} --seeds 1 "
            f"--operations {self.operations} --users {self.n_users} "
            f"--events {self.n_events}"
        )


@dataclass(frozen=True)
class TwinState:
    """The twin's state after one sequence number (and that operation's
    ``dif``)."""

    utility: float
    summary: PlanSummary
    dif: int = 0
    route_costs: tuple[float, ...] = ()


@dataclass
class Twin:
    """The oracle run every leg is diffed against.

    ``states[seq]`` is the state after ``seq`` submitted operations
    (``0`` = published); a rejected operation consumes a sequence number
    without changing state, so every horizon has a state.  ``instance``
    is the twin's final (NewEvent-extended) instance.
    """

    instance: Instance
    states: dict[int, TwinState] = field(default_factory=dict)
    operations: list[AtomicOperation] = field(default_factory=list)
    #: One line per rejected operation (seq, kind, error).
    rejections: list[str] = field(default_factory=list)

    def new_event_seqs(self) -> list[int]:
        """Sequence numbers of the ``NewEvent`` operations it submitted."""
        return [
            seq
            for seq, op in enumerate(self.operations, start=1)
            if isinstance(op, NewEvent)
        ]


def run_twin(
    platform: EBSNPlatform | DurablePlatform, count: int, seed: int
) -> Twin:
    """Publish ``platform`` and apply ``count`` seeded operations.

    Each operation is drawn against the platform's current state (a
    ``NewEvent`` on every ``NEW_EVENT_EVERY``-th step, offset 2),
    submitted, and the resulting :class:`TwinState` recorded.  The
    caller owns closing ``platform``.  Any component claiming
    "bit-identical at the durable horizon" proves it against these
    states.
    """
    utility = platform.publish_plans()
    twin = Twin(platform.instance)
    twin.states[0] = TwinState(
        utility, PlanSummary.of(platform.plan),
        route_costs=_route_costs(platform.plan),
    )
    stream = OperationStream(seed=seed)
    for step in range(count):
        if step % NEW_EVENT_EVERY == 2:
            operation: AtomicOperation = stream.new_event(platform.instance)
        else:
            operation = next(
                stream.mixed(platform.instance, platform.plan, 1)
            )
        dif = 0
        try:
            entry = platform.submit(operation)
            utility, dif = entry.utility_after, entry.dif
        except REJECTION_ERRORS as exc:
            twin.rejections.append(
                f"seq {step + 1} ({type(operation).__name__}): "
                f"{type(exc).__name__}: {exc}"
            )
        twin.operations.append(operation)
        twin.states[step + 1] = TwinState(
            utility, PlanSummary.of(platform.plan), dif,
            _route_costs(platform.plan),
        )
    twin.instance = platform.instance
    return twin


@dataclass
class CrashScenario:
    """One injected crash of the durable leg and what recovery found."""

    point: str
    tear_tail: bool
    crash_after: int
    crashed: bool = False
    recovered_seq: int = 0
    snapshot_seq: int = 0
    replayed: int = 0
    truncated_records: int = 0

    def label(self) -> str:
        tear = "+tear" if self.tear_tail else ""
        return f"{self.point}{tear}@{self.crash_after}"


@dataclass
class SeedReport:
    """Everything the preset's legs observed on one seed."""

    seed: int
    operations: int = 0
    checks: int = 0
    mismatches: list[CacheMismatch] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)
    max_drift: float = 0.0
    repins: int = 0
    total_dif: int = 0
    final_utility: float = 0.0
    # Sharded-vs-monolithic utility ratio, for trend inspection only;
    # correctness is gated by the feasibility/determinism checks.
    sharded_utility_ratio: float = 1.0
    scenarios: list[CrashScenario] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches and not self.violations

    def audited(self, audit: AuditReport) -> None:
        self.checks += audit.checks
        self.mismatches.extend(audit.mismatches)

    def expect(
        self, kind: str, observed: object, expected: object, detail: str
    ) -> bool:
        """One equality check; a difference is recorded as a mismatch."""
        self.checks += 1
        if observed == expected:
            return True
        self.mismatches.append(
            CacheMismatch(
                kind=kind, cached=observed, expected=expected, detail=detail
            )
        )
        return False


@dataclass
class FuzzSummary:
    """Aggregate over all fuzzed seeds of one preset."""

    preset: str = "memory"
    reports: list[SeedReport] = field(default_factory=list)
    #: Populated when the service leg ran instrumented
    #: (``REPRO_SHADOW_CHECKS=1``).
    lockdep: LockDepSummary | None = None

    @property
    def ok(self) -> bool:
        if self.lockdep is not None and not self.lockdep.ok:
            return False
        return all(report.ok for report in self.reports)

    @property
    def seeds(self) -> int:
        return len(self.reports)

    @property
    def operations(self) -> int:
        return sum(report.operations for report in self.reports)

    @property
    def checks(self) -> int:
        return sum(report.checks for report in self.reports)

    @property
    def mismatches(self) -> list[CacheMismatch]:
        return [m for report in self.reports for m in report.mismatches]

    @property
    def violations(self) -> list[str]:
        return [v for report in self.reports for v in report.violations]

    @property
    def max_drift(self) -> float:
        return max(
            (report.max_drift for report in self.reports), default=0.0
        )

    @property
    def repins(self) -> int:
        return sum(report.repins for report in self.reports)

    @property
    def scenarios(self) -> list[CrashScenario]:
        return [s for report in self.reports for s in report.scenarios]

    @property
    def replayed(self) -> int:
        return sum(s.replayed for s in self.scenarios)

    @property
    def truncated_records(self) -> int:
        return sum(s.truncated_records for s in self.scenarios)

    def failures(self) -> list[SeedReport]:
        return [report for report in self.reports if not report.ok]

    def table(self) -> tuple[list[str], list[list[object]]]:
        """Headers and the one row the CLI prints for this preset."""
        columns: list[tuple[str, object]] = [
            ("seeds", self.seeds),
            ("operations", self.operations),
            ("checks", self.checks),
            ("mismatches", len(self.mismatches)),
            ("violations", len(self.violations)),
        ]
        legs = PRESETS[self.preset][1]
        if "memory" in legs:
            columns += [("max drift", self.max_drift), ("repins", self.repins)]
        if "durable" in legs:
            columns += [
                ("scenarios", len(self.scenarios)),
                ("replayed", self.replayed),
                ("torn records", self.truncated_records),
            ]
        return [name for name, _ in columns], [[v for _, v in columns]]


# --------------------------------------------------------------------- #
# memory leg
# --------------------------------------------------------------------- #


def _route_costs(plan: GlobalPlan) -> tuple[float, ...]:
    return tuple(plan.route_cost(u) for u in range(plan.instance.n_users))


def _rebuild_state(
    instance: Instance, plan: GlobalPlan
) -> tuple[Instance, GlobalPlan]:
    """The from-scratch rerun baseline: same raw data, no carried caches."""
    fresh_instance = instance.rebuilt()
    fresh_plan = GlobalPlan(fresh_instance)
    for user, events in plan:
        for event in events:
            fresh_plan.add(user, event)
    return fresh_instance, fresh_plan


def _check_differential(
    instance: Instance, plan: GlobalPlan, step: int, report: SeedReport
) -> None:
    """Incremental state vs. a from-scratch rebuild of the same state."""
    fresh_instance, fresh_plan = _rebuild_state(instance, plan)
    report.expect(
        "differential_utility",
        total_utility(instance, plan),
        total_utility(fresh_instance, fresh_plan),
        f"step {step}: incremental vs from-scratch utility",
    )
    report.expect(
        "differential_feasibility",
        sorted(str(v) for v in check_plan(instance, plan)),
        sorted(str(v) for v in check_plan(fresh_instance, fresh_plan)),
        f"step {step}: check_plan verdicts diverge",
    )


def _check_kernel_vs_scalar(
    instance: Instance, plan: GlobalPlan, step: int, report: SeedReport
) -> None:
    """Vectorized kernel rows vs. the scalar cold-cache fallback."""
    budget_of = [user.budget for user in instance.users]
    for user in range(instance.n_users):
        deltas = plan.insertion_deltas(user)
        mask = plan.feasible_mask(user)
        base = plan.route_cost(user)
        # A copy with this user's kernel row evicted exercises the scalar
        # O(k) fallback paths of can_attend/cost_with.
        cold = plan.copy()
        cold._kernel_cache.pop(user, None)  # repro-lint: ignore[RL001] deliberate eviction to force the scalar path
        assigned = set(plan.user_plan(user))
        for event in range(instance.n_events):
            report.checks += 1
            scalar_cost = cold.cost_with(user, event)
            vector_cost = base + float(deltas[event])
            if abs(scalar_cost - vector_cost) > AUDIT_FLOAT_TOL:
                report.mismatches.append(
                    CacheMismatch(
                        kind="kernel_vs_scalar_cost",
                        cached=vector_cost,
                        expected=scalar_cost,
                        user=user,
                        event=event,
                        detail=f"step {step}: cost_with disagrees",
                    )
                )
            if event in assigned:
                continue
            report.checks += 1
            scalar_ok = cold.can_attend(user, event)
            if scalar_ok != bool(mask[event]):
                # Tolerate pure boundary jitter: both sides sit within the
                # audit tolerance of the budget cut-off.
                margin = scalar_cost - budget_of[user]
                if abs(margin - BUDGET_TOL) <= AUDIT_FLOAT_TOL:
                    continue
                report.mismatches.append(
                    CacheMismatch(
                        kind="kernel_vs_scalar_mask",
                        cached=bool(mask[event]),
                        expected=scalar_ok,
                        user=user,
                        event=event,
                        detail=f"step {step}: can_attend disagrees",
                    )
                )


def _measure_drift(plan: GlobalPlan, report: SeedReport) -> None:
    """Measure route-cost drift per user; re-pin when it exceeds the
    tolerance (the production response to accumulated float error)."""
    for user in range(plan.instance.n_users):
        drift = abs(plan.repin_route_cost(user, ROUTE_DRIFT_REPIN_TOL))
        report.checks += 1
        report.max_drift = max(report.max_drift, drift)
        if drift > ROUTE_DRIFT_REPIN_TOL:
            report.repins += 1


def _memory_leg(
    seed: int, instance: Instance, twin: Twin, report: SeedReport
) -> None:
    plan = GreedySolver(seed=seed).solve(instance).plan
    engine = IEPEngine()
    auditor = InvariantAuditor()
    report.audited(auditor.audit(plan))
    for step, operation in enumerate(twin.operations):
        label = f"memory step {step} ({type(operation).__name__})"
        _probe_rollback(instance, plan, operation, label, report)
        result = engine.apply(instance, plan, operation)
        instance, plan = result.instance, result.plan
        report.total_dif += result.dif

        # The twin applied it in place, this leg through the functional
        # oracle: bit for bit the same (route costs until a drift re-pin).
        state = twin.states[step + 1]
        costs = state.route_costs if report.repins else _route_costs(plan)
        observed = TwinState(
            total_utility(instance, plan), PlanSummary.of(plan), result.dif,
            costs,
        )
        report.expect("twin_state", observed, state, label)
        report.audited(auditor.audit(plan))
        violations = check_plan(instance, plan)
        report.expect(
            "check_plan_vs_exhaustive",
            violations,
            exhaustive_check_plan(instance, plan),
            label,
        )
        for violation in violations:
            report.violations.append(f"{label}: {violation}")
        _check_differential(instance, plan, step, report)
        _measure_drift(plan, report)
        _check_kernel_vs_scalar(instance, plan, step, report)

    # Strategy equivalence runs once per seed on the final state — after
    # the stream has bent the instance through NewEvent appends, bound
    # shifts, and cache patches, which is exactly where a strategy
    # shortcut would show.
    report.audited(auditor.audit_kernel_strategies(plan))


class _InjectedFault(ValueError):
    """The rollback probe's fault, raised by a repair's first mutation."""


def _probe_rollback(
    instance: Instance,
    plan: GlobalPlan,
    operation: AtomicOperation,
    label: str,
    report: SeedReport,
) -> None:
    """Fail ``operation`` in place on copies right after its repair's
    first plan mutation: the state must come back exactly (plan lists in
    order, route costs, utility, instance records) and auditor-clean."""
    instance = instance.copy()
    plan = plan.rebound_to(instance)

    def state() -> dict[str, object]:
        return {
            "plans": tuple(events for _, events in plan),
            "route_costs": _route_costs(plan),
            "utility": total_utility(instance, plan),
            "users": tuple(instance.users),
            "events": tuple(instance.events),
            "utility_matrix": hash(instance.utility.tobytes()),
        }

    def fail_once(_: GlobalPlan, action: str, user: int, event: int) -> None:
        plan_module._MUTATION_HOOKS.remove(fail_once)
        raise _InjectedFault(f"injected after {action}({user}, {event})")

    before = state()
    plan_module._MUTATION_HOOKS.append(fail_once)
    try:
        IEPEngine().apply_in_place(instance, plan, operation)
    except _InjectedFault:
        after = state()
        for part, value in before.items():
            report.expect(f"rollback_{part}", after[part], value, label)
        report.audited(InvariantAuditor().audit(plan))
    finally:
        if fail_once in plan_module._MUTATION_HOOKS:
            plan_module._MUTATION_HOOKS.remove(fail_once)


# --------------------------------------------------------------------- #
# sharded leg: batched platform + sharded solver
# --------------------------------------------------------------------- #


def _sharded_leg(
    seed: int, instance: Instance, twin: Twin, report: SeedReport
) -> None:
    from repro.scale import BatchedPlatform, ShardedSolver

    auditor = InvariantAuditor()
    batched = BatchedPlatform(instance, solver=GreedySolver(seed=seed))
    batched.publish_plans()
    # Until a flush folds operations, batched application is serial
    # application, so its state must be the twin's.
    in_step = True
    for start in range(0, len(twin.operations), BATCH_SIZE):
        window = twin.operations[start:start + BATCH_SIZE]
        for operation in window:
            batched.enqueue(operation)
        result = batched.flush()
        label = f"batched flush at seq {start + len(window)}"
        violations = check_plan(batched.instance, batched.plan)
        for violation in violations:
            report.violations.append(f"{label}: {violation}")
        report.expect(
            "batched_flush_violations", result.violations, len(violations),
            label,
        )
        in_step = in_step and result.folded == 0
        if in_step:
            state = twin.states[start + len(window)]
            report.expect(
                "acceptance",
                len(result.applied), len(window), label,
            )
            report.expect(
                "twin_plan", PlanSummary.of(batched.plan), state.summary,
                label,
            )
    batched.drain()

    serial = EBSNPlatform(instance, solver=GreedySolver(seed=seed))
    serial.publish_plans()
    for operation in batched.applied_log:
        serial.submit(operation)
    report.expect(
        "batched_replay", PlanSummary.of(batched.plan),
        PlanSummary.of(serial.plan),
        "serial replay of the applied log diverged",
    )
    report.expect(
        "batched_replay_utility", batched.snapshot()["utility"],
        serial.audit()["utility"],
        "batched utility diverged from serial replay",
    )
    report.audited(auditor.audit(batched.plan))

    # The sharded solver runs on the twin's *final* instance so it sees
    # NewEvent-extended, bound-shifted state too.
    final = twin.instance
    mono = GreedySolver(seed=seed).solve(final)
    k1 = ShardedSolver(shards=1, seed=seed).solve(final)
    report.expect(
        "sharded_k1_equivalence", PlanSummary.of(k1.plan),
        PlanSummary.of(mono.plan),
        "shards=1 must reproduce the monolithic greedy plan",
    )
    first = ShardedSolver(shards=SHARDS, seed=seed).solve(final)
    # The second solve crosses the process boundary: each worker rebuilds
    # its caches from a pickled shard of the patched final instance.
    with ShardedSolver(shards=SHARDS, workers=2, seed=seed) as pooled:
        second = pooled.solve(final)
    report.expect(
        "sharded_determinism", PlanSummary.of(second.plan),
        PlanSummary.of(first.plan),
        f"two-worker solve (k={SHARDS}) diverged from the in-process one",
    )
    for violation in check_plan(final, first.plan):
        report.violations.append(f"sharded: {violation}")
    report.audited(auditor.audit(first.plan))
    mono_utility = total_utility(final, mono.plan)
    if mono_utility > 0.0:
        report.sharded_utility_ratio = (
            total_utility(final, first.plan) / mono_utility
        )


# --------------------------------------------------------------------- #
# durable leg: crash points + torn tails, compared at the horizon
# --------------------------------------------------------------------- #


class _PointCounter:
    """Injector stand-in that only counts crash-point occurrences."""

    def __init__(self) -> None:
        self.counts: dict[str, int] = {}

    def fire(self, point: str, wal: object) -> None:
        self.counts[point] = self.counts.get(point, 0) + 1


def _durable_pass(
    seed: int,
    instance: Instance,
    directory: Path,
    twin: Twin,
    injector: CrashInjector | _PointCounter,
    report: SeedReport,
) -> bool:
    """Drive the twin's stream through a durable platform; True if the
    injector killed it.  Every submit before the kill is diffed against
    the twin (acceptance and utility)."""
    platform = DurablePlatform(
        instance,
        directory,
        solver=GreedySolver(seed=seed),
        snapshot_every=SNAPSHOT_EVERY,
        fsync=False,
        injector=injector,  # type: ignore[arg-type]
    )
    try:
        platform.publish_plans()
        for seq, operation in enumerate(twin.operations, start=1):
            label = f"durable seq {seq} ({type(operation).__name__})"
            try:
                entry = platform.submit(operation)
            except REJECTION_ERRORS:
                entry = None
            if report.expect(
                "acceptance", entry is not None, True, label
            ) and entry is not None:
                report.expect(
                    "twin_utility", entry.utility_after,
                    twin.states[seq].utility, label,
                )
    except InjectedCrash:
        return True
    platform.close()
    return False


def _crash_scenario(
    seed: int,
    instance: Instance,
    directory: Path,
    twin: Twin,
    scenario: CrashScenario,
    report: SeedReport,
) -> None:
    label = f"seed {seed} {scenario.label()}"
    injector = CrashInjector(
        crash_after=scenario.crash_after,
        point=scenario.point,
        tear_tail=scenario.tear_tail,
    )
    report.checks += 1
    scenario.crashed = _durable_pass(
        seed, instance, directory, twin, injector, report
    )
    if not scenario.crashed:
        report.violations.append(
            f"{label}: injector never fired (run completed)"
        )
        return
    try:
        recovered, recovery = DurablePlatform.recover(
            directory,
            solver=GreedySolver(seed=seed),
            snapshot_every=SNAPSHOT_EVERY,
            fsync=False,
        )
    except RecoveryError as exc:
        if exc.report is not None:
            report.violations.extend(
                f"{label}: {problem}"
                for problem in exc.report.mismatches + exc.report.violations
            )
        report.violations.append(f"{label}: {exc}")
        return
    recovered.close()
    scenario.recovered_seq = recovery.last_seq
    scenario.snapshot_seq = recovery.snapshot_seq
    scenario.replayed = recovery.replayed
    scenario.truncated_records = recovery.truncated_records
    report.checks += recovery.audit_checks

    horizon = f"{label}: at seq {recovery.last_seq}"
    state = twin.states.get(recovery.last_seq)
    if state is None:
        report.expect(
            "twin_horizon", recovery.last_seq, len(twin.operations),
            f"{label}: recovered past the twin's last seq",
        )
        return
    report.expect("twin_utility", recovery.utility, state.utility, horizon)
    report.expect(
        "twin_plan", PlanSummary.of(recovered.plan), state.summary, horizon
    )
    if scenario.tear_tail and scenario.point != "snapshot":
        # A torn tail must be detected (the snapshot point can land after
        # the WAL record was already superseded by a snapshot, but for
        # wal-append/apply the torn record is always the newest).
        report.checks += 1
        if scenario.truncated_records == 0:
            report.violations.append(
                f"{label}: tail was torn but nothing was truncated"
            )


def _durable_leg(
    seed: int, instance: Instance, twin: Twin, report: SeedReport
) -> None:
    root = Path(tempfile.mkdtemp(prefix=f"fuzz-durable-{seed}-"))
    try:
        counter = _PointCounter()
        _durable_pass(
            seed, instance, root / "uncrashed", twin, counter, report
        )
        rng = random.Random(seed)
        for point in CRASH_POINTS:
            for tear_tail in (False, True):
                occurrences = counter.counts.get(point, 0)
                if occurrences == 0:
                    continue
                scenario = CrashScenario(
                    point, tear_tail, rng.randint(1, occurrences)
                )
                report.scenarios.append(scenario)
                _crash_scenario(
                    seed,
                    instance,
                    root / f"{point}-{tear_tail}",
                    twin,
                    scenario,
                    report,
                )
    finally:
        shutil.rmtree(root, ignore_errors=True)


# --------------------------------------------------------------------- #
# service leg: the real client/server loop
# --------------------------------------------------------------------- #


@contextmanager
def _serve(dep: LockDep | None) -> Iterator["ServiceThread"]:
    """An in-process service on a temp root, watchdogged under lockdep."""
    from repro.service.server import ServiceThread

    with (
        tempfile.TemporaryDirectory(prefix="fuzz-service-") as root,
        ServiceThread(root) as service,
    ):
        watchdog = None
        if dep is not None and service.loop is not None:
            watchdog = LoopWatchdog(service.loop, sink=dep.stalls).start()
        try:
            yield service
        finally:
            if watchdog is not None:
                watchdog.stop()


def _service_leg(
    seed: int,
    config: FuzzConfig,
    twin: Twin,
    report: SeedReport,
    service: "ServiceThread",
) -> None:
    from repro.service.client import ServiceClient, WebSocketClient

    tenant = f"fuzz-{seed}"
    with (
        ServiceClient(service.host, service.port) as http_client,
        WebSocketClient(service.host, service.port) as ws_client,
    ):
        http_client.create_tenant(
            {
                "name": tenant,
                "kind": "meetup",
                "users": config.n_users,
                "events": config.n_events,
                "groups": GROUPS,
                "conflict": CONFLICT_RATIO,
                "seed": seed,
                "snapshot_every": SNAPSHOT_EVERY,
            }
        )
        report.expect(
            "twin_utility", http_client.publish(tenant),
            twin.states[0].utility, f"service seed {seed}: publish",
        )
        for step, operation in enumerate(twin.operations):
            label = f"service step {step} ({type(operation).__name__})"
            client = ws_client if step % 2 else http_client
            result = client.submit(tenant, [operation])
            if not report.expect("acceptance", result["applied"], 1, label):
                continue
            report.expect(
                "twin_utility", result["utility"],
                twin.states[step + 1].utility, label,
            )
            if result["violations"]:
                report.violations.append(
                    f"{label}: service reported {result['violations']} "
                    "feasibility violations"
                )
        report.expect(
            "twin_plan",
            tuple(tuple(events) for events in http_client.plan_summary(tenant)),
            twin.states[len(twin.operations)].summary.assignments,
            f"service seed {seed}: final plan-summary",
        )
        report.expect(
            "oplog_fidelity",
            ws_client.rpc("oplog", tenant=tenant)["ops"],
            [operation_to_dict(op) for op in twin.operations],
            f"service seed {seed}: served applied log vs the twin's stream",
        )


# --------------------------------------------------------------------- #
# the driver
# --------------------------------------------------------------------- #


def fuzz_seed(
    seed: int,
    config: FuzzConfig | None = None,
    service: "ServiceThread | None" = None,
) -> SeedReport:
    """Run every leg of the preset on one seed against one twin.

    The service leg runs against ``service`` (:func:`run_fuzz` starts
    one shared service for all seeds).
    """
    config = config or FuzzConfig()
    instance = generate_ebsn(config.meetup(seed))
    twin = run_twin(
        EBSNPlatform(instance, solver=GreedySolver(seed=seed)),
        config.operations,
        seed,
    )
    report = SeedReport(
        seed=seed,
        operations=len(twin.operations),
        final_utility=twin.states[len(twin.operations)].utility,
    )
    if twin.rejections:
        # Every leg applies the same engine, so each would agree with a
        # rejection of a valid operation; the twin fails the seed instead.
        report.violations.extend(
            f"twin rejected a valid operation at {rejection}"
            for rejection in twin.rejections
        )
        return report
    for leg in config.legs:
        if leg == "memory":
            _memory_leg(seed, instance, twin, report)
        elif leg == "sharded":
            _sharded_leg(seed, instance, twin, report)
        elif leg == "durable":
            _durable_leg(seed, instance, twin, report)
        elif service is None:
            raise ValueError("the service leg needs a running service")
        else:
            _service_leg(seed, config, twin, report, service)
    return report


def run_fuzz(
    seeds: Iterable[int], config: FuzzConfig | None = None
) -> FuzzSummary:
    """Fuzz every seed and aggregate; emits ``repro.obs`` counters.

    The service preset shares one in-process service across seeds.
    Under ``REPRO_SHADOW_CHECKS=1`` it is additionally instrumented by
    :mod:`repro.check.lockdep`: every lock the service stack creates
    records its acquisition-order edges (cross-checked against the
    static RL010 table afterwards) and a watchdog thread heartbeats the
    service event loop to catch blocking work that escaped the RL009
    executor discipline.
    """
    obs = get_recorder()
    config = config or FuzzConfig()
    summary = FuzzSummary(preset=config.preset)
    dep = None
    with ExitStack() as stack:
        service = None
        if "service" in config.legs:
            # Installed before the service starts, so the manager, tenant
            # and platform locks are all created instrumented.
            dep = stack.enter_context(maybe_lockdep())
            service = stack.enter_context(_serve(dep))
        with obs.span("check.fuzz"):
            for seed in seeds:
                with obs.span("seed"):
                    report = fuzz_seed(seed, config, service)
                summary.reports.append(report)
                obs.count("check.fuzz.seeds")
                obs.count("check.fuzz.operations", report.operations)
                obs.count("check.fuzz.checks", report.checks)
                obs.count("check.fuzz.mismatches", len(report.mismatches))
                obs.count("check.fuzz.violations", len(report.violations))
                obs.count("check.fuzz.repins", report.repins)
                obs.count("check.fuzz.scenarios", len(report.scenarios))
    obs.count("check.fuzz.replayed", summary.replayed)
    obs.count("check.fuzz.truncated", summary.truncated_records)
    obs.gauge("check.fuzz.max_drift", summary.max_drift)
    if dep is not None:
        summary.lockdep = dep.summarize()
    return summary


__all__ = [
    "PRESETS",
    "CrashScenario",
    "FuzzConfig",
    "FuzzSummary",
    "SeedReport",
    "Twin",
    "TwinState",
    "fuzz_seed",
    "run_fuzz",
    "run_twin",
]
