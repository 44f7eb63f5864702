"""Differential correctness harness for the incremental plan kernel.

PR 2 made every hot path depend on incrementally maintained state:
splice-delta route costs, per-event attendee indexes, lazy blocked-event
counters, write-locked kernel rows, and identity-shared caches across the
``with_*`` instance updates.  This package is the tooling that keeps that
state honest:

* :class:`InvariantAuditor` recomputes every cached quantity from scratch
  and diffs it against the live caches, producing structured
  :class:`CacheMismatch` reports; :func:`exhaustive_check_plan` is the
  unscreened walk ``check_plan`` must equal;
* :func:`shadow_checks` (or the ``REPRO_SHADOW_CHECKS`` env var) wraps
  ``GlobalPlan.add``/``remove`` and ``IEPEngine.apply`` so every mutation
  is audited as it happens;
* :func:`run_fuzz` is the one differential fuzz driver
  (``repro-gepc fuzz``): per seed it runs a seeded operation stream
  through an in-memory oracle twin (:func:`run_twin`) and diffs every
  system under test against it — the incremental IEP engine (audited,
  rebuilt from scratch, kernel vs scalar), the batched and sharded
  paths, a crash-injected durable platform recovered at its durable
  horizon, and the planning service over HTTP/WebSocket.  The CLI
  flags ``--sharded``/``--durable``/``--service`` are presets of it
  (see ``docs/correctness.md`` §3);
* :mod:`repro.check.lockdep` instruments ``threading`` lock creation to
  record the runtime lock-acquisition order (cross-checked against the
  static RL010 declared-order table) and heartbeats the service event
  loop to catch stalls — rides along with the fuzz driver's service
  preset under ``REPRO_SHADOW_CHECKS=1``.

See ``docs/correctness.md`` for the full guide.
"""

from repro.check.auditor import (
    AuditReport,
    CacheMismatch,
    InvariantAuditor,
    exhaustive_check_plan,
)
from repro.check.fuzz import (
    PRESETS,
    CrashScenario,
    FuzzConfig,
    FuzzSummary,
    SeedReport,
    Twin,
    TwinState,
    fuzz_seed,
    run_fuzz,
    run_twin,
)
from repro.check.lockdep import (
    LockDep,
    LockDepSummary,
    LoopWatchdog,
    lockdep_checks,
    maybe_lockdep,
)
from repro.check.shadow import (
    ENV_VAR,
    ShadowCheckError,
    ShadowStats,
    maybe_shadow_checks,
    shadow_checks,
    shadow_checks_enabled,
)

__all__ = [
    "ENV_VAR",
    "PRESETS",
    "AuditReport",
    "CacheMismatch",
    "CrashScenario",
    "FuzzConfig",
    "FuzzSummary",
    "InvariantAuditor",
    "LockDep",
    "LockDepSummary",
    "LoopWatchdog",
    "SeedReport",
    "ShadowCheckError",
    "ShadowStats",
    "Twin",
    "TwinState",
    "exhaustive_check_plan",
    "fuzz_seed",
    "lockdep_checks",
    "maybe_lockdep",
    "maybe_shadow_checks",
    "run_fuzz",
    "run_twin",
    "shadow_checks",
    "shadow_checks_enabled",
]
