"""Runtime lockdep: observe real lock-acquisition order and loop stalls.

The static side of this story lives in :mod:`repro.lint.interproc`
(RL010 proves the *declared* lock-order table acyclic over every path
the call graph can see).  This module is the dynamic cross-check: while
installed, :class:`LockDep` replaces the ``threading.Lock``/``RLock``
factories with thin instrumented wrappers that record, per thread, the
stack of held locks and every *acquisition-order edge* (lock A held
while taking lock B), keyed by each lock's allocation site — the
``(file, line)`` of the ``threading.Lock()`` call, which is exactly the
site the lint call graph records for ``self._lock = threading.Lock()``
declarations.  After a run the observed edges are mapped back onto the
static identities (``module:Class._attr``) and checked against the
declared order table from ``[tool.repro-lint.rules.rl010]``:

* an edge taking a *later* declared lock while holding an *earlier* one
  in reverse rank order is an **order violation**;
* a cycle among observed edges (ABBA and longer) is a **dynamic
  deadlock witness** — reported even between locks the table does not
  rank.

A :class:`LoopWatchdog` rides along for the RL009 story: a daemon
thread heartbeats the service event loop via ``call_soon_threadsafe``
and records any beat whose round-trip exceeds the stall threshold —
evidence of blocking work that reached the loop despite the executor
discipline.  Stalls are advisory (CI runners stutter); order violations
and dynamic cycles are failures.

Enabled in the fuzz driver's service preset under ``REPRO_SHADOW_CHECKS=1``::

    REPRO_SHADOW_CHECKS=1 repro-gepc fuzz --service --seeds 10

Caveats (also in ``docs/linting.md``): only locks *created while the
patch is installed* are tracked — module-level locks allocated at import
time (e.g. ``repro.core.kernel._ACTIVE_LOCK``) predate it; and code that
froze ``from threading import Lock`` before installation keeps the real
factory.
"""

from __future__ import annotations

import _thread
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from repro.check.shadow import shadow_checks_enabled
from repro.obs import get_recorder

#: Allocation site of one instrumented lock: (absolute file, line).
Site = tuple[str, int]


@dataclass
class LockDepSummary:
    """What one instrumented run observed, cross-checked statically."""

    locks: int = 0
    acquisitions: int = 0
    edges: int = 0
    identified: int = 0  # edges whose both endpoints map to identities
    violations: list[str] = field(default_factory=list)
    cycles: list[str] = field(default_factory=list)
    stalls: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Stalls are advisory; order violations and cycles are not."""
        return not self.violations and not self.cycles


class _InstrumentedLock:
    """A recording proxy in front of one real ``threading`` lock.

    Supports the full lock protocol (``acquire(blocking, timeout)``,
    ``release``, context manager, ``locked``) and forwards anything else
    (``_is_owned``, ``_release_save``, ...) to the inner lock so
    ``threading.Condition``/``Event``/``Queue`` built on top keep
    working unchanged.
    """

    def __init__(self, dep: "LockDep", inner: Any, site: Site,
                 reentrant: bool) -> None:
        self._dep = dep
        self._inner = inner
        self._site = site
        self._reentrant = reentrant

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            self._dep._record_acquire(self)
        return acquired

    def release(self) -> None:
        self._inner.release()
        self._dep._record_release(self)

    def locked(self) -> bool:
        return self._inner.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc: object) -> None:
        self.release()

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


class LockDep:
    """Install/uninstall the instrumented lock factories and aggregate.

    Not reentrant and process-global while installed — exactly one
    instance should be active (the fuzz harness owns it).
    """

    def __init__(self) -> None:
        # A raw _thread lock: allocated outside the patched factories so
        # recording can never recurse into itself.
        self._state_lock = _thread.allocate_lock()
        self._held = threading.local()
        self._installed = False
        self._real_lock = threading.Lock
        self._real_rlock = threading.RLock
        self.locks = 0
        self.acquisitions = 0
        #: (first site, second site) -> observation count.
        self.edges: dict[tuple[Site, Site], int] = {}
        self.stalls: list[str] = []

    # -- patching ------------------------------------------------------ #

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("LockDep is already installed")
        self._real_lock = threading.Lock
        self._real_rlock = threading.RLock
        threading.Lock = self._make_factory(reentrant=False)  # type: ignore[misc, assignment]
        threading.RLock = self._make_factory(reentrant=True)  # type: ignore[misc, assignment]
        self._installed = True

    def uninstall(self) -> None:
        if not self._installed:
            return
        threading.Lock = self._real_lock  # type: ignore[misc]
        threading.RLock = self._real_rlock  # type: ignore[misc]
        self._installed = False

    def _make_factory(self, reentrant: bool) -> Any:
        real = self._real_rlock if reentrant else self._real_lock

        def factory() -> _InstrumentedLock:
            site = _allocation_site()
            with self._state_lock:
                self.locks += 1
            return _InstrumentedLock(self, real(), site, reentrant)

        return factory

    # -- recording (called from the wrappers, any thread) -------------- #

    def _stack(self) -> list[_InstrumentedLock]:
        stack = getattr(self._held, "stack", None)
        if stack is None:
            stack = []
            self._held.stack = stack
        return stack

    def _record_acquire(self, lock: _InstrumentedLock) -> None:
        stack = self._stack()
        with self._state_lock:
            self.acquisitions += 1
            for held in stack:
                if held is lock and lock._reentrant:
                    continue  # re-entrant self-acquisition
                pair = (held._site, lock._site)
                self.edges[pair] = self.edges.get(pair, 0) + 1
        stack.append(lock)

    def _record_release(self, lock: _InstrumentedLock) -> None:
        stack = self._stack()
        # A plain Lock may legally be released by a thread that never
        # acquired it; only unwind our own thread's view.
        for position in range(len(stack) - 1, -1, -1):
            if stack[position] is lock:
                del stack[position]
                break

    # -- reporting ----------------------------------------------------- #

    def summarize(
        self,
        declared_order: list[str] | None = None,
        lock_table: dict[str, Site] | None = None,
    ) -> LockDepSummary:
        """Cross-check observations against the static declared order.

        With no arguments the declared table and the identity map are
        loaded from the lint side (``[tool.repro-lint.rules.rl010]`` and
        the project call graph); both degrade to empty when the source
        tree is not available, leaving only dynamic-cycle detection.
        """
        if declared_order is None:
            declared_order = static_declared_order()
        if lock_table is None:
            lock_table = static_lock_table()
        by_site = _invert_lock_table(lock_table)
        rank = {identity: i for i, identity in enumerate(declared_order)}
        summary = LockDepSummary(
            locks=self.locks,
            acquisitions=self.acquisitions,
            edges=len(self.edges),
            stalls=list(self.stalls),
        )
        named: dict[tuple[str, str], tuple[Site, Site, int]] = {}
        for (first, second), count in sorted(self.edges.items()):
            first_id = _identify(first, by_site)
            second_id = _identify(second, by_site)
            if first_id is None or second_id is None:
                continue
            summary.identified += 1
            named.setdefault(
                (first_id, second_id), (first, second, count)
            )
            if (
                first_id in rank
                and second_id in rank
                and rank[first_id] > rank[second_id]
            ):
                summary.violations.append(
                    f"declared-order violation: took {second_id} "
                    f"(rank {rank[second_id]}) at "
                    f"{_fmt_site(second)} while holding {first_id} "
                    f"(rank {rank[first_id]}, allocated at "
                    f"{_fmt_site(first)}) — observed {count} time(s)"
                )
        summary.cycles.extend(_dynamic_cycles(named))
        get_recorder().count(
            "check.lockdep.violations", len(summary.violations)
        )
        get_recorder().count("check.lockdep.cycles", len(summary.cycles))
        return summary


class LoopWatchdog:
    """Heartbeat an event loop from a daemon thread; record stalls.

    Every ``interval`` seconds a no-op callback is posted with
    ``call_soon_threadsafe``; if its round-trip exceeds ``threshold``
    the beat is recorded as a stall.  ``stop()`` joins the thread.
    """

    def __init__(
        self,
        loop: Any,
        threshold: float = 0.5,
        interval: float = 0.1,
        sink: list[str] | None = None,
    ) -> None:
        self.loop = loop
        self.threshold = threshold
        self.interval = interval
        self.stalls: list[str] = sink if sink is not None else []
        self._stopping = threading.Event()
        self._thread: threading.Thread | None = None

    def start(self) -> "LoopWatchdog":
        self._thread = threading.Thread(
            target=self._monitor, name="repro-lockdep-watchdog",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stopping.set()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None

    def _monitor(self) -> None:
        obs = get_recorder()
        while not self._stopping.wait(self.interval):
            beat = threading.Event()
            started = time.monotonic()
            try:
                self.loop.call_soon_threadsafe(beat.set)
            except RuntimeError:  # loop already closed
                return
            beat.wait(timeout=self.threshold * 4)
            delay = time.monotonic() - started
            if delay > self.threshold:
                obs.count("check.lockdep.stalls")
                self.stalls.append(
                    f"event-loop stall: heartbeat took {delay:.3f}s "
                    f"(threshold {self.threshold:.3f}s)"
                )


@contextmanager
def lockdep_checks() -> Iterator[LockDep]:
    """Scoped installation: patch the factories, yield the recorder."""
    dep = LockDep()
    dep.install()
    try:
        yield dep
    finally:
        dep.uninstall()


@contextmanager
def maybe_lockdep() -> Iterator[LockDep | None]:
    """:func:`lockdep_checks` when ``REPRO_SHADOW_CHECKS`` is on, else ``None``."""
    if not shadow_checks_enabled():
        yield None
        return
    with lockdep_checks() as dep:
        yield dep


# ---------------------------------------------------------------------- #
# Static-side bridges (degrade to empty without a source checkout)
# ---------------------------------------------------------------------- #


def static_declared_order() -> list[str]:
    """The RL010 declared-order table the static rule enforces."""
    try:
        from repro.lint.config import load_config
        from repro.lint.rules.rl010_lockorder import LockOrderDiscipline
    except Exception:  # pragma: no cover - lint side unavailable
        return []
    options = dict(LockOrderDiscipline.default_options)
    try:
        options.update(load_config().rule_options.get("rl010", {}))
    except Exception:  # pragma: no cover - unparsable pyproject
        pass
    declared = options.get("declared_order", [])
    return [str(identity) for identity in declared]


def static_lock_table() -> dict[str, Site]:
    """``identity -> allocation site`` from the lint call graph."""
    try:
        from repro.lint.callgraph import CallGraph
        from repro.lint.config import load_config
        from repro.lint.engine import collect_contexts
        from repro.lint.interproc import collect_lock_table
    except Exception:  # pragma: no cover - lint side unavailable
        return {}
    try:
        contexts, _, _ = collect_contexts(None, config=load_config())
    except Exception:  # pragma: no cover - no linted tree on disk
        return {}
    if not contexts:
        return {}
    return collect_lock_table(CallGraph.build(contexts))


def _invert_lock_table(
    lock_table: dict[str, Site]
) -> dict[tuple[tuple[str, ...], int], str]:
    """Map (path-suffix parts, line) back to a lock identity."""
    inverted: dict[tuple[tuple[str, ...], int], str] = {}
    for identity, (path, line) in lock_table.items():
        inverted[(Path(path).parts[-3:], line)] = identity
    return inverted


def _identify(
    site: Site, by_site: dict[tuple[tuple[str, ...], int], str]
) -> str | None:
    """The static identity of a runtime allocation site, if known."""
    parts = Path(site[0]).parts
    for depth in (3, 2, 1):
        identity = by_site.get((parts[-depth:], site[1]))
        if identity is not None:
            return identity
    return None


def _allocation_site() -> Site:
    """(file, line) of the frame that called the lock factory."""
    frame = sys._getframe(1)
    here = __file__
    while frame is not None and frame.f_code.co_filename == here:
        frame = frame.f_back
    if frame is None:  # pragma: no cover - interpreter shutdown
        return ("<unknown>", 0)
    return (frame.f_code.co_filename, frame.f_lineno)


def _fmt_site(site: Site) -> str:
    path = Path(site[0])
    return f"{'/'.join(path.parts[-3:])}:{site[1]}"


def _dynamic_cycles(
    named: dict[tuple[str, str], tuple[Site, Site, int]]
) -> list[str]:
    """Cycles among identity-mapped observed edges (ABBA and longer)."""
    adjacency: dict[str, set[str]] = {}
    for first_id, second_id in named:
        if first_id == second_id:
            continue  # re-entrant wrappers never record self-edges
        adjacency.setdefault(first_id, set()).add(second_id)
        adjacency.setdefault(second_id, set())
    cycles: list[str] = []
    seen_cycles: set[tuple[str, ...]] = set()
    for start in sorted(adjacency):
        stack: list[tuple[str, tuple[str, ...]]] = [(start, (start,))]
        while stack:
            node, path = stack.pop()
            for successor in sorted(adjacency.get(node, ())):
                if successor == start and len(path) > 1:
                    canonical = tuple(sorted(path))
                    if canonical in seen_cycles:
                        continue
                    seen_cycles.add(canonical)
                    hops = " -> ".join(path + (start,))
                    witness = named.get(
                        (path[-1], start)
                    ) or named.get((path[0], path[1]))
                    where = (
                        f" (e.g. {_fmt_site(witness[1])})"
                        if witness
                        else ""
                    )
                    cycles.append(
                        f"dynamic lock-order cycle: {hops}{where}"
                    )
                elif successor not in path:
                    stack.append((successor, path + (successor,)))
    return cycles


__all__ = [
    "LockDep",
    "LockDepSummary",
    "LoopWatchdog",
    "lockdep_checks",
    "maybe_lockdep",
    "static_declared_order",
    "static_lock_table",
]
