"""Per-layer tracing by wrapping public functions of the program.

Nothing inside ``src/`` is instrumented for the benchmark: for the
traced half of a ``--trace 1`` run, :func:`installed` replaces each
function named in :data:`SPANS` with a timing wrapper, everywhere the
program can reach it (every ``repro`` module attribute bound to it, or
the class attribute for methods), and puts the originals back on exit.

A wrapper records, per span name, the number of calls, the *inclusive*
time of the outermost active call (a nested call of the same span, such
as a repair that reduces to another repair, is not counted twice) and
the *self* time (inclusive minus the wrapped calls made inside it on the
same thread).  Summed self time is the part of the end-to-end time the
layers explain.

Spans are only kept while :attr:`Tracer.phase` is set, so the
benchmark's own checks, which call the same functions, are never
counted.  The service workload sends one request at a time, so the
service threads can read the phase the client thread set.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any

#: Attribute set on every wrapper, so a leak can be detected.
MARKER = "__perfbench_wrapped__"


@dataclass
class SpanTotals:
    calls: int = 0
    inclusive: float = 0.0
    self_time: float = 0.0
    units: float = 0.0


class Tracer:
    """Collects span totals per ``(phase, name)`` from any thread."""

    def __init__(self) -> None:
        self.phase: str | None = None
        #: Request kind ("write"/"read") the dispatch span is split by.
        self.tag = "write"
        self._lock = threading.Lock()
        self._local = threading.local()
        self._totals: dict[tuple[str, str], SpanTotals] = defaultdict(
            SpanTotals
        )
        #: Tiled distance backends created by copy while recording.
        self.tile_backends: list[Any] = []

    def _frames(self) -> list[list]:
        frames = getattr(self._local, "frames", None)
        if frames is None:
            frames = self._local.frames = []
        return frames

    def record(
        self,
        name: str,
        inclusive: float,
        self_time: float,
        units: float = 0.0,
        calls: int = 1,
    ) -> None:
        phase = self.phase
        if phase is None:
            return
        with self._lock:
            totals = self._totals[(phase, name)]
            totals.calls += calls
            totals.inclusive += inclusive
            totals.self_time += self_time
            totals.units += units

    def totals(self, phase: str, name: str) -> SpanTotals:
        with self._lock:
            return self._totals.get((phase, name), SpanTotals())

    def self_time(self, phase: str) -> float:
        """Summed self time of every span recorded in ``phase``."""
        return sum(self.self_times(phase).values())

    def self_times(self, phase: str) -> dict[str, float]:
        """Self time per span recorded in ``phase``."""
        with self._lock:
            return {
                name: totals.self_time
                for (span_phase, name), totals in self._totals.items()
                if span_phase == phase and totals.self_time
            }

    @contextmanager
    def window(self, phase: str = "run") -> Iterator["Window"]:
        """Time one end-to-end window with spans kept under ``phase``."""
        window = Window()
        previous, self.phase = self.phase, phase
        start = time.perf_counter()
        try:
            yield window
        finally:
            window.elapsed = time.perf_counter() - start
            self.phase = previous


class Window:
    """The measured wall time of one :meth:`Tracer.window`."""

    elapsed = 0.0


# ---------------------------------------------------------------------- #
# Wrappers
# ---------------------------------------------------------------------- #


def _sync_wrapper(
    tracer: Tracer,
    name: str,
    fn: Callable,
    kind_of: Callable[..., str] | None = None,
    units_of: Callable[..., float] | None = None,
    within: str | None = None,
) -> Callable:
    """Time ``fn`` as span ``name``.

    ``kind_of(args)`` also records the time under ``name.<kind>``;
    ``units_of(args, result)`` adds a count (rows, bytes) to the span;
    calls made while span ``within`` is active on the same thread are
    also recorded under ``name@within``.
    """

    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        frames = tracer._frames()
        outermost = all(frame[0] != name for frame in frames)
        nested = within is not None and any(f[0] == within for f in frames)
        frame = [name, 0.0]
        frames.append(frame)
        result = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            elapsed = time.perf_counter() - start
            frames.pop()
            if frames:
                frames[-1][1] += elapsed
            units = units_of(args, result) if units_of is not None else 0.0
            tracer.record(
                name, elapsed if outermost else 0.0, elapsed - frame[1], units
            )
            # Inclusive only: a split must not add explained time.
            if kind_of is not None:
                tracer.record(f"{name}.{kind_of(args)}", elapsed, 0.0)
            if nested and outermost:
                tracer.record(f"{name}@{within}", elapsed, 0.0)

    setattr(traced, MARKER, True)
    return traced


def _dispatch_wrapper(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """``PlanningApp.dispatch_raw``: inclusive time, split by request kind.

    Its self time is not counted as explained: what it does besides the
    wrapped calls (executor hops, response encoding) is the service's
    unexplained share.
    """

    @functools.wraps(fn)
    async def traced(*args: Any, **kwargs: Any) -> Any:
        start = time.perf_counter()
        try:
            return await fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            tracer.record(name, elapsed, 0.0)
            tracer.record(f"{name}.{tracer.tag}", elapsed, 0.0)

    setattr(traced, MARKER, True)
    return traced


def _inbox_wrapper(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """``Tenant.run_write``: time from entry until the job starts."""

    @functools.wraps(fn)
    async def traced(self: Any, job: Callable[[], Any]) -> Any:
        entered = time.perf_counter()

        def timed_job() -> Any:
            waited = time.perf_counter() - entered
            tracer.record(name, waited, waited)
            return job()

        return await fn(self, timed_job)

    setattr(traced, MARKER, True)
    return traced


def _tile_copy_tap(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """``TiledDistanceMatrix.copy``: keep each copy so its (fresh)
    serve counters can be summed at the end of the traced pass."""

    @functools.wraps(fn)
    def traced(self: Any) -> Any:
        clone = fn(self)
        if tracer.phase is not None:
            tracer.tile_backends.append(clone)
        return clone

    setattr(traced, MARKER, True)
    return traced


def _operation_kind(args: tuple) -> str:
    return type(args[3]).__name__


def _block_rows(args: tuple, result: Any) -> float:
    return float(len(args[1]))


def _snapshot_bytes(args: tuple, result: Any) -> float:
    return float(Path(result).stat().st_size) if result is not None else 0.0


#: ``(span name, "module:Qual.attr" targets, wrapper factory, options)``.
SPANS: list[tuple[str, tuple[str, ...], Callable, dict]] = [
    ("constraints.check_plan", ("repro.core.constraints:check_plan",),
     _sync_wrapper, {}),
    ("iep.apply", ("repro.core.iep.engine:IEPEngine.apply",),
     _sync_wrapper, {"kind_of": _operation_kind}),
    ("iep.instance_update",
     ("repro.core.iep.operations:AtomicOperation.apply_to_instance",),
     _sync_wrapper, {}),
    ("iep.rebind", ("repro.core.plan:GlobalPlan.rebound_to",),
     _sync_wrapper, {}),
    ("iep.repair", (
        "repro.core.iep.eta_decrease:eta_decrease",
        "repro.core.iep.xi_increase:xi_increase",
        "repro.core.iep.time_change:time_change",
        "repro.core.iep.time_change:location_change",
        "repro.core.iep.reductions:eta_increase",
        "repro.core.iep.reductions:xi_decrease",
        "repro.core.iep.reductions:new_event",
        "repro.core.iep.reductions:utility_change",
        "repro.core.iep.reductions:budget_change",
    ), _sync_wrapper, {}),
    ("iep.dif", ("repro.core.metrics:dif",), _sync_wrapper, {}),
    ("metrics.total_utility", ("repro.core.metrics:total_utility",),
     _sync_wrapper, {}),
    ("platform.submit", ("repro.platform.service:EBSNPlatform.submit",),
     _sync_wrapper, {}),
    ("oplog.append", ("repro.platform.oplog:WriteAheadLog.append",),
     _sync_wrapper, {}),
    ("snapshot.save", ("repro.platform.snapshot:save_snapshot",),
     _sync_wrapper, {"units_of": _snapshot_bytes}),
    ("batched.flush", ("repro.scale.batched:BatchedPlatform.flush",),
     _sync_wrapper, {}),
    ("service.dispatch", ("repro.service.app:PlanningApp.dispatch_raw",),
     _dispatch_wrapper, {}),
    ("service.inbox_wait", ("repro.service.tenants:Tenant.run_write",),
     _inbox_wrapper, {}),
    ("service.decode", (
        "repro.service.protocol:parse_frame",
        "repro.service.protocol:decode_operations",
    ), _sync_wrapper, {}),
    ("gepc.solve", ("repro.core.gepc.greedy:GreedySolver.solve",),
     _sync_wrapper, {}),
    ("gepc.fill", ("repro.core.gepc.fill:UtilityFill.fill",),
     _sync_wrapper, {"within": "gepc.solve"}),
    ("kernel.block", ("repro.core.kernel:kernel_block",),
     _sync_wrapper, {"units_of": _block_rows}),
    ("kernel.row", ("repro.core.kernel:kernel_row",), _sync_wrapper, {}),
    ("datasets.generate", (
        "repro.datasets.scale:generate_scale_instance",
        "repro.datasets.cities:make_city",
    ), _sync_wrapper, {}),
    ("tiles.copy", ("repro.core.tiles:TiledDistanceMatrix.copy",),
     _tile_copy_tap, {}),
]


def _resolve(target: str) -> tuple[Any, str]:
    """``"module:Qual.attr"`` -> ``(owner, attr)``."""
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr


def _method_owners(cls: type, attr: str) -> list[type]:
    """``cls`` and every subclass that defines ``attr`` itself."""
    owners, pending = [], [cls]
    while pending:
        klass = pending.pop()
        if attr in vars(klass):
            owners.append(klass)
        pending.extend(klass.__subclasses__())
    return owners


def _program_modules() -> list[Any]:
    """The program's modules, and the benchmark's own (which call the
    program's public functions through names they imported)."""
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None
        and name.partition(".")[0] in ("repro", "perfbench")
        and name != __name__
    ]


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every :data:`SPANS` target for the duration of the block."""
    # (owner, attr, original) for class attributes; (original, wrapper)
    # for module functions, which may be bound under several names.
    class_patches: list[tuple[type, str, Any]] = []
    function_patches: list[tuple[Any, Any]] = []
    try:
        for name, targets, factory, options in SPANS:
            for target in targets:
                owner, attr = _resolve(target)
                if isinstance(owner, type):
                    for klass in _method_owners(owner, attr):
                        original = vars(klass)[attr]
                        if getattr(original, "__isabstractmethod__", False):
                            continue
                        class_patches.append((klass, attr, original))
                        setattr(
                            klass, attr,
                            factory(tracer, name, original, **options),
                        )
                else:
                    original = getattr(owner, attr)
                    wrapper = factory(tracer, name, original, **options)
                    function_patches.append((original, wrapper))
                    for module in _program_modules():
                        for alias, value in list(vars(module).items()):
                            if value is original:
                                setattr(module, alias, wrapper)
        yield tracer
    finally:
        for klass, attr, original in reversed(class_patches):
            setattr(klass, attr, original)
        # Scan again: a module imported while the wrappers were in place
        # bound the wrapper, not the original.
        originals = {id(wrapper): original for original, wrapper in function_patches}
        for module in _program_modules():
            for alias, value in list(vars(module).items()):
                original = originals.get(id(value))
                if original is not None:
                    setattr(module, alias, original)


def leaked_wrappers() -> list[str]:
    """Every program attribute still bound to a wrapper (should be [])."""
    found = []
    for module in _program_modules():
        for alias, value in list(vars(module).items()):
            if getattr(value, MARKER, False):
                found.append(f"{module.__name__}.{alias}")
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attr, member in list(vars(value).items()):
                    if getattr(member, MARKER, False):
                        found.append(f"{module.__name__}.{alias}.{attr}")
    return found
