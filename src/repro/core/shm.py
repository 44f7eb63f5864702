"""Shared-memory instance planes: zero-copy shard dispatch.

The sharded solver ships every worker a problem slice.  Before this
module, each dispatch re-pickled the dense planes a solve reads —
distance blocks, the conflict matrix, the utility matrix — or dropped
them and paid a full geometry rebuild in the worker.  Both costs scale
with ``n x m`` per *shard dispatch*, for data that never changes during
a solve.

Here the parent instead publishes each plane once into a
:class:`multiprocessing.shared_memory.SharedMemory` segment and ships
only a tiny picklable :class:`PlaneHandle` (name + shape + dtype).
Workers attach by name — zero copies, fork- and spawn-safe — and map the
segment as a **read-only** numpy array, which also hard-blocks the
cache-desync bug class RL001 guards against (a worker physically cannot
scribble on a shared plane).

Lifecycle discipline (the part that goes wrong in practice):

* every segment is created through a :class:`PlaneManager`, never with
  raw ``SharedMemory(...)`` at call sites (lint rule RL007 enforces
  this);
* the creating process owns ``unlink``; attachments only ever ``close``;
* release is **exactly-once and idempotent** — ``weakref.finalize``
  backstops explicit ``release()`` calls, a double release is a no-op,
  and an already-gone segment (``FileNotFoundError``) is swallowed, so a
  worker crash mid-solve can never leave the teardown path raising;
* attachments are opened **untracked**: pre-3.13 ``SharedMemory``
  registers every open — even a plain attach — with
  ``multiprocessing.resource_tracker``, so a worker exit would unlink a
  segment the parent still owns (and, under fork pools that share the
  parent's tracker, an attach-then-unregister would erase the *owner's*
  registration instead).  Suppressing the attach-side registration
  keeps the owner's tracker entry as the sole — balanced — one.

``leaked_segments()`` lists live ``repro-pln-*`` segments so concurrency
tests can assert nothing leaked into ``/dev/shm``.
"""

from __future__ import annotations

import os
import threading
import weakref
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from repro.obs import get_recorder

#: Prefix of every segment this module creates.  Deliberately short:
#: POSIX shm names are limited (macOS caps them at 31 chars) and the
#: suffix must fit pid + counter.
SEGMENT_PREFIX = "repro-pln-"

_COUNTER_LOCK = threading.Lock()
_COUNTER = 0


def _next_segment_name() -> str:
    """A collision-free segment name: prefix + pid + process-wide counter.

    Deterministic on purpose — no RNG (RL005), and a leaked segment's
    name immediately identifies the process that created it.
    """
    global _COUNTER
    with _COUNTER_LOCK:
        _COUNTER += 1
        return f"{SEGMENT_PREFIX}{os.getpid()}-{_COUNTER}"


@dataclass(frozen=True)
class PlaneHandle:
    """A picklable descriptor of one shared plane.

    This — not the array — is what crosses the process boundary: a few
    dozen bytes regardless of plane size.
    """

    name: str
    shape: tuple[int, ...]
    dtype: str

    @property
    def nbytes(self) -> int:
        return int(np.dtype(self.dtype).itemsize * int(np.prod(self.shape)))


class PlaneAttachment:
    """A read-only numpy view over an attached (not owned) segment.

    Closing detaches the local mapping; it never unlinks — the creating
    :class:`PlaneManager` owns destruction.  Close is idempotent and
    backstopped by ``weakref.finalize``.
    """

    def __init__(self, handle: PlaneHandle) -> None:
        segment = _open_untracked(handle.name)
        self.handle = handle
        self._segment = segment
        array: np.ndarray = np.ndarray(
            handle.shape, dtype=handle.dtype, buffer=segment.buf
        )
        array.flags.writeable = False
        self.array = array
        self._close = weakref.finalize(self, _close_segment, segment)

    def close(self) -> None:
        """Detach the local mapping (idempotent; owner still holds it)."""
        # Drop the array first: closing a SharedMemory whose buffer still
        # has exported views raises BufferError.
        self.array = None  # type: ignore[assignment]
        self._close()


def attach_plane(handle: PlaneHandle) -> PlaneAttachment:
    """Attach to a plane published by another process.

    Raises ``FileNotFoundError`` if the owner already unlinked it — a
    handle never outlives its manager's :meth:`PlaneManager.release`.
    """
    attachment = PlaneAttachment(handle)
    obs = get_recorder()
    obs.count("shm.planes_attached")
    obs.count("shm.bytes_attached", handle.nbytes)
    return attachment


class PlaneManager:
    """Creates, tracks, and exactly-once-destroys shared plane segments.

    The only sanctioned way to create segments (RL007).  Usable as a
    context manager; otherwise :meth:`release` — or, as a last resort,
    the GC/interpreter-exit finalizer — reclaims every segment.  All
    paths funnel into one ``weakref.finalize`` per segment (finalizers
    also run at interpreter exit via their built-in atexit hook), so any
    combination of explicit release, context exit, interpreter exit, and
    GC unlinks each segment exactly once and never raises on a segment
    that a crashed worker (or an earlier pass) already tore down.

    Deliberately *not* ``atexit.register``-ed: registering a bound
    method would hold a strong reference to the manager and defeat the
    GC backstop entirely.
    """

    def __init__(self) -> None:
        self._finalizers: list[weakref.finalize] = []  # guarded-by: _lock
        self._lock = threading.Lock()

    def share(self, array: np.ndarray) -> PlaneHandle:
        """Copy ``array`` into a fresh shared segment; return its handle."""
        array = np.ascontiguousarray(array)
        name = _next_segment_name()
        if array.nbytes == 0:
            # SharedMemory refuses zero-size segments; keep the handle
            # shape/dtype so attach still yields the right empty array.
            segment = shared_memory.SharedMemory(
                name=name, create=True, size=1
            )
        else:
            segment = shared_memory.SharedMemory(
                name=name, create=True, size=array.nbytes
            )
        view: np.ndarray = np.ndarray(
            array.shape, dtype=array.dtype, buffer=segment.buf
        )
        view[...] = array
        del view  # release the exported buffer before anyone closes
        with self._lock:
            self._finalizers.append(
                weakref.finalize(self, _destroy_segment, segment)
            )
        obs = get_recorder()
        obs.count("shm.planes_created")
        obs.count("shm.bytes_shared", array.nbytes)
        return PlaneHandle(
            name=name, shape=tuple(array.shape), dtype=array.dtype.str
        )

    def release(self) -> None:
        """Close and unlink every owned segment (idempotent)."""
        with self._lock:
            finalizers, self._finalizers = self._finalizers, []
        released = 0
        for finalizer in finalizers:
            if finalizer():  # False-y when already run
                released += 1
        if released:
            get_recorder().count("shm.planes_released", released)

    @property
    def n_segments(self) -> int:
        with self._lock:
            return sum(1 for f in self._finalizers if f.alive)

    def __enter__(self) -> "PlaneManager":
        return self

    def __exit__(self, *exc: object) -> None:
        self.release()


def leaked_segments() -> list[str]:
    """Names of live ``repro-pln-*`` segments visible to this machine.

    Linux-specific by inspection of ``/dev/shm`` (the CI platform);
    returns ``[]`` where that directory does not exist rather than
    guessing.  Concurrency tests assert this is empty after every
    parallel solve — including solves whose workers died mid-flight.
    """
    root = "/dev/shm"
    if not os.path.isdir(root):
        return []
    return sorted(
        name
        for name in os.listdir(root)
        if name.startswith(SEGMENT_PREFIX)
    )


# --------------------------------------------------------------------- #
# Module-level teardown helpers (weakref.finalize callbacks must not
# reference the objects they guard, or they would keep them alive).
# --------------------------------------------------------------------- #


_TRACKER_PATCH_LOCK = threading.Lock()


def _ignore_register(*args: object, **kwargs: object) -> None:
    return None


def _open_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without tracker registration.

    The resource tracker assumes "opened it" means "owns it"; an
    attachment must not register, or some process's exit tears down a
    segment the owning :class:`PlaneManager` still holds.  Python 3.13+
    exposes this directly (``track=False``); earlier versions need the
    registration call suppressed for the duration of the constructor.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # python < 3.13: no ``track`` parameter
        pass
    with _TRACKER_PATCH_LOCK:
        original = resource_tracker.register
        resource_tracker.register = _ignore_register  # type: ignore[assignment]
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original  # type: ignore[assignment]


def _close_segment(segment: shared_memory.SharedMemory) -> None:
    try:
        segment.close()
    except (OSError, BufferError):  # pragma: no cover - already closed
        pass


def _destroy_segment(segment: shared_memory.SharedMemory) -> None:
    try:
        segment.close()
    except (OSError, BufferError):  # pragma: no cover - already closed
        pass
    try:
        segment.unlink()
    except FileNotFoundError:
        # A crashed worker's resource tracker (or an earlier release on
        # another handle to the same name) beat us to it; gone is gone.
        pass
