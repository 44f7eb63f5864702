"""The three workloads, each driven through the program's public API.

A workload is a closed loop on one client thread.  It builds its state
in :meth:`Workload.setup` (timed, and repeated for ``setup_s``), then
runs timed *steps*: a step draws its inputs outside the timed window and
times only the calls into the program.  :meth:`Workload.finish` checks
the final state against an independent reference and reads the values
the traced pass reports from the program itself.

* ``iep-scale`` — write frames through :class:`repro.scale.BatchedPlatform`
  on a 10^4-user instance under the tiled distance backend; checked by
  serial replay of the applied log on the dense backend.
* ``service-mixed`` — write frames and plan reads over HTTP against an
  in-process :class:`repro.service.ServiceThread` with two durable
  Table IV tenants; checked frame by frame against a pre-drawn twin.
* ``gepc-solve`` — repeated :class:`repro.core.gepc.greedy.GreedySolver`
  solves of full Vancouver; checked against the scalar-kernel oracle.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import shutil
import subprocess
import sys
import uuid
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.core.constraints import check_plan
from repro.core.gepc.greedy import GreedySolver
from repro.core.iep.engine import IEPEngine
from repro.core.kernel import use_kernel
from repro.core.metrics import total_utility
from repro.core.plan import PlanSummary
from repro.core.tiles import TiledDistanceMatrix, use_distance_backend
from repro.datasets import ScaleConfig, generate_scale_instance, make_city
from repro.platform import OperationStream
from repro.platform.durable import WAL_FILENAME
from repro.platform.oplog import operation_from_dict, operation_to_dict
from repro.scale import BatchedPlatform
from repro.service import ServiceClient, ServiceError, ServiceThread
from repro.service.tenants import TenantSpec

from perfbench.metrics import KINDS
from perfbench.tracing import Tracer

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
#: Per-run service state, and pre-drawn service frames per seed.
WORK_DIR = BENCH_DIR / ".work"
CACHE_DIR = BENCH_DIR / ".cache"

#: Frame sizes, shuffled block by block from the seed.  Four single-op
#: frames in seven keep the median inside the k=1 class and the 90th
#: percentile inside the k=8 class; with three in six the median sat on
#: the k=1/k=2 boundary and jumped between them from seed to seed.
FRAME_BLOCK = (1, 1, 1, 1, 2, 4, 8)
#: Plan reads after each service write frame.
READS_PER_STEP = 4

#: GreedySolver(seed=0) on full Vancouver (results/bench_baseline_kernel.json).
VANCOUVER_SEED0_UTILITY = 4815.480489908128


@dataclass
class StepResult:
    """What one step measured and checked."""

    seconds: float  # the timed write frame or solve
    work: int  # operations applied, or 1 per solve
    attempted: int
    failed: int = 0
    read_seconds: list[float] = field(default_factory=list)
    rejected: int = 0


def shuffled_blocks(block: tuple, rng: random.Random) -> Iterator:
    """Endless items: ``block`` shuffled by ``rng``, block after block."""
    while True:
        items = list(block)
        rng.shuffle(items)
        yield from items


def frame_sizes(seed: int) -> Iterator[int]:
    """Endless frame sizes: :data:`FRAME_BLOCK` shuffled block by block."""
    return shuffled_blocks(FRAME_BLOCK, random.Random(f"perfbench:{seed}:sizes"))


class FrameDrawer:
    """Draws write frames against a live state (never applies them).

    Each frame size draws its operation kinds from its own shuffled
    blocks of all nine, so every run, whatever its seed, gives each kind
    an equal share of the single-op frames, where the median frame lies,
    and of every other size; drawn independently, the share of the slow
    kinds moved the median frame time from seed to seed.  A kind with
    nothing to draw against the live state (``OperationStream`` returns
    ``None``) gives its turn to the next one.
    """

    def __init__(self, seed: int) -> None:
        self._stream = OperationStream(seed=seed)
        rng = random.Random(f"perfbench:{seed}:kinds")
        self._kinds = {
            size: shuffled_blocks(KINDS, rng) for size in sorted(set(FRAME_BLOCK))
        }
        self._sizes = frame_sizes(seed)

    def _draw_one(self, kind: str, instance, plan):
        stream = self._stream
        if kind == "EtaDecrease":
            return stream.eta_decrease(instance, plan)
        if kind == "XiIncrease":
            return stream.xi_increase(instance, plan)
        return {
            "TimeChange": stream.time_change,
            "LocationChange": stream.location_change,
            "EtaIncrease": stream.eta_increase,
            "XiDecrease": stream.xi_decrease,
            "NewEvent": stream.new_event,
            "UtilityChange": stream.utility_change,
            "BudgetChange": stream.budget_change,
        }[kind](instance)

    def draw(self, instance, plan) -> list:
        operations = []
        size = next(self._sizes)
        while len(operations) < size:
            operation = self._draw_one(next(self._kinds[size]), instance, plan)
            if operation is not None:
                operations.append(operation)
        return operations


def plan_digest(plan) -> str:
    """SHA-256 of the per-user sorted assignments (bit-identity check)."""
    return digest_assignments(
        [list(events) for events in PlanSummary.of(plan).assignments]
    )


def digest_assignments(assignments: list[list[int]]) -> str:
    return hashlib.sha256(
        json.dumps(assignments, separators=(",", ":")).encode()
    ).hexdigest()


class Workload:
    """One workload: subclasses implement setup, step and finish."""

    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        #: Mismatches found by :meth:`finish`; any fails the run.
        self.problems: list[str] = []

    @contextmanager
    def environment(self) -> Iterator[None]:
        """Process settings the whole run needs."""
        yield

    def prepare(self, seconds: float) -> None:
        """Untimed, once per run, before the first setup."""

    def setup(self) -> Any:
        raise NotImplementedError

    def begin(self, state: Any) -> None:
        """Untimed, right before the measured steps."""

    def step(self, state: Any, index: int, tracer: Tracer) -> StepResult | None:
        """One timed step; ``None`` when the inputs are exhausted."""
        raise NotImplementedError

    def finish(self, state: Any, tracer: Tracer) -> dict[str, float]:
        """Check the final state.

        Returns ``utility_vs_replan`` — the plan's total utility over
        that of a fresh :class:`GreedySolver` plan of the same instance,
        after a fixed number of steps, so that it does not move with the
        number of steps a run took — plus the per-layer values read from
        the program.
        """
        raise NotImplementedError

    def teardown(self, state: Any) -> None:
        """Release what :meth:`setup` built."""

    def fail(self, message: str) -> None:
        self.problems.append(message)


# ---------------------------------------------------------------------- #
# iep-scale
# ---------------------------------------------------------------------- #


@dataclass
class _IepState:
    platform: BatchedPlatform
    drawer: FrameDrawer
    dif: int = 0
    applied: int = 0
    #: (operations applied, utility) after the checkpoint frame.
    checkpoint: tuple[int, float] | None = None
    tiles_at_begin: Any = None
    tile_counts_at_begin: dict[str, float] = field(default_factory=dict)


class IepScale(Workload):
    """Write frames on a 10^4-user instance, tiled distances, no WAL."""

    name = "iep-scale"
    TILE_CACHE_MIB = "8"
    #: ``utility_vs_replan`` is taken after this many frames, which a
    #: 10 s run reaches at half the current speed (about 40 frames).
    CHECKPOINT_FRAMES = 20
    #: The instance is fixed; the seed draws the solver, frames and ops.
    INSTANCE_SEED = 0

    def __init__(self, seed: int, n_users: int = 10_000, n_events: int = 256):
        super().__init__(seed)
        self.config = ScaleConfig(
            n_users=n_users, n_events=n_events, seed=self.INSTANCE_SEED
        )

    @contextmanager
    def environment(self) -> Iterator[None]:
        previous = os.environ.get("REPRO_TILE_CACHE_MIB")
        os.environ["REPRO_TILE_CACHE_MIB"] = self.TILE_CACHE_MIB
        try:
            with use_distance_backend("tiled"):
                yield
        finally:
            if previous is None:
                os.environ.pop("REPRO_TILE_CACHE_MIB", None)
            else:
                os.environ["REPRO_TILE_CACHE_MIB"] = previous

    def setup(self) -> _IepState:
        instance = generate_scale_instance(self.config)
        platform = BatchedPlatform(instance, solver=GreedySolver(seed=self.seed))
        platform.publish_plans()
        return _IepState(platform=platform, drawer=FrameDrawer(self.seed))

    def begin(self, state: _IepState) -> None:
        state.tiles_at_begin = state.platform.instance.distances
        state.tile_counts_at_begin = tile_counts([state.tiles_at_begin])

    def step(self, state: _IepState, index: int, tracer: Tracer) -> StepResult:
        platform = state.platform
        operations = state.drawer.draw(platform.instance, platform.plan)
        k = len(operations)
        try:
            with tracer.window() as window:
                for operation in operations:
                    platform.enqueue(operation)
                result = platform.flush()
        except Exception as exc:  # any raise fails the frame
            self.fail(f"frame {index}: {type(exc).__name__}: {exc}")
            return StepResult(window.elapsed, 0, k, failed=k)
        failed = 0
        if result.violations:
            self.fail(f"frame {index}: {result.violations} violations")
            failed = k
        state.dif += sum(entry.dif for entry in result.applied)
        state.applied += len(result.applied)
        if index + 1 == self.CHECKPOINT_FRAMES:
            state.checkpoint = (state.applied, result.utility)
        return StepResult(
            window.elapsed, len(result.applied), k, failed=failed,
            rejected=len(result.rejected),
        )

    def finish(self, state: _IepState, tracer: Tracer) -> dict[str, float]:
        platform = state.platform
        utility = total_utility(platform.instance, platform.plan)
        # A run too short to reach the checkpoint is measured at its end.
        applied, checkpoint_utility = state.checkpoint or (state.applied, utility)
        reference = iep_reference(
            self.config, self.seed, platform.applied_log, applied
        )
        if utility != reference["utility"]:
            self.fail(
                f"utility {utility!r} != dense serial replay "
                f"{reference['utility']!r}"
            )
        if plan_digest(platform.plan) != reference["digest"]:
            self.fail("plan differs from dense serial replay")
        if checkpoint_utility != reference["checkpoint_utility"]:
            self.fail(
                f"checkpoint utility {checkpoint_utility!r} != dense serial "
                f"replay {reference['checkpoint_utility']!r}"
            )
        stats = platform.stats()
        backends = [state.tiles_at_begin, *tracer.tile_backends]
        tiles = tile_counts(backends)
        observed = {
            "utility_vs_replan": (
                checkpoint_utility / reference["checkpoint_replan"]
            ),
            "dif_per_op": state.dif / max(state.applied, 1),
            "fold_ratio": stats["folded"] / max(stats["enqueued"], 1),
            "tiles.peak_backend_mib": max(
                b.tile_stats()["peak_backend_mib"]
                for b in backends
                if isinstance(b, TiledDistanceMatrix)
            ),
        }
        for key in ("scalar_serves", "row_serves", "hits", "misses", "evictions"):
            observed[f"tiles.{key}"] = tiles.get(key, 0.0) - (
                state.tile_counts_at_begin.get(key, 0.0)
            )
        return observed


def iep_reference(
    config: ScaleConfig, seed: int, applied_log: list, checkpoint: int
) -> dict:
    """Serial replay of the applied log on the dense backend (the oracle).

    Also returns the utility after the first ``checkpoint`` operations,
    and that of a fresh greedy plan of the instance at that point.
    """
    engine = IEPEngine()

    def replay(instance, plan, operations):
        for operation in operations:
            result = engine.apply(instance, plan, operation)
            instance, plan = result.instance, result.plan
        return instance, plan

    with use_distance_backend("dense"):
        instance = generate_scale_instance(config)
        plan = GreedySolver(seed=seed).solve(instance).plan
        instance, plan = replay(instance, plan, applied_log[:checkpoint])
        replan = GreedySolver(seed=seed).solve(instance).plan
        reference = {
            "checkpoint_utility": total_utility(instance, plan),
            "checkpoint_replan": total_utility(instance, replan),
        }
        instance, plan = replay(instance, plan, applied_log[checkpoint:])
        reference["utility"] = total_utility(instance, plan)
        reference["digest"] = plan_digest(plan)
        return reference


def tile_counts(backends: list) -> dict[str, float]:
    """Summed ``tile_stats()`` over distinct tiled backends.

    A copied backend starts its serve counters at zero, so the traced
    pass keeps every copy made and sums them with the backend it began on.
    """
    totals: dict[str, float] = {}
    seen: set[int] = set()
    for backend in backends:
        if not isinstance(backend, TiledDistanceMatrix) or id(backend) in seen:
            continue
        seen.add(id(backend))
        for key, value in backend.tile_stats().items():
            totals[key] = totals.get(key, 0.0) + value
    return totals


# ---------------------------------------------------------------------- #
# service-mixed
# ---------------------------------------------------------------------- #


def service_specs(seed: int, scale: float) -> list[TenantSpec]:
    """The two durable Table IV tenants (default ``snapshot_every``)."""
    return [
        TenantSpec(name=city, kind="city", city=city, scale=scale, seed=seed)
        for city in ServiceMixed.CITIES
    ]


def draw_script(
    seed: int, scale: float, frames: int, checkpoint: int
) -> dict[str, Any]:
    """Pre-draw the service frames against in-process twins.

    Frames go round-robin over the tenants.  Each is drawn against its
    twin's live state and applied to the twin, which records what the
    service must answer: the frame's outcome, the plans of the users
    read after it, and the digest of the tenant's whole plan.  After
    ``checkpoint`` frames it also records, per tenant, the utility of a
    fresh greedy plan of the twin's instance.
    """
    specs = service_specs(seed, scale)
    twins = {
        spec.name: BatchedPlatform(spec.build_instance(), solver=spec.build_solver())
        for spec in specs
    }
    publish = {name: twin.publish_plans() for name, twin in twins.items()}
    drawer = FrameDrawer(seed)
    users = random.Random(f"perfbench:{seed}:reads")
    script = []
    replan: dict[str, float] = {}
    for index in range(frames):
        spec = specs[index % len(specs)]
        twin = twins[spec.name]
        operations = drawer.draw(twin.instance, twin.plan)
        for operation in operations:
            twin.enqueue(operation)
        result = twin.flush()
        reads = [
            users.randrange(twin.instance.n_users) for _ in range(READS_PER_STEP)
        ]
        script.append(
            {
                "tenant": spec.name,
                "ops": [operation_to_dict(op) for op in operations],
                "applied": len(result.applied),
                "rejected": len(result.rejected),
                "utility": result.utility,
                "violations": result.violations,
                "reads": [[user, twin.plan_for(user)] for user in reads],
                "digest": plan_digest(twin.plan),
            }
        )
        if index + 1 == checkpoint:
            replan = {
                spec.name: total_utility(
                    twins[spec.name].instance,
                    spec.build_solver().solve(twins[spec.name].instance).plan,
                )
                for spec in specs
            }
    return {"publish": publish, "frames": script, "replan": replan}


def source_digest() -> str:
    """Digest of the program and benchmark sources (cache key part)."""
    digest = hashlib.sha256()
    files = sorted((SRC_DIR / "repro").rglob("*.py"))
    files += [BENCH_DIR / "workloads.py", BENCH_DIR / "predraw.py"]
    for path in files:
        digest.update(str(path.relative_to(BENCH_DIR.parent)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


@dataclass
class _ServiceState:
    directory: Path
    service: ServiceThread
    client: ServiceClient
    last_frame: dict[str, int] = field(default_factory=dict)
    #: Set by a request that raised: later steps are not attempted.
    broken: bool = False


class ServiceMixed(Workload):
    """Write frames and plan reads over HTTP, two durable tenants."""

    name = "service-mixed"
    CITIES = ("auckland", "singapore")
    #: Frames pre-drawn per second of measuring: more than the service
    #: serves at its current speed (about 15 steps per second).
    FRAMES_PER_SECOND = 30
    #: ``utility_vs_replan`` is taken after this many frames, which a
    #: 10 s run reaches at half the current speed (about 150 frames).
    CHECKPOINT_FRAMES = 64

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        super().__init__(seed)
        self.scale = scale
        self.script: dict[str, Any] = {}

    def prepare(self, seconds: float) -> None:
        frames = max(
            self.CHECKPOINT_FRAMES, math.ceil(seconds * self.FRAMES_PER_SECOND)
        )
        path = CACHE_DIR / (
            f"{self.name}-seed{self.seed}-scale{self.scale}-"
            f"frames{frames}-{source_digest()}.json"
        )
        if not path.exists():
            # In a child process, so the twins never count toward this
            # process's peak RSS.
            CACHE_DIR.mkdir(parents=True, exist_ok=True)
            subprocess.run(
                [
                    sys.executable, str(BENCH_DIR / "predraw.py"),
                    "--seed", str(self.seed), "--scale", str(self.scale),
                    "--frames", str(frames),
                    "--checkpoint", str(self.CHECKPOINT_FRAMES),
                    "--out", str(path),
                ],
                check=True,
                timeout=170,
            )
        self.script = json.loads(path.read_text())

    def setup(self) -> _ServiceState:
        directory = WORK_DIR / f"{self.name}-{uuid.uuid4().hex}"
        directory.mkdir(parents=True)
        service = ServiceThread(directory, fsync=True).start()
        client = ServiceClient(service.host, service.port, timeout=30.0)
        state = _ServiceState(directory, service, client)
        try:
            specs = service_specs(self.seed, self.scale)
            for spec in specs:
                client.create_tenant(spec.to_dict())
            for spec in specs:
                utility = client.publish(spec.name)
                if utility != self.script["publish"][spec.name]:
                    self.fail(f"{spec.name}: published utility {utility!r} != twin")
        except BaseException:
            self.teardown(state)
            raise
        return state

    def teardown(self, state: _ServiceState) -> None:
        state.client.close()
        state.service.stop()
        shutil.rmtree(state.directory, ignore_errors=True)

    def step(
        self, state: _ServiceState, index: int, tracer: Tracer
    ) -> StepResult | None:
        frames = self.script["frames"]
        if index >= len(frames) or state.broken:
            return None
        frame = frames[index]
        tenant = frame["tenant"]
        operations = [operation_from_dict(doc) for doc in frame["ops"]]
        k = len(operations)
        failed = 0
        tracer.tag = "write"
        try:
            with tracer.window() as window:
                response = state.client.submit(tenant, operations)
        except (ServiceError, OSError) as exc:
            self.fail(f"frame {index}: {exc}")
            response = None
            state.broken = True
        state.last_frame[tenant] = index
        expected = {
            key: frame[key] for key in ("applied", "rejected", "utility", "violations")
        }
        if response is not None:
            got = {
                "applied": response["applied"],
                "rejected": len(response["rejected"]),
                "utility": response["utility"],
                "violations": response["violations"],
            }
            if got != expected:
                self.fail(f"frame {index}: {got} != twin {expected}")
                failed = k
        else:
            failed = k
        result = StepResult(
            window.elapsed, response["applied"] if response else 0,
            k + len(frame["reads"]), failed=failed,
            rejected=expected["rejected"],
        )
        tracer.tag = "read"
        for user, events in frame["reads"]:
            if state.broken:
                break
            try:
                with tracer.window() as read:
                    served = state.client.plan(tenant, user)
            except (ServiceError, OSError) as exc:
                self.fail(f"frame {index}: read of user {user}: {exc}")
                served = None
                state.broken = True
            result.read_seconds.append(read.elapsed)
            if served != events:
                self.fail(f"frame {index}: user {user} plan {served} != twin {events}")
                result.failed += 1
        return result

    def finish(self, state: _ServiceState, tracer: Tracer) -> dict[str, float]:
        frames = self.script["frames"]
        total_dif = operations = enqueued = folded = 0.0
        for name in self.CITIES:
            summary = state.client.summary(name)
            audit, stats = summary["audit"], summary["stats"]
            served_digest = digest_assignments(state.client.plan_summary(name))
            index = state.last_frame.get(name)
            if index is None:
                expected_utility = self.script["publish"][name]
            else:
                expected_utility = frames[index]["utility"]
                if served_digest != frames[index]["digest"]:
                    self.fail(f"{name}: plan-summary differs from the twin")
            if audit["utility"] != expected_utility:
                self.fail(
                    f"{name}: utility {audit['utility']!r} != twin "
                    f"{expected_utility!r}"
                )
            if audit["violations"]:
                self.fail(f"{name}: {audit['violations']} violations")
            total_dif += audit["total_dif"]
            operations += audit["operations"]
            enqueued += stats["enqueued"]
            folded += stats["folded"]
        wal_bytes = sum(
            (state.directory / name / WAL_FILENAME).stat().st_size
            for name in self.CITIES
            if (state.directory / name / WAL_FILENAME).exists()
        )
        return {
            "utility_vs_replan": self.checkpoint_ratio(),
            "dif_per_op": total_dif / max(operations, 1.0),
            "fold_ratio": folded / max(enqueued, 1.0),
            "wal_bytes": float(wal_bytes),
        }

    def checkpoint_ratio(self) -> float:
        """Utility over greedy re-plan, summed over the tenants, after
        :attr:`CHECKPOINT_FRAMES` frames of the twins.

        Each tenant's utility is the one after its last frame before the
        checkpoint.  For every frame a run reached, the service answered
        exactly that utility (``step`` checks it).
        """
        frames = self.script["frames"][: self.CHECKPOINT_FRAMES]
        utility = dict(self.script["publish"])
        for frame in frames:
            utility[frame["tenant"]] = frame["utility"]
        replan = self.script["replan"]
        return sum(utility.values()) / sum(replan.values())


# ---------------------------------------------------------------------- #
# gepc-solve
# ---------------------------------------------------------------------- #


@dataclass
class _SolveState:
    instance: Any
    outcomes: list[tuple[float, str, int]] = field(default_factory=list)


class GepcSolve(Workload):
    """Repeated greedy solves of Vancouver, dense distances."""

    name = "gepc-solve"
    CITY = "vancouver"

    def __init__(self, seed: int, scale: float = 1.0):
        super().__init__(seed)
        self.scale = scale

    @contextmanager
    def environment(self) -> Iterator[None]:
        with use_distance_backend("dense"):
            yield

    def setup(self) -> _SolveState:
        instance = make_city(self.CITY, self.scale)
        GreedySolver(seed=self.seed).solve(instance)  # warm-up
        return _SolveState(instance)

    def step(self, state: _SolveState, index: int, tracer: Tracer) -> StepResult:
        with tracer.window() as window:
            solution = GreedySolver(seed=self.seed).solve(state.instance)
        state.outcomes.append(
            (
                total_utility(state.instance, solution.plan),
                plan_digest(solution.plan),
                len(check_plan(state.instance, solution.plan)),
            )
        )
        return StepResult(window.elapsed, 1, 1)

    def finish(self, state: _SolveState, tracer: Tracer) -> dict[str, float]:
        reference = gepc_reference(state.instance, self.seed)
        if (self.scale, self.seed) == (1.0, 0) and (
            reference[0] != VANCOUVER_SEED0_UTILITY
        ):
            self.fail(
                f"scalar-kernel utility {reference[0]!r} != published "
                f"{VANCOUVER_SEED0_UTILITY!r}"
            )
        for index, (utility, digest, violations) in enumerate(state.outcomes):
            if violations:
                self.fail(f"solve {index}: {violations} violations")
            if (utility, digest) != reference:
                self.fail(
                    f"solve {index}: utility {utility!r} != reference "
                    f"{reference[0]!r} or plan differs"
                )
        # The solve is the greedy plan itself: the ratio reads 1 when
        # every solve matched the oracle.
        return {"utility_vs_replan": state.outcomes[-1][0] / reference[0]}


def gepc_reference(instance, seed: int) -> tuple[float, str]:
    """The same solve under the scalar kernel (the oracle strategy)."""
    with use_kernel("scalar"):
        plan = GreedySolver(seed=seed).solve(instance).plan
    return total_utility(instance, plan), plan_digest(plan)


WORKLOADS: dict[str, type[Workload]] = {
    IepScale.name: IepScale,
    ServiceMixed.name: ServiceMixed,
    GepcSolve.name: GepcSolve,
}
