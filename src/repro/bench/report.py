"""Machine-readable benchmark report for the CI regression gate.

``python -m repro.bench.report --preset small --out bench_report.json``
runs one fixed, seeded workload and emits a stable JSON document::

    {
      "schema": "repro.bench.report",
      "schema_version": 1,
      "preset": "small", "city": "beijing", "scale": 0.5, "seed": 0,
      "cpu_count": 2,
      "entries": [
        {"solver": "greedy", "wall_time_s": ..., "peak_mib": ...,
         "utility": ..., "cancelled": 0,
         "counters": {...}, "spans": {path: {calls, seconds}}},
        ...
      ]
    }

``scripts/check_bench_regression.py`` diffs this against the committed
``results/bench_baseline*.json``: wall time is gated at a slowdown factor
(absolute times vary across machines), utility at a tolerance (greedy and
the IEP stream are bit-deterministic for a fixed seed; the GAP solver gets
slack for LP-backend variation).  Cross-entry and absolute gate specs ride
with the entries, so a regenerated baseline keeps its gates.  See
``docs/observability.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from repro.bench.harness import measure
from repro.bench.tables import format_table
from repro.core.gepc import GAPBasedSolver, GreedySolver
from repro.obs import recording
from repro.platform import EBSNPlatform, OperationStream

SCHEMA = "repro.bench.report"
SCHEMA_VERSION = 1


@dataclass(frozen=True)
class Workload:
    """One preset: the report header's city and scale, plus its runner.

    ``run(seed)`` returns the report entries.  It is a ``partial`` bound
    with the workload's own parameters; a keyword passed at call time
    overrides the bound one (the tests shrink workloads this way).
    """

    city: str
    scale: float
    run: Callable[..., list[dict]]


# --------------------------------------------------------------------- #
# Shared pieces: one entry shape, one timed op-stream loop
# --------------------------------------------------------------------- #


def _entry(
    solver: str,
    seed: int,
    seconds: float,
    utility: float,
    recorder,
    *,
    peak_mib: float = 0.0,
    cancelled: int = 0,
    **extra: Any,
) -> dict:
    """One report entry: the fields every entry has, plus ``extra``."""
    return {
        "solver": solver,
        "seed": seed,
        "wall_time_s": seconds,
        "peak_mib": peak_mib,
        "utility": utility,
        "cancelled": cancelled,
        "counters": dict(recorder.counters),
        "spans": recorder.snapshot()["spans"],
        **extra,
    }


def _percentile_ms(sorted_seconds: list[float], q: float) -> float:
    """Nearest-rank percentile of a sorted latency list, in ms."""
    if not sorted_seconds:
        return 0.0
    rank = min(len(sorted_seconds) - 1, int(round(q * (len(sorted_seconds) - 1))))
    return sorted_seconds[rank] * 1000.0


def _latency_ms(latencies: list[float]) -> dict[str, float]:
    """p50/p90/p99 of per-op latencies (seconds in, ms out)."""
    ordered = sorted(latencies)
    return {
        "p50": _percentile_ms(ordered, 0.50),
        "p90": _percentile_ms(ordered, 0.90),
        "p99": _percentile_ms(ordered, 0.99),
    }


def _ops_per_sec(operations: int, seconds: float) -> float:
    return operations / seconds if seconds > 0 else 0.0


def _clock(call: Callable[[], Any]) -> tuple[Any, float]:
    """``(call(), wall seconds)``."""
    start = time.perf_counter()
    result = call()
    return result, time.perf_counter() - start


def _draws(platform, seed: int, operations: int) -> Iterator:
    """Seeded mixed operations, each drawn against the *current* state.

    A pre-generated batch would go stale as repairs mutate the plan, so
    every draw waits until the previous operation has been applied.
    """
    stream = OperationStream(seed=seed)
    for _ in range(operations):
        yield next(iter(stream.mixed(platform.instance, platform.plan, 1)))


def _timed(
    operations: Iterable, apply: Callable[[Any], Any]
) -> tuple[list, list[float]]:
    """Apply each operation, timing ``apply`` alone (draws are untimed).

    Returns the applied operations and their latencies in seconds.
    """
    applied: list = []
    latencies: list[float] = []
    for operation in operations:
        start = time.perf_counter()
        apply(operation)
        latencies.append(time.perf_counter() - start)
        applied.append(operation)
    return applied, latencies


def _measured(
    label: str, call: Callable[[], Any], seed: int, trace_memory: bool
) -> tuple[Any, dict]:
    """``call()``'s outcome and its entry, timed by :func:`measure`."""
    with recording() as recorder:
        outcome, result = measure(label, call, trace_memory=trace_memory)
    return outcome, _entry(
        label,
        seed,
        result.seconds,
        result.utility,
        recorder,
        peak_mib=result.memory_mb,
    )


def _solver_entry(
    name: str, solver, instance, seed: int, trace_memory: bool
) -> dict:
    solution, entry = _measured(
        name, lambda: solver.solve(instance), seed, trace_memory
    )
    entry["cancelled"] = len(solution.cancelled)
    return entry


def _iep_entry(instance, seed: int, operations: int, trace_memory: bool) -> dict:
    """A greedy-published platform serving a mixed IEP operation stream."""
    platform = EBSNPlatform(instance, solver=GreedySolver(seed=seed))
    platform.publish_plans()

    def run() -> float:
        _timed(_draws(platform, seed, operations), platform.submit)
        return platform.audit()["utility"]

    return _measured(f"iep-mixed-{operations}", run, seed, trace_memory)[1]


def _city_instance(city: str, scale: float):
    # Imported late: repro.datasets pulls numpy-heavy generator modules.
    from repro.datasets import make_city

    return make_city(city, scale=scale)


# --------------------------------------------------------------------- #
# Runners, one per workload shape
# --------------------------------------------------------------------- #


def _solver_suite(
    seed: int, *, city: str, scale: float, operations: int
) -> list[dict]:
    """Both GEPC solvers plus an IEP operation stream, memory traced."""
    instance = _city_instance(city, scale)
    return [
        _solver_entry("greedy", GreedySolver(seed=seed), instance, seed, True),
        _solver_entry(
            "gap", GAPBasedSolver(backend="scipy"), instance, seed, True
        ),
        _iep_entry(instance, seed, operations, trace_memory=True),
    ]


def _kernel_suite(
    seed: int, *, city: str, scale: float, operations: int
) -> list[dict]:
    """Greedy under each kernel strategy, plus the IEP stream.

    Scalar and batched runs are interleaved (rep-major, strategy-minor)
    so machine drift hits both equally, and each entry keeps its
    *fastest* of 3 reps — the standard noise treatment for a ratio gate
    on shared runners.  The strategies are bit-identical by contract, so
    which rep's utility and counters survive is immaterial; the batched
    entry's ``equal_utility_vs`` gate enforces exactly that.  Pure
    wall-clock: tracemalloc's per-malloc hook slows vectorized numpy
    code ~10x and would drown the signal.
    """
    from repro.core.kernel import use_kernel

    # Full Vancouver on a 2-vCPU container: scalar 4.3-5.0 s vs batched
    # 0.33-0.42 s per rep (10-13x), so 5x keeps at least 2x headroom.
    min_speedup = 5.0
    instance = _city_instance(city, scale)
    strategies = ("scalar", "batched")
    runs: dict[str, list[dict]] = {name: [] for name in strategies}
    for _ in range(3):
        for name in strategies:
            with use_kernel(name):
                runs[name].append(
                    _solver_entry(
                        f"greedy-{name}",
                        GreedySolver(seed=seed),
                        instance,
                        seed,
                        trace_memory=False,
                    )
                )
    scalar, batched = (
        min(runs[name], key=lambda e: float(e["wall_time_s"]))
        for name in strategies
    )
    batched["equal_utility_vs"] = {"vs": "greedy-scalar"}
    batched["min_speedup"] = {
        "vs": "greedy-scalar",
        "factor": min_speedup,
        "min_cores": 1,
    }
    return [
        scalar,
        batched,
        _iep_entry(instance, seed, operations, trace_memory=False),
    ]


def _sharded(
    seed: int, *, users: int, events: int, groups: int, clusters: int
) -> list[dict]:
    """greedy-mono vs sharded-w1 vs sharded-w4 on one fixed partition.

    Both sharded solvers are warmed up with one unmeasured solve each, so
    the measured runs see steady state: live pool processes (fork +
    import cost), warmed instance planes, and the memoized partition.
    The comparison is then pure shard *work* — slice + solve + merge —
    which is exactly what the speedup gate is about.

    ``min_cores`` is ``workers + 1``: the parent process partitions,
    dispatches, and merges while the workers solve, so a machine with
    exactly ``workers`` cores oversubscribes and measures contention,
    not parallelism.
    """
    from repro.datasets import MeetupConfig, generate_ebsn
    from repro.scale import ShardedSolver

    shards, workers = 8, 4
    # Allowed one-sided utility gap of the sharded entries below
    # greedy-mono (boundary loss grows with shard count and city size).
    utility_gap_rtol = 0.12
    instance = generate_ebsn(
        MeetupConfig(
            n_users=users,
            n_events=events,
            n_groups=groups,
            n_clusters=clusters,
            seed=seed,
        )
    )
    entries = [
        _solver_entry(
            "greedy-mono", GreedySolver(seed=seed), instance, seed, False
        )
    ]
    for n in (1, workers):
        solver = ShardedSolver(shards=shards, workers=n, seed=seed)
        try:
            solver.solve(instance)  # warm-up: pool + planes + partition memo
            entry = _solver_entry(
                f"sharded-w{n}", solver, instance, seed, False
            )
        finally:
            solver.close()
        entry["max_utility_gap_vs"] = {
            "vs": "greedy-mono",
            "rtol": utility_gap_rtol,
        }
        entries.append(entry)
    parallel = entries[-1]
    # Same partition, ordered merge: worker parallelism is a pure
    # performance knob, so w4 must reproduce w1's plan bit-for-bit.
    parallel["equal_utility_vs"] = {"vs": "sharded-w1"}
    parallel["min_speedup"] = {
        "vs": "sharded-w1",
        "factor": 3.0,
        "min_cores": workers + 1,
    }
    return entries


def _scale_soak(
    seed: int,
    *,
    users: int,
    operations: int,
    tile_cache_mib: float,
    gates: dict,
) -> list[dict]:
    """Publish, then a batched IEP stream under the tiled backend.

    The tiled backend is pinned (this workload exists to gate it) and the
    LRU budget comes from the preset, not the caller's environment.
    Per-operation latency is the wall time of each ``enqueue`` call:
    most ops just queue (the p50 fast path), one in ``max_pending``
    carries the coalesced flush (the p99 tail).  Throughput divides the
    whole stream — draws, queue, flushes, final drain — by the
    operation count, so it is the number capacity planning wants.
    ``gates`` are the entry's absolute gate specs (see
    scripts/check_bench_regression.py).
    """
    from repro.bench.memory import peak_rss_mib
    from repro.core.metrics import total_utility
    from repro.core.tiles import use_distance_backend
    from repro.datasets import ScaleConfig, generate_scale_instance
    from repro.scale import BatchedPlatform

    previous = os.environ.get("REPRO_TILE_CACHE_MIB")
    os.environ["REPRO_TILE_CACHE_MIB"] = str(tile_cache_mib)
    try:
        with use_distance_backend("tiled"), recording() as recorder:
            instance = generate_scale_instance(
                ScaleConfig(n_users=users, seed=seed)
            )
            platform = BatchedPlatform(instance, solver=GreedySolver(seed=seed))
            publish_utility, publish_seconds = _clock(platform.publish_plans)

            def soak() -> list[float]:
                _, latencies = _timed(
                    _draws(platform, seed, operations), platform.enqueue
                )
                platform.drain()
                return latencies

            latencies, soak_seconds = _clock(soak)
            utility = total_utility(platform.instance, platform.plan)
            plane_stats = platform.instance.distances.tile_stats()
    finally:
        if previous is None:
            os.environ.pop("REPRO_TILE_CACHE_MIB", None)
        else:
            os.environ["REPRO_TILE_CACHE_MIB"] = previous

    peak_rss = peak_rss_mib()
    # Compression denominator: the backend's whole resident footprint
    # (coords + event-event block + tile high-water), not just tiles —
    # scattered row serving can materialise zero tiles.
    peak_backend = max(plane_stats["peak_backend_mib"], 1e-9)
    return [
        _entry(
            f"scale-soak-{operations}",
            seed,
            soak_seconds,
            utility,
            recorder,
            peak_mib=peak_rss,
            publish_seconds=publish_seconds,
            publish_utility=publish_utility,
            latency_ms=_latency_ms(latencies),
            ops_per_sec=_ops_per_sec(operations, soak_seconds),
            peak_rss_mib=peak_rss,
            plane={
                "dense_equiv_plane_mib": plane_stats["dense_equiv_plane_mib"],
                "peak_resident_mib": plane_stats["peak_resident_mib"],
                "peak_backend_mib": plane_stats["peak_backend_mib"],
                "compression": plane_stats["dense_equiv_plane_mib"]
                / peak_backend,
            },
            **gates,
        )
    ]


def _durable(
    seed: int, *, city: str, scale: float, operations: int
) -> list[dict]:
    """In-memory vs durable submit latency on one seeded stream.

    Both platforms publish the same plan (same solver seed) and then
    submit the identical operation sequence — drawn once per step
    against each platform's own state; the states evolve in lockstep
    because the engine is deterministic and both sides accept or reject
    the same operations.  The durable side runs with real fsyncs and its
    default snapshot cadence: the gated number is the full durability
    tax, not a best case.  Per-op latency is each ``submit`` call's wall
    time (rejected submissions time the validate-and-refuse path on both
    sides alike).
    """
    from repro.platform import DurablePlatform

    # The WAL + snapshot tax allowed on the submit median.
    latency_ratio = 1.5
    instance = _city_instance(city, scale)

    def run(platform, label: str) -> dict:
        def submit(operation) -> None:
            try:
                platform.submit(operation)
            except (ValueError, IndexError, KeyError):
                pass

        start = time.perf_counter()
        platform.publish_plans()
        with recording() as recorder:
            _, latencies = _timed(_draws(platform, seed, operations), submit)
        seconds = time.perf_counter() - start
        utility = platform.audit()["utility"]
        if hasattr(platform, "close"):
            platform.close()
        return _entry(
            label,
            seed,
            seconds,
            utility,
            recorder,
            latency_ms=_latency_ms(latencies),
        )

    label = f"submit-memory-{operations}"
    memory = run(EBSNPlatform(instance, solver=GreedySolver(seed=seed)), label)
    with tempfile.TemporaryDirectory(prefix="bench-durable-") as state_dir:
        durable = run(
            DurablePlatform(instance, state_dir, solver=GreedySolver(seed=seed)),
            f"submit-durable-{operations}",
        )
    # Durability must never change what gets applied: bit-identical
    # utility, and the WAL tax bounded on the submit median.
    durable["max_latency_ratio_vs"] = {
        "vs": label,
        "quantile": "p50",
        "factor": latency_ratio,
    }
    durable["equal_utility_vs"] = {"vs": label}
    return [memory, durable]


def _service(seed: int, *, operations: int) -> list[dict]:
    """In-process batched submits vs the same frames over the socket.

    Both sides host the identical spec-deterministic tenant (same
    instance, solver seed, and frame granularity: one operation per
    enqueue+flush, one per RPC frame), so acceptance stays in lockstep
    and the service entry's ``equal_utility_vs`` gate is bit-exact.
    Operations are drawn step-by-step against the in-process side's
    live state and replayed verbatim over the wire.  The service side
    times the full request path — HTTP round trip, dispatch, the
    single-writer queue, WAL append (fsync off, the
    :class:`repro.service.ServiceThread` default), and batch flush —
    which is the per-frame tax docs/service.md quotes.  Throughput
    excludes publish on both sides, mirroring the scale soak.
    """
    from repro.scale import BatchedPlatform
    from repro.service import ServiceClient, ServiceThread
    from repro.service.tenants import TenantSpec

    # The p50 wire tax and the throughput floor are deliberately loose
    # (localhost RPCs on a loaded CI runner); the bit-identical utility
    # is the real gate.
    latency_ratio = 10.0
    min_ops_per_sec = 25.0
    spec = TenantSpec(name="bench", users=64, events=12, seed=seed)

    inproc_label = f"submit-inproc-{operations}"
    with recording() as recorder:
        platform = BatchedPlatform(
            spec.build_instance(), solver=spec.build_solver()
        )
        publish_utility, publish_seconds = _clock(platform.publish_plans)

        def apply(operation) -> None:
            platform.enqueue(operation)
            platform.flush()

        (drawn, latencies), seconds = _clock(
            lambda: _timed(_draws(platform, seed, operations), apply)
        )
        utility = platform.snapshot()["utility"]
        platform.close()
    inproc = _entry(
        inproc_label,
        seed,
        seconds,
        utility,
        recorder,
        publish_seconds=publish_seconds,
        publish_utility=publish_utility,
        latency_ms=_latency_ms(latencies),
        ops_per_sec=_ops_per_sec(operations, seconds),
    )

    with tempfile.TemporaryDirectory(prefix="bench-service-") as root:
        with recording() as recorder, ServiceThread(root) as service:
            with ServiceClient(service.host, service.port) as client:
                client.create_tenant(spec.to_dict())
                publish_utility, publish_seconds = _clock(
                    lambda: client.publish(spec.name)
                )
                (_, latencies), seconds = _clock(
                    lambda: _timed(
                        drawn, lambda op: client.submit(spec.name, [op])
                    )
                )
                served = client.summary(spec.name)["audit"]["utility"]
    service_entry = _entry(
        f"submit-service-{operations}",
        seed,
        seconds,
        served,
        recorder,
        publish_seconds=publish_seconds,
        publish_utility=publish_utility,
        latency_ms=_latency_ms(latencies),
        ops_per_sec=_ops_per_sec(operations, seconds),
        # Serving over a socket must never change the plan.
        max_latency_ratio_vs={
            "vs": inproc_label,
            "quantile": "p50",
            "factor": latency_ratio,
        },
        equal_utility_vs={"vs": inproc_label},
        min_ops_per_sec=min_ops_per_sec,
    )
    return [inproc, service_entry]


def _on_city(city: str, scale: float, runner, **params: Any) -> Workload:
    """A workload on ``make_city(city, scale)``; the runner builds it."""
    run = partial(runner, city=city, scale=scale, **params)
    return Workload(city, scale, run)


PRESETS: dict[str, Workload] = {
    "small": _on_city("beijing", 0.5, _solver_suite, operations=20),
    # The incremental-kernel hot path: full-size city, greedy + IEP stream
    # only (the GAP solver's LP would dominate and measure the LP backend,
    # not the plan kernel).
    "kernel": _on_city("vancouver", 1.0, _kernel_suite, operations=30),
    # Shard-parallel scaling (docs/scaling.md).  The workload is
    # synthetic because real cities cap at their survey population: the
    # w4-vs-w1 speedup gate needs per-shard solve times that dwarf pool
    # dispatch, which Vancouver (2012 users) cannot provide.  Eight
    # shards over four workers double as load balancing — k-means shards
    # are uneven, and two small shards per worker pack far tighter than
    # one large one.
    "sharded": Workload(
        "meetup-synthetic",
        1.0,
        partial(_sharded, users=12000, events=900, groups=120, clusters=8),
    ),
    # Trajectory soak: 10^5 users, 10^4 mixed operations through the
    # batched front-end under the tiled distance backend with a 32 MiB
    # LRU — the dense plane would be ~195 MiB, so the compression gate is
    # what keeps the backend honest.  p50 is the enqueue fast path
    # (queued, no flush); p99 is a flush boundary carrying a whole
    # coalesced batch, so its budget is ~batch x the amortised per-op
    # cost.  Too slow for CI — run locally to regenerate
    # results/bench_baseline_scale.json.
    "scale": Workload(
        "scale-synthetic",
        1.0,
        partial(
            _scale_soak,
            users=100_000,
            operations=10_000,
            tile_cache_mib=32.0,
            gates={
                "max_latency_ms": {"p50": 10.0, "p99": 60_000.0},
                "min_ops_per_sec": 1.5,
                "max_peak_rss_mib": 2048.0,
                "min_plane_compression": {"factor": 5.0},
            },
        ),
    ),
    # CI-sized soak smoke: same machinery at 10^4 users / 500 ops with
    # a 4 MiB LRU (the 10^4-user plane is only ~20 MiB, so the cache
    # must shrink for compression to mean anything at this size).
    "scale-smoke": Workload(
        "scale-synthetic",
        1.0,
        partial(
            _scale_soak,
            users=10_000,
            operations=500,
            tile_cache_mib=4.0,
            gates={
                "max_latency_ms": {"p50": 10.0, "p99": 10_000.0},
                "min_ops_per_sec": 8.0,
                "max_peak_rss_mib": 1024.0,
                "min_plane_compression": {"factor": 2.0},
            },
        ),
    ),
    # WAL-overhead gate (docs/durability.md).  Half-scale Vancouver so a
    # submit is a real repair (~4ms): the gate measures the durability
    # tax on production-shaped operations, where the per-append
    # fdatasync is a fraction of the repair — not on toy sub-ms applies
    # that any disk flush would dwarf.
    "durable": _on_city("vancouver", 0.5, _durable, operations=150),
    # Wire-overhead gate (docs/service.md).
    "service": Workload(
        "meetup-synthetic", 1.0, partial(_service, operations=150)
    ),
}


def build_report(preset_name: str, seed: int = 0) -> dict:
    """Run the preset workload and return the report document."""
    try:
        workload = PRESETS[preset_name]
    except KeyError:
        raise ValueError(
            f"unknown preset {preset_name!r}; choose from {sorted(PRESETS)}"
        ) from None
    return {
        "schema": SCHEMA,
        "schema_version": SCHEMA_VERSION,
        "preset": preset_name,
        "city": workload.city,
        "scale": workload.scale,
        "seed": seed,
        # The machine's core count; cross-entry speedup gates only apply
        # when the measuring machine has enough cores to show parallelism.
        "cpu_count": os.cpu_count() or 1,
        "entries": workload.run(seed),
    }


def write_report(report: dict, path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.report",
        description="Emit the bench report document CI diffs.",
    )
    parser.add_argument("--preset", default="small", choices=sorted(PRESETS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="bench_report.json")
    args = parser.parse_args(argv)

    report = build_report(args.preset, seed=args.seed)
    path = write_report(report, args.out)
    print(
        format_table(
            f"Bench report: {args.preset} "
            f"({report['city']} x{report['scale']}) -> {path}",
            ["solver", "utility", "time (s)", "peak (MiB)", "cancelled"],
            [
                [
                    entry["solver"],
                    entry["utility"],
                    entry["wall_time_s"],
                    entry["peak_mib"],
                    entry["cancelled"],
                ]
                for entry in report["entries"]
            ],
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
