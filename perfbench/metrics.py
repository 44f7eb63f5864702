"""The metric catalogue, and per-layer metrics from a traced pass.

``BENCHMARK.json`` at the repository root declares the same names and
units; ``perfbench/tests/test_contract.py`` keeps the two in step.

Every workload reports every metric.  The end-to-end metrics are
defined on the workload's timed *step*: one write frame (``iep-scale``,
``service-mixed``) or one solve (``gepc-solve``).  Per-layer times and
counts are per step of the traced pass; a layer the workload never
reaches reads 0.
"""

from __future__ import annotations

from typing import Any

from perfbench.tracing import Tracer

#: The nine atomic operation kinds (``iep.apply_ms.<Kind>``).
KINDS = (
    "EtaDecrease", "XiIncrease", "TimeChange", "LocationChange",
    "EtaIncrease", "XiDecrease", "NewEvent", "UtilityChange",
    "BudgetChange",
)

#: name -> unit, for ``--trace 0``.
END_TO_END = {
    "setup_s": "s",
    "step_p50_probes": "probes",
    "throughput_per_probe": "1/probe",
    "utility_vs_replan": "ratio",
    "peak_rss_mib": "MiB",
}

_SPAN_MS = {
    "constraints.check_plan_ms": "constraints.check_plan",
    "iep.apply_ms": "iep.apply",
    "iep.instance_update_ms": "iep.instance_update",
    "iep.rebind_ms": "iep.rebind",
    "iep.repair_ms": "iep.repair",
    "iep.dif_ms": "iep.dif",
    **{f"iep.apply_ms.{kind}": f"iep.apply.{kind}" for kind in KINDS},
    "metrics.total_utility_ms": "metrics.total_utility",
    "platform.submit_ms": "platform.submit",
    "oplog.append_ms": "oplog.append",
    "snapshot.save_ms": "snapshot.save",
    "batched.flush_ms": "batched.flush",
    "service.dispatch_ms.write": "service.dispatch.write",
    "service.dispatch_ms.read": "service.dispatch.read",
    "service.inbox_wait_ms": "service.inbox_wait",
    "service.decode_ms": "service.decode",
    "gepc.solve_ms": "gepc.solve",
    "gepc.fill_ms": "gepc.fill",
    "kernel.block_ms": "kernel.block",
    "kernel.row_ms": "kernel.row",
}

_SPAN_CALLS = {
    "constraints.check_plan_calls": "constraints.check_plan",
    "metrics.total_utility_calls": "metrics.total_utility",
    "oplog.appends": "oplog.append",
    "snapshot.saves": "snapshot.save",
    "kernel.row_calls": "kernel.row",
}

_TILE_COUNTS = (
    "scalar_serves", "row_serves", "hits", "misses", "evictions",
)

#: name -> unit, for ``--trace 1``.
PER_LAYER = {
    **{name: "ms/step" for name in _SPAN_MS},
    **{name: "count/step" for name in _SPAN_CALLS},
    "iep.dif_per_op": "users/op",
    "oplog.bytes_per_op": "B/op",
    "snapshot.bytes": "B/save",
    "batched.fold_ratio": "ratio",
    "batched.rejected": "count/step",
    "service.transport_ms": "ms/step",
    "service.read_p50_ms": "ms",
    "gepc.grab_ms": "ms/step",
    "kernel.block_rows": "count/step",
    **{f"tiles.{name}": "count/step" for name in _TILE_COUNTS},
    "tiles.peak_backend_mib": "MiB",
    "datasets.generate_s": "s",
    "trace.unexplained_share": "share",
    "trace.overhead_share": "share",
}


def per_layer(
    tracer: Tracer,
    steps: int,
    traced_seconds: float,
    untraced_seconds: float,
    observed: dict[str, float],
) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric from one traced pass.

    ``traced_seconds``/``untraced_seconds`` are the summed end-to-end
    window times of the traced pass and of the untraced pass over the
    same ``steps`` steps.  ``observed`` carries what was read from the
    program itself (tile stats, batch stats, WAL size, dif, rejections);
    keys it does not set read 0.
    """
    per_step = 1000.0 / max(steps, 1)
    values: dict[str, float] = {}
    for name, span in _SPAN_MS.items():
        values[name] = tracer.totals("run", span).inclusive * per_step
    for name, span in _SPAN_CALLS.items():
        values[name] = tracer.totals("run", span).calls / max(steps, 1)
    appends = tracer.totals("run", "oplog.append").calls
    saves = tracer.totals("run", "snapshot.save")
    dispatch = tracer.totals("run", "service.dispatch").inclusive
    # Client round trip minus server dispatch; the inbox wait is
    # explained through its own (self) time.
    transport = traced_seconds - dispatch if dispatch else 0.0
    explained = tracer.self_time("run") + transport
    values.update(
        {
            "iep.dif_per_op": observed.get("dif_per_op", 0.0),
            "oplog.bytes_per_op": (
                observed.get("wal_bytes", 0.0) / appends if appends else 0.0
            ),
            "snapshot.bytes": saves.units / saves.calls if saves.calls else 0.0,
            "batched.fold_ratio": observed.get("fold_ratio", 0.0),
            "batched.rejected": observed.get("rejected", 0.0) / max(steps, 1),
            "service.transport_ms": transport * per_step,
            "service.read_p50_ms": observed.get("read_p50_ms", 0.0),
            "gepc.grab_ms": values["gepc.solve_ms"]
            - tracer.totals("run", "gepc.fill@gepc.solve").inclusive * per_step,
            "kernel.block_rows": (
                tracer.totals("run", "kernel.block").units / max(steps, 1)
            ),
            "tiles.peak_backend_mib": observed.get("tiles.peak_backend_mib", 0.0),
            "datasets.generate_s": (
                tracer.totals("setup", "datasets.generate").inclusive
            ),
            "trace.unexplained_share": (
                1.0 - explained / traced_seconds if traced_seconds else 0.0
            ),
            "trace.overhead_share": (
                traced_seconds / untraced_seconds - 1.0
                if untraced_seconds
                else 0.0
            ),
        }
    )
    for name in _TILE_COUNTS:
        values[f"tiles.{name}"] = observed.get(f"tiles.{name}", 0.0) / max(
            steps, 1
        )
    return values


def as_output(values: dict[str, float], units: dict[str, str]) -> dict[str, Any]:
    """``{"name": {"value": v, "unit": u}}`` for exactly ``units``' names."""
    missing = sorted(set(units) - set(values))
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    return {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit in units.items()
    }
