"""The wrappers exist only inside :func:`installed`."""

import sys
import types

import repro.core.constraints as constraints
import repro.scale.batched as batched
from repro.core.plan import GlobalPlan
from repro.datasets import ScaleConfig, generate_scale_instance
from repro.core.gepc.greedy import GreedySolver
from repro.core.iep.operations import AtomicOperation, EtaDecrease, NewEvent
from repro.scale import BatchedPlatform
from repro.service.app import PlanningApp

from perfbench.tracing import MARKER, SPANS, Tracer, installed, leaked_wrappers


def _originals():
    return {
        "check_plan": constraints.check_plan,
        "batched.check_plan": batched.check_plan,
        "flush": vars(BatchedPlatform)["flush"],
        "rebound_to": vars(GlobalPlan)["rebound_to"],
        "dispatch_raw": vars(PlanningApp)["dispatch_raw"],
        "new_event.apply": vars(NewEvent)["apply_to_instance"],
        "abstract.apply": vars(AtomicOperation)["apply_to_instance"],
    }


def test_wrappers_are_installed_then_restored():
    before = _originals()
    assert leaked_wrappers() == []
    with installed(Tracer()):
        assert getattr(constraints.check_plan, MARKER, False)
        assert batched.check_plan is constraints.check_plan
        assert getattr(vars(BatchedPlatform)["flush"], MARKER, False)
        assert getattr(vars(EtaDecrease)["apply_to_instance"], MARKER, False)
        # The abstract declaration is left alone.
        assert vars(AtomicOperation)["apply_to_instance"] is before["abstract.apply"]
        assert leaked_wrappers()
    assert _originals() == before
    assert leaked_wrappers() == []


def test_a_module_imported_while_installed_is_restored_too():
    with installed(Tracer()):
        probe = types.ModuleType("repro._perfbench_probe")
        probe.check_plan = constraints.check_plan  # binds the wrapper
        sys.modules[probe.__name__] = probe
    try:
        assert probe.check_plan is constraints.check_plan
        assert not getattr(probe.check_plan, MARKER, False)
    finally:
        del sys.modules[probe.__name__]


def test_restored_even_when_the_block_raises():
    before = _originals()
    try:
        with installed(Tracer()):
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    assert _originals() == before
    assert leaked_wrappers() == []


def test_spans_nest_and_record_only_inside_windows():
    instance = generate_scale_instance(ScaleConfig(n_users=60, n_events=8))
    platform = BatchedPlatform(instance, solver=GreedySolver(seed=0))
    platform.publish_plans()
    event = max(range(instance.n_events), key=platform.plan.attendance)
    tracer = Tracer()
    with installed(tracer):
        platform.plan_for(0)
        constraints.check_plan(platform.instance, platform.plan)  # no window
        with tracer.window() as window:
            platform.enqueue(EtaDecrease(event, 1))
            platform.flush()
    flush = tracer.totals("run", "batched.flush")
    check = tracer.totals("run", "constraints.check_plan")
    apply = tracer.totals("run", "iep.apply")
    assert flush.calls == 1 and check.calls >= 1 and apply.calls == 1
    assert tracer.totals("run", "iep.apply.EtaDecrease").calls == 1
    assert flush.inclusive >= check.inclusive + apply.inclusive
    assert flush.self_time <= flush.inclusive - check.inclusive
    assert 0 < tracer.self_time("run") <= window.elapsed


def test_every_span_target_resolves():
    with installed(Tracer()):
        pass
    assert {name for name, *_ in SPANS} >= {
        "constraints.check_plan", "iep.rebind", "oplog.append",
        "snapshot.save", "service.dispatch", "kernel.block",
    }
