"""Tiny-size smoke runs of every workload, and wrong references failing."""

import pytest

from perfbench import harness, metrics, workloads
from perfbench.tracing import leaked_wrappers


def tiny(name, seed=3):
    if name == "iep-scale":
        return workloads.IepScale(seed, n_users=300, n_events=24)
    if name == "service-mixed":
        return workloads.ServiceMixed(seed, scale=0.1)
    return workloads.GepcSolve(seed, scale=0.1)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_untraced_run_is_correct_and_complete(name):
    outcome = harness.run_untraced(tiny(name), seconds=1.0)
    assert outcome.correct, outcome.notes
    assert outcome.failed == 0 and outcome.attempted > 0
    assert set(outcome.metrics) == set(metrics.END_TO_END)
    assert all(value > 0 for value in outcome.metrics.values())
    printed = outcome.as_json(metrics.END_TO_END)
    assert set(printed) == {"correct", "attempted", "failed", "metrics"}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_run_reports_every_layer_and_restores(name):
    outcome = harness.run_traced(tiny(name), seconds=1.0)
    assert outcome.correct, outcome.notes
    assert set(outcome.metrics) == set(metrics.PER_LAYER)
    assert leaked_wrappers() == []
    values = outcome.metrics
    if name == "iep-scale":
        assert values["constraints.check_plan_ms"] > 0
        assert values["iep.rebind_ms"] > 0
        assert values["oplog.append_ms"] == 0
    if name == "service-mixed":
        assert values["oplog.appends"] > 0
        assert values["service.transport_ms"] > 0
        assert values["service.dispatch_ms.read"] > 0
    if name == "gepc-solve":
        assert values["gepc.solve_ms"] > 0
        assert values["iep.apply_ms"] == 0
    assert values["datasets.generate_s"] > 0


def test_wrong_iep_reference_fails(monkeypatch):
    real = workloads.iep_reference

    def wrong(*args):
        reference = real(*args)
        return {**reference, "utility": reference["utility"] + 1.0}

    monkeypatch.setattr(workloads, "iep_reference", wrong)
    outcome = harness.run_untraced(tiny("iep-scale"), seconds=0.5)
    assert not outcome.correct
    assert outcome.failed == outcome.attempted > 0


def test_wrong_gepc_reference_fails(monkeypatch):
    real = workloads.gepc_reference
    monkeypatch.setattr(
        workloads, "gepc_reference",
        lambda *args: (real(*args)[0] + 1e-9, real(*args)[1]),
    )
    outcome = harness.run_untraced(tiny("gepc-solve"), seconds=0.5)
    assert not outcome.correct
    assert outcome.failed == outcome.attempted > 0


def test_wrong_twin_fails():
    workload = tiny("service-mixed")
    prepare = workload.prepare

    def tampered(seconds):
        prepare(seconds)
        workload.script["frames"][0]["utility"] += 1.0

    workload.prepare = tampered
    outcome = harness.run_untraced(workload, seconds=0.5)
    assert not outcome.correct
    assert outcome.failed == outcome.attempted > 0


@pytest.mark.parametrize("name", ["iep-scale", "service-mixed"])
def test_utility_vs_replan_does_not_depend_on_run_length(name):
    short = harness.run_untraced(tiny(name), seconds=1.0)
    # Tiny service runs use up their pre-drawn frames (30 per second).
    long = harness.run_untraced(tiny(name), seconds=3.0)
    assert short.correct and long.correct
    assert short.attempted < long.attempted
    assert (
        short.metrics["utility_vs_replan"] == long.metrics["utility_vs_replan"]
    )


def test_frames_draw_the_nine_kinds_in_equal_shares():
    from collections import Counter

    from repro.datasets import ScaleConfig, generate_scale_instance
    from repro.core.gepc.greedy import GreedySolver

    instance = generate_scale_instance(ScaleConfig(n_users=60, n_events=8))
    plan = GreedySolver(seed=0).solve(instance).plan
    drawer = workloads.FrameDrawer(seed=1)
    frames = [drawer.draw(instance, plan) for _ in range(210)]
    for size in set(workloads.FRAME_BLOCK):
        counts = Counter(
            type(operation).__name__
            for frame in frames
            if len(frame) == size
            for operation in frame
        )
        assert set(counts) == set(metrics.KINDS)
        assert max(counts.values()) - min(counts.values()) <= 1
