"""The host-speed probe runs between steps, never inside their windows."""

from perfbench import harness, probe as probe_module
from perfbench.probe import Probe
from perfbench.tracing import Tracer

from test_workloads import tiny


def test_probe_runs_at_most_once_per_interval(monkeypatch):
    probe = Probe()
    probe.run()
    probe.maybe_run()
    assert len(probe.seconds) == 1
    monkeypatch.setattr(probe_module, "EVERY_SECONDS", 0.0)
    probe.maybe_run()
    assert len(probe.seconds) == 2
    assert probe.median() > 0


def test_measure_probes_before_and_between_steps(monkeypatch):
    monkeypatch.setattr(probe_module, "EVERY_SECONDS", 0.0)
    workload = tiny("gepc-solve")
    probe = Probe()
    with workload.environment():
        state = workload.setup()
        results = harness.measure(workload, state, Tracer(), steps=3, probe=probe)
    assert len(results) == 3
    assert len(probe.seconds) == 4
