"""The fuzz driver's durable preset (`fuzz --durable`): crash points and
torn tails, recovered and diffed against the twin at the horizon."""

import pytest

from repro.check import CacheMismatch, FuzzConfig, fuzz_seed, run_fuzz
from repro.check.fuzz import SNAPSHOT_EVERY
from repro.platform.durable import CRASH_POINTS

FAST = FuzzConfig(preset="durable", operations=10, n_users=16, n_events=8)


class TestSeedMatrix:
    def test_every_point_and_tear_covered(self):
        report = fuzz_seed(0, FAST)
        covered = {(s.point, s.tear_tail) for s in report.scenarios}
        assert covered == {
            (point, tear) for point in CRASH_POINTS for tear in (False, True)
        }

    def test_all_scenarios_recover_clean(self):
        report = fuzz_seed(0, FAST)
        assert report.ok, report.mismatches or report.violations
        # Every scenario actually crashed and recovered to a real horizon.
        assert all(s.crashed for s in report.scenarios)

    def test_torn_tails_are_truncated(self):
        report = fuzz_seed(1, FAST)
        torn = [
            s for s in report.scenarios
            if s.tear_tail and s.point != "snapshot"
        ]
        assert torn
        assert all(s.truncated_records >= 1 for s in torn)

    def test_scenarios_deterministic(self):
        first = fuzz_seed(2, FAST)
        second = fuzz_seed(2, FAST)
        assert [(s.label(), s.recovered_seq) for s in first.scenarios] == [
            (s.label(), s.recovered_seq) for s in second.scenarios
        ]


class TestSummary:
    def test_multi_seed_aggregate(self):
        summary = run_fuzz([3, 4], FAST)
        assert summary.ok
        assert summary.seeds == 2
        assert len(summary.scenarios) == sum(
            len(r.scenarios) for r in summary.reports
        )
        assert summary.mismatches == []
        assert summary.violations == []
        assert summary.failures() == []
        assert summary.replayed >= 0

    def test_failures_surface_in_summary(self):
        summary = run_fuzz([5], FAST)
        report = summary.reports[0]
        synthetic = CacheMismatch("synthetic", cached=1, expected=2)
        report.mismatches.append(synthetic)
        assert not summary.ok
        assert summary.failures() == [report]
        assert synthetic in summary.mismatches


class TestConfig:
    def test_defaults_are_fuzz_sized(self):
        config = FuzzConfig()
        assert config.operations > 0
        # Snapshots land mid-stream, so recovery replays on top of one.
        assert SNAPSHOT_EVERY < config.operations

    def test_config_frozen(self):
        with pytest.raises(AttributeError):
            FuzzConfig().operations = 1
