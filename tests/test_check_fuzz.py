"""Differential fuzz driver: seeded streams are clean, deterministic,
every preset reaches NewEvent, and the CLI gate exits by the summary
verdict with a per-preset reproduce line."""

import pytest

from repro.check import PRESETS, FuzzConfig, fuzz_seed, run_fuzz
from repro.core.tolerances import AUDIT_FLOAT_TOL
from repro.obs import recording

FAST = FuzzConfig(operations=6, n_users=16, n_events=8)


class TestFuzzSeeds:
    def test_seeded_stream_is_clean(self):
        report = fuzz_seed(0, FAST)
        assert report.ok, report.mismatches or report.violations
        assert report.operations == FAST.operations
        assert report.checks > 0
        assert report.final_utility > 0

    def test_fuzz_is_deterministic(self):
        first = fuzz_seed(1, FAST)
        second = fuzz_seed(1, FAST)
        assert first.final_utility == second.final_utility
        assert first.total_dif == second.total_dif
        assert first.checks == second.checks
        assert first.max_drift == second.max_drift

    def test_run_fuzz_aggregates_and_counts(self):
        with recording() as recorder:
            summary = run_fuzz(range(3), FAST)
        assert summary.ok
        assert summary.seeds == 3
        assert summary.operations == 3 * FAST.operations
        assert summary.checks == sum(r.checks for r in summary.reports)
        assert summary.failures() == []
        assert recorder.counter_value("check.fuzz.seeds") == 3.0
        assert recorder.counter_value("check.fuzz.mismatches") == 0.0
        assert recorder.gauges["check.fuzz.max_drift"] == summary.max_drift

    def test_drift_stays_bounded_over_long_streams(self):
        # Satellite: accumulated splice deltas must stay within the audit
        # tolerance over IEP streams several times the CI length (the
        # re-pin machinery records any excursion as a repin).
        config = FuzzConfig(operations=30, n_users=16, n_events=8)
        report = fuzz_seed(7, config)
        assert report.ok
        assert report.max_drift < AUDIT_FLOAT_TOL
        assert report.repins == 0


class TestFuzzCLI:
    def test_fuzz_subcommand_passes(self, capsys):
        from repro import cli

        code = cli.main(
            [
                "fuzz", "--seeds", "2", "--operations", "4",
                "--users", "16", "--events", "8",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Differential fuzz" in out
        assert "mismatches" in out

    @pytest.mark.parametrize(
        "preset", ["memory", "sharded", "durable", "service"]
    )
    def test_fuzz_subcommand_fails_on_mismatch(
        self, preset, capsys, monkeypatch
    ):
        from repro import cli

        ran = []

        def sabotaged(seeds, config=None):
            ran.append(config.preset)
            summary = run_fuzz(seeds, config)
            summary.reports[0].violations.append("injected failure")
            return summary

        monkeypatch.setattr(cli, "run_fuzz", sabotaged)
        flag = [] if preset == "memory" else [f"--{preset}"]
        code = cli.main(
            ["fuzz", *flag, "--seeds", "1", "--operations", "4",
             "--users", "16", "--events", "8"]
        )
        assert code == 1
        assert ran == [preset]
        err = capsys.readouterr().err.splitlines()
        assert "seed 0 FAILED:" in err
        assert "  injected failure" in err
        command = " ".join(["repro-gepc", "fuzz", *flag])
        assert (
            f"  reproduce: {command} --base-seed 0 --seeds 1 "
            "--operations 4 --users 16 --events 8"
        ) in err

    @pytest.mark.parametrize(
        "flags",
        [
            ("--durable", "--service"),
            ("--sharded", "--durable"),
            ("--sharded", "--service"),
        ],
        ids=["durable-service", "sharded-durable", "sharded-service"],
    )
    def test_presets_are_mutually_exclusive(self, flags, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["fuzz", *flags])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err


class TestRepin:
    def test_repin_restores_exact_route_cost(self):
        from repro.core.gepc.greedy import GreedySolver
        from repro.datasets.meetup import MeetupConfig, generate_ebsn

        instance = generate_ebsn(
            MeetupConfig(n_users=16, n_events=8, n_groups=4, seed=2)
        )
        plan = GreedySolver(seed=2).solve(instance).plan
        user = next(u for u, events in plan if events)
        exact = instance.route_cost(user, plan.user_plan(user))
        plan._route_costs[user] = exact + 1e-3
        plan.feasible_mask(user)  # materialise a kernel row to invalidate
        drift = plan.repin_route_cost(user)
        assert drift == pytest.approx(1e-3)
        assert plan.route_cost(user) == exact
        assert user not in plan._kernel_cache  # stale row dropped

    def test_repin_leaves_healthy_cache_alone(self):
        from repro.core.gepc.greedy import GreedySolver
        from repro.datasets.meetup import MeetupConfig, generate_ebsn

        instance = generate_ebsn(
            MeetupConfig(n_users=16, n_events=8, n_groups=4, seed=2)
        )
        plan = GreedySolver(seed=2).solve(instance).plan
        user = next(u for u, events in plan if events)
        cached = plan.route_cost(user)
        plan.feasible_mask(user)
        drift = plan.repin_route_cost(user)
        assert abs(drift) < AUDIT_FLOAT_TOL
        assert plan.route_cost(user) == cached  # untouched below tolerance
        assert user in plan._kernel_cache  # kernel row survives


class TestShardedFuzz:
    SHARDED = FuzzConfig(
        preset="sharded", operations=6, n_users=16, n_events=8
    )

    def test_sharded_mode_is_clean(self):
        report = fuzz_seed(0, self.SHARDED)
        assert report.ok, report.mismatches or report.violations
        assert report.sharded_utility_ratio > 0

    def test_sharded_mode_is_deterministic(self):
        first = fuzz_seed(2, self.SHARDED)
        second = fuzz_seed(2, self.SHARDED)
        assert first.checks == second.checks
        assert first.final_utility == second.final_utility
        assert first.sharded_utility_ratio == second.sharded_utility_ratio

    def test_sharded_mode_adds_checks_over_plain(self):
        plain = fuzz_seed(3, FAST)
        sharded = fuzz_seed(3, self.SHARDED)
        assert sharded.checks > plain.checks

    def test_flush_violation_count_is_one_check(self, monkeypatch):
        # A flush is one check; a violation count the fuzzer's own
        # check_plan does not confirm is a mismatch, not extra checks.
        from repro.scale import BatchedPlatform

        clean = fuzz_seed(0, self.SHARDED)
        real_flush = BatchedPlatform.flush

        def lying_flush(self):
            result = real_flush(self)
            result.violations += 5
            return result

        monkeypatch.setattr(BatchedPlatform, "flush", lying_flush)
        lied = fuzz_seed(0, self.SHARDED)
        kinds = {m.kind for m in lied.mismatches}
        assert kinds == {"batched_flush_violations"}
        assert lied.violations == []
        assert lied.checks == clean.checks

    def test_sharded_cli_flag(self, capsys):
        from repro import cli

        code = cli.main(
            ["fuzz", "--seeds", "1", "--operations", "4", "--sharded"]
        )
        assert code == 0
        assert "mismatches" in capsys.readouterr().out


def _twin(seed, config):
    from repro.check import run_twin
    from repro.core.gepc import GreedySolver
    from repro.datasets.meetup import generate_ebsn
    from repro.platform import EBSNPlatform

    return run_twin(
        EBSNPlatform(
            generate_ebsn(config.meetup(seed)), solver=GreedySolver(seed=seed)
        ),
        config.operations,
        seed,
    )


class TestNewEventCoverage:
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_every_preset_applies_a_new_event(self, preset):
        # Default op count and instance size: the shared per-step draw
        # injects NewEvents into every leg, not only the in-memory one.
        config = FuzzConfig(preset=preset)
        new_events = _twin(0, config).new_event_seqs()
        assert new_events
        # Every leg applies every operation of the twin (a rejection on
        # either side fails the seed), NewEvents included.
        report = run_fuzz([0], config).reports[0]
        assert report.ok, report.mismatches or report.violations
        if preset == "durable":
            # Some crash scenario recovers to a horizon past a NewEvent,
            # so its WAL encoding is replayed or snapshotted and checked.
            assert any(
                s.recovered_seq >= min(new_events) for s in report.scenarios
            )


class TestTwinRejections:
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_engine_error_on_a_valid_operation_fails_the_seed(
        self, preset, monkeypatch
    ):
        # Every operation is drawn against the twin's current state, so
        # an engine that raises on one is at fault.  All legs share the
        # engine and would agree with the twin's rejection; the twin's
        # rejection itself must fail every preset.
        from repro.core.iep.engine import IEPEngine
        from repro.core.iep.operations import NewEvent

        apply = IEPEngine.apply_in_place

        def broken(self, instance, plan, operation):
            if isinstance(operation, NewEvent):
                raise IndexError("injected engine bug")
            return apply(self, instance, plan, operation)

        monkeypatch.setattr(IEPEngine, "apply_in_place", broken)
        summary = run_fuzz([0], FuzzConfig(preset=preset, operations=4))
        assert not summary.ok
        (violation,) = summary.violations
        assert violation == (
            "twin rejected a valid operation at seq 3 (NewEvent): "
            "IndexError: injected engine bug"
        )
