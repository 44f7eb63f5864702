"""The CI bench path: the report driver's presets and the regression checker.

The checker half drives ``check()`` through pass, fail, and skip for
every gate kind.  The driver half runs each preset's runner at a
shrunken size and asserts it still emits the entry names and gate specs
its committed baseline expects, so a refactor of the driver cannot
silently drop or rename a gate.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.bench.report import PRESETS, Workload, build_report

ROOT = Path(__file__).resolve().parent.parent
BASELINES = sorted((ROOT / "results").glob("bench_baseline*.json"))


def _load_checker():
    path = ROOT / "scripts" / "check_bench_regression.py"
    spec = importlib.util.spec_from_file_location("check_bench_regression", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checker = _load_checker()


# --------------------------------------------------------------------- #
# check_bench_regression.check()
# --------------------------------------------------------------------- #


def _doc(entries):
    return {
        "schema": "repro.bench.report",
        "schema_version": 1,
        "preset": "p",
        "city": "c",
        "scale": 1.0,
        "seed": 0,
        "cpu_count": 1,
        "entries": entries,
    }


def _entry(name, wall=1.0, utility=10.0, **fields):
    return {"solver": name, "wall_time_s": wall, "utility": utility, **fields}


def _check(report, baseline):
    skipped = []
    problems = checker.check(
        report,
        baseline,
        max_slowdown=2.5,
        utility_rtol=1e-6,
        min_seconds=0.5,
        skipped=skipped,
    )
    return problems, skipped


# (gate spec on baseline entry "x", report "x" fields, report "ref"
# fields, outcome); reports come from a 1-core machine.
GATE_CASES = {
    "min_speedup-pass": (
        {"min_speedup": {"vs": "ref", "factor": 2.0, "min_cores": 1}},
        {"wall": 0.4}, {"wall": 1.0}, "pass",
    ),
    "min_speedup-fail": (
        {"min_speedup": {"vs": "ref", "factor": 2.0, "min_cores": 1}},
        {"wall": 0.9}, {"wall": 1.0}, "fail",
    ),
    "min_speedup-skip": (
        {"min_speedup": {"vs": "ref", "factor": 3.0, "min_cores": 5}},
        {"wall": 0.9}, {"wall": 1.0}, "skip",
    ),
    "equal_utility_vs-pass": (
        {"equal_utility_vs": {"vs": "ref"}},
        {"utility": 10.0}, {"utility": 10.0}, "pass",
    ),
    "equal_utility_vs-fail": (
        {"equal_utility_vs": {"vs": "ref"}},
        {"utility": 10.0}, {"utility": 10.0 + 1e-12}, "fail",
    ),
    "max_utility_gap_vs-pass": (
        {"max_utility_gap_vs": {"vs": "ref", "rtol": 0.1}},
        {"utility": 10.0}, {"utility": 10.5}, "pass",
    ),
    "max_utility_gap_vs-fail": (
        {"max_utility_gap_vs": {"vs": "ref", "rtol": 0.01}},
        {"utility": 10.0}, {"utility": 10.5}, "fail",
    ),
    "max_latency_ratio_vs-pass": (
        {"max_latency_ratio_vs": {"vs": "ref", "quantile": "p50", "factor": 1.5}},
        {"latency_ms": {"p50": 1.4}}, {"latency_ms": {"p50": 1.0}}, "pass",
    ),
    "max_latency_ratio_vs-fail": (
        {"max_latency_ratio_vs": {"vs": "ref", "quantile": "p50", "factor": 1.5}},
        {"latency_ms": {"p50": 1.6}}, {"latency_ms": {"p50": 1.0}}, "fail",
    ),
    "max_latency_ratio_vs-skip": (
        {"max_latency_ratio_vs": {"vs": "ref", "quantile": "p50", "factor": 1.5}},
        {"latency_ms": {"p50": 1.0}}, {"latency_ms": {"p50": 0.01}}, "skip",
    ),
    "max_latency_ms-pass": (
        {"max_latency_ms": {"p50": 10.0, "p99": 100.0}},
        {"latency_ms": {"p50": 9.0, "p99": 99.0}}, {}, "pass",
    ),
    "max_latency_ms-fail": (
        {"max_latency_ms": {"p50": 10.0, "p99": 100.0}},
        {"latency_ms": {"p50": 9.0, "p99": 101.0}}, {}, "fail",
    ),
    "min_ops_per_sec-pass": (
        {"min_ops_per_sec": 25.0}, {"ops_per_sec": 30.0}, {}, "pass",
    ),
    "min_ops_per_sec-fail": (
        {"min_ops_per_sec": 25.0}, {"ops_per_sec": 20.0}, {}, "fail",
    ),
    "max_peak_rss_mib-pass": (
        {"max_peak_rss_mib": 1024.0}, {"peak_rss_mib": 900.0}, {}, "pass",
    ),
    "max_peak_rss_mib-fail": (
        {"max_peak_rss_mib": 1024.0}, {"peak_rss_mib": 1100.0}, {}, "fail",
    ),
    "min_plane_compression-pass": (
        {"min_plane_compression": {"factor": 2.0}},
        {"plane": {"compression": 2.5}}, {}, "pass",
    ),
    "min_plane_compression-fail": (
        {"min_plane_compression": {"factor": 2.0}},
        {"plane": {"compression": 1.5}}, {}, "fail",
    ),
}


def _fields(spec):
    fields = dict(spec)
    wall = fields.pop("wall", 1.0)
    utility = fields.pop("utility", 10.0)
    return wall, utility, fields


@pytest.mark.parametrize("case", sorted(GATE_CASES))
def test_cross_entry_gate(case):
    gate, x_spec, ref_spec, outcome = GATE_CASES[case]
    x_wall, x_utility, x_fields = _fields(x_spec)
    ref_wall, ref_utility, ref_fields = _fields(ref_spec)
    report = _doc(
        [
            _entry("ref", ref_wall, ref_utility, **ref_fields),
            _entry("x", x_wall, x_utility, **x_fields),
        ]
    )
    # The baseline records the report's own values, so only the gate
    # under test can fail.
    baseline = _doc(
        [
            _entry("ref", ref_wall, ref_utility),
            _entry("x", x_wall, x_utility, **gate),
        ]
    )
    problems, skipped = _check(report, baseline)
    gate_name = next(iter(gate))
    if outcome == "pass":
        assert problems == [] and skipped == []
    elif outcome == "fail":
        assert len(problems) == 1 and problems[0].startswith("x: "), problems
        assert skipped == []
    else:
        assert problems == []
        assert len(skipped) == 1 and skipped[0].startswith(f"x {gate_name} (")


@pytest.mark.parametrize(
    "gate",
    [
        {"min_speedup": {"vs": "gone", "factor": 2.0}},
        {"equal_utility_vs": {"vs": "gone"}},
        {"max_utility_gap_vs": {"vs": "gone", "rtol": 0.1}},
        {"max_latency_ratio_vs": {"vs": "gone", "factor": 1.5}},
    ],
    ids=lambda gate: next(iter(gate)),
)
def test_cross_entry_reference_missing_fails(gate):
    report = _doc([_entry("x")])
    baseline = _doc([_entry("x", **gate)])
    problems, _ = _check(report, baseline)
    assert problems == [f"x: {next(iter(gate))} reference 'gone' missing from report"]


def test_equal_utility_message_is_generic():
    report = _doc([_entry("ref", utility=1.0), _entry("x", utility=2.0)])
    baseline = _doc([_entry("ref", utility=1.0), _entry("x", utility=2.0)])
    baseline["entries"][1]["equal_utility_vs"] = {"vs": "ref"}
    problems, _ = _check(report, baseline)
    assert "kernel" not in problems[0]
    assert "bit-identical" in problems[0]


@pytest.mark.parametrize(
    "report_entry, outcome",
    [
        (_entry("x", wall=2.0, utility=10.0), "pass"),
        (_entry("x", wall=3.0, utility=10.0), "fail"),  # > 2.5x baseline
        (_entry("x", wall=0.4, utility=10.0), "pass"),
        (_entry("x", wall=1.0, utility=10.1), "fail"),  # utility drift
    ],
)
def test_per_entry_wall_and_utility(report_entry, outcome):
    baseline = _doc([_entry("x", wall=1.0, utility=10.0)])
    problems, _ = _check(_doc([report_entry]), baseline)
    assert (problems == []) == (outcome == "pass"), problems


def test_entry_utility_rtol_widens_tolerance():
    baseline = _doc([_entry("x", utility=10.0, utility_rtol=0.05)])
    problems, _ = _check(_doc([_entry("x", utility=10.1)]), baseline)
    assert problems == []


def test_missing_entry_and_workload_mismatch_fail():
    report = _doc([_entry("x")])
    report["preset"] = "other"
    problems, _ = _check(report, _doc([_entry("x"), _entry("y")]))
    assert "y: missing from report" in problems
    assert any(p.startswith("workload mismatch on 'preset'") for p in problems)


def test_schema_version_mismatch_fails():
    report = _doc([_entry("x")])
    report["schema_version"] = 2
    problems, _ = _check(report, _doc([_entry("x")]))
    assert problems[0].startswith("schema_version mismatch")


def test_skipped_summary():
    assert checker.skipped_summary([]) == "skipped gates: none"
    assert checker.skipped_summary(["a g (why)", "b h (why)"]) == (
        "skipped gates (2): a g (why); b h (why)"
    )


@pytest.mark.parametrize("fail", [False, True])
def test_every_run_ends_with_the_skipped_summary(tmp_path, capsys, fail):
    gate = {"min_speedup": {"vs": "ref", "factor": 3.0, "min_cores": 5}}
    baseline = _doc([_entry("ref"), _entry("x", **gate)])
    report = _doc([_entry("ref"), _entry("x", utility=11.0 if fail else 10.0)])
    (tmp_path / "r.json").write_text(json.dumps(report))
    (tmp_path / "b.json").write_text(json.dumps(baseline))
    code = checker.main([str(tmp_path / "r.json"), str(tmp_path / "b.json")])
    assert code == (1 if fail else 0)
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-1] == (
        "skipped gates (1): x min_speedup (cpu_count 1 < min_cores 5)"
    )


# --------------------------------------------------------------------- #
# repro.bench.report presets vs their committed baselines
# --------------------------------------------------------------------- #

GATE_KEYS = (
    "min_speedup",
    "equal_utility_vs",
    "max_utility_gap_vs",
    "max_latency_ratio_vs",
    "max_latency_ms",
    "min_ops_per_sec",
    "max_peak_rss_mib",
    "min_plane_compression",
)

#: Per-preset keyword overrides that shrink each runner to test size.
SHRINK = {
    "small": {},  # already a fraction of a second
    "kernel": {"scale": 0.1, "operations": 3},
    "sharded": {"users": 240, "events": 24, "groups": 6, "clusters": 2},
    "scale": {"users": 300, "operations": 3},
    "scale-smoke": {"users": 300, "operations": 3},
    "durable": {"scale": 0.1, "operations": 3},
    "service": {"operations": 3},
}


def _baselines() -> dict[str, dict]:
    return {
        document["preset"]: document
        for document in (json.loads(path.read_text()) for path in BASELINES)
    }


def _shape(entries, rename=("", "")) -> list:
    """Entry names and the gate specs the runner emits, renamed."""
    shape = [
        [entry["solver"], {key: entry[key] for key in GATE_KEYS if key in entry}]
        for entry in entries
    ]
    old, new = rename
    return json.loads(json.dumps(shape).replace(old, new))


def test_every_baseline_names_a_preset():
    assert BASELINES
    for path in BASELINES:
        document = json.loads(path.read_text())
        workload = PRESETS.get(document["preset"])
        assert workload is not None, path.name
        assert (workload.city, workload.scale) == (
            document["city"],
            document["scale"],
        ), path.name


def test_every_preset_has_a_baseline():
    assert sorted(_baselines()) == sorted(PRESETS) == sorted(SHRINK)


@pytest.mark.parametrize("preset", sorted(SHRINK))
def test_shrunken_runner_matches_baseline_shape(preset):
    baseline = _baselines()[preset]
    overrides = SHRINK[preset]
    rename = ("", "")
    if "operations" in overrides:
        full = PRESETS[preset].run.keywords["operations"]
        rename = (f'-{full}"', f'-{overrides["operations"]}"')
    entries = PRESETS[preset].run(baseline["seed"], **overrides)
    assert _shape(entries) == _shape(baseline["entries"], rename)
    assert [sorted(entry) for entry in entries] == [
        sorted(entry) for entry in baseline["entries"]
    ]


def test_build_report_header(monkeypatch):
    monkeypatch.setitem(
        PRESETS, "stub", Workload("somewhere", 0.5, lambda seed: [])
    )
    report = build_report("stub", seed=3)
    assert {key: report[key] for key in report if key != "cpu_count"} == {
        "schema": "repro.bench.report",
        "schema_version": 1,
        "preset": "stub",
        "city": "somewhere",
        "scale": 0.5,
        "seed": 3,
        "entries": [],
    }
    assert report["cpu_count"] >= 1
    with pytest.raises(ValueError, match="unknown preset 'nope'"):
        build_report("nope")
