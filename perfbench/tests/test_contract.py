"""BENCHMARK.json and what the command prints stay in step."""

import json
import re
from pathlib import Path

from perfbench import metrics
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_top_level_keys():
    spec = load()
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60


def test_workloads_match_the_command():
    spec = load()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200


def test_end_to_end_metrics_match_what_is_printed():
    spec = load()
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert declared == metrics.END_TO_END
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert metric["better"] in ("lower", "higher")
        assert 0 < metric["bound"] <= 0.25
    assert bounds["setup_s"] == max(bounds.values())
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")


def test_per_layer_metrics_match_what_is_printed():
    spec = load()
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared == metrics.PER_LAYER
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        assert metric["better"] in ("lower", "higher")


def test_names_and_units_are_well_formed_and_unique():
    spec = load()
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    units = [m["unit"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(UNIT.match(unit) for unit in units)
