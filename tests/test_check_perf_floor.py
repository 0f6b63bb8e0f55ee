"""benchmarks/check_perf_floor.py: floor sections are checked, never
silently skipped."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).parents[1] / "benchmarks" / "check_perf_floor.py"


@pytest.fixture()
def checker(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("check_perf_floor", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "RESULTS_DIR", tmp_path)
    (tmp_path / "BENCH_demo.json").write_text(
        json.dumps(
            {"run": {"cpus": 2, "events_per_sec": 1000, "speedup": 1.5}}
        )
    )
    return module


def test_known_keys_pass(checker):
    rows = []
    failures = checker.check_group(
        "demo",
        {"run": {"events_per_sec": 900, "min_speedup": 1.2, "min_cpus": 2}},
        0.3,
        rows,
    )
    assert failures == []
    assert [row[3] for row in rows] == ["ok", "ok"]


def test_unknown_key_fails(checker):
    rows = []
    failures = checker.check_group(
        "demo", {"run": {"min_speedupp": 1.2}}, 0.3, rows
    )
    assert failures == ["demo.run: unknown floor key(s) min_speedupp"]
    assert rows == [("demo.run", "-", "-", "UNKNOWN KEY")]


def test_min_cpus_still_skips_ratio_floors(checker):
    rows = []
    failures = checker.check_group(
        "demo", {"run": {"min_speedup": 9.0, "min_cpus": 4}}, 0.3, rows
    )
    assert failures == []
    assert rows[0][3] == "skip (2 cpus < min_cpus 4)"
