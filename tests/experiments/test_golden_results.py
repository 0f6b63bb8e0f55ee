"""Golden-results regression test for the experiment drivers.

``golden_scale025.json`` captures the fig5/fig9 tables at scale 0.25 as
produced by the seed (pre-fast-path) code.  The analytic channel model
is only a valid optimisation if it is *behaviour-preserving*: these
tests pin every row and headline number to the values the event-by-event
FIFO model produced.  Any change to simulated timing — intentional or
not — fails here and forces the golden file to be regenerated (and the
change justified) explicitly.  Reference mode (``HdfsConfig.reference``,
the per-packet loops with every fast path off) must reproduce the same
goldens.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.experiments import ALL_EXPERIMENTS
from tests.oracle.harness import SCALE, chaos_report, experiment, normalized

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden_scale025.json"
GOLDEN_FAULTS_PATH = pathlib.Path(__file__).parent / "golden_faults.json"


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def _assert_matches(table: dict, expected: dict, label: str) -> None:
    rows = table["rows"]
    assert len(rows) == len(expected["rows"])
    for i, (mine, want) in enumerate(zip(rows, expected["rows"])):
        assert mine == want, f"{label} row {i} diverged from the golden run"
    assert table["measured"] == expected["measured"]


@pytest.mark.parametrize("fig_id", ["fig5", "fig9"])
def test_tables_match_seed_exactly(fig_id: str, golden: dict) -> None:
    _assert_matches(experiment(fig_id, False), golden[fig_id], fig_id)


@pytest.mark.parametrize("fig_id", ["fig5", "fig9", "faultrec"])
def test_reference_mode_matches_the_same_goldens(
    fig_id: str, golden: dict
) -> None:
    if fig_id == "faultrec":
        golden = json.loads(GOLDEN_FAULTS_PATH.read_text())
    _assert_matches(experiment(fig_id, True), golden[fig_id], fig_id)


def test_chaos_report_identical_in_reference_mode() -> None:
    """A fixed-seed chaos campaign reports byte-identically in both modes."""
    assert chaos_report(False) == chaos_report(True)


def test_rerun_is_deterministic(golden: dict) -> None:
    """Two runs in one process are identical (no hidden global state)."""
    first = experiment("fig5", False)["rows"]
    second = normalized(ALL_EXPERIMENTS["fig5"](scale=SCALE))["rows"]
    assert first == second == golden["fig5"]["rows"]


def test_fault_scenario_matches_golden() -> None:
    """The fixed kill+throttle run (faultrec) is pinned row-for-row.

    Recovery timing is part of the behaviour contract: a change to the
    fault path that shifts upload times, recovery counts or the identity
    of the killed datanode must regenerate this golden file explicitly.
    """
    golden = json.loads(GOLDEN_FAULTS_PATH.read_text())
    table = experiment("faultrec", False)
    _assert_matches(table, golden["faultrec"], "faultrec")
    # Sanity: the schedule actually forced a recovery on both systems.
    assert all(row["recoveries"] >= 1 for row in table["rows"])
