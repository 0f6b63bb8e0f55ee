"""Traces are byte-identical with the fast paths on and in reference mode
(the oracle compares ``chrome_trace_json`` bytes for every scenario)."""

from tests.oracle import harness as oracle


def test_trace_identical_across_coalesce_modes() -> None:
    for scenario in oracle.TRACED.values():
        oracle.assert_matches_reference(scenario)
