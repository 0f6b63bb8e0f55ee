"""Cached ranking and lazy cancellation at experiment scale (runs shared
via ``tests.oracle``; reference mode turns both off)."""

from tests.oracle.harness import chaos_report, experiment


def test_fig5_identical_fast_vs_legacy():
    assert experiment("fig5", False) == experiment("fig5", True)


def test_faultrec_identical_fast_vs_legacy():
    assert experiment("faultrec", False) == experiment("faultrec", True)


def test_chaos_report_identical_per_seed():
    assert chaos_report(False) == chaos_report(True)
