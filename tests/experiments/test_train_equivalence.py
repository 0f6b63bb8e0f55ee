"""Packet trains at experiment scale (runs shared via ``tests.oracle``)."""

from tests.oracle.harness import chaos_report, experiment


def test_fig5_identical_with_and_without_trains():
    assert experiment("fig5", False) == experiment("fig5", True)


def test_faultrec_identical_with_and_without_trains():
    assert experiment("faultrec", False) == experiment("faultrec", True)


def test_chaos_report_identical_per_seed():
    assert chaos_report(False) == chaos_report(True)
