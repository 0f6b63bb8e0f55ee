"""The batched feeder at experiment scale (runs shared via ``tests.oracle``).

On the campaign pods every file fits the data queue, so the feeder
retires each block's packets without heap events.
"""

from repro.config import SimulationConfig
from repro.workloads import campaign10k, run_pods_single_env
from tests.oracle.harness import chaos_report, experiment


def test_fig5_identical_with_and_without_batching():
    assert experiment("fig5", False) == experiment("fig5", True)


def test_faultrec_identical_with_and_without_batching():
    assert experiment("faultrec", False) == experiment("faultrec", True)


def test_chaos_report_identical_per_seed():
    assert chaos_report(False) == chaos_report(True)


def test_campaign_timeline_identical_and_fewer_events():
    plan = campaign10k(scale=0.01)  # one pod of 100 clients
    fast = run_pods_single_env(plan, config=SimulationConfig())
    reference = run_pods_single_env(
        plan, config=SimulationConfig().with_hdfs(reference=True)
    )
    assert fast.timeline == reference.timeline
    assert fast.fully_replicated and reference.fully_replicated
    assert fast.bytes_moved == reference.bytes_moved
    assert fast.events_processed < reference.events_processed
