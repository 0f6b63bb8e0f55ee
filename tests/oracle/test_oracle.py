"""The differential oracle: ``HdfsConfig.reference`` changes no observable.

Randomized scenarios cover Table I instance types, four cluster shapes,
HDFS and SMARTH, sub-packet/whole/ragged files, reads racing a writer,
unscheduled throttles and kills, injected faults and three policies;
the fixed cases of the former per-fast-path suites are ``@example``s.
The ingest service's golden chaos run covers checkpoint barriers.  The
engagement tests prove each fast path actually runs.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.hdfs.train import PacketTrain
from repro.units import KB, MB

from . import harness as oracle
from .harness import Scenario, assert_matches_reference, observe

SERVICE_GOLDEN = (
    Path(__file__).parents[1] / "service" / "golden_service_digests.json"
)

_TIMES = st.sampled_from([0.05, 0.1, 0.2, 0.3, 0.45, 0.6, 0.8, 1.1])
_INJECTED = st.one_of(
    st.tuples(st.just("throttle"), st.sampled_from(["dn0", "dn1", "dn3"]),
              st.sampled_from([25.0, 50.0, 100.0]), _TIMES),
    st.tuples(st.just("kill_busy"), st.integers(0, 2), st.none(), _TIMES),
)


def _disturbance(phases):
    return st.none() | st.tuples(st.sampled_from(phases), _TIMES)


@st.composite
def scenarios(draw) -> Scenario:
    block = draw(st.sampled_from([1 * MB, 2 * MB, 4 * MB]))
    packet = draw(st.sampled_from([64 * KB, 128 * KB, 256 * KB]))
    size = draw(st.one_of(
        st.integers(1, packet - 1),  # sub-packet file
        st.integers(1, 3).map(lambda blocks: blocks * block),
        st.integers(1, 3 * block - 1),  # ragged tail
    ))
    system = draw(st.sampled_from(["hdfs", "smarth"]))
    # Concurrent readers, and unscheduled kills while a SMARTH write is in
    # flight, stay out until the divergences the xfail tests below pin
    # are mended.
    readers = draw(st.integers(0, 1))
    mixed_writer = readers > 0 and draw(st.booleans())
    phases = ["write", "read"] if readers else ["write"]
    kill_phases = phases
    if system == "smarth":
        kill_phases = ["read"] if readers and not mixed_writer else []
    return Scenario(
        system=system,
        topology=draw(st.sampled_from(
            ["homogeneous", "two_rack", "contention", "heterogeneous"]
        )),
        instance=draw(st.sampled_from(["small", "medium", "large"])),
        n_datanodes=draw(st.integers(4, 10)),
        size=size,
        block_size=block,
        packet_size=packet,
        seed=draw(st.integers(0, 7)),
        heartbeat=draw(st.sampled_from([0.25, 1.0, 3.0])),
        policy=draw(st.sampled_from(["default", "hotspot", "tuner"])),
        readers=readers,
        mixed_writer=mixed_writer,
        throttle=draw(_disturbance(phases)),
        kill=draw(_disturbance(kill_phases)) if kill_phases else None,
        injected=tuple(draw(st.lists(_INJECTED, max_size=2))),
    )


@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(scenario=scenarios())
@example(scenario=oracle.STEADY)
@example(scenario=oracle.STEADY_SMARTH)
@example(scenario=oracle.RERANKED)
@example(scenario=oracle.THROTTLED[0.4])
@example(scenario=oracle.THROTTLED[1.1])
@example(scenario=oracle.THROTTLED[2.2])
@example(scenario=oracle.THROTTLED_SMARTH)
@example(scenario=oracle.KILLED[0.3])
@example(scenario=oracle.KILLED[1.37])
@example(scenario=oracle.KILLED[2.6])
@example(scenario=oracle.KILLED_SMARTH)
@example(scenario=oracle.READ_SINGLE_BLOCK)
@example(scenario=oracle.READ_RAGGED_TAIL)
@example(scenario=oracle.READ_SUB_PACKET)
@example(scenario=oracle.READ_SMARTH_WRITTEN)
@example(scenario=oracle.READ_MIXED)
@example(scenario=oracle.READ_GUARDED)
@example(scenario=oracle.READ_RESUMED)
@example(scenario=oracle.TRACED["hdfs", False])
@example(scenario=oracle.TRACED["smarth", False])
@example(scenario=oracle.TRACED["hdfs", True])
@example(scenario=oracle.TRACED["smarth", True])
@example(scenario=oracle.BATCHABLE)
@example(scenario=Scenario("smarth", "heterogeneous", policy="tuner"))
@example(scenario=Scenario("smarth", "contention", policy="hotspot"))
def test_fast_paths_match_reference(scenario: Scenario) -> None:
    assert_matches_reference(scenario)


# The divergences below are known; ROADMAP.md items 2 and 3 track mending
# them.
@pytest.mark.xfail(strict=True, reason="ReadTrain._replay re-quotes a "
                   "quote the guard committed at the invalidation instant")
def test_concurrent_readers_match_reference() -> None:
    assert_matches_reference(Scenario(size=64 * 1024, readers=2))


@pytest.mark.xfail(strict=True, reason="a SMARTH train does not pause "
                   "mid-block when another pipeline fails (Algorithm 4)")
def test_smarth_train_pauses_for_another_pipelines_failure() -> None:
    assert_matches_reference(
        Scenario(system="smarth", throttle=("write", 0.1), kill=("write", 0.2))
    )


@pytest.mark.xfail(strict=True, reason="a SMARTH train settles every hop at "
                   "its pipeline's error; survivors run on until teardown")
def test_smarth_survivors_run_until_teardown() -> None:
    assert_matches_reference(
        Scenario("smarth", "heterogeneous", n_datanodes=4, size=4 * MB,
                 packet_size=256 * KB, seed=5, heartbeat=1.0,
                 policy="tuner", kill=("write", 0.1))
    )


def test_service_barriers_match_reference() -> None:
    """Checkpoint barriers drain the schedule: in both modes they close at
    the same instant, so the whole chaos run matches its golden."""
    fast, reference = oracle.service_report(False), oracle.service_report(True)
    assert reference == fast, (
        "the service run differs from reference mode; replay with\n"
        "  PYTHONPATH=src python -m pytest -q "
        "tests/oracle/test_oracle.py::test_service_barriers_match_reference"
    )
    assert fast == json.loads(SERVICE_GOLDEN.read_text())["chaos"]


class TestEngagement:
    """Each fast path runs where it should (the write and read trains'
    checks live in ``tests/hdfs/test_{packet,read}_train.py``)."""

    def test_batched_feeder(self, monkeypatch) -> None:
        fed = []
        feed = PacketTrain._feed_available

        def counting_feed(train, k):
            after = feed(train, k)
            fed.append(after - k)
            return after

        monkeypatch.setattr(PacketTrain, "_feed_available", counting_feed)
        fast = observe.__wrapped__(oracle.BATCHABLE, False)  # not memoized
        assert sum(fed) > 0
        assert fast["events"] < observe(oracle.BATCHABLE, True)["events"]

    def test_cached_speed_registry(self) -> None:
        fast = observe(oracle.STEADY_SMARTH, False)
        assert fast["registry"] == "SpeedRegistry"
        assert fast["rankings_cached"] > 0
        reference = observe(oracle.STEADY_SMARTH, True)
        assert reference["registry"] == "UncachedSpeedRegistry"
