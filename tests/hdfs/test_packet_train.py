"""Packet-train coalescing: engagement, recovery and predicate tests.

The fast path must be *behaviour-preserving*: every observable must be
bit-identical to the per-packet loop that ``HdfsConfig.reference``
selects.  The comparisons run in the differential oracle
(``tests/oracle``); the steady-state, mid-train throttle (split/re-quote)
and unscheduled-kill (error settle) cases below are its fixed scenarios.
"""

import pytest

from repro.cluster import SMALL, build_homogeneous
from repro.config import SimulationConfig
from repro.hdfs import HdfsDeployment
from repro.hdfs.train import plan_train
from repro.sim import Environment
from repro.units import KB, MB
from tests.oracle import harness as oracle


def _config(reference: bool = False) -> SimulationConfig:
    return SimulationConfig().with_hdfs(
        block_size=16 * MB, packet_size=64 * KB, reference=reference
    )


class TestSteadyStateEquivalence:
    def test_hdfs_upload_bit_identical(self):
        oracle.assert_matches_reference(oracle.STEADY)

    def test_smarth_upload_bit_identical(self):
        oracle.assert_matches_reference(oracle.STEADY_SMARTH)

    def test_train_actually_engages(self):
        """The fast path must reduce events, not silently decline."""
        fast = oracle.observe(oracle.STEADY, False)
        reference = oracle.observe(oracle.STEADY, True)
        assert fast["trains"] > 0
        assert fast["events"] * 3 <= reference["events"]


class TestMidTrainThrottle:
    """A ``tc`` rule change lands while trains are in flight: the affected
    trains must split at the change point — frozen prefix kept, suffix
    re-quoted at the new effective rates — and stay bit-identical."""

    @pytest.mark.parametrize("at", [0.4, 1.1, 2.2])
    def test_throttle_splits_train(self, at):
        oracle.assert_matches_reference(oracle.THROTTLED[at])

    def test_throttle_splits_smarth_train(self):
        oracle.assert_matches_reference(oracle.THROTTLED_SMARTH)


class TestMidTrainKill:
    """An *unscheduled* kill (no injector registration, so the train does
    engage) hits a pipeline datanode mid-train: the error settle must
    reconstruct the per-packet recovery state exactly."""

    @pytest.mark.parametrize("at", [0.3, 1.37, 2.6])
    def test_kill_settles_bit_identical(self, at):
        oracle.assert_matches_reference(oracle.KILLED[at])

    def test_kill_settles_smarth_train(self):
        oracle.assert_matches_reference(oracle.KILLED_SMARTH)

    def test_recovery_still_happens(self):
        fast = oracle.observe(oracle.KILLED[1.37], False)
        assert fast["write"][1] >= 1  # recoveries
        healed = fast["invariants"]["replication_convergence"]
        assert healed["checks"] > 0 and not healed["violations"]


class TestPredicateDeclines:
    """`plan_train` must stand down whenever coalescing could not be
    proven equivalent; these paths fall back to the per-packet loop."""

    def _fresh_pipeline(self, reference=False):
        env = Environment()
        cluster = build_homogeneous(
            env, SMALL, n_datanodes=9, config=_config(reference)
        )
        return cluster, HdfsDeployment(cluster)

    def _plan(self, cluster, deployment, fresh=True):
        """Open a pipeline for a fresh 16 MB block and ask for a train."""
        from repro.hdfs.client.output_stream import plan_file
        from repro.hdfs.client.responder import PacketResponder
        from repro.sim import Store

        env = deployment.env
        namenode = deployment.namenode
        plan = plan_file(16 * MB, deployment.config.hdfs)[0]

        def setup(env):
            yield from namenode.create_file("client", "/t.bin")
            return (yield from namenode.add_block(
                "client", "/t.bin", plan.size, excluded=set()
            ))

        result = env.run(until=env.process(setup(env)))
        client = cluster.client_host
        handle = deployment.open_pipeline(
            result.block, result.targets, client,
            buffer_bytes=deployment.config.hdfs.socket_buffer,
        )
        responder = PacketResponder(env, result.block, handle.ack_in)
        queue = Store(env, capacity=8)
        return plan_train(
            deployment, client, handle, responder, queue, plan, fresh=fresh
        )

    def test_declines_when_coalescing_disabled(self):
        """Reference mode runs the per-packet loop: no train, ever."""
        assert self._plan(*self._fresh_pipeline(reference=True)) is None

    def test_declines_on_scheduled_disturbance(self):
        cluster, deployment = self._fresh_pipeline()
        deployment.scheduled_disturbances.append(1.0)
        assert self._plan(cluster, deployment) is None

    def test_declines_on_resend(self):
        assert self._plan(*self._fresh_pipeline(), fresh=False) is None

    def test_plans_train_on_clean_pipeline(self):
        train = self._plan(*self._fresh_pipeline())
        assert train is not None
        assert train.sent_count == 0
        assert len(train.channels) >= 3

    def test_injector_scheduled_faults_decline_trains(self):
        """A registered injector schedule keeps every train off the road,
        so fault experiments replay the per-packet timeline verbatim."""
        from repro.faults import FaultInjector

        cluster, deployment = self._fresh_pipeline()
        FaultInjector(deployment).throttle_at("dn1", 50.0, at=5.0)
        assert self._plan(cluster, deployment) is None
