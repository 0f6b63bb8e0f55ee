"""The differential oracle: one scenario, run fast and in reference mode.

:func:`assert_matches_reference` runs a :class:`Scenario` with
``HdfsConfig.reference`` off and on, and compares key by key: results
and durations, the journal, NIC and disk counters, flow aggregates,
per-receiver ``max_buffered``, every :class:`InvariantMonitor` verdict
and the Chrome trace bytes.  Runs are memoized per ``(scenario, mode)``,
so a fixed scenario shared by several tests is simulated once.
:func:`service_report` does the same for the ingest service's golden
chaos run, whose checkpoint barriers drain the schedule.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Optional

from repro.cluster import build_homogeneous
from repro.config import SimulationConfig
from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.figures import experiment_config
from repro.faults.campaign import ChaosSchedule, report_json, run_campaign
from repro.faults.injector import FaultInjector
from repro.faults.invariants import (
    INVARIANT_NAMES,
    READ_INVARIANT_NAMES,
    InvariantMonitor,
)
from repro.hdfs import HdfsDeployment, HdfsReader
from repro.hdfs.protocol import HdfsError
from repro.net.throttle import NodeThrottle
from repro.obs import check_wellformed, chrome_trace_json
from repro.service import IngestService
from repro.service import service as service_module
from repro.sim import Environment
from repro.smarth import SmarthDeployment
from repro.units import KB, MB, mbps
from repro.workloads import contention, heterogeneous, two_rack

from tests.service.specs import golden_spec

#: Simulated seconds after which an unfinished scenario counts as a hang.
DEADLINE = 60.0


@dataclass(frozen=True)
class Scenario:
    """A write, then ``readers`` concurrent whole-file reads.

    ``throttle`` and ``kill`` are unscheduled ``(phase, offset)``
    disturbances, ``offset`` seconds into the ``"write"`` or ``"read"``
    phase: the first two busy datanodes drop to 40 Mbps for 0.9 s, or
    the first busy datanode dies.  ``injected`` faults are scheduled up
    front through :class:`FaultInjector`: ``("throttle", datanode, mbps,
    at)`` or ``("kill_busy", pick, None, at)``.
    """

    system: str = "hdfs"
    #: homogeneous, two_rack (100 Mbps boundary), contention (two
    #: 50 Mbps datanodes) or heterogeneous (3 small/medium/large).
    topology: str = "homogeneous"
    instance: str = "small"
    n_datanodes: int = 9
    size: int = 8 * MB
    block_size: int = 2 * MB
    packet_size: int = 64 * KB
    seed: int = 0
    #: Heartbeats carry SMARTH's speed reports; short ones re-rank the
    #: namenode's cached speed registry between block allocations.
    heartbeat: float = 3.0
    policy: str = "default"
    readers: int = 0
    #: A second client writes ``size`` more bytes during the reads.
    mixed_writer: bool = False
    throttle: Optional[tuple] = None
    kill: Optional[tuple] = None
    injected: tuple = ()

    def build(self, reference: bool):
        config = SimulationConfig(seed=self.seed).with_hdfs(
            block_size=self.block_size,
            packet_size=self.packet_size,
            heartbeat_interval=self.heartbeat,
            reference=reference,
        )
        extra = max(0, self.readers - 1)
        if self.topology == "heterogeneous":
            return heterogeneous().make(config)
        if self.topology == "two_rack":
            return two_rack(
                self.instance, self.n_datanodes, 100, extra
            ).make(config)
        if self.topology == "contention":
            return contention(
                self.instance, self.n_datanodes, 2, n_extra_clients=extra
            ).make(config)
        env = Environment()
        return env, build_homogeneous(
            env, self.instance, self.n_datanodes, config,
            n_extra_clients=extra,
        )


def _disturb(env, deployment, scenario: Scenario, phase: str) -> None:
    def busy():
        return [
            dn for dn in deployment.datanodes.values()
            if dn.node.alive and (dn.active_receivers or dn._serving)
        ]

    def throttle(offset):
        yield env.timeout(offset)
        for dn in busy()[:2]:
            deployment.network.throttles.add(NodeThrottle(dn.name, mbps(40)))
        yield env.timeout(0.9)
        deployment.network.throttles.remove_matching(
            lambda rule: isinstance(rule, NodeThrottle)
        )

    def kill(offset):
        yield env.timeout(offset)
        if busy():
            busy()[0].kill()

    for spec, disturbance in ((scenario.throttle, throttle),
                              (scenario.kill, kill)):
        if spec is not None and spec[0] == phase:
            env.process(disturbance(spec[1]), name="oracle:disturb")


def _attempt(gen, key):
    """Run one client call; returns (comparable key, result or None)."""
    try:
        result = yield from gen
    except HdfsError as error:
        return ("error", type(error).__name__, str(error)), None
    return key(result), result


def _write_key(result):
    return (result.duration, result.recoveries, result.pipelines)


def _read_key(result):
    return (result.duration, result.end, tuple(result.sources))


def _driver(env, deployment, scenario: Scenario, out: dict):
    _disturb(env, deployment, scenario, "write")
    put = deployment.client().put("/oracle/f", scenario.size)
    out["write"], written = yield env.process(_attempt(put, _write_key))
    if written is None or not scenario.readers:
        return written
    _disturb(env, deployment, scenario, "read")
    read_start = env.events_processed
    hosts = [deployment.cluster.client_host,
             *deployment.cluster.extra_client_hosts]
    procs = [
        env.process(_attempt(HdfsReader(
            deployment, host=hosts[i % len(hosts)], name=f"reader{i}"
        ).get("/oracle/f"), _read_key))
        for i in range(scenario.readers)
    ]
    if scenario.mixed_writer:
        mix = deployment.client(name="mixer").put("/oracle/mix", scenario.size)
        procs.append(env.process(_attempt(mix, _write_key)))
    out["reads"] = []
    for proc in procs:
        out["reads"].append((yield proc)[0])
    out["read_events"] = env.events_processed - read_start
    return written


@lru_cache(maxsize=None)
def observe(scenario: Scenario, reference: bool) -> dict:
    """Run ``scenario`` in one mode and return its observables."""
    env, cluster = scenario.build(reference)
    cls = SmarthDeployment if scenario.system == "smarth" else HdfsDeployment
    deployment = cls(cluster, observe=True, policy=scenario.policy)
    opened = []
    open_pipeline = deployment.open_pipeline

    def recording_open(*args, **kwargs):
        opened.append(open_pipeline(*args, **kwargs))
        return opened[-1]

    deployment.open_pipeline = recording_open
    injector = FaultInjector(deployment)
    for kind, a, b, at in scenario.injected:
        if kind == "throttle":
            injector.throttle_at(a, b, at=at)
        else:
            injector.kill_busy_at(at=at, pick=a)
    monitor = InvariantMonitor(
        deployment, invariant_names=INVARIANT_NAMES + READ_INVARIANT_NAMES
    )
    out: dict = {}
    driver = env.process(_driver(env, deployment, scenario, out))
    env.run(until=env.any_of([driver, env.timeout(DEADLINE)]))
    monitor.stop()
    if not driver.triggered:
        monitor.finalize("hang")
    elif driver.value is None:
        monitor.finalize("recovery_failed")
    else:
        monitor.finalize("completed", driver.value)
    check_wellformed(deployment.tracer, allow_open=True)

    hosts = sorted(cluster.all_hosts, key=lambda n: n.name)
    metrics = deployment.metrics
    out.update(
        end=env.now,
        journal=[
            (e.time, e.kind, e.subject, e.details)
            for e in deployment.journal.events()
        ],
        nic=[(n.name, n.nic.bytes_sent, n.nic.bytes_received) for n in hosts],
        disk=[
            (n.name, n.disk.bytes_written, n.disk.bytes_read) for n in hosts
        ],
        flows=sorted(
            (pair, tuple(acc))
            for pair, acc in deployment.network.stats._agg.items()
        ),
        max_buffered=[
            (h.block.block_id, [r.max_buffered for r in h.receivers])
            for h in opened
        ],
        invariants=monitor.to_dict(),
        trace=chrome_trace_json(deployment.tracer),
        # Engine measures, never compared:
        events=env.events_processed,
        trains=metrics.counter_value("trains_conducted"),
        read_trains=metrics.counter_value("read_trains_conducted"),
        registry=type(deployment.namenode.speeds).__name__,
        rankings_cached=len(deployment.namenode.speeds._ranked),
    )
    return out


COMPARED = (
    "write", "reads", "end", "journal", "nic", "disk", "flows",
    "max_buffered", "invariants", "trace",
)


def assert_matches_reference(scenario: Scenario) -> None:
    fast, reference = observe(scenario, False), observe(scenario, True)
    for key in COMPARED:
        assert fast.get(key) == reference.get(key), (
            f"{key} differs from reference mode; replay from the repo root "
            "with\n  PYTHONPATH=src python -c \"from tests.oracle.harness "
            "import Scenario, assert_matches_reference; "
            f"assert_matches_reference({scenario!r})\"\n"
            f"or pin it with @example(scenario={scenario!r})"
        )


# -- experiment scale ------------------------------------------------------

SCALE = 0.25


def normalized(result) -> dict:
    """An experiment table as JSON-comparable rows + measured strings."""
    rows = [
        row if isinstance(row, dict) else dict(zip(result.columns, row))
        for row in result.rows
    ]
    measured = {k: str(v) for k, v in result.measured.items()}
    return json.loads(
        json.dumps({"rows": rows, "measured": measured}, sort_keys=True)
    )


@lru_cache(maxsize=None)
def experiment(name: str, reference: bool) -> dict:
    """One paper experiment at ``SCALE`` in the given mode."""
    config = experiment_config().with_hdfs(reference=reference)
    return normalized(ALL_EXPERIMENTS[name](config=config, scale=SCALE))


@lru_cache(maxsize=None)
def chaos_report(reference: bool) -> str:
    """The fixed-seed chaos campaign report in the given mode."""
    original = ChaosSchedule.config
    if reference:
        ChaosSchedule.config = lambda s: original(s).with_hdfs(reference=True)
    try:
        return report_json(run_campaign(11, 2, ("hdfs", "smarth"), 0.1))
    finally:
        ChaosSchedule.config = original


@lru_cache(maxsize=None)
def service_report(reference: bool) -> dict:
    """The chaos golden service run's digests and counts in the given mode.

    Four barriers; a throttle window straddles the t=60 s barrier and a
    kill/revive pair the t=120 s one.
    """
    original = service_module.SimulationConfig
    if reference:
        service_module.SimulationConfig = (
            lambda seed: original(seed=seed).with_hdfs(reference=True)
        )
    try:
        report = IngestService(golden_spec(chaos=True)).run()
    finally:
        service_module.SimulationConfig = original
    return {"digests": report.digests(), "counts": report.counts}


# -- fixed scenarios the per-fast-path suites pinned -----------------------

STEADY = Scenario(size=64 * MB, block_size=16 * MB)
STEADY_SMARTH = replace(STEADY, system="smarth")
#: Speed reports land mid-upload and re-rank the first datanodes.
RERANKED = replace(STEADY_SMARTH, size=16 * MB, block_size=1 * MB,
                   heartbeat=0.25)
#: Two busy datanodes throttled mid-train; a busy datanode killed.
THROTTLED = {
    t: replace(STEADY, throttle=("write", t)) for t in (0.4, 1.1, 2.2)
}
THROTTLED_SMARTH = replace(STEADY_SMARTH, throttle=("write", 0.8))
KILLED = {t: replace(STEADY, kill=("write", t)) for t in (0.3, 1.37, 2.6)}
KILLED_SMARTH = replace(STEADY_SMARTH, kill=("write", 1.1))
READ_SINGLE_BLOCK = Scenario(size=2 * MB, readers=1)
READ_RAGGED_TAIL = Scenario(size=4 * MB + 256 * KB + 1, seed=1, readers=1)
READ_SUB_PACKET = Scenario(size=4 * KB, seed=2, readers=1)
READ_SMARTH_WRITTEN = Scenario(system="smarth", size=6 * MB, seed=3, readers=1)
READ_MIXED = Scenario(size=6 * MB, seed=4, readers=1, mixed_writer=True)
#: The racing writer quotes channels the read train guards, mid-train.
READ_GUARDED = Scenario(
    n_datanodes=8, size=2 * MB, block_size=1 * MB, seed=1, readers=1,
    mixed_writer=True,
)
#: The source dies 20 ms into the read; the reader resumes elsewhere.
READ_RESUMED = Scenario(size=4 * MB, readers=1, kill=("read", 0.02))
#: Traced 12 MB uploads, clean or with an injected kill.
TRACED = {
    (system, killed): Scenario(
        system=system, n_datanodes=6, size=12 * MB, block_size=4 * MB,
        packet_size=256 * KB, seed=3 if killed else 0,
        injected=(("kill_busy", 1, None, 0.5),) if killed else (),
    )
    for system in ("hdfs", "smarth")
    for killed in (False, True)
}
#: The whole file fits the data queue: the batched feeder engages.
BATCHABLE = Scenario(size=4 * MB, block_size=1 * MB)
