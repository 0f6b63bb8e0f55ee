"""Read fast path: coalesced streaming, speed-aware ranking, contention.

Three sections, written to ``benchmarks/results/BENCH_read.json`` and
checked by the ``read`` group in ``perf_floor.json``:

* ``streaming`` — the same whole-file read with the fast paths on
  (analytic :class:`~repro.hdfs.train.ReadTrain` per block, the
  default) and in reference mode (legacy per-chunk prefetch loop).  Simulated duration
  must match *exactly* — the train is an equivalence-preserving
  optimization — while the heap-event count drops by at least
  ``min_event_reduction`` 1.5x (measured ~7x: three quotes per block
  instead of three events per 64 KB chunk).
* ``ranking`` — the reason the reader consults the SpeedRegistry: on a
  heterogeneous cluster whose registry is warm from SMARTH ingest, the
  default policy's speed-aware ``rank_replicas`` (recorded speeds,
  mean-speed prior for unrecorded holders) beats a locality-only
  subclass on total simulated read seconds, floored at ``min_speedup``
  1.1.  Both ratios are *simulated* seconds — machine-independent and
  exactly reproducible.
* ``mixed`` — a reader racing a concurrent writer through the shared
  NIC/disk channels and the bounded serve queue, on baseline HDFS and
  SMARTH.  No floor; the A/B (durations and ``read.serve_wait``) is
  recorded for the README's performance table.
"""

from __future__ import annotations

from conftest import write_bench_json

from repro.config import SimulationConfig
from repro.cluster import SMALL, build_homogeneous
from repro.hdfs import HdfsDeployment, HdfsReader
from repro.policy import Policy
from repro.sim import Environment
from repro.smarth import SmarthDeployment
from repro.units import KB, MB
from repro.workloads import heterogeneous

#: Streaming-shape knobs (block/packet fixed; the file size scales).
STREAM_BLOCK = 8 * MB
STREAM_PACKET = 64 * KB
STREAM_FILE = 64 * MB

#: Ranking workload shape (fixed — the signal needs a warm registry on
#: a long-lived heterogeneous cluster, not big files, so the smoke
#: REPRO_BENCH_SCALE does not shrink it).
RANK_UPLOADS = 32
RANK_READS = 8
RANK_FILE = 32 * MB
RANK_BLOCK = 8 * MB
#: Fast heartbeats so §III-B reports land *during* the short uploads.
RANK_HEARTBEAT = 0.25


class LocalityOnlyPolicy(Policy):
    """The pre-speed-ranking reference: topology order, nothing else."""

    name = "bench-locality-only"

    def rank_replicas(self, client, block_id, candidates, node):
        topology = self.deployment.network.topology
        if node.name in topology:
            candidates.sort(
                key=lambda dn: topology.distance(node.name, dn)
            )
        else:
            candidates.sort(
                key=lambda dn: 0 if topology.rack_of(dn) == node.rack else 1
            )
        return candidates


def _streamed_read(reference: bool, size: int):
    """Write ``size`` then read it back; (duration, read-phase events)."""
    env = Environment()
    config = SimulationConfig().with_hdfs(
        block_size=STREAM_BLOCK,
        packet_size=STREAM_PACKET,
        reference=reference,
    )
    cluster = build_homogeneous(env, SMALL, n_datanodes=9, config=config)
    deployment = HdfsDeployment(cluster)
    client = deployment.client()
    env.run(until=env.process(client.put("/f", size)))
    before = env.events_processed
    result = env.run(until=env.process(HdfsReader(deployment).get("/f")))
    return result.duration, env.events_processed - before


def test_read_streaming(benchmark, results_dir, scale):
    """Coalesced trains: identical simulated read, far fewer events."""
    size = max(2 * STREAM_BLOCK, int(STREAM_FILE * scale))
    fast_duration, fast_events = benchmark.pedantic(
        lambda: _streamed_read(False, size), rounds=1, iterations=1
    )
    legacy_duration, legacy_events = _streamed_read(True, size)
    reduction = legacy_events / fast_events if fast_events else 0.0

    lines = [
        f"streaming read ({size // MB} MB, {STREAM_BLOCK // MB} MB blocks, "
        f"{STREAM_PACKET // KB} KB packets)",
        f"coalesced : {fast_duration:.4f} simulated s, "
        f"{fast_events} heap events",
        f"legacy    : {legacy_duration:.4f} simulated s, "
        f"{legacy_events} heap events",
        f"event reduction : {reduction:.2f}x (floor 1.5x)",
    ]
    text = "\n".join(lines) + "\n"
    print("\n" + text)
    (results_dir / "read_streaming.txt").write_text(text)

    write_bench_json(
        results_dir,
        "read",
        "streaming",
        {
            "file_bytes": size,
            "block_bytes": STREAM_BLOCK,
            "packet_bytes": STREAM_PACKET,
            "coalesced_simulated_s": round(fast_duration, 6),
            "legacy_simulated_s": round(legacy_duration, 6),
            "coalesced_events": fast_events,
            "legacy_events": legacy_events,
            "event_reduction": round(reduction, 2),
        },
    )
    benchmark.extra_info["event_reduction"] = round(reduction, 2)
    assert fast_duration == legacy_duration, (
        "coalesced read is not equivalence-preserving: "
        f"{fast_duration} != {legacy_duration}"
    )
    assert reduction >= 1.5


def _read_series(policy) -> float:
    """Warm a heterogeneous cluster's registry by SMARTH ingest, then
    total the simulated seconds of whole-file reads under ``policy``."""
    config = SimulationConfig().with_hdfs(
        block_size=RANK_BLOCK, heartbeat_interval=RANK_HEARTBEAT
    )
    env, cluster = heterogeneous().make(config)
    deployment = SmarthDeployment(cluster, policy=policy)
    client = deployment.client()
    for index in range(RANK_UPLOADS):
        env.run(until=env.process(client.put(f"/data/f{index}", RANK_FILE)))
    reader = HdfsReader(deployment)
    total = 0.0
    for index in range(RANK_READS):
        result = env.run(until=env.process(reader.get(f"/data/f{index}")))
        total += result.duration
    return total


def test_read_ranking(benchmark, results_dir):
    """Speed-aware replica ranking beats locality-only on hot records."""
    locality_total = benchmark.pedantic(
        lambda: _read_series(LocalityOnlyPolicy()), rounds=1, iterations=1
    )
    ranked_total = _read_series(None)
    speedup = locality_total / ranked_total if ranked_total > 0 else 0.0

    lines = [
        f"replica ranking ({RANK_UPLOADS} uploads warm-up, {RANK_READS} "
        f"reads x {RANK_FILE // MB} MB, heterogeneous cluster)",
        f"locality-only : {locality_total:.3f} simulated s",
        f"speed-aware   : {ranked_total:.3f} simulated s",
        f"speedup       : {speedup:.4f}x (floor 1.1x)",
    ]
    text = "\n".join(lines) + "\n"
    print("\n" + text)
    (results_dir / "read_ranking.txt").write_text(text)

    write_bench_json(
        results_dir,
        "read",
        "ranking",
        {
            "uploads": RANK_UPLOADS,
            "reads": RANK_READS,
            "file_bytes": RANK_FILE,
            "locality_total_simulated_s": round(locality_total, 3),
            "ranked_total_simulated_s": round(ranked_total, 3),
            "speedup": round(speedup, 4),
        },
    )
    benchmark.extra_info["speedup"] = round(speedup, 4)
    assert speedup >= 1.1, (
        f"speed-aware ranking ({ranked_total:.3f}s) not 1.1x ahead of "
        f"locality-only ({locality_total:.3f}s)"
    )


def _mixed_workload(protocol: str, size: int):
    """One reader racing one writer; both phases' simulated durations."""
    env = Environment()
    config = SimulationConfig().with_hdfs(
        block_size=STREAM_BLOCK, packet_size=STREAM_PACKET
    )
    cluster = build_homogeneous(env, SMALL, n_datanodes=9, config=config)
    deployment = (
        SmarthDeployment(cluster, observe=True)
        if protocol == "smarth"
        else HdfsDeployment(cluster, observe=True)
    )
    client = deployment.client()
    env.run(until=env.process(client.put("/f", size)))

    writer = deployment.client(name="mixer")
    write_proc = env.process(writer.put("/mix", size), name="mixer")
    read = env.run(until=env.process(HdfsReader(deployment).get("/f")))
    write = env.run(until=write_proc)
    wait = deployment.metrics.histogram("read.serve_wait")
    return {
        "read_simulated_s": round(read.duration, 4),
        "write_simulated_s": round(write.duration, 4),
        "serve_wait_count": wait.count,
        "serve_wait_max_s": round(wait.maximum, 4),
    }


def test_read_mixed_workload(benchmark, results_dir, scale):
    """Concurrent read+write A/B on baseline HDFS vs SMARTH ingest."""
    size = max(2 * STREAM_BLOCK, int(STREAM_FILE * scale))

    def run_both():
        return {p: _mixed_workload(p, size) for p in ("hdfs", "smarth")}

    measured = benchmark.pedantic(run_both, rounds=1, iterations=1)

    lines = [f"mixed read/write workload ({size // MB} MB each way)"]
    for protocol, numbers in measured.items():
        lines.append(
            f"{protocol:7s}: read {numbers['read_simulated_s']:.3f}s, "
            f"write {numbers['write_simulated_s']:.3f}s, serve waits "
            f"{numbers['serve_wait_count']} (max "
            f"{numbers['serve_wait_max_s']:.3f}s)"
        )
    text = "\n".join(lines) + "\n"
    print("\n" + text)
    (results_dir / "read_mixed.txt").write_text(text)

    write_bench_json(
        results_dir, "read", "mixed", {"file_bytes": size, **measured}
    )
    for protocol, numbers in measured.items():
        assert numbers["read_simulated_s"] > 0, protocol
        assert numbers["write_simulated_s"] > 0, protocol
