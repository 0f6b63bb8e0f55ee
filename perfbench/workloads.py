"""The benchmark's four workloads, driven through ``repro``'s public API.

Each workload is split the way the benchmark times it:

* ``inputs(seed)`` generates the workload's inputs from the seed (set-up);
* ``build(inputs)`` builds whatever cluster or service the benchmark
  constructs itself (set-up; workloads whose library driver builds its
  own clusters return ``None`` and pay for that inside the simulation);
* ``simulate(inputs, built)`` runs the simulation phase and returns an
  :class:`Outcome`;
* ``check(inputs, outcome, seed)`` returns the output checks as
  ``(name, ok, detail)`` triples.

Seed 0 is each workload's named configuration exactly: the paper's
experiment seed for fig5, ``campaign10k`` cut to ten pods, the service's
default tenant mix.  Its outputs are pinned (``expected.json`` and, for
fig5, the repository's own scale-0.25 golden).  Any other seed draws
every payload size up to ``JITTER`` smaller (and re-seeds the campaign's
simulation), so a claim can be re-run on inputs that were not used
while writing it; those runs are checked by invariants only.  Random
choices that change how much work a run does (placement, read targets,
arrivals, faults) keep the paper's seed, so that seeds differ in inputs
but not in cost.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

#: Seed offset of every simulated RNG: seed 0 is the paper's seed.
PAPER_SEED = 20140901

#: Largest fraction by which a non-default seed shrinks a payload size.
JITTER = 0.03

REPO = Path(__file__).resolve().parent.parent
FIG5_GOLDEN = REPO / "tests" / "experiments" / "golden_scale025.json"


@dataclass
class Outcome:
    """What one simulation phase produced (simulated values only)."""

    #: ``(kind, simulated seconds)`` of every operation that completed.
    ops: list[tuple[str, float]]
    #: Operations attempted, and those failed, refused or rejected.
    attempted: int
    failed: int
    #: Client payload bytes written plus read.
    payload_bytes: int
    #: Canonical simulated outputs; their digest is pinned at seed 0.
    outputs: dict
    #: Workload-specific simulated results, ``name -> (value, unit)``.
    extras: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: Layer counters only the workload can see (service, serve queue).
    counters: dict[str, float] = field(default_factory=dict)
    #: Whatever ``check`` needs beyond ``outputs``.
    detail: Any = None


def _jitter(rng: Optional[random.Random], size: int) -> int:
    if rng is None:
        return size
    return int(size * (1.0 - rng.uniform(0.0, JITTER)))


def _rng(seed: int) -> Optional[random.Random]:
    return None if seed == 0 else random.Random(seed)


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile: the smallest value with a share ``q`` of
    the values at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# ---------------------------------------------------------------------------
# fig5: the paper's Figure 5 sweep at scale 0.25, one upload at a time.
FIG5_SCALE = 0.25
FIG5_SIZES_GB = (1.0, 2.0, 4.0, 8.0)


def fig5_inputs(seed: int) -> dict:
    from repro.units import GB

    rng = _rng(seed)
    return {
        "sizes_gb": tuple(
            _jitter(rng, int(g * GB)) / GB for g in FIG5_SIZES_GB
        )
    }


def _fig5_bytes(size_gb: float) -> int:
    """The byte size ``repro.experiments.figures.fig5`` uploads."""
    from repro.units import GB, MB

    return max(int(size_gb * FIG5_SCALE * GB), 64 * MB)


def fig5_simulate(inputs: dict, _built: None) -> Outcome:
    from repro.experiments.figures import fig5

    result = fig5(scale=FIG5_SCALE, sizes_gb=inputs["sizes_gb"])
    rows = json.loads(json.dumps(list(result.rows), sort_keys=True))
    measured = {k: str(v) for k, v in result.measured.items()}
    ops = [("upload", r[col]) for r in rows for col in ("hdfs_s", "smarth_s")]
    per_series = sum(_fig5_bytes(g) for g in inputs["sizes_gb"])
    n_series = len(rows) // len(inputs["sizes_gb"])
    gain = sum(r["improvement_pct"] for r in rows) / len(rows)
    return Outcome(
        ops=ops,
        attempted=len(ops),
        failed=0,
        payload_bytes=2 * n_series * per_series,
        outputs={"rows": rows, "measured": measured},
        extras={"sim_smarth_gain_pct": (gain, "%")},
    )


def fig5_check(inputs: dict, outcome: Outcome, seed: int) -> list:
    from repro.cluster.instance import INSTANCE_CATALOG

    rows = outcome.outputs["rows"]
    checks = [("fig5.rows", len(rows) == 24, f"{len(rows)} rows")]
    if seed == 0:
        golden = json.loads(FIG5_GOLDEN.read_text())["fig5"]
        checks.append(
            ("fig5.golden_rows", rows == golden["rows"], "rows == golden")
        )
        checks.append(
            (
                "fig5.golden_measured",
                outcome.outputs["measured"] == golden["measured"],
                "measured == golden",
            )
        )
        return checks
    # Invariants any seed must satisfy: the paper's claim (SMARTH never
    # slower), no upload faster than the client NIC allows, and upload
    # time linear in size on the unthrottled network.
    sizes = {
        round(g * FIG5_SCALE, 3): _fig5_bytes(g)
        for g in inputs["sizes_gb"]
    }
    for r in rows:
        nic = INSTANCE_CATALOG[r["instance"]].network_rate
        floor = sizes[r["size_gb"]] / nic
        key = f"{r['instance']}/{r['network']}/{r['size_gb']}"
        checks.append(
            ("fig5.smarth_not_slower", r["smarth_s"] <= r["hdfs_s"], key)
        )
        checks.append(
            (
                "fig5.nic_floor",
                min(r["hdfs_s"], r["smarth_s"]) >= round(floor, 1) - 0.05,
                f"{key}: floor {floor:.2f}s",
            )
        )
    for instance in ("small", "medium", "large"):
        series = [
            r for r in rows
            if r["instance"] == instance and r["network"] == "default"
        ]
        first, last = series[0], series[-1]
        size_ratio = sizes[last["size_gb"]] / sizes[first["size_gb"]]
        time_ratio = last["hdfs_s"] / first["hdfs_s"]
        checks.append(
            (
                "fig5.linear",
                abs(time_ratio / size_ratio - 1.0) <= 0.05,
                f"{instance}: time x{time_ratio:.2f} vs size x{size_ratio:.2f}",
            )
        )
    return checks


# ---------------------------------------------------------------------------
# campaign: campaign10k cut to 10 pods x 100 clients x 10 datanodes.
CAMPAIGN_PODS = 10


def campaign_inputs(seed: int) -> dict:
    from repro.config import SimulationConfig
    from repro.workloads import PodPlan, campaign10k

    plan = campaign10k(scale=CAMPAIGN_PODS / 100)
    rng = _rng(seed)
    if rng is not None:
        plan = PodPlan(
            pods=tuple(
                dataclasses.replace(pod, file_bytes=_jitter(rng, pod.file_bytes))
                for pod in plan.pods
            )
        )
    return {"plan": plan, "config": SimulationConfig(seed=PAPER_SEED + seed)}


def campaign_simulate(inputs: dict, _built: None) -> Outcome:
    from repro.workloads import run_pods_single_env

    plan = inputs["plan"]
    run = run_pods_single_env(plan, system="smarth", config=inputs["config"])
    payload = sum(pod.n_clients * pod.file_bytes for pod in plan.pods)
    ops = [("upload", end - start) for _key, start, end in run.timeline]
    return Outcome(
        ops=ops,
        attempted=plan.n_clients,
        failed=plan.n_clients - len(run.timeline),
        payload_bytes=payload,
        outputs={
            "timeline": [[list(k), s, e] for k, s, e in run.timeline],
            "fully_replicated": run.fully_replicated,
            "nic_bytes": list(run.bytes_moved),
        },
        detail=run,
    )


def campaign_check(inputs: dict, outcome: Outcome, _seed: int) -> list:
    plan = inputs["plan"]
    run = outcome.detail
    want = inputs["config"].hdfs.replication * outcome.payload_bytes
    return [
        ("campaign.uploads", len(run.timeline) == plan.n_clients,
         f"{len(run.timeline)}/{plan.n_clients} uploads"),
        ("campaign.fully_replicated", run.fully_replicated, "every file"),
        ("campaign.nic_bytes", run.bytes_moved == (want, want),
         f"{run.bytes_moved} vs replication x payload {want}"),
        ("campaign.durations", all(d > 0 for _k, d in outcome.ops), "> 0"),
    ]


# ---------------------------------------------------------------------------
# readmix: SMARTH ingest warms the SpeedRegistry of a heterogeneous
# cluster, then concurrent whole-file reads race one large write.
READMIX_FILES = 24
READMIX_FILE = 16
READMIX_READERS = 12
READMIX_WRITE = 192
READMIX_BLOCK = 8
READMIX_HEARTBEAT = 0.25


def readmix_inputs(seed: int) -> dict:
    from repro.config import SimulationConfig
    from repro.units import MB

    rng = _rng(seed)
    sizes = [_jitter(rng, READMIX_FILE * MB) for _ in range(READMIX_FILES)]
    targets = list(range(READMIX_FILES))
    random.Random(PAPER_SEED).shuffle(targets)
    config = SimulationConfig(seed=PAPER_SEED).with_hdfs(
        block_size=READMIX_BLOCK * MB, heartbeat_interval=READMIX_HEARTBEAT
    )
    return {
        "sizes": sizes,
        "reads": targets[:READMIX_READERS],
        "write": _jitter(rng, READMIX_WRITE * MB),
        "config": config,
    }


def readmix_build(inputs: dict):
    from repro.faults.invariants import INVARIANT_NAMES, READ_INVARIANT_NAMES
    from repro.faults.invariants import InvariantMonitor
    from repro.smarth import SmarthDeployment
    from repro.workloads import heterogeneous

    env, cluster = heterogeneous().make(inputs["config"])
    deployment = SmarthDeployment(cluster, observe=True)
    monitor = InvariantMonitor(
        deployment, invariant_names=INVARIANT_NAMES + READ_INVARIANT_NAMES
    )
    return env, deployment, monitor


def readmix_simulate(inputs: dict, built) -> Outcome:
    from repro.hdfs import HdfsReader

    env, deployment, monitor = built
    # One client identity throughout: the ingest warms its speed records,
    # which then rank the reads' replicas and place the racing write.
    client = deployment.client()
    ops = []
    for index, size in enumerate(inputs["sizes"]):
        put = env.run(until=env.process(client.put(f"/warm/f{index}", size)))
        ops.append(("upload", put.duration))
    writer = env.process(client.put("/race/big", inputs["write"]))
    readers = [
        env.process(HdfsReader(deployment).get(f"/warm/f{index}"))
        for index in inputs["reads"]
    ]
    env.run(until=env.all_of([writer, *readers]))
    env.run(until=env.now + 1.0)  # trailing blockReceived reports
    monitor.stop()
    monitor.finalize("completed", writer.value)

    reads = [proc.value for proc in readers]
    ops.append(("upload", writer.value.duration))
    ops.extend(("read", r.duration) for r in reads)
    delivered = sum(
        event.details["bytes"]
        for event in deployment.journal.events()
        if event.kind == "read_complete"
    )
    wait = deployment.metrics.histogram("read.serve_wait")
    read_bytes = sum(inputs["sizes"][i] for i in inputs["reads"])
    return Outcome(
        ops=ops,
        attempted=len(ops),
        failed=0,
        payload_bytes=sum(inputs["sizes"]) + inputs["write"] + read_bytes,
        outputs={
            "ops": ops,
            "sources": [r.sources for r in reads],
            "write_pipelines": writer.value.pipelines,
            "serve_waits": wait.count,
            "invariants": monitor.to_dict(),
        },
        extras={
            "sim_read_p50_s": (
                quantile([r.duration for r in reads], 0.5), "s"
            ),
        },
        counters={
            "datanode.serve_waits": wait.count,
            "datanode.serve_wait_p99_s": wait.percentile(99) if wait.count else 0.0,
        },
        detail={
            "reads": reads,
            "delivered": delivered,
            "read_bytes": read_bytes,
            "monitor": monitor,
            "write_replicated": deployment.namenode.file_fully_replicated(
                "/race/big"
            ),
        },
    )


def readmix_check(inputs: dict, outcome: Outcome, _seed: int) -> list:
    detail = outcome.detail
    checks = [
        (
            "readmix.read_size",
            r.size == inputs["sizes"][index],
            f"{r.path}: {r.size} bytes",
        )
        for r, index in zip(detail["reads"], inputs["reads"])
    ]
    checks.append(
        (
            "readmix.delivered",
            detail["delivered"] == detail["read_bytes"],
            f"{detail['delivered']} of {detail['read_bytes']} bytes delivered",
        )
    )
    checks.append(
        ("readmix.write_replicated", detail["write_replicated"], "/race/big")
    )
    for name, record in detail["monitor"].records.items():
        checks.append(
            (
                f"readmix.{name}",
                record.ok and record.checks > 0,
                f"{record.checks} checks, {record.violations[:1]}",
            )
        )
    return checks


# ---------------------------------------------------------------------------
# service: the ingest service's default tenant mix, open loop, with hourly
# barriers and a throttle/kill plan.
SERVICE_TENANTS = 100
SERVICE_HOURS = 2
SERVICE_SPEEDUP = 10.0
SERVICE_FAULTS_PER_DAY = 48.0


def service_inputs(seed: int) -> dict:
    from repro.service import ServiceSpec, generate_service_faults

    rng = _rng(seed)
    spec = ServiceSpec.default(
        tenants=SERVICE_TENANTS,
        horizon=SERVICE_HOURS * 3600.0,
        checkpoint_every=3600.0,
        seed=PAPER_SEED,
    )
    classes = tuple(
        dataclasses.replace(
            c,
            mean_interarrival=c.mean_interarrival / SERVICE_SPEEDUP,
            size=_jitter(rng, c.size),
        )
        for c in spec.classes
    )
    faults = generate_service_faults(
        PAPER_SEED,
        spec.n_datanodes,
        spec.horizon,
        events_per_day=SERVICE_FAULTS_PER_DAY,
    )
    return {"spec": dataclasses.replace(spec, classes=classes, faults=faults)}


def service_build(inputs: dict):
    from repro.service import IngestService

    return IngestService(inputs["spec"])


def service_simulate(inputs: dict, service) -> Outcome:
    report = service.run()
    counts = report.counts
    ops = [
        ("upload", event.details["latency"])
        for event in service.journal.events()
        if event.kind == "service_complete"
    ]
    sizes = {c.name: c.size for c in inputs["spec"].classes}
    payload = sum(
        sizes[event.details["cls"]]
        for event in service.journal.events()
        if event.kind == "service_complete"
    )
    violations = sum(c["violations"] for c in report.classes.values())
    failed = counts["failed"] + counts["rejected"]
    return Outcome(
        ops=ops,
        attempted=counts["arrivals"],
        failed=failed,
        payload_bytes=payload,
        outputs={"counts": counts, "digests": report.digests()},
        extras={
            "sim_slo_miss_frac": (violations / max(1, counts["arrivals"]), "1"),
        },
        counters={
            "service.admitted": counts["admitted"],
            "service.queued": counts["enqueued"],
            "service.rejected": counts["rejected"],
            "service.barriers": counts["segments"],
            "faults.applied": counts["faults_applied"],
        },
        detail=report,
    )


def service_check(inputs: dict, outcome: Outcome, _seed: int) -> list:
    counts = outcome.detail.counts
    settled = counts["completed"] + counts["failed"] + counts["rejected"]
    return [
        ("service.conservation_ok", counts["conservation_ok"], ""),
        ("service.queue_bounded", counts["queue_bounded"], ""),
        ("service.inflight_bounded", counts["inflight_bounded"], ""),
        ("service.accounted", settled == counts["arrivals"],
         f"{settled} settled of {counts['arrivals']} arrivals"),
        ("service.completions_journaled", len(outcome.ops) == counts["completed"],
         f"{len(outcome.ops)} journaled vs {counts['completed']}"),
        ("service.faults_applied",
         counts["faults_applied"] == len(inputs["spec"].faults),
         f"{counts['faults_applied']}/{len(inputs['spec'].faults)}"),
        ("service.barriers", counts["segments"] == SERVICE_HOURS, ""),
        ("service.none_failed", outcome.failed == 0,
         f"{counts['failed']} failed, {counts['rejected']} rejected"),
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    inputs: Callable[[int], dict]
    simulate: Callable[[dict, Any], Outcome]
    check: Callable[[dict, Outcome, int], list]
    build: Callable[[dict], Any] = lambda _inputs: None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fig5",
            "few long single-client uploads: per-packet train math and the "
            "event kernel; namenode, reads, obs and service idle",
            fig5_inputs, fig5_simulate, fig5_check,
        ),
        Workload(
            "campaign",
            "1,000 small uploads: per-upload fixed cost (namenode RPCs, "
            "placement, pipeline setup), batched feeder and heap traffic",
            campaign_inputs, campaign_simulate, campaign_check,
        ),
        Workload(
            "readmix",
            "concurrent reads race a large write through shared datanode "
            "channels and serve queues, obs on",
            readmix_inputs, readmix_simulate, readmix_check, readmix_build,
        ),
        Workload(
            "service",
            "open-loop multi-tenant ingest with barriers, faults, namenode "
            "scans over a growing namespace and obs histograms",
            service_inputs, service_simulate, service_check, service_build,
        ),
    )
}
