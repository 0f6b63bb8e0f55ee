"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fig5 --seed 0 --seconds 20 --trace 0

Run from the root of a checkout.  The run imports ``repro`` from the
checkout's ``src``, generates the workload's inputs from ``--seed``, then
repeats the workload's simulation phase until ``--seconds`` have passed
and reports medians.  Every repetition's simulated outputs are checked
(``workloads.py``); at seed 0 their digest must also equal the one pinned
in ``expected.json``.

``--trace 0`` prints the end-to-end metrics.  It times the stdlib-only
reference loop (``reference.py``) before, between and after the
repetitions and reports host time in units of that loop as well as in
seconds.  ``--trace 1`` first times
one untraced repetition, then profiles the others with :mod:`cProfile`
and prints the per-layer table (``layers.py``).  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every check
passed.  All work happens in this one process and thread, apart from two
short child interpreters that time a cold ``import repro``.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fewest repetitions a run makes, however short ``--seconds`` is.
MIN_REPS = 2
#: Extra cold imports timed in child interpreters for ``setup_s``.
IMPORT_SAMPLES = 2
#: Input generations timed for ``setup_s``.
INPUT_SAMPLES = 3

IMPORTS = (
    "repro",
    "repro.experiments.figures",
    "repro.workloads",
    "repro.service",
    "repro.smarth",
    "repro.faults.invariants",
)
_IMPORT_SNIPPET = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); "
    + "; ".join(f"import {m}" for m in IMPORTS)
    + "; print(time.perf_counter() - t)"
)


def _import_repro() -> float:
    """Import ``repro`` from this checkout; the seconds it took."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no repro package under {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    for module in IMPORTS:
        __import__(module)
    took = time.perf_counter() - start
    origin = Path(sys.modules["repro"].__file__).resolve()
    if SRC not in origin.parents:
        raise SystemExit(f"error: repro imported from {origin}, not {SRC}")
    return took


def _cold_import() -> float:
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_SNIPPET, str(SRC)],
        check=True,
        capture_output=True,
        text=True,
        timeout=120,
    )
    return float(out.stdout.split()[-1])


def machine() -> dict:
    import numpy

    gil = getattr(sys, "_is_gil_enabled", lambda: True)()
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy.__version__,
        "gil": bool(gil),
        "machine": platform.machine(),
    }


def digest(outputs: dict) -> str:
    text = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class Capture:
    """Collects every Environment and Network built while installed, so a
    traced run can read kernel and channel counters of clusters that
    library drivers build and discard internally."""

    def __init__(self):
        from repro.net.transport import Network
        from repro.sim.environment import Environment

        self.classes = (Environment, Network)
        self.envs: list = []
        self.networks: list = []

    def __enter__(self):
        self._originals = [cls.__init__ for cls in self.classes]
        for cls, sink, original in zip(
            self.classes, (self.envs, self.networks), self._originals
        ):
            def init(obj, *args, _original=original, _sink=sink, **kwargs):
                _original(obj, *args, **kwargs)
                _sink.append(obj)

            cls.__init__ = init
        return self

    def __exit__(self, *_exc):
        for cls, original in zip(self.classes, self._originals):
            cls.__init__ = original

    def counters(self) -> dict:
        return {
            "sim.events": sum(env.events_processed for env in self.envs),
            "sim.heap_high_water": max(
                (env.heap_high_water for env in self.envs), default=0
            ),
            "sim.tombstones_skipped": sum(
                env.tombstones_skipped for env in self.envs
            ),
            "net.bytes": sum(n.stats.total_bytes() for n in self.networks),
            "net.requotes_applied": sum(
                n.requotes_applied for n in self.networks
            ),
            "net.requotes_skipped": sum(
                n.requotes_skipped for n in self.networks
            ),
        }


class Run:
    """One workload at one seed: set-up, repetitions, checks."""

    def __init__(self, workload, seed: int, import_s: float):
        self.workload = workload
        self.seed = seed
        self.import_samples = [import_s] + [
            _cold_import() for _ in range(IMPORT_SAMPLES)
        ]
        self.input_samples = []
        for _ in range(INPUT_SAMPLES):
            start = time.perf_counter()
            self.inputs = workload.inputs(seed)
            self.input_samples.append(time.perf_counter() - start)
        self.build_samples: list[float] = []
        self.walls: list[float] = []
        #: Reference-loop timings before, between and after repetitions.
        self.refs: list[float] = []
        self.outcomes: list = []
        self.digests: list[str] = []
        self.checks: list[tuple[str, bool, str]] = []

    @property
    def setup_s(self) -> float:
        builds = self.build_samples or [0.0]
        return (
            statistics.median(self.import_samples)
            + statistics.median(self.input_samples)
            + statistics.median(builds)
        )

    def repeat(self, profile: cProfile.Profile | None = None):
        """Build, then time one simulation phase; returns its outcome."""
        start = time.perf_counter()
        built = self.workload.build(self.inputs)
        self.build_samples.append(time.perf_counter() - start)
        gc.collect()
        if profile is not None:
            profile.enable()
        start = time.perf_counter()
        outcome = self.workload.simulate(self.inputs, built)
        wall = time.perf_counter() - start
        if profile is not None:
            profile.disable()
        self.walls.append(wall)
        self._verify(outcome)
        return outcome, wall

    def time_reference(self) -> None:
        from reference import reference_seconds

        gc.collect()
        self.refs.append(reference_seconds())

    def _verify(self, outcome) -> None:
        self.digests.append(digest(outcome.outputs))
        if not self.outcomes:
            self.checks = list(
                self.workload.check(self.inputs, outcome, self.seed)
            )
            if self.seed == 0:
                pinned = json.loads((HERE / "expected.json").read_text())
                self.checks.append(
                    (
                        "digest.pinned",
                        pinned.get(self.workload.name) == self.digests[0],
                        f"{self.digests[0]} vs {pinned.get(self.workload.name)}",
                    )
                )
        else:
            same = self.digests[-1] == self.digests[0]
            self.checks.append(
                (
                    "digest.repeatable",
                    same,
                    f"repetition {len(self.digests)}: {self.digests[-1]}",
                )
            )
        self.outcomes.append(outcome)

    @property
    def correct(self) -> bool:
        return all(ok for _name, ok, _detail in self.checks)


def end_to_end(run: Run) -> dict:
    """The bounded end-to-end metrics (``BENCHMARK.json``)."""
    from workloads import quantile

    first = run.outcomes[0]
    durations = [seconds for _kind, seconds in first.ops]
    # Each repetition in units of the reference loop timed either side of
    # it: host speed drifts on a scale of seconds, so only adjacent
    # timings see the same speed.
    wall_ref = statistics.median(
        wall / ((before + after) / 2)
        for wall, before, after in zip(run.walls, run.refs, run.refs[1:])
    )
    return {
        "sim_bytes_per_ref": (first.payload_bytes / wall_ref, "B/ref"),
        "wall_ref": (wall_ref, "ref"),
        "setup_s": (run.setup_s, "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB",
        ),
        "sim_op_p50_s": (quantile(durations, 0.50), "s"),
        "sim_op_p99_s": (quantile(durations, 0.99), "s"),
    }


def host_time(run: Run) -> dict:
    """Raw host-time metrics: printed, not bounded (see METRICS.md)."""
    return {
        "sim_bytes_per_s": (
            statistics.median(
                o.payload_bytes / w for o, w in zip(run.outcomes, run.walls)
            ),
            "B/s",
        ),
        "wall_s": (statistics.median(run.walls), "s"),
        "ref_s": (statistics.median(run.refs), "s"),
    }


def per_layer(run: Run, untraced_wall: float, table, captured: dict) -> dict:
    from layers import LAYERS

    reps = len(run.walls) - 1  # the first repetition ran untraced
    metrics: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        self_s = table.self_s[layer] / reps
        metrics[f"{layer}.self_s"] = (self_s, "s")
        metrics[f"{layer}.share"] = (
            table.self_s[layer] / table.total_s if table.total_s else 0.0,
            "frac",
        )
        metrics[f"{layer}.calls"] = (table.calls[layer] / reps, "count")
    attempts = table.count("hdfs/train.py", "plan_train", "plan_read_train")
    plans = table.count("hdfs/train.py", "start")
    metrics["train.plans"] = (plans / reps, "count")
    metrics["train.declines"] = ((attempts - plans) / reps, "count")
    metrics["train.hit_ratio"] = (plans / attempts if attempts else 0.0, "frac")
    events = captured["sim.events"] / reps
    metrics["sim.events"] = (events, "count")
    metrics["sim.us_per_event"] = (
        1e6 * untraced_wall / events if events else 0.0, "us"
    )
    metrics["sim.heap_high_water"] = (captured["sim.heap_high_water"], "count")
    metrics["sim.tombstones_skipped"] = (
        captured["sim.tombstones_skipped"] / reps, "count"
    )
    metrics["net.bytes"] = (captured["net.bytes"] / reps, "B")
    for name in ("net.requotes_applied", "net.requotes_skipped"):
        metrics[name] = (captured[name] / reps, "count")
    counters = run.outcomes[0].counters
    for name, unit in (
        ("datanode.serve_waits", "count"),
        ("datanode.serve_wait_p99_s", "s"),
        ("service.admitted", "count"),
        ("service.queued", "count"),
        ("service.rejected", "count"),
        ("service.barriers", "count"),
        ("faults.applied", "count"),
    ):
        metrics[name] = (float(counters.get(name, 0)), unit)
    traced = statistics.median(run.walls[1:])
    metrics["trace.overhead"] = (traced / untraced_wall, "x")
    metrics["trace.total_s"] = (table.total_s / reps, "s")
    return metrics


def _measure(run: Run, seconds: float, trace: bool):
    deadline = time.perf_counter() + seconds
    if not trace:
        run.time_reference()
        while len(run.walls) < MIN_REPS or time.perf_counter() < deadline:
            run.repeat()
            run.time_reference()
        return None
    from layers import LayerTable

    _outcome, untraced_wall = run.repeat()
    profile = cProfile.Profile()
    with Capture() as capture:
        while len(run.walls) < 2 or time.perf_counter() < deadline:
            run.repeat(profile)
    table = LayerTable(profile)
    gap = abs(sum(table.self_s.values()) - table.total_s)
    run.checks.append(
        (
            "trace.self_times_sum",
            gap <= 1e-6 * max(1.0, table.total_s),
            f"layers {sum(table.self_s.values())} vs total {table.total_s}",
        )
    )
    return per_layer(run, untraced_wall, table, capture.counters()), table


def _print_table(table, reps: int) -> None:
    from layers import LAYERS

    print(f"{'layer':10s} {'self_s':>10s} {'share':>7s} {'calls':>12s}")
    for layer in sorted(LAYERS, key=lambda name: -table.self_s[name]):
        print(
            f"{layer:10s} {table.self_s[layer] / reps:10.4f} "
            f"{table.self_s[layer] / table.total_s:7.1%} "
            f"{table.calls[layer] / reps:12.0f}"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_s = _import_repro()
    sys.path.insert(0, str(HERE))
    from layers import unmapped_modules
    from workloads import WORKLOADS

    unmapped = unmapped_modules()
    if unmapped:
        print(f"error: modules in no single layer: {unmapped}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    run = Run(workload, args.seed, import_s)
    print(json.dumps({"machine": machine()}, sort_keys=True))
    print(f"workload {workload.name} seed {args.seed}: {workload.why}")
    traced = _measure(run, args.seconds, bool(args.trace))

    first = run.outcomes[0]
    print(f"repetitions {len(run.walls)}, digest {run.digests[0]}")
    print("repetition walls_s " + " ".join(f"{w:.4f}" for w in run.walls))
    if run.refs:
        print("reference walls_s " + " ".join(f"{w:.4f}" for w in run.refs))
    for name, ok, detail in run.checks:
        if not ok:
            print(f"CHECK FAILED {name}: {detail}")
    if traced is None:
        metrics = end_to_end(run)
        failed_frac = first.failed / first.attempted
        shown = {
            **host_time(run),
            **metrics,
            **first.extras,
            "failed_frac": (failed_frac, "1"),
        }
    else:
        metrics, table = traced
        _print_table(table, len(run.walls) - 1)
        shown = metrics
    for name, (value, unit) in shown.items():
        print(f"{name} = {value:.6g} {unit}")

    print(
        json.dumps(
            {
                "correct": run.correct,
                "attempted": sum(o.attempted for o in run.outcomes),
                "failed": sum(o.failed for o in run.outcomes),
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            },
            sort_keys=True,
        )
    )
    return 0 if run.correct else 1


if __name__ == "__main__":
    sys.exit(main())
