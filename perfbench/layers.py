"""Module -> layer map and the outside-in per-layer profile.

Every module under ``src/repro`` belongs to exactly one layer.  Layers
that are whole packages are matched by package prefix, so a new module
inside ``repro.sim`` is ``sim`` without further ado.  The namenode layer
and ``other`` are listed module by module: a new module in the flat
``repro.hdfs`` package or at the top of ``repro`` matches nothing, and
:func:`unmapped_modules` reports it instead of letting it land silently
in ``other``.

The profile is :mod:`cProfile` switched on around the simulation phase
only.  A Python function's self time belongs to the layer of the module
that defines it.  A C function (a builtin such as ``heapq.heappush``, a
generator's ``send``, a numpy ndarray method) has no module of its own,
so its self time is split over the layers of its callers, edge by edge.
Python-level stdlib and numpy code is ``other``.
"""

from __future__ import annotations

import cProfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: Layers that are whole packages, matched by prefix.
PACKAGE_LAYERS = {
    "repro.sim": "sim",
    "repro.net": "net",
    "repro.hdfs.train": "train",
    "repro.hdfs.client": "client",
    "repro.hdfs.datanode": "datanode",
    "repro.smarth": "smarth",
    "repro.policy": "policy",
    "repro.obs": "obs",
    "repro.service": "service",
    "repro.faults": "faults",
    "repro.cluster": "cluster",
}

#: The namenode layer: the namenode and the HDFS-wide state it owns.
NAMENODE_MODULES = frozenset(
    f"repro.hdfs.{name}"
    for name in (
        "namenode", "block_manager", "placement", "replication",
        "datanode_manager", "namespace", "deployment", "protocol",
        "balancer", "admin",
    )
)

#: Drivers, configuration and analysis: listed one by one.
OTHER_MODULES = frozenset(
    (
        "repro", "repro.__main__", "repro.cli", "repro.config",
        "repro.units", "repro.rng", "repro.pool", "repro.hdfs",
        "repro.mapred", "repro.mapred.job",
        "repro.analysis", "repro.analysis.cost_model",
        "repro.analysis.metrics", "repro.analysis.statistics",
        "repro.analysis.trace", "repro.analysis.validation",
        "repro.workloads", "repro.workloads.multi",
        "repro.workloads.scenarios", "repro.workloads.sharded",
        "repro.workloads.sweep", "repro.workloads.upload",
        "repro.experiments", "repro.experiments.figures",
        "repro.experiments.paper_data", "repro.experiments.report",
        "repro.experiments.runner",
    )
)

LAYERS = (
    "sim", "net", "train", "client", "datanode", "namenode", "smarth",
    "policy", "obs", "service", "faults", "cluster", "other",
)


def layer_of_module(module: str) -> str | None:
    """The layer of a ``repro`` module, or ``None`` when unmapped."""
    if module in NAMENODE_MODULES:
        return "namenode"
    if module in OTHER_MODULES:
        return "other"
    for prefix, layer in PACKAGE_LAYERS.items():
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return None


def source_modules(src: Path = SRC) -> list[str]:
    """Dotted names of every module under ``src/repro``."""
    names = []
    for path in sorted((src / "repro").rglob("*.py")):
        parts = path.relative_to(src).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        names.append(".".join(parts))
    return names


def unmapped_modules(src: Path = SRC) -> list[str]:
    """Modules that match no layer, or more than one."""
    bad = []
    for module in source_modules(src):
        prefixes = [
            p for p in PACKAGE_LAYERS
            if module == p or module.startswith(p + ".")
        ]
        listed = (module in NAMENODE_MODULES) + (module in OTHER_MODULES)
        if listed + bool(prefixes) != 1:
            bad.append(module)
    return bad


def _file_layer(filename: str, src: str) -> str | None:
    """Layer of a profiled code object's file; ``None`` for C functions."""
    if filename == "~":
        return None
    if filename.startswith(src):
        module = ".".join(
            Path(filename[len(src):].lstrip("/")).with_suffix("").parts
        )
        module = module.removesuffix(".__init__")
        layer = layer_of_module(module)
        if layer is None:
            raise LookupError(f"module {module} is in no layer")
        return layer
    return "other"


def _is_public(name: str) -> bool:
    return not name.startswith(("_", "<")) or (
        name.startswith("__") and name.endswith("__")
    )


class LayerTable:
    """Self time and cross-layer calls per layer, from one profile."""

    def __init__(self, profile: cProfile.Profile, src: Path = SRC):
        profile.create_stats()
        self.stats = profile.stats
        prefix = str(src)
        self._own = {
            func: _file_layer(func[0], prefix) for func in self.stats
        }
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.total_s = 0.0
        for func, (_cc, _nc, tt, _ct, callers) in self.stats.items():
            self.total_s += tt
            layer = self._own[func]
            if layer is not None:
                self.self_s[layer] += tt
            else:
                self._split_c_time(tt, callers)
            if layer is not None and _is_public(func[2]):
                for caller, edge in callers.items():
                    if self.layer_of(caller) != layer:
                        self.calls[layer] += edge[1]

    def _split_c_time(self, tt: float, callers: dict) -> None:
        charged = 0.0
        for caller, edge in callers.items():
            self.self_s[self.layer_of(caller)] += edge[2]
            charged += edge[2]
        # Time cProfile recorded without a caller edge (top-level calls).
        self.self_s["other"] += tt - charged

    def layer_of(self, func: tuple, _seen: frozenset = frozenset()) -> str:
        """A function's layer; a C function takes its main caller's."""
        layer = self._own.get(func)
        if layer is not None:
            return layer
        callers = self.stats[func][4] if func in self.stats else {}
        if not callers or func in _seen:
            return "other"
        main = max(callers, key=lambda c: (callers[c][1], c))
        return self.layer_of(main, _seen | {func})

    def count(self, filename_suffix: str, *names: str) -> int:
        """Calls to functions ``names`` defined in a file ending so."""
        return sum(
            nc
            for (filename, _line, name), (_cc, nc, *_rest) in self.stats.items()
            if name in names and filename.endswith(filename_suffix)
        )
