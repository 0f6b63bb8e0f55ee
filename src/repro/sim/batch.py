"""Vectorized batch completion kernel: bit-exact numpy channel math.

When a cohort of same-window completions retires — a packet train
settling, a replay rebuilding its frozen prefix, a throttle change
re-quoting every in-flight flow — the per-unit bookkeeping is a loop of
*independent* comparisons, prefix lookups and elementwise ``min``/``max``
over floats.  This module lifts exactly those loops into flat numpy
passes, and nothing else: every helper here is restricted to operations
that are **bit-identical** to their scalar counterparts by IEEE-754
construction —

* pure comparisons and ``searchsorted`` (no arithmetic at all),
* elementwise ``minimum``/``maximum`` over the *same* float64 values the
  scalar loop would compare,
* verbatim slicing/copying of already-computed values.

Chained FIFO recurrences (``end[k] = max(issue[k], end[k-1]) + size/rate``)
are deliberately **not** vectorized: prefix-scan rewrites reassociate the
float additions and drift in the last ulp.  Those stay scalar; the batch
kernel's wins come from everything around them.

The hypothesis property suite (``tests/sim/test_batch.py``) drives every
helper against its scalar reference over random inputs and asserts
equality with ``==``, not ``approx``.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import TYPE_CHECKING, Sequence

import numpy as _np

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.node import Node

__all__ = ["buffered_high_water", "effective_rates"]

#: Below this many elements the numpy round-trip costs more than the
#: Python loop it replaces; helpers take the scalar branch.
_MIN_VECTOR = 8


def buffered_high_water(
    grants: Sequence[float],
    releases: Sequence[float],
    cap: int,
    rows: int,
    high: int,
) -> int:
    """Analytic §IV-C buffer high-water mark over a token timeline.

    For each of the first ``rows`` grants, the occupancy at grant ``k`` is
    ``k + 1`` minus the number of releases strictly before it (both lists
    nondecreasing), clamped to ``cap``; returns the running maximum seeded
    with ``high``.  One vectorized ``searchsorted`` replaces the per-grant
    ``bisect_left`` loop the scalar settle runs.
    """
    if rows <= 0:
        return high
    if rows >= _MIN_VECTOR:
        grant_arr = _np.asarray(grants[:rows], dtype=_np.float64)
        release_arr = _np.asarray(releases, dtype=_np.float64)
        freed = _np.searchsorted(release_arr, grant_arr, side="left")
        occupancy = _np.arange(1, rows + 1) - freed
        peak = int(_np.minimum(occupancy, cap).max())
        return peak if peak > high else high
    for k in range(rows):
        occ = k + 1 - bisect_left(releases, grants[k])
        if occ > cap:
            occ = cap
        if occ > high:
            high = occ
    return high


def _scalar_rates(table, pairs) -> list[float]:
    return [table.effective_rate(src, dst) for src, dst in pairs]


def effective_rates(table, pairs: "Sequence[tuple[Node, Node]]") -> list[float]:
    """Effective throttled rate for every (src, dst) pair, in one pass.

    Vectorizes :meth:`~repro.net.throttle.ThrottleTable.effective_rate`
    across a flow set: the base is the elementwise min of the endpoint
    NIC rates, and each rule contributes a boolean ``applies`` mask and a
    ``minimum`` against its cap.  The reductions compare exactly the same
    float64 values in the same min-tree shape as the scalar loop (min is
    associative-exact over identical operands), so the results are
    bit-identical.  Rule types outside the built-in three fall back to
    their scalar ``applies`` predicate, pairwise.
    """
    from ..net.throttle import NodeThrottle, PairThrottle, RackBoundaryThrottle

    if len(pairs) < _MIN_VECTOR:
        return _scalar_rates(table, pairs)

    src_names = _np.array([src.name for src, _dst in pairs])
    dst_names = _np.array([dst.name for _src, dst in pairs])
    rates = _np.minimum(
        _np.array([src.nic.rate for src, _dst in pairs], dtype=_np.float64),
        _np.array([dst.nic.rate for _src, dst in pairs], dtype=_np.float64),
    )
    src_racks = dst_racks = None
    for rule in table.rules:
        if isinstance(rule, NodeThrottle):
            mask = (src_names == rule.node_name) | (dst_names == rule.node_name)
        elif isinstance(rule, PairThrottle):
            mask = (src_names == rule.src_name) & (dst_names == rule.dst_name)
        elif isinstance(rule, RackBoundaryThrottle):
            if src_racks is None:
                src_racks = _np.array([src.rack for src, _dst in pairs])
                dst_racks = _np.array([dst.rack for _src, dst in pairs])
            mask = src_racks != dst_racks
        else:
            mask = _np.fromiter(
                (rule.applies(src, dst) for src, dst in pairs),
                dtype=bool,
                count=len(pairs),
            )
        if mask.any():
            rates[mask] = _np.minimum(rates[mask], rule.rate)
    return [float(rate) for rate in rates]
