"""Property tests: the vectorized batch kernel is bit-identical to scalar.

Every helper in :mod:`repro.sim.batch` claims exact equality with its
scalar reference — not closeness — because the batched completion path
feeds these values back into event timestamps that golden tests compare
byte-for-byte.  Hypothesis drives each helper against an independently
written scalar loop over random inputs straddling the ``_MIN_VECTOR``
branch point, and every assertion is ``==`` on floats, never ``approx``.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.throttle import (
    NodeThrottle,
    PairThrottle,
    RackBoundaryThrottle,
    ThrottleRule,
    ThrottleTable,
)
from repro.sim.batch import buffered_high_water, effective_rates

#: Sizes straddle the kernel's scalar/vector branch point (8).
finite = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e9, max_value=1e9
)
sorted_values = st.lists(finite, min_size=0, max_size=40).map(sorted)


def _scalar_high_water(grants, releases, cap, rows, high):
    from bisect import bisect_left

    for k in range(rows):
        occ = k + 1 - bisect_left(releases, grants[k])
        if occ > cap:
            occ = cap
        if occ > high:
            high = occ
    return high


@given(
    grants=st.lists(finite, min_size=0, max_size=40).map(sorted),
    releases=st.lists(finite, min_size=0, max_size=40).map(sorted),
    cap=st.integers(min_value=1, max_value=20),
    high=st.integers(min_value=0, max_value=20),
    data=st.data(),
)
def test_buffered_high_water_matches_scalar(grants, releases, cap, high, data):
    rows = data.draw(st.integers(min_value=0, max_value=len(grants)))
    assert buffered_high_water(grants, releases, cap, rows, high) == (
        _scalar_high_water(grants, releases, cap, rows, high)
    )


@given(values=sorted_values, cap=st.integers(min_value=1, max_value=20))
def test_counts_at_exact_element_boundaries(values, cap):
    """Ties are where strictly-before and at-or-before counts diverge:
    grant at exactly the release instants, so every grant is a tie."""
    rows = len(values)
    assert buffered_high_water(values, values, cap, rows, 0) == (
        _scalar_high_water(values, values, cap, rows, 0)
    )


# -- effective_rates ------------------------------------------------------


@dataclass
class _FakeNIC:
    rate: float


@dataclass
class _FakeNode:
    """The three attributes ``effective_rates`` reads off a node."""

    name: str
    rack: str
    nic: _FakeNIC


class _OddNodeThrottle(ThrottleRule):
    """A rule type the kernel does not special-case, to exercise the
    pairwise ``applies`` fallback mask."""

    def applies(self, src, dst):
        return (len(src.name) + len(dst.name)) % 2 == 1


node_pool = st.lists(
    st.builds(
        _FakeNode,
        name=st.sampled_from(["a", "b", "cc", "dd", "e", "f", "gg", "h"]),
        rack=st.sampled_from(["r0", "r1"]),
        nic=st.builds(
            _FakeNIC, rate=st.floats(min_value=1.0, max_value=1e9)
        ),
    ),
    min_size=1,
    max_size=8,
)

rate = st.floats(min_value=1.0, max_value=1e9)
rule = st.one_of(
    st.builds(
        NodeThrottle,
        node_name=st.sampled_from(["a", "b", "cc", "nobody"]),
        rate=rate,
    ),
    st.builds(
        PairThrottle,
        src_name=st.sampled_from(["a", "cc", "e"]),
        dst_name=st.sampled_from(["b", "dd", "f"]),
        rate=rate,
    ),
    st.builds(RackBoundaryThrottle, rate=rate),
    st.builds(_OddNodeThrottle, rate=rate),
)


@settings(max_examples=200)
@given(
    nodes=node_pool,
    rules=st.lists(rule, min_size=0, max_size=5),
    data=st.data(),
)
def test_effective_rates_matches_scalar(nodes, rules, data):
    n_pairs = data.draw(st.integers(min_value=0, max_value=20))
    pairs = [
        (
            nodes[data.draw(st.integers(0, len(nodes) - 1))],
            nodes[data.draw(st.integers(0, len(nodes) - 1))],
        )
        for _ in range(n_pairs)
    ]
    table = ThrottleTable(list(rules))
    batch = effective_rates(table, pairs)
    scalar = [table.effective_rate(src, dst) for src, dst in pairs]
    assert batch == scalar  # exact float equality, element by element
    assert all(isinstance(value, float) for value in batch)


def test_throttle_table_batch_method_delegates():
    """``ThrottleTable.effective_rates`` is the surface the network's
    re-quote pass calls; pin it to the kernel over the vector branch."""
    nodes = [
        _FakeNode(f"n{i}", f"r{i % 2}", _FakeNIC(100.0 + i)) for i in range(10)
    ]
    table = ThrottleTable([NodeThrottle("n3", 7.0), RackBoundaryThrottle(55.0)])
    pairs = [(nodes[i], nodes[(i + 3) % 10]) for i in range(10)]
    assert table.effective_rates(pairs) == [
        table.effective_rate(src, dst) for src, dst in pairs
    ]


@pytest.mark.parametrize("size", [7, 8, 9])
def test_vector_branch_point_is_seamless(size):
    """Straddle ``_MIN_VECTOR`` explicitly: 7 runs scalar, 8+ vectorized."""
    grants = [float(i) * 0.5 for i in range(size)]
    releases = [g + 1.0 for g in grants]
    for cap in (1, 2, 3, size):
        assert buffered_high_water(grants, releases, cap, size, 0) == (
            _scalar_high_water(grants, releases, cap, size, 0)
        )
