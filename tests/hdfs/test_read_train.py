"""Read trains against the per-chunk loop ``HdfsConfig.reference`` runs.

The differential oracle (``tests/oracle``) pins both to identical
history over read-shaped scenarios, including reads racing a writer
whose traffic the train's channel guards must chain like legacy chunks.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.units import MB
from tests.oracle import harness as oracle
from tests.oracle.harness import Scenario

BLOCK = 2 * MB


class TestEquivalenceFixed:
    def test_single_block(self):
        oracle.assert_matches_reference(oracle.READ_SINGLE_BLOCK)

    def test_ragged_tail(self):
        oracle.assert_matches_reference(oracle.READ_RAGGED_TAIL)

    def test_sub_packet_file(self):
        oracle.assert_matches_reference(oracle.READ_SUB_PACKET)

    def test_smarth_written_file(self):
        # SMARTH ingest warms the speed registry, so the ranked candidate
        # order differs from plain locality — both modes must follow it.
        oracle.assert_matches_reference(oracle.READ_SMARTH_WRITTEN)

    def test_mixed_read_write(self):
        oracle.assert_matches_reference(oracle.READ_MIXED)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    blocks=st.integers(min_value=1, max_value=4),
    tail=st.integers(min_value=0, max_value=BLOCK - 1),
    n_datanodes=st.integers(min_value=4, max_value=10),
)
def test_equivalence_property(seed, blocks, tail, n_datanodes):
    size = (blocks - 1) * BLOCK + (tail or BLOCK)
    oracle.assert_matches_reference(
        Scenario(size=size, seed=seed, n_datanodes=n_datanodes, readers=1)
    )


@settings(max_examples=6, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**16), system=st.sampled_from(["hdfs", "smarth"]))
def test_mixed_equivalence_property(seed, system):
    oracle.assert_matches_reference(
        Scenario(system, size=4 * MB, seed=seed, readers=1, mixed_writer=True)
    )


def test_train_mode_uses_fewer_events():
    """The point of the fast path: same history, far fewer heap events."""
    fast = oracle.observe(oracle.READ_RAGGED_TAIL, False)
    reference = oracle.observe(oracle.READ_RAGGED_TAIL, True)
    assert fast["read_trains"] > 0
    assert reference["read_events"] >= 1.5 * fast["read_events"]
